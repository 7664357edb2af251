"""The loader and major rebalances leave a strict split and exact views.

``preprocess`` must leave every engine strictly split with exact views
and the oracle's answer, across the exponent grid, on databases with
cancelled rows, self-loops and negative multiplicities.

Every engine replays skewed grow-then-shrink streams across the exponent
grid, from a handful of tuples up to several hundred, so the threshold
base doubles and halves many times. A major rebalance only queues the
moves of the keys whose status flips, so after every update that fires
one the loose bounds must hold and every view must equal a fresh rebuild
from the parts. Once the queue is empty (``finish_moves`` makes the
queued moves at once) the split must be strict for the new threshold
base and the views must still equal a fresh rebuild (they are kept up
move by move), and a major whose moves moved no tuple must have added no
iterations. Small streams matter: there a single create can lift a key
past the next threshold on the very update that triggers the doubling.
"""

import random

import pytest

from skewivm.cli import family_arities
from skewivm.enumeration import EnumTriangleEngine, preprocess_enum
from skewivm.loomis_whitney import LWEngine
from skewivm.oracle import (brute_force_enumerate, brute_force_lw, brute_force_path4,
                            brute_force_selfjoin, brute_force_triangle)
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

from helpers import (enum_views, fresh_views, grow_shrink_stream, path4_named, path4_views,
                     views)

EPS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _triangle_oracle(db):
    return brute_force_triangle(db["R"], db["S"], db["T"])


def _path4_oracle(db):
    return brute_force_path4({t[0]: m for t, m in db["R"].items()}, db["S"], db["T"],
                             {t[0]: m for t, m in db["U"].items()})


# name -> (query family, engine for an exponent, attributes rebuild_views sets,
#          loader taking (database, exponent), oracle answer of a database)
ENGINES = {
    "triangle": ("triangle", TriangleEngine, ("views",),
                 TriangleEngine.preprocess, _triangle_oracle),
    "selfjoin": ("triangle-selfjoin", SelfJoinEngine, ("views",),
                 lambda db, eps: SelfJoinEngine.preprocess(db["R"], eps),
                 lambda db: brute_force_selfjoin(db["R"])),
    "refined": ("triangle", RefinedTriangleEngine, ("views",),
                RefinedTriangleEngine.preprocess, _triangle_oracle),
    "enum": ("triangle", EnumTriangleEngine, ("views", "live", "entries"),
             preprocess_enum, lambda db: brute_force_enumerate(db["R"], db["S"], db["T"])),
    "path4": ("path4", Path4Engine, ("views", "entries"),
              Path4Engine.preprocess, _path4_oracle),
    "lw:4": ("lw:4", lambda eps: LWEngine(4, eps), ("views",),
             lambda db, eps: LWEngine.preprocess(db, 4, eps),
             lambda db: brute_force_lw(list(db.values()), 4)),
}


def reference(name, eng, names) -> dict:
    """What the views ``names`` must equal: a fresh rebuild from the parts.

    The enumeration and path4 engines' views are built by the same
    generated walks as their upkeep, so they are built instead without
    them, by ``helpers.enum_views`` and ``helpers.path4_views``.
    """
    if name == "enum":
        return enum_views(eng)
    return path4_views(eng) if name == "path4" else fresh_views(eng, names)


def state(name, eng, names) -> dict:
    """The views ``names`` as the engine keeps them; path4's named as ``path4_views`` names them."""
    return path4_named(eng) if name == "path4" else views(eng, names)


# (seed, length, width of the non-hot values)
STREAMS = ((1, 12, 3), (2, 40, 4), (3, 150, 8), (4, 600, 30))


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_majors_leave_strict_parts_and_exact_views(name, eps):
    family, make, names, _, _ = ENGINES[name]
    arities = family_arities(family)
    majors = []
    for seed, length, wide in STREAMS:
        eng = make(eps)
        inner = eng.major_rebalance

        def major(*args):
            majors.append(eng.counters.snapshot())
            inner(*args)

        eng.major_rebalance = major
        for step, (rel, t, m) in enumerate(grow_shrink_stream(seed, length, arities, wide)):
            seen = len(majors)
            eng.on_update(rel, t, m)
            if len(majors) == seen:
                continue
            where = (seed, step, eng.N)
            assert eng.check_invariants() == [], where
            assert state(name, eng, names) == reference(name, eng, names), where
            eng.finish_moves()
            assert eng.check_invariants(loose=False) == [], where
            assert state(name, eng, names) == reference(name, eng, names), where
            before, after = majors[-1], eng.counters.snapshot()
            majors[-1] = (before, after)
            if after["moves"] == before["moves"]:
                assert after["iterations"] == before["iterations"], where
    assert majors
    if eps == 0.25:
        # both branches ran: majors that moved tuples (doublings promote
        # keys at 2 ** 0.25 times the old threshold, below the 1.5 times
        # at which a minor rebalance would have) and majors that did not
        moved = [after["moves"] > before["moves"] for before, after in majors]
        assert any(moved) and not all(moved)


def _database(rng, arities, rows):
    """Random rows per relation, skewed toward one hot value.

    Every value is the hot value 0 with probability 0.4, so 0 is a heavy
    key on every variable at the balanced exponent once there are enough
    rows. Deltas accumulate, so some rows turn negative, and every tenth
    row cancels to an explicit zero, which the loader must drop; a fifth
    of the tuples are self-loops of their leading value.
    """
    def value():
        return 0 if rng.random() < 0.4 else rng.randrange(1, 500)

    db = {}
    for rel, arity in arities.items():
        table = {}
        for _ in range(rows):
            lead = value()
            if rng.random() < 0.2:
                t = (lead,) * arity
            else:
                t = (lead,) + tuple(value() for _ in range(arity - 1))
            table[t] = table.get(t, 0) + rng.choice((-2, -1, 1, 1, 2))
        for t in list(table)[::10]:
            table[t] = 0
        db[rel] = table
    return db


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_preprocess_leaves_strict_parts_exact_views_and_the_answer(name, eps):
    family, _, names, load, oracle = ENGINES[name]
    arities = family_arities(family)
    rng = random.Random(f"{name}:{eps}")
    for rows in (0, 3, 12, 40, 200):
        db = _database(rng, arities, rows)
        given = {rel: dict(table) for rel, table in db.items()}
        eng = load(db, eps)
        where = (rows, eng.N)
        assert db == given, where  # the loader reads the caller's rows only
        assert eng.check_invariants(loose=False) == [], where
        assert state(name, eng, names) == reference(name, eng, names), where
        nonzero = {rel: {t: m for t, m in table.items() if m} for rel, table in db.items()}
        assert eng.db_size == sum(map(len, nonzero.values())), where
        if name == "enum":
            assert eng.result_multiset() == oracle(nonzero), where
        else:
            assert eng.answer() == oracle(nonzero), where
