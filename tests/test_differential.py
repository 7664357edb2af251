"""Every engine against the oracle after every update, at the rebalancing edges.

Each engine of ``test_major_rebalance.ENGINES`` replays ``swing_stream``
streams across the exponent grid (the triangle engine also at a few
per-relation exponent triples), from empty and from a preprocessed
start; the path4 engine also replays one stream whose hot waves on S and
T overlap, which at exponent 1/4 fills the two-sided join views and adds
entries to columns that already hold one. The streams mix
multiplicity-only changes, cancellations to zero, negative multiplicities
and loops with hot keys whose degrees swing past one and a half times the
threshold and back below half of it, on both variables of a quad
partition. After every update the loose bounds and
the size invariant must hold (``check_invariants() == []``), the size
the kernel keeps must equal the number of stored tuples of the oracle
database, and the answer must equal the oracle's: the first-order tracker
of the query family, or for enumeration the brute-force result. At
exponent 1/2 the enumeration engine's maintained views must also equal a
fresh build from its parts, with no empty middle-value map and an entry
count equal to a recount, and so must the path4 engine's, with no empty
inner map in a join view, the two maps of a two-sided join view exact
transposes of each other and each view's entry count equal to a recount.

A rebalance only queues its keys, and each later update makes at most
``B`` of the queued tuple moves, so a key in transit may have tuples in
both parts for many updates. Between the stream's updates the replay
interleaves updates aimed at the keys in transit (``_aimed``): creates,
negative and positive multiplicity-only changes and cancellations to zero
on a key's tuples, updates of a quad tuple whose keys are both in
transit, and creates of fresh tuples that trigger a doubling while moves
are still queued. Every update may add at most ``B`` to
``counters.moves``, except one whose major finished a leftover queue
(counted by the kernel's ``flushes``).

The kernel checks only the bound an update can cross, and nothing after
an update that changed only a multiplicity; a key that crossed a bound
unchecked shows here as a loose-bound violation.
"""

import math
import random
from itertools import count

import pytest

from skewivm import cli
from skewivm.cli import Update, family_arities
from skewivm.kernel import B
from skewivm.oracle import brute_force_enumerate
from skewivm.relation import HEAVY, QuadPartition
from skewivm.triangle import EpsConfig

from helpers import fresh_views, path4_views_exact, swing_stream, views
from test_major_rebalance import ENGINES, EPS_GRID

# (seed, length, width of the other values, updates preprocessed first)
STREAMS = ((1, 540, 12, 0), (2, 540, 40, 120), (3, 720, 6, 0), (4, 720, 20, 300))
# one more path4 stream whose hot waves on S and T overlap: two hot A values
# of S and a hot C value of T at once fill the two-sided join views
PATH4_OVERLAP = ((6, 720, 8, 0), [("S", 0, 0), ("S", 0, 2), ("T", 1, 1)])

KINDS = ("create", "down", "up", "cancel")


def _record_minors(eng, seen):
    """Record (variable, promote?) of every minor rebalance ``eng`` queues."""
    inner = eng.minor_rebalance

    def minor(i, key):
        seen.add((key[0], eng.parts[i].moving[key] == HEAVY))
        return inner(i, key)

    eng.minor_rebalance = minor


def _database(updates, arities):
    db = {name: {} for name in arities}
    for rel, t, m in updates:
        rows = db[rel]
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
    return db


def _enum_views_exact(eng, names, where):
    """The enumeration engine's views equal a fresh build and hold no dead pair.

    ``names`` includes the entry count, so the fresh build does not
    overwrite the maintained count before it is compared.
    """
    assert views(eng, names) == fresh_views(eng, names), where
    middles = [ys for fam in eng.tri for ys in fam.values()]
    assert all(middles), where
    assert eng.tri_size == sum(map(len, middles)), where


def _stored(part, var, key):
    """The stored ``(tuple, multiplicity)`` pairs of ``part`` carrying ``key`` on ``var``."""
    return [item for rel in part.parts.values()
            for item in rel.indexes[(var,)].get(key, {}).items()]


def _change(rng, t, m, kind):
    """An update of the stored ``t`` (multiplicity ``m``) of the given kind."""
    if kind == "cancel":
        return -m
    deltas = (1, 2) if kind == "up" else (-1, -2)
    return rng.choice([d for d in deltas if d != -m])


def _aimed(eng, names, arities, rng, fresh, seen):
    """An update aimed at a key in transit, or ``None`` when none is worth one.

    While moves are queued and a few creates would double ``N``, fresh
    tuples trigger that doubling. Otherwise, with probability one half, a key
    in transit gets an update of a kind drawn from ``KINDS`` (a quad
    tuple whose two keys are both in transit comes first); ``seen``
    collects the kinds sent.
    """
    if eng.pending_moves() and eng.N - eng.db_size <= 4:
        rel = names[rng.randrange(len(names))]
        return Update(rel, tuple(next(fresh) for _ in range(arities[rel])), 1)
    if rng.random() < 0.5:
        return None
    for i, part in enumerate(eng.parts):
        if part is None or not part.moving:
            continue
        rel = names[i]
        keys = list(part.moving)
        firsts = [k for v, k in keys if v == 0]
        seconds = [k for v, k in keys if v == 1]
        if firsts and seconds:
            t = (rng.choice(firsts), rng.choice(seconds))
            m = eng.lookup(rel, t)
            kind = "create" if not m else KINDS[1 + rng.randrange(3)]
            seen.add(("both", kind))
            return Update(rel, t, 1 if not m else _change(rng, t, m, kind))
        var, key = rng.choice(keys)
        kind = rng.choice(KINDS)
        stored = _stored(part, var, key)
        if kind == "create" or not stored:
            t = tuple(key if p == var else next(fresh) for p in range(arities[rel]))
            seen.add("create")
            return Update(rel, t, rng.choice((1, 2, -1)))
        t, m = rng.choice(stored)
        seen.add(kind)
        return Update(rel, t, _change(rng, t, m, kind))
    return None


# per-relation exponents of the triangle engine: its light walk next to a
# neighbor pinned heavy (0) or light (1), and minors on relations whose
# thresholds differ
MIXED_EPS = {"0,0,1": EpsConfig(0.0, 0.0, 1.0), "1,0,0.5": EpsConfig(1.0, 0.0, 0.5),
             "0.75,0,0.25": EpsConfig(0.75, 0.0, 0.25)}


@pytest.mark.parametrize(
    "name, eps",
    [(name, eps) for name in sorted(ENGINES) for eps in EPS_GRID]
    + [pytest.param("triangle", cfg, id=f"triangle-{label}") for label, cfg in MIXED_EPS.items()])
def test_every_update_keeps_the_bounds_and_the_oracle_answer(name, eps):
    family, make, view_names, load, _ = ENGINES[name]
    arities = family_arities(family)
    names = list(arities)
    minors: set = set()
    aimed: set = set()
    unchanged = updates = flushes = queued = 0
    runs = [(spec, None) for spec in STREAMS] + ([PATH4_OVERLAP] if name == "path4" else [])
    for (seed, length, wide, preload), hot in runs:
        stream = swing_stream(seed, length, arities, wide, hot=hot)
        db = _database(stream[:preload], arities)
        eng = load(db, eps) if preload else make(eps)
        _record_minors(eng, minors)
        tracker = cli.build_tracker(family)
        for upd in stream[:preload]:
            cli._tracker_update(tracker, upd)
        rng = random.Random(seed)
        fresh = count(10 ** 6)
        pending = iter(stream[preload:])
        step = preload
        while True:
            upd = _aimed(eng, names, arities, rng, fresh, aimed)
            if upd is None:
                upd = next(pending, None)
                if upd is None:
                    break
            rel, t, m = upd
            size, moves, flushed = eng.db_size, eng.counters.moves, eng.flushes
            queued += eng.pending_moves() > 0
            eng.on_update(rel, t, m)
            updates += 1
            unchanged += eng.db_size == size
            where = (seed, step, eng.N, rel, t, m)
            step += 1
            assert eng.check_invariants() == [], where
            if eng.flushes > flushed:
                flushes += 1
            else:
                assert eng.counters.moves - moves <= B, where
            v = db[rel].get(t, 0) + m
            if v:
                db[rel][t] = v
            else:
                del db[rel][t]
            assert eng.db_size == sum(map(len, db.values())), where
            if name == "enum":
                assert eng.result_multiset() == brute_force_enumerate(
                    db["R"], db["S"], db["T"]), where
                if eps == 0.5:
                    _enum_views_exact(eng, view_names, where)
            else:
                cli._tracker_update(tracker, upd)
                assert eng.answer() == tracker.count, where
                # at 1/4 the two-sided S-T join views fill: entries are
                # created in columns that already hold others
                if name == "path4" and eps in (0.25, 0.5):
                    path4_views_exact(eng, where)
        eng.finish_moves()
        assert eng.check_invariants() == []
    # a third of the updates or more leave the size alone: the early return
    assert unchanged * 3 >= updates
    if eps in (0.25, 0.5):
        # moves stayed queued across updates, and every kind of update
        # reached a key in transit
        assert queued and set(KINDS) <= aimed, aimed
    if eps == 0.5:
        # both bounds are crossed, on both variables of a quad partition
        quad = name in ("refined", "path4")
        want = {(var, up) for var in ((0, 1) if quad else (0,)) for up in (True, False)}
        assert want <= minors, minors


class _Checked:
    """An engine of ``ENGINES`` at exponent 1/2, checked after every update.

    Each update must keep ``check_invariants()`` empty, add at most ``B``
    to ``counters.moves`` unless a major finished a leftover queue, and
    leave the oracle's answer.
    """

    def __init__(self, name):
        family, make, _, _, _ = ENGINES[name]
        self.name = name
        self.eng = make(0.5)
        self.db = {rel: {} for rel in family_arities(family)}
        self.tracker = cli.build_tracker(family)
        self.fresh = count(10 ** 6)

    def __call__(self, rel, t, m):
        eng = self.eng
        moves, flushed = eng.counters.moves, eng.flushes
        eng.on_update(rel, t, m)
        assert eng.check_invariants() == [], (rel, t, m)
        if eng.flushes == flushed:
            assert eng.counters.moves - moves <= B, (rel, t, m)
        rows = self.db[rel]
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
        if self.name == "enum":
            db = self.db
            assert eng.result_multiset() == brute_force_enumerate(db["R"], db["S"], db["T"])
        else:
            cli._tracker_update(self.tracker, Update(rel, t, m))
            assert eng.answer() == self.tracker.count, (rel, t, m)


def _kinds(run, rel, t, moving):
    """Up, down, cancel and create again the stored tuple ``t``.

    Before each update every key of ``moving`` must still be in transit.
    """
    part = run.eng.parts[run.eng.rel_index(rel)]
    for delta in (lambda m: 2 if m != -2 else 1, lambda m: -1 if m != 1 else -2,
                  lambda m: -m, lambda m: 1):
        assert moving <= set(part.moving)
        run(rel, t, delta(run.db[rel].get(t, 0)))


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_keys_in_transit_take_every_kind_of_update(name):
    """Updates to keys whose moves are queued, then a doubling that finds them queued.

    At threshold base 64 (threshold 8, light cap 12) the first partitioned
    relation is filled with fresh tuples to a few creates short of the
    next doubling, counting the hot tuples that follow. One-variable partitions: two
    hot keys climb together until both are queued; before the second has
    started moving, one of its tuples changes up, down, cancels and comes
    back, and a new tuple with a negative multiplicity joins it on the
    side it is bound for. Quad partitions: two keys, one per variable,
    reach the light cap on the same update, the shared tuple ``(1, 2)``,
    which then takes every kind of update with both keys in transit. Then
    fresh tuples double ``N`` while moves are queued, which the major must
    finish first; the split is strict once ``finish_moves`` has made the
    restrict's own moves.
    """
    run = _Checked(name)
    eng = run.eng
    i = next(i for i, part in enumerate(eng.parts) if part is not None)
    rel, part, arity = eng.names[i], eng.parts[i], eng.arities[i]
    fresh = run.fresh
    while eng.N < 64:
        run(rel, tuple(next(fresh) for _ in range(arity)), 1)
    cap = math.ceil(1.5 * eng._theta(i))
    # the hot tuples, one more create, then three fresh creates reach N
    while eng.db_size < eng.N - 2 * cap - 4:
        run(rel, tuple(next(fresh) for _ in range(arity)), 1)
    if isinstance(part, QuadPartition):
        for k in range(cap - 1):
            run(rel, (1, 100 + k), 1)
            run(rel, (200 + k, 2), 1)
        run(rel, (1, 2), 1)
        _kinds(run, rel, (1, 2), {(0, 1), (1, 2)})
        run(rel, (1, 300), -1)
        assert part.moving
    else:
        b = count(1)
        while (0, 8) not in part.moving:
            for key in (7, 8):
                run(rel, (key,) + (next(b),) * (arity - 1), 1)
        assert list(part.moving) == [(0, 7), (0, 8)]
        stored = next(t for t in run.db[rel] if t[0] == 8)
        _kinds(run, rel, stored, {(0, 8)})
        run(rel, (8,) + (next(b),) * (arity - 1), -1)
        assert (0, 8) in part.moving and part.light.get(stored) == 0 and part.heavy.get(stored)
    flushes = eng.flushes
    while eng.flushes == flushes:
        assert eng.pending_moves() and eng.N == 64
        run(rel, tuple(next(fresh) for _ in range(arity)), 1)
    eng.finish_moves()
    assert eng.check_invariants(loose=False) == []
