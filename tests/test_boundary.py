"""Malformed updates are refused at ``on_update`` before any state changes.

Every engine raises ``SchemaError`` for an unknown relation name, a tuple
of the wrong arity or with an unhashable value, and a multiplicity that is
zero or not a true ``int``, and leaves its answer, counters, size and
invariant report as they were, and the work it has pending: queued moves
right after a minor rebalance, and keys left to sweep after a halving.
An update whose tuple is a tuple subclass (a namedtuple) is taken as the
plain tuple. ``lookup`` refuses the same relations and tuples.
The preprocess loaders apply the same rules to every row of the database
before they build anything, and refuse a database that is not a mapping
or a list of relations, or rows that are not a dict. Every engine takes
one exponent or one per relation, and refuses a tuple of any other length
with ``ValueError`` when it is built or loaded.
"""

from collections import namedtuple

import pytest

from skewivm.cli import family_arities
from skewivm.enumeration import EnumTriangleEngine, preprocess_enum
from skewivm.loomis_whitney import LWEngine
from skewivm.metrics import OpCounters
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.relation import SchemaError
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

from helpers import grow_shrink_stream, lw_stream, mixed_stream, path4_stream, swing_stream

BAD_MULTS = (0, 1.0, 0.5, -1.0, True)

# not a tuple, or an empty one, for any relation
NOT_TUPLES = (5, None, [1, 2], (), "ab")

# name -> (empty engine, warm-up stream, a well-formed (rel, tuple), bad updates)
ENGINES = {
    "triangle": (lambda: TriangleEngine(0.5), mixed_stream(1, 200, 6), ("R", (1, 2)),
                 [("U", (1, 2), 1), (3, (1, 2), 1), ("R", (1, 2, 3), 1), ("S", (1,), 1)]),
    "selfjoin": (lambda: SelfJoinEngine(0.5), mixed_stream(2, 200, 6, rels=("R",)),
                 ("R", (1, 1)),
                 [("S", (1, 2), 1), ("T", (1, 2), 1), ("R", (1, 2, 3), 1), ("R", (1,), 1)]),
    "refined": (lambda: RefinedTriangleEngine(0.5), mixed_stream(3, 200, 6), ("T", (1, 2)),
                [("X", (1, 2), 1), ("R", (1, 2, 3), 1), ("T", (1,), 1)]),
    "enum": (lambda: EnumTriangleEngine(0.5), mixed_stream(4, 200, 6), ("S", (1, 2)),
             [("X", (1, 2), 1), ("R", (1, 2, 3), 1), ("T", (), 1)]),
    "path4": (lambda: Path4Engine(0.5), path4_stream(5, 200, 6), ("U", (1,)),
              [("X", (1,), 1), ("R", (1, 2), 1), ("U", (), 1), ("S", (1,), 1),
               ("T", (1, 2, 3), 1)]),
    "lw:4": (lambda: LWEngine(4, 0.5), lw_stream(6, 200, 4, 4), ("R2", (1, 2, 3)),
             [("R0", (1, 2, 3), 1), ("R5", (1, 2, 3), 1), (-1, (1, 2, 3), 1),
              ("R1", (1, 2), 1), (0, (1, 2, 3, 4), 1)]),
}


def _state(eng):
    return eng.answer(), eng.counters.snapshot(), eng.db_size, eng.check_invariants()


def _unhashable(rel, t):
    """Updates of ``t`` with each value in turn replaced by a list, a set and a dict."""
    return [(rel, t[:p] + (v,) + t[p + 1:], 1)
            for p in range(len(t)) for v in ([t[p]], {t[p]}, {t[p]: 1})]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_malformed_updates_raise_and_change_nothing(name):
    make, warmup, (rel, t), bad = ENGINES[name]
    eng = make()
    for u in warmup:
        eng.on_update(*u)
    before = _state(eng)
    bad_tuples = bad + [(rel, u, 1) for u in NOT_TUPLES] + _unhashable(rel, t)
    for update in bad_tuples + [(rel, t, m) for m in BAD_MULTS]:
        with pytest.raises(SchemaError):
            eng.on_update(*update)
        assert _state(eng) == before, update
    for bad_rel, u, _ in bad_tuples:
        with pytest.raises(SchemaError):
            eng.lookup(bad_rel, u)
    assert _state(eng) == before
    eng.on_update(rel, t, 1)
    eng.on_update(rel, t, -1)
    assert eng.answer() == before[0]


# A relation is named by its name or, for every engine, by its position as
# an exact int; other keys that hash like a position are refused.
ALIASES = (True, False, 1.0, 0.0)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_relation_keys_that_only_hash_like_a_position_are_refused(name):
    make, warmup, (rel, t), _ = ENGINES[name]
    eng = make()
    for u in warmup:
        eng.on_update(*u)
    before = _state(eng)
    for alias in ALIASES:
        with pytest.raises(SchemaError):
            eng.on_update(alias, t, 1)
        with pytest.raises(SchemaError):
            eng.lookup(alias, t)
        with pytest.raises(SchemaError):
            eng.rel_index(alias)
        assert _state(eng) == before, alias
    i = eng.rel_index(rel)
    assert eng.rel_index(i) == i
    eng.on_update(i, t, 1)
    assert eng.lookup(rel, t) == eng.lookup(i, t)


def _triangle_db(**overrides):
    db = {"R": {(1, 2): 1, (1, 3): 0}, "S": {(2, 3): 2}, "T": {(3, 1): 1}}
    db.update(overrides)
    return db


# Containers the loaders refuse whatever the engine: rows that are not a
# dict (pairs, bare tuples, a number) and databases that are neither a
# mapping nor a list of relations.
BAD_CONTAINERS = ({"R": [(([1], 2), 1)]}, {"R": [(1, 2, 3)]}, {"R": 5}, {"R": "ab"},
                  {"R": {(1, 2): 1}.items()}, None, 5, "R", {("R", (1, 2))})

# rows of the one relation of the self-join loader, which takes the rows only
BAD_EDGE_ROWS = ([((1, 2), 1)], [(1, 2, 3)], 5, "ab", {(1, 2)})

# name -> (loader taking (db, counters), a well-formed database, malformed ones)
LOADERS = {
    "triangle": (lambda db, c: TriangleEngine.preprocess(db, 0.5, c), _triangle_db(),
                 [{"R": {(1, 2): 0.5, (2, 3): True}}, {"X": {(1, 2): 1}},
                  _triangle_db(S={(2, 3, 4): 1}), _triangle_db(T={(3, 1): 1.0}),
                  _triangle_db(R={(1,): 1}), {True: {(1, 2): 1}}, {"R": {5: 1}},
                  *BAD_CONTAINERS]),
    "selfjoin": (lambda db, c: SelfJoinEngine.preprocess(db, 0.5, c), {(1, 2): 1, (2, 2): 0},
                 [{(1, 2): 0.5}, {(1, 2): True}, {(1, 2, 3): 1}, {(1, 2): 1, (3,): 1},
                  *BAD_EDGE_ROWS]),
    "refined": (lambda db, c: RefinedTriangleEngine.preprocess(db, 0.5, c), _triangle_db(),
                [_triangle_db(R={(1, 2): 2.0}), {"X": {(1, 2): 1}}, _triangle_db(S={(2,): 1}),
                 *BAD_CONTAINERS]),
    "enum": (lambda db, c: preprocess_enum(db, 0.5, c), _triangle_db(),
             [_triangle_db(T={(3, 1): False}), {"U": {}}, _triangle_db(R={(1, 2, 3): 1}),
              *BAD_CONTAINERS]),
    "path4": (lambda db, c: Path4Engine.preprocess(db, 0.5, c),
              {"R": {(1,): 1}, "S": {(1, 2): 1}, "T": {(2, 3): -1}, "U": {(3,): 0}},
              [{"R": {(1,): 0.5}}, {"X": {(1,): 1}}, {"R": {(1, 2): 1}},
               {"S": {(1,): 1}}, {"U": {(3,): True}}, *BAD_CONTAINERS]),
    "lw:4": (lambda db, c: LWEngine.preprocess(db, 4, 0.5, c),
             [{(1, 2, 3): 1}, {(2, 3, 1): 1}, {}, {(3, 1, 2): 0}],
             [{"R0": {(1, 2, 3): 1}}, {"R5": {}}, [{(1, 2, 3): 1.5}, {}, {}, {}],
              [{(1, 2): 1}, {}, {}, {}], [{}, {}, {}], {"R1": {}, 0: {}},
              {-1: {(1, 2, 3): 1}}, [[((1, 2, 3), 1)], {}, {}, {}], {"R1": 5}, None]),
}


def test_empty_rows_may_be_none_or_absent():
    full = TriangleEngine.preprocess(_triangle_db(), 0.5)
    for db in ({"R": {(1, 2): 1}, 1: {(2, 3): 2}, "T": {(3, 1): 1}},
               [{(1, 2): 1}, {(2, 3): 2}, {(3, 1): 1}],
               ({(1, 2): 1}, {(2, 3): 2}, {(3, 1): 1})):
        assert TriangleEngine.preprocess(db, 0.5).answer() == full.answer() == 2
    assert TriangleEngine.preprocess({"R": None, "S": {(2, 3): 1}}, 0.5).db_size == 1
    assert SelfJoinEngine.preprocess(None, 0.5).db_size == 0


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_refuse_malformed_rows_before_building(name):
    load, good, bad = LOADERS[name]
    eng = load(good, None)
    assert not eng.check_invariants()
    for db in bad:
        counters = OpCounters()
        with pytest.raises(SchemaError):
            load(db, counters)
        assert counters.snapshot() == OpCounters().snapshot(), db


# name -> (engine built, or loaded empty, for an exponent; its number of relations)
EXPONENT_ENGINES = {
    "triangle": (TriangleEngine, 3),
    "selfjoin": (SelfJoinEngine, 1),
    "refined": (RefinedTriangleEngine, 3),
    "enum": (EnumTriangleEngine, 3),
    "path4": (Path4Engine, 4),
    "lw:4": (lambda eps: LWEngine(4, eps), 4),
    "refined preprocessed": (lambda eps: RefinedTriangleEngine.preprocess({}, eps), 3),
    "path4 preprocessed": (lambda eps: Path4Engine.preprocess({}, eps), 4),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_ENGINES))
def test_every_engine_takes_exactly_one_exponent_per_relation(name):
    make, n = EXPONENT_ENGINES[name]
    for wrong in ((0.5,) * (n - 1), (0.5,) * (n + 1)):
        with pytest.raises(ValueError, match="takes one eps per relation"):
            make(wrong)
    eps = (0.0, 1.0, 0.25, 0.75)[:n]
    eng = make(eps)
    assert eng.eps == eps
    for u in ENGINES[name.split()[0]][1]:
        eng.on_update(*u)
    assert not eng.check_invariants()


def test_triangle_engine_takes_one_exponent_per_relation():
    eng = TriangleEngine((0.0, 0.5, 1.0))
    assert eng.eps == (0.0, 0.5, 1.0)
    for rel, t, m in mixed_stream(5, 300, 6):
        eng.on_update(rel, t, m)
    assert not eng.check_invariants()
    assert TriangleEngine.preprocess({"R": {(1, 2): 1}}, (0.5, 0.0, 1.0)).eps == \
        (0.5, 0.0, 1.0)


def _pending(eng):
    """The work left for later updates: queued moves and keys a halving left unread."""
    return (eng.pending_moves(), eng.counters.moves, eng.counters.checks,
            [part and [list(keys) for keys in part.unswept] for part in eng.parts])


def _replay_until(eng, stream, done):
    """Replay ``stream`` until ``done(eng)`` holds after an update; whether it did."""
    for u in stream:
        eng.on_update(*u)
        if done(eng):
            return True
    return False


def _minor(eng):
    return eng.pending_moves() > 0


def _halved(eng):
    return any(part and any(part.unswept) for part in eng.parts)


# name -> (a stream that puts keys in transit by minor rebalances, one
# that grows and then shrinks the database through a halving)
WORK = {name: (swing_stream(5, 2000, family_arities(family), 5),
               grow_shrink_stream(6, 1500, family_arities(family), 40))
        for name, family in (("triangle", "triangle"), ("refined", "triangle"),
                             ("path4", "path4"), ("lw:4", "lw:4"))}


@pytest.mark.parametrize("moment", (_minor, _halved))
@pytest.mark.parametrize("name", sorted(WORK))
def test_refusals_leave_pending_work_alone(name, moment):
    make, _, (rel, t), bad = ENGINES[name]
    eng = make()
    assert _replay_until(eng, WORK[name][moment is _halved], moment)
    before, pending = _state(eng), _pending(eng)
    for update in bad + [(rel, u, 1) for u in NOT_TUPLES] + _unhashable(rel, t) + \
            [(rel, t, m) for m in BAD_MULTS]:
        with pytest.raises(SchemaError):
            eng.on_update(*update)
        assert _state(eng) == before and _pending(eng) == pending, update
    eng.on_update(rel, t, 1)  # the next valid update takes up the work
    assert _pending(eng) != pending


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_a_namedtuple_update_is_the_plain_tuple(name):
    make, warmup, _, _ = ENGINES[name]
    plain, named = make(), make()
    for k, (rel, t, m) in enumerate(warmup):
        plain.on_update(rel, t, m)
        named.on_update(rel, namedtuple("Row", [f"v{p}" for p in range(len(t))])(*t)
                        if k % 2 else t, m)
        assert _state(named) == _state(plain)
        assert named.views == plain.views and named.lookup(rel, t) == plain.lookup(rel, t)
