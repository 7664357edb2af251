"""The generated update step equals the plan's delta followed by its update.

``on_update`` makes one call per update, the plan's ``step``, which adds
the update's delta to the answer, keeps the views and stores the update.
``delta`` (the step with no part) and ``apply_update`` (the step without
the delta) are generated as calls of it, for the loader and for moves.
Here twin engines in the same state, one driven through ``step`` and the
other through ``helpers.apply_routed`` (``delta``, then
``apply_update``), must stay equal after every update: answer, counters,
views, live sets, entry count and parts.

Each twin is loaded from the first third of a ``swing_stream``, then
replays the second third through ``on_update``, which leaves keys in
transit and moves queued, so the walks that read several parts at a key in
transit run too. The last third goes through the step on one twin and
through ``apply_routed`` on the other, each update routed by the first
twin's partition (``route``) and the label checked against the second's.

The step with no part, ``step(i, None, t, m)``, must return the change the
first-order tracker makes for the update and leave the engine as it was.
"""

import copy

import pytest

from helpers import apply_routed, swing_stream
from skewivm.cli import build_tracker
from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import WHOLE, LWEngine
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

# name -> (engine class, degree)
ENGINES = {"triangle": (TriangleEngine, 3), "selfjoin": (SelfJoinEngine, 3),
           "refined": (RefinedTriangleEngine, 3), "enum": (EnumTriangleEngine, 3),
           "path4": (Path4Engine, 4), **{f"lw:{n}": (LWEngine, n) for n in range(4, 7)}}


def _state(eng):
    parts = [None if part is None else
             ({lab: rel.indexes for lab, rel in part.parts.items()}, part.moving)
             for part in eng.parts]
    return (eng.answer(), eng.counters.snapshot(), eng.counters.checks, eng.views, eng.live,
            eng.entries, parts, eng._whole)


def _loaded(cls, n, eps, rows):
    """An engine loaded with the net rows of ``rows``."""
    db: dict = {}
    for rel, t, m in rows:
        table = db.setdefault(rel, {})
        table[t] = table.get(t, 0) + m
    if cls is SelfJoinEngine:  # its loader takes the edges alone
        return cls.preprocess(db.get("R"), eps)
    return cls.preprocess(db, *((n,) if cls is LWEngine else ()), eps)


@pytest.mark.parametrize("eps", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_step_equals_delta_then_apply_update(name, eps):
    cls, n = ENGINES[name]
    # the cyclic joins of degree 4 to 6 meet only over a narrow domain
    stream = swing_stream(7, 1200, dict(zip(*cls.schema(n))), 1 if cls is LWEngine else 5)
    stepped, applied = (_loaded(cls, n, eps, stream[:300]) for _ in "ab")
    k = 300
    while k < 600 or (k < 900 and not stepped.pending_moves()):
        stepped.on_update(*stream[k])
        applied.on_update(*stream[k])
        k += 1
    assert _state(stepped) == _state(applied)
    in_transit = moved = False
    for rel, t, m in stream[k:]:
        i = stepped.rel_index(rel)
        part = stepped.parts[i]
        label = WHOLE if part is None else part.route(t, stepped._pinned[i])
        if part is not None:
            assert applied.parts[i].route(t, applied._pinned[i]) == label
            in_transit = in_transit or bool(part.moving)
        q = stepped.answer()
        assert stepped.step(i, label, t, m) == apply_routed(applied, i, label, t, m)
        moved = moved or stepped.answer() != q
        assert _state(stepped) == _state(applied), (rel, t, m)
    assert moved  # the delta walks found joins
    if eps == 0.5:
        assert in_transit  # the walks over parts at a key in transit ran


# the counted engines, each with the query family of its first-order tracker
FAMILIES = {"triangle": "triangle", "selfjoin": "triangle-selfjoin", "refined": "triangle",
            "path4": "path4", **{f"lw:{n}": f"lw:{n}" for n in range(4, 7)}}


def _stored(eng):
    """A copy of what a step with no part must leave as it is.

    The answer, views, live sets, entry count, parts with their keys in
    transit, relations kept whole, queued moves, and the moves and key
    checks counted so far.
    """
    parts = [None if part is None else
             ({lab: rel.indexes for lab, rel in part.parts.items()}, part.moving)
             for part in eng.parts]
    return copy.deepcopy((eng.answer(), eng.views, eng.live, eng.entries, parts, eng._whole,
                          list(eng._queue), eng.counters.moves, eng.counters.checks))


@pytest.mark.parametrize("eps", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_step_with_no_part_reads_the_delta_and_changes_nothing(name, eps):
    """``step(i, None, t, m)`` returns the tracker's change for the update, and stores nothing.

    Each engine replays the first half of a ``swing_stream`` through
    ``on_update``; before each update of the second half, the step with no
    part must return the change the first-order tracker makes for it and
    leave the engine as it was (``_stored``).
    """
    cls, n = ENGINES[name]
    stream = swing_stream(7, 900, dict(zip(*cls.schema(n))), 1 if cls is LWEngine else 5)
    eng = cls(*((n,) if cls is LWEngine else ()), eps)
    tracker = build_tracker(FAMILIES[name])
    for rel, t, m in stream[:450]:
        eng.on_update(rel, t, m)
        tracker.update(rel, t, m)
    changed = False
    for rel, t, m in stream[450:]:
        before = _stored(eng)
        got = eng.step(eng.rel_index(rel), None, t, m)
        assert _stored(eng) == before, (rel, t, m)
        q = tracker.count
        tracker.update(rel, t, m)
        assert got == tracker.count - q, (rel, t, m)
        changed = changed or got != 0
        eng.on_update(rel, t, m)
    assert changed  # the delta walks found joins


def test_path4_zero_guard_returns_zero_and_reads_nothing():
    """With no part, an S update where R holds nothing returns 0, walks nothing, stores nothing.

    T and U would join it: with R holding its ``a``, the same step finds the path.
    """
    eng = Path4Engine(0.5)
    for rel, t in (("R", (1,)), ("S", (1, 2)), ("T", (2, 3)), ("U", (3,))):
        eng.on_update(rel, t, 1)
    assert eng.step(1, None, (1, 2), 1) == 1  # R holds 1: the walks find the path
    before, counted = _stored(eng), eng.counters.snapshot()
    assert eng.step(1, None, (5, 2), 1) == 0
    assert _stored(eng) == before and eng.counters.snapshot() == counted
