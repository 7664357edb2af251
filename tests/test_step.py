"""The generated update step equals the plan's delta followed by its update.

``on_update`` makes one call per update, the plan's ``step``, which adds
the update's delta to the answer, keeps the views and stores the update.
``delta`` and ``apply_update`` stay generated apart, for the loader and for
moves. Here twin engines in the same state, one driven through ``step``
and the other through ``helpers.apply_routed`` (``delta``, then
``apply_update``), must stay equal after every update: answer, counters,
views, live sets, entry count and parts.

Each twin is loaded from the first third of a ``swing_stream``, then
replays the second third through ``on_update``, which leaves keys in
transit and moves queued, so the walks that read several parts at a key in
transit run too. The last third goes through the step on one twin and
through ``apply_routed`` on the other, each update routed by the first
twin's partition (``route``) and the label checked against the second's.
"""

import pytest

from helpers import apply_routed, swing_stream
from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import LWEngine
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
        label = None if part is None else part.route(t, stepped._pinned[i])
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
