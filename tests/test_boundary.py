"""Malformed updates are refused at ``on_update`` before any state changes.

Every engine raises ``SchemaError`` for an unknown relation name, a tuple
of the wrong arity and a multiplicity that is zero or not a true ``int``,
and leaves its answer, counters, size and invariant report as they were.
"""

import pytest

from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import LWEngine
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.relation import SchemaError
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

from helpers import lw_stream, mixed_stream, path4_stream

BAD_MULTS = (0, 1.0, 0.5, -1.0, True)

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


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_malformed_updates_raise_and_change_nothing(name):
    make, warmup, (rel, t), bad = ENGINES[name]
    eng = make()
    for u in warmup:
        eng.on_update(*u)
    before = _state(eng)
    for update in bad + [(rel, t, m) for m in BAD_MULTS]:
        with pytest.raises(SchemaError):
            eng.on_update(*update)
        assert _state(eng) == before, update
    eng.on_update(rel, t, 1)
    eng.on_update(rel, t, -1)
    assert eng.answer() == before[0]
