"""Major rebalances leave a strict split and exact views, and do view work only on moves.

Every engine replays skewed grow-then-shrink streams across the exponent
grid, from a handful of tuples up to several hundred, so the threshold
base doubles and halves many times. After every update that fires a
major rebalance, the split must be strict for the new threshold base,
every view must equal a fresh rebuild from the parts (the major keeps
them up move by move), and a major rebalance that moved no tuple must
have added no iterations. Small streams matter: there a single create can
lift a key past the next threshold on the very update that triggers the
doubling.
"""

import pytest

from skewivm.cli import family_arities
from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import LWEngine
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.relation import Relation
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

from helpers import grow_shrink_stream

EPS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# name -> (query family, engine for an exponent, attributes rebuild_views sets)
ENGINES = {
    "triangle": ("triangle", TriangleEngine, ("wedges",)),
    "selfjoin": ("triangle-selfjoin", SelfJoinEngine, ("wedge",)),
    "refined": ("triangle", RefinedTriangleEngine, ("wedges",)),
    "enum": ("triangle", EnumTriangleEngine,
             ("listing", "tri", "pair_index", "pair_sum", "roots", "live")),
    "path4": ("path4", Path4Engine, Path4Engine.VIEW_NAMES),
    "lw:4": ("lw:4", lambda eps: LWEngine(4, eps), ("views",)),
}

# (seed, length, width of the non-hot values)
STREAMS = ((1, 12, 3), (2, 40, 4), (3, 150, 8), (4, 600, 30))


def _plain(view):
    # path4's join views are relations; every other view compares as it is
    return dict(view.items()) if isinstance(view, Relation) else view


def _views(eng, names):
    return {name: _plain(getattr(eng, name)) for name in names}


def _fresh_views(eng, names):
    """The views ``rebuild_views`` computes from the current parts.

    The maintained views are put back afterwards, so the replay goes on
    with whatever the engine kept.
    """
    kept = {name: getattr(eng, name) for name in names}
    eng._uncounted(eng.rebuild_views)
    fresh = _views(eng, names)
    for name, view in kept.items():
        setattr(eng, name, view)
    return fresh


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_majors_leave_strict_parts_and_exact_views(name, eps):
    family, make, names = ENGINES[name]
    arities = family_arities(family)
    majors = []
    for seed, length, wide in STREAMS:
        eng = make(eps)
        inner = eng.major_rebalance

        def major():
            before = eng.counters.snapshot()
            inner()
            majors.append((before, eng.counters.snapshot()))

        eng.major_rebalance = major
        for step, (rel, t, m) in enumerate(grow_shrink_stream(seed, length, arities, wide)):
            seen = len(majors)
            eng.on_update(rel, t, m)
            if len(majors) == seen:
                continue
            where = (seed, step, eng.N)
            assert eng.check_invariants(loose=False) == [], where
            assert _views(eng, names) == _fresh_views(eng, names), where
            before, after = majors[-1]
            if after["moves"] == before["moves"]:
                assert after["iterations"] == before["iterations"], where
    assert majors
    if eps == 0.25:
        # both branches ran: majors that moved tuples (doublings promote
        # keys at 2 ** 0.25 times the old threshold, below the 1.5 times
        # at which a minor rebalance would have) and majors that did not
        moved = [after["moves"] > before["moves"] for before, after in majors]
        assert any(moved) and not all(moved)
