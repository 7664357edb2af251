"""Full triangle enumeration with constant delay after each update.

Maintains the ternary query ``Q(a,b,c) = R(a,b) * S(b,c) * T(c,a)`` so that
all result tuples can be streamed with constant delay at any point. The
eight part combinations split into:

  * all-heavy and all-light, kept in the listing ``views[3]``, keyed (a, b, c);
  * three factorized families. Family w is the triangle's view w
    (``skewivm.triangle``), relation w-1's light part joined with relation
    w+1's heavy part and keyed by relation w's tuple, but it keeps the
    variable relation w omits: ``views[w][key]`` maps each of its values
    to a multiplicity. It covers "relation w+1 heavy, relation w-1 light,
    relation w either".

Enumeration concatenates the listing with, per family, the live keys
joined with their kept values and relation w's tuple at the key.
Ownership is unique because the part domains are disjoint, so no
deduplication structure is needed.

Signed multiplicities make a summed aggregate per key unreliable as a
liveness signal: opposite-sign values can cancel its sum while the
factorized result is nonempty. Liveness therefore tracks support: a key
is born with its first kept value, when relation w is probed in both
parts, and dies with its last; ``live[w]`` holds the family's keys that
relation w stores, and an update to relation w adds or drops its own
tuple there. A tuple sits in one part and a move is a delete followed by
an insert, so the set stays exact while keys are in transit.

The engine is ``LWEngine(3)`` (``skewivm.loomis_whitney``) compiling this
module's plan: the triangle's upkeep walks, writing families, and per
update one walk into the listing. It has no deltas, so it keeps no count.
The generated update step keeps the family entry count, for an O(1)
``space_used``; the views are built by their members' upkeep walks.
"""

from __future__ import annotations

from .loomis_whitney import ALL, KEEP, LWEngine, Plan, _plan as _triangle_plan, compiled
from .metrics import OpCounters
from .relation import HEAVY, IDX0, LIGHT

# family w's key and kept value, variables w, w+1 and w+2, in (a, b, c) order
_ABC = (lambda p, q, y: (p, q, y), lambda p, q, y: (y, p, q), lambda p, q, y: (q, y, p))


def _plan(n: int) -> Plan:
    """The triangle's upkeep walks into families, and walks into the listing (view n).

    An update to relation v lists all-heavy triangles by the scan of
    relation v-1's heavy part, probing relation v+1's, and all-light ones
    by the scan of relation v+1's light part, probing relation v-1's. R's
    light part and S's heavy part build the listing.
    """
    tri = _triangle_plan(n)
    upkeep = [{HEAVY: [(v, (v - 1) % n, HEAVY, (((v + 1) % n, (HEAVY,)),), n)]
               + tri.upkeep[v][HEAVY],
               LIGHT: [(v, (v + 1) % n, LIGHT, (((v - 1) % n, (LIGHT,)),), n)]
               + tri.upkeep[v][LIGHT]}
              for v in range(n)]
    return Plan(tri.labels, None, upkeep, tri.builds + [((0, LIGHT), (1, HEAVY))],
                (KEEP,) * n + (ALL,))


compiled(_plan, 3)


class EnumTriangleEngine(LWEngine):
    """Distinct result tuples with multiplicities, constant-delay stream."""

    REL = ("R", "S", "T")
    PLAN = staticmethod(_plan)
    DEGREE = 3

    # perfbench's tracer wraps the update methods in each engine class's own
    # __dict__; this engine's update step is bound per engine
    on_update = LWEngine.on_update

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(self.DEGREE, eps, counters)

    def answer(self) -> int:
        """Number of distinct result tuples currently enumerable."""
        return sum(1 for _ in self.enumerate())

    def enumerate(self):
        """Each distinct (a, b, c) exactly once with its total multiplicity."""
        views, live = self.views, self.live
        yield from views[3].items()
        for w, abc in enumerate(_ABC):
            h, l = (rel.indexes[IDX0] for rel in self.parts[w].parts.values())
            for key in live[w]:
                p, q = key
                f = h[p][q] if q in h.get(p, ()) else l[p][q]
                for y, my in views[w][key].items():
                    yield abc(p, q, y), my * f

    def enumerate_with_delays(self):
        """Like ``enumerate`` but reports primitive steps between yields.

        Steps count container advances (one per listing item, live key,
        and kept value) plus the constant factor lookups per key.
        """
        views, live, steps = self.views, self.live, 0
        for key, m in views[3].items():
            steps += 1
            yield key, m, steps
            steps = 0
        for w, abc in enumerate(_ABC):
            h, l = (rel.indexes[IDX0] for rel in self.parts[w].parts.values())
            steps += 1
            for key in live[w]:
                p, q = key
                steps += 2
                f = h[p][q] if q in h.get(p, ()) else l[p][q]
                for y, my in views[w][key].items():
                    steps += 2
                    yield abc(p, q, y), my * f, steps
                    steps = 0

    def result_multiset(self) -> dict[tuple, int]:
        out: dict = {}
        for key, m in self.enumerate():
            if key in out:
                raise AssertionError(f"duplicate result tuple {key}")
            out[key] = m
        return out


def preprocess_enum(db: dict, eps: float | tuple = 0.5,
                    counters: OpCounters | None = None) -> EnumTriangleEngine:
    """Ready enumeration state from a full database."""
    return EnumTriangleEngine.preprocess(db, eps, counters)
