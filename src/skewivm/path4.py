"""Endpoint-weighted two-hop count over four relations, as a compiled plan.

Maintains ``q = sum_{a,b,c} R(a) * S(a,b) * T(b,c) * U(c)`` under
single-tuple updates. R and U are kept whole; S and T are split on both
variables into four parts, as in the refined triangle engine. The engine is
the generator of ``skewivm.loomis_whitney`` run on this module's plan.

The views make each of the sixteen part combinations of a delta a
constant-time lookup or a scan bounded by a light degree or by the number of
heavy keys. A view keyed by ``(a, c)`` is a map of maps, named ``@a`` when
walked by a and ``@c`` by c; a view walked both ways keeps both, written by
the same walks, and counts its entries once. The masked views are indicator
views: ``r_s_hl_t_ind`` keeps R * S_hl by b only at the b values T's hl part
holds. A b enters with that part's first tuple there and leaves with its
last (``Plan.masks``).

Read backwards the query is the same: R and U swap and S(a,b) becomes
T(b,a), and a part label, which gives its statuses in end-first order,
reverses. So the plan is written once, for the R end (R's delta, R's and
S's upkeep, S's mask), and ``_at`` reads it from the U end, pairing the
views by ``MIRROR``. S's and T's deltas differ and are written apart.
Routing and rebalancing are ``LWEngine``'s; R and U have no partition.
"""

from __future__ import annotations

from .loomis_whitney import WHOLE, LWEngine, Plan, compiled
from .metrics import OpCounters
from .relation import IDX0, QUAD_LABELS

R, S, T, U = range(4)
A, B, C = range(3)  # the variables: R(a), S(a, b), T(b, c), U(c)

# the views read from the R end: name -> (key variables, the parts whose
# upkeep walks can build it, or None when it is written with the view
# before it). rs_xy sums R * S_xy by b, s_xy_t_zw joins S_xy and T_zw over b
# and r_s_ll_t_lh sums R * s_ll_t_lh by c
_R_ = (R, WHOLE)
VIEWS = {
    "rs_ll": ((B,), (_R_, (S, "ll"))), "rs_lh": ((B,), (_R_, (S, "lh"))),
    "rs_hh": ((B,), (_R_, (S, "hh"))), "r_s_hl_t_ind": ((B,), ((T, "hl"),)),
    "s_ll_t_lh@a": ((A, C), ((S, "ll"), (T, "lh"))),
    "s_hl_t_hh@a": ((A, C), ((S, "hl"), (T, "hh"))), "s_hl_t_hh@c": ((C, A), None),
    "s_hl_t_lh@a": ((A, C), ((S, "hl"), (T, "lh"))), "s_hl_t_lh@c": ((C, A), None),
    "r_s_ll_t_lh": ((C,), ((S, "ll"), (T, "lh"))),
}
# each view with the one the U end reads in its place
MIRROR = {"rs_ll": "t_ll_u", "rs_lh": "t_hl_u", "rs_hh": "t_hh_u",
          "r_s_hl_t_ind": "s_ind_t_lh_u", "s_ll_t_lh@a": "s_hl_t_ll@c",
          "s_hl_t_hh@a": "s_hh_t_lh@c", "s_hl_t_hh@c": "s_hh_t_lh@a",
          "s_hl_t_lh@a": "s_hl_t_lh@c", "r_s_ll_t_lh": "s_hl_t_ll_u"}
MIRROR.update({u: r for r, u in MIRROR.items()})
VIEW_NAMES = (*VIEWS, *(MIRROR[x] for x in VIEWS if MIRROR[x] not in VIEWS))

_R, _U = ((R, (WHOLE,)),), ((U, (WHOLE,)),)
# R's delta: S's parts at a weighted by the U end's views at b, the U end's
# weights of T's hl part probing S's hl part, and the join views' lines at a
# weighted by U
_FAR = ("t_ll_u", "t_hl_u", "t_hh_u")
R_DELTA = [(R, S, "ll", ((None, _FAR),), None), (R, S, "hh", ((None, _FAR),), None),
           (R, S, "lh", ((None, (*_FAR, "s_ind_t_lh_u")),), None),
           (R, None, "t_hl_u", ((S, ("hl",), IDX0),), None),
           *((R, None, x, _U, None)
             for x in ("s_ll_t_lh@a", "s_hl_t_lh@a", "s_hl_t_hh@a", "s_hh_t_lh@a"))]
# R's upkeep: S's parts at a, the keys of T's hl part probing S's hl part,
# and the line of s_ll_t_lh at a
R_UPKEEP = [*((R, S, lab, (), "rs_" + lab) for lab in ("ll", "lh", "hh")),
            (R, T, "hl", ((S, ("hl",), IDX0),), "r_s_hl_t_ind", IDX0),
            (R, None, "s_ll_t_lh@a", (), "r_s_ll_t_lh")]
# S's upkeep per part: R(a) at the update's b, and T's parts at b into the
# join views; a chain reads the postings the join view before it counted
S_UPKEEP = {
    "hh": [(S, None, None, _R, "rs_hh"), (S, T, "lh", (), ("s_hh_t_lh@a", "s_hh_t_lh@c"))],
    "hl": [(S, T, "ll", (), "s_hl_t_ll@c"), (S, T, "ll", _U, "s_hl_t_ll_u", None, False),
           (S, T, "lh", (), ("s_hl_t_lh@a", "s_hl_t_lh@c")),
           (S, T, "hh", (), ("s_hl_t_hh@a", "s_hl_t_hh@c")),
           (S, None, None, (*_R, (T, ("hl",), IDX0)), "r_s_hl_t_ind")],
    "lh": [(S, None, None, _R, "rs_lh")],
    "ll": [(S, None, None, _R, "rs_ll"), (S, T, "lh", (), "s_ll_t_lh@a"),
           (S, T, "lh", _R, "r_s_ll_t_lh", None, False)],
}
# the U end's masked view holds the b values of S's lh part
S_MASKS = {"lh": (S, T, "lh", _U, "s_ind_t_lh_u")}


def _at(walk: tuple, mirror: bool) -> tuple:
    """A walk of the R end with its views as indexes, read from the U end when ``mirror``.

    That swaps R and U and S and T, reverses part labels and index specs (a
    binary relation's two variables) and pairs the views by ``MIRROR``.
    """
    def flip(x):
        return x[::-1] if mirror else x

    def views(x):
        if isinstance(x, tuple):
            return tuple(map(views, x))
        return x if x is None else VIEW_NAMES.index(MIRROR[x] if mirror else x)
    v, src, side, probes, view, *rest = walk
    probes = tuple((None, views(sides)) if j is None else
                   (3 - j if mirror else j, tuple(map(flip, sides)),
                    *((1 - p[0],) if mirror else p for p in index))
                   for j, sides, *index in probes)
    if rest and rest[0] and mirror:
        rest[0] = (1 - rest[0][0],)
    return (3 - v if mirror else v, src if src is None or not mirror else 3 - src,
            views(side) if src is None else flip(side), probes, views(view), *rest)


def _plan(n: int = 4) -> Plan:
    """The path plan: the R end's walks, the same read from the U end, and S's and T's deltas."""
    index = VIEW_NAMES.index

    def end(walks, mirror):
        return {WHOLE: [_at(w, mirror) for w in walks]}

    def near(parts, mirror):
        return {lab[::-1] if mirror else lab: [_at(w, mirror) for w in walks]
                for lab, walks in parts.items()}
    # S's delta: T's ll, lh and hh parts at b weighted by U; T's: S's hl part at b by R
    deltas = [[_at(w, False) for w in R_DELTA],
              [_at((S, T, lab, _U, None), False) for lab in ("ll", "lh", "hh")],
              [_at((T, S, "hl", _R, None), False)], [_at(w, True) for w in R_DELTA]]
    upkeep = [end(R_UPKEEP, False), near(S_UPKEEP, False), near(S_UPKEEP, True),
              end(R_UPKEEP, True)]
    masks = [{}, {lab: _at(w, False) for lab, w in S_MASKS.items()},
             {lab[::-1]: _at(w, True) for lab, w in S_MASKS.items()}, {}]
    # a view that is its own mirror (s_hl_t_lh) is built once, from the R end
    kinds, builds = {}, {}
    for x, (keys, members) in VIEWS.items():
        kinds[x], kinds[MIRROR[x]] = keys, tuple(2 - y for y in keys)
        builds[x] = members
        builds.setdefault(MIRROR[x], members and tuple((3 - j, lab[::-1]) for j, lab in members))
    # an end's delta reads the other end's chain at its value; S's, T's hl
    # weights at b, and T's, S's ll, lh and hh weights at b, each zero where
    # the end next to it is
    lookups = [(None, (index("s_hl_t_ll_u"),)), (R, (index("t_hl_u"),)),
               (U, tuple(map(index, ("rs_ll", "rs_lh", "rs_hh")))),
               (None, (index("r_s_ll_t_lh"),))]
    return Plan(QUAD_LABELS, deltas, upkeep, [builds[x] for x in VIEW_NAMES],
                tuple(kinds[x] for x in VIEW_NAMES), [(A,), (A, B), (B, C), (C,)], lookups, masks)


compiled(_plan, 4)


class Path4Engine(LWEngine):
    """Four-relation path count under single-tuple updates."""

    REL = ("R", "S", "T", "U")
    PLAN = staticmethod(_plan)
    DEGREE = 4
    VIEW_NAMES = VIEW_NAMES

    # perfbench's tracer wraps the update methods in each engine class's own
    # __dict__; this engine's update step is bound per engine
    on_update = LWEngine.on_update

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(self.DEGREE, eps, counters)
        # the relations by name, as perfbench reads them
        (self.r, self.u), (self.s, self.t) = self._whole.values(), self.parts[1:3]

    def _first_builds(self, i: int, first, second) -> bool:
        """Whether view i's first member builds it: the member with fewer tuples.

        Each member's walk costs about the same per tuple, and a join's two
        members count the same postings, so the cost rule of the cyclic
        plans does not apply.
        """
        return len(first) <= len(second)
