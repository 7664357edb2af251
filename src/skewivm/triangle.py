"""Adaptive maintenance of the three-relation triangle count.

Maintains ``q = sum_{a,b,c} R(a,b) * S(b,c) * T(c,a)`` under single-tuple
inserts and deletes. Each relation is split on its join-out variable (A for
R, B for S, C for T) into a heavy part (high-degree keys) and a light part.
The eight part combinations of the query are evaluated with combination
specific strategies whose cost is sublinear in the database size:

  * both neighbors heavy: scan the second neighbor's heavy part at the
    update's shared value; those entries have pairwise distinct join
    values, and a heavy part only has few distinct partition keys;
  * next heavy, second light: constant-time lookup in an auxiliary wedge
    view (the aggregated join of a heavy part with the following light
    part), one such view per relation pair;
  * next light, second either side: scan the next relation's light part
    at the shared value, bounded by the light-degree cap, and probe both
    sides of the second neighbor for each posting in one walk: each join
    value lives on one side of the second neighbor, so a single probe
    finds its posting map; while the second neighbor has keys in
    transit, the probe of its light rows chains both sides' maps of such
    a key.

Heavy updates maintain the wedge anchored at the updated relation, light
updates the wedge ending in it.

The shared kernel (``skewivm.kernel``) keeps the degree bounds meaningful
as the database grows and shrinks: major rebalances when the threshold
base doubles or halves, minor rebalances that migrate one key's tuples
through ``apply_update``, routes each update by its join-out value, and
loads a full database. This module supplies the partitions on the
join-out variable, the delta, the update step that keeps the wedges and
parts, and the wedge builder the loader calls. The delta and the update
step read the partitions through ``ring``, R, S and T in the delta's
order, so the self-join engine (``skewivm.selfjoin``) runs them over one
partition standing in for all three.

The per-relation exponents recover classical first-order maintenance at 0
or 1 (everything pinned heavy, resp. light, all wedges empty) and the
single-materialized-view factorized scheme with mixed 0/1 assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, IDX1, Partition, Relation, bump

REL_NAMES = ("R", "S", "T")


@dataclass(frozen=True)
class EpsConfig:
    """Per-relation tuning exponents in [0, 1].

    Larger values shrink the heavy parts (fewer, higher-degree keys) and
    grow the per-key light budget. 0 pins every tuple heavy, 1 pins every
    tuple light.
    """

    eps_r: float
    eps_s: float
    eps_t: float

    def __post_init__(self):
        for name, value in (("eps_r", self.eps_r), ("eps_s", self.eps_s),
                            ("eps_t", self.eps_t)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")

    @classmethod
    def uniform(cls, eps: float) -> "EpsConfig":
        return cls(eps, eps, eps)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.eps_r, self.eps_s, self.eps_t)


def build_wedge(heavy: Relation, light: Relation, counters: OpCounters) -> dict:
    """Aggregated join ``heavy(x, y) * light(y, z)`` keyed ``(x, z)``.

    Walks the join values present on both sides, pairing the heavy
    postings at each value with the light ones: ``sum_y |H_y| * |L_y|``
    pairs, which is what probing every tuple of either side costs.
    """
    w: dict = {}
    h_idx = heavy.indexes[IDX1]
    l_idx = light.indexes[IDX0]
    for y in h_idx.keys() & l_idx.keys():
        h_posts = h_idx[y]
        l_posts = l_idx[y]
        counters.iterations += len(h_posts) * len(l_posts)
        for t, mh in h_posts.items():
            x = t[0]
            for u, ml in l_posts.items():
                bump(w, (x, u[1]), mh * ml)
    return w


class TriangleEngine(MaintenanceKernel):
    """Triangle count under single-tuple updates, constant answer time."""

    REL = REL_NAMES
    PER_RELATION_EPS = True

    def __init__(self, cfg: EpsConfig | float = 0.5, counters: OpCounters | None = None):
        if not isinstance(cfg, EpsConfig):
            cfg = EpsConfig.uniform(float(cfg))
        super().__init__(REL_NAMES, (2, 2, 2), cfg.as_tuple(), counters)
        self.parts = [Partition(2) for _ in range(3)]
        # the partitions the delta and the update step read, in ring order
        self.ring = tuple(self.parts)
        # wedges[i][(x, z)] = sum_y heavy_i(x, y) * light_{i+1}(y, z);
        # wedge i answers the constant-time combination for updates to
        # relation i-1.
        self.wedges: list[dict] = [{}, {}, {}]

    def space_used(self) -> int:
        return (sum(p.total_size() for p in self.parts)
                + sum(len(w) for w in self.wedges))

    # -- update procedures --------------------------------------------------

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Count change for the delta ``m`` of ``t = (x, y)`` in relation i.

        ``m`` times the one-hop sum ``sum_z next(y, z) * second(z, x)``,
        decomposed over the four part combinations of the two other
        relations. Independent of which side of relation i the update lands
        on.
        """
        x, y = t
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        ring = self.ring
        nxt = ring[i1]
        snd = ring[i2]
        # the heavy column at x; no probe while the heavy part is empty
        s_cols = snd.heavy.indexes[IDX1]
        s_col = s_cols.get(x) if s_cols else None
        acc = 0

        # both heavy: entries of the second neighbor's heavy part carrying
        # x have pairwise distinct join values, few of them overall
        if s_col:
            c.iterations += len(s_col)
            row = nxt.heavy.indexes[IDX0].get(y)
            if row:
                for u, mu in s_col.items():
                    ms = row.get((y, u[0]))
                    if ms:
                        acc += ms * mu

        # next heavy, second light: wedge lookup
        c.lookups += 1
        acc += self.wedges[i1].get((y, x), 0)

        # next light against both sides of the second neighbor in one walk;
        # a join value z keys one side only, unless it is in transit, when
        # the light probe chains both sides' rows
        posts = nxt.light.indexes[IDX0].get(y)
        if posts:
            c.iterations += len(posts)
            sl = snd.light_rows if snd.moving else snd.light.indexes[IDX0]
            sh = snd.heavy.indexes[IDX0]
            for u, mu in posts.items():
                z = u[1]
                z_row = sl.get(z) or sh.get(z)
                if z_row:
                    mt = z_row.get((z, x))
                    if mt:
                        acc += mu * mt
        return m * acc

    def apply_update(self, i: int, side: str, t: tuple, m: int) -> int:
        """Apply a routed single-tuple delta; returns the stored multiplicity.

        Maintains the one affected wedge and the target part, in that
        order. Does not rebalance; callers that need the loose bounds
        preserved go through ``on_update``.
        """
        x, y = t
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        ring = self.ring
        if side == HEAVY:
            target = ring[i].heavy
            # wedge anchored at this relation gains (x, *) rows
            w = self.wedges[i]
            posts = ring[i1].light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                for u, mu in posts.items():
                    bump(w, (x, u[1]), m * mu)
        else:
            target = ring[i].light
            # wedge ending in this relation gains (*, y) columns; nothing
            # to walk while the previous relation's heavy part is empty
            cols = ring[i2].heavy.indexes[IDX1]
            posts = cols.get(x) if cols else None
            if posts:
                w = self.wedges[i2]
                c.iterations += len(posts)
                for u, mu in posts.items():
                    bump(w, (u[0], y), m * mu)

        return target.upsert(t, m)

    def rebuild_views(self) -> None:
        # wedge i: the heavy part of relation i joined with the next light part
        ring = self.ring
        self.wedges = [build_wedge(ring[i].heavy, ring[(i + 1) % 3].light, self.counters)
                       for i in range(3)]


def static_count(db: dict) -> int:
    """Count triangles in a static database.

    The balanced engine's loader splits each relation strictly by key
    degree, builds the wedges and sums the one-hop sums over R: no
    rebalancing runs, and each sum stays within the per-update budget.
    """
    return TriangleEngine.preprocess(db, 0.5).answer()
