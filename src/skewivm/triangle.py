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
  * next light, second heavy: scan whichever side the tuning exponent says
    is smaller;
  * both light: scan the next relation's light part at the shared value,
    bounded by the light-degree cap.

Heavy updates maintain the wedge anchored at the updated relation, light
updates the wedge ending in it.

The shared kernel (``skewivm.kernel``) keeps the degree bounds meaningful
as the database grows and shrinks: major rebalances when the threshold
base doubles or halves, minor rebalances that migrate one key's tuples
through ``apply_update``. This module supplies the partitions, routing on
the join-out variable, the update step and the wedge rebuild.

The per-relation exponents recover classical first-order maintenance at 0
or 1 (everything pinned heavy, resp. light, all wedges empty) and the
single-materialized-view factorized scheme with mixed 0/1 assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, IDX1, LIGHT, Partition, Relation, bump, strict_partition

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

    @property
    def is_uniform(self) -> bool:
        return self.eps_r == self.eps_s == self.eps_t

    @property
    def is_classic(self) -> bool:
        return self.is_uniform and self.eps_r in (0.0, 1.0)

    @property
    def is_factorized(self) -> bool:
        vals = self.as_tuple()
        return all(v in (0.0, 1.0) for v in vals) and not self.is_uniform


def build_wedge(heavy: Relation, light: Relation, light_theta: float,
                heavy_keys: float, counters: OpCounters) -> dict:
    """Aggregated join ``heavy(x, y) * light(y, z)`` keyed ``(x, z)``.

    Scanning heavy-side entries costs at most the light per-key budget
    ``light_theta`` each; scanning light-side entries costs at most the
    number of distinct heavy keys (twice ``heavy_keys``) each. The outer
    side is the one with the smaller estimate.
    """
    w: dict = {}
    if not heavy.entries or not light.entries:
        return w
    est_h = len(heavy.entries) * light_theta
    est_l = len(light.entries) * 2 * heavy_keys
    if est_h <= est_l:
        l_idx = light.indexes[IDX0]
        le = light.entries
        for t, mh in heavy.entries.items():
            posts = l_idx.get(t[1])
            if posts:
                counters.iterations += len(posts)
                x = t[0]
                for u in posts:
                    bump(w, (x, u[1]), mh * le[u])
    else:
        h_idx = heavy.indexes[IDX1]
        he = heavy.entries
        for t, ml in light.entries.items():
            posts = h_idx.get(t[0])
            if posts:
                counters.iterations += len(posts)
                z = t[1]
                for u in posts:
                    bump(w, (u[0], z), he[u] * ml)
    return w


class TriangleEngine(MaintenanceKernel):
    """Triangle count under single-tuple updates, constant answer time."""

    REL = REL_NAMES

    def __init__(self, cfg: EpsConfig | float = 0.5, counters: OpCounters | None = None):
        if not isinstance(cfg, EpsConfig):
            cfg = EpsConfig.uniform(float(cfg))
        super().__init__(REL_NAMES, (2, 2, 2), cfg.as_tuple(), counters)
        self.cfg = cfg
        self.parts = [Partition(2, IDX0, self._theta(i)) for i in range(3)]
        # wedges[i][(x, z)] = sum_y heavy_i(x, y) * light_{i+1}(y, z);
        # wedge i answers the constant-time combination for updates to
        # relation i-1.
        self.wedges: list[dict] = [{}, {}, {}]

    def space_used(self) -> int:
        return (sum(p.total_size() for p in self.parts)
                + sum(len(w) for w in self.wedges))

    # -- update procedures --------------------------------------------------

    def _delta_sum(self, i: int, x, y) -> int:
        """Combined one-hop sum for an update (x, y) to relation i.

        Evaluates sum_z next(y, z) * second(z, x) decomposed over the four
        part combinations of the two other relations. Independent of which
        side of relation i the update lands on.
        """
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        nxt = self.parts[i1]
        snd = self.parts[i2]
        acc = 0

        # both heavy: entries of the second neighbor's heavy part carrying
        # x have pairwise distinct join values, few of them overall
        posts = snd.heavy.indexes[IDX1].get(x)
        if posts:
            c.iterations += len(posts)
            ne = nxt.heavy.entries
            se = snd.heavy.entries
            for u in posts:
                ms = ne.get((y, u[0]))
                if ms:
                    acc += ms * se[u]

        # next heavy, second light: wedge lookup
        c.lookups += 1
        acc += self.wedges[i1].get((y, x), 0)

        # next light, second heavy: scan the smaller side
        if self.eps[i1] <= 0.5:
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                ne = nxt.light.entries
                se = snd.heavy.entries
                for u in posts:
                    mt = se.get((u[1], x))
                    if mt:
                        acc += ne[u] * mt
        else:
            posts = snd.heavy.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                ne = nxt.light.entries
                se = snd.heavy.entries
                for u in posts:
                    ms = ne.get((y, u[0]))
                    if ms:
                        acc += ms * se[u]

        # both light
        posts = nxt.light.indexes[IDX0].get(y)
        if posts:
            c.iterations += len(posts)
            ne = nxt.light.entries
            se = snd.light.entries
            for u in posts:
                mt = se.get((u[1], x))
                if mt:
                    acc += ne[u] * mt
        return acc

    def apply_update(self, rel, side: str, t: tuple, m: int) -> int:
        """Apply a routed single-tuple delta; returns the count change.

        Maintains the count, the one affected wedge and the target part,
        in that order. Does not rebalance; callers that need the loose
        bounds preserved go through ``on_update``.
        """
        i = self._index[rel]
        x, y = t
        c = self.counters
        dq = m * self._delta_sum(i, x, y)
        self.q += dq

        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        if side == HEAVY:
            # wedge anchored at this relation gains (x, *) rows
            w = self.wedges[i]
            posts = self.parts[i1].light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                le = self.parts[i1].light.entries
                for u in posts:
                    bump(w, (x, u[1]), m * le[u])
        else:
            # wedge ending in this relation gains (*, y) columns
            w = self.wedges[i2]
            posts = self.parts[i2].heavy.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                he = self.parts[i2].heavy.entries
                for u in posts:
                    bump(w, (u[0], y), m * he[u])

        new = self.parts[i].side(side).upsert(t, m)
        self.db_size += (1 if new == m else 0) - (1 if new == 0 else 0)
        return dq

    def route(self, i: int, t: tuple) -> str:
        self.counters.lookups += 1
        return self.parts[i].route(t[0], self.eps[i] == 0.0)

    def rebuild_views(self) -> None:
        self.wedges = [self._build_wedge(i) for i in range(3)]

    def _build_wedge(self, i: int) -> dict:
        """Wedge i: heavy part of relation i joined with the next light part."""
        i1 = i - 2 if i >= 2 else i + 1
        return build_wedge(self.parts[i].heavy, self.parts[i1].light, self._theta(i1),
                           self.N ** (1.0 - self.eps[i]), self.counters)

    # -- construction -------------------------------------------------------

    @classmethod
    def preprocess(cls, db: dict, cfg: EpsConfig | float = 0.5,
                   counters: OpCounters | None = None) -> "TriangleEngine":
        """Build a ready state from a full database ``{"R": {...}, ...}``.

        Sets the threshold base to twice the database size plus one,
        strictly partitions each relation, builds the wedges, and computes
        the count with the same per-combination strategies the update path
        uses (the count is linear in R, so summing the one-hop sum over
        R's entries against the finished S and T parts is exact).
        """
        eng = cls(cfg, counters)
        rels = eng._load(db)
        eng.parts = [strict_partition(rels[i], IDX0, eng._theta(i)) for i in range(3)]
        eng.rebuild_views()
        q = 0
        for rel in (eng.parts[0].heavy, eng.parts[0].light):
            for t, m in rel.entries.items():
                q += m * eng._delta_sum(0, t[0], t[1])
        eng.q = q
        return eng

    def recompute_wedge(self, i: int) -> dict:
        return self._uncounted(self._build_wedge, i)


def static_count(db: dict) -> int:
    """Count triangles in a static database by streaming inserts.

    Every tuple is pre-classified against the square-root-of-size degree
    threshold of its own relation and inserted straight into that part, so
    no rebalancing ever runs and each insert stays within the balanced
    per-update budget.
    """
    eng = TriangleEngine(EpsConfig.uniform(0.5))
    rels = []
    total = 0
    for name in REL_NAMES:
        rel = {tuple(t): m for t, m in dict(db.get(name, {})).items() if m}
        rels.append(rel)
        total += len(rel)
    if total == 0:
        return 0
    theta = total ** 0.5
    for i, rel in enumerate(rels):
        degree: dict = {}
        for t in rel:
            degree[t[0]] = degree.get(t[0], 0) + 1
        for t, m in rel.items():
            side = HEAVY if degree[t[0]] >= theta else LIGHT
            eng.apply_update(i, side, t, m)
    return eng.q
