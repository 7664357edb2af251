"""Cyclic count queries of configurable degree.

Degree n joins n relations of arity n-1 over variables 0..n-1; relation i
ranges over variables i, i+1, ..., i+n-2 (cyclically) and omits variable
i-1. Degree 3 is exactly the triangle count. Each relation is partitioned
on its leading variable.

An update to relation v fixes every variable except v-1, so all delta work
reduces to enumerating candidates for that one free variable:

  * all parts heavy: candidates from relation v-1's heavy part, whose
    leading variable is the free one, so candidates are capped by the
    number of distinct heavy keys;
  * every non-aggregated relation heavy, relation v-1 light: a
    constant-time lookup in the auxiliary view keyed by the update tuple;
  * some other relation light, relation v-1 heavy: candidates from the
    first light relation (per-key light budget) or from relation v-1's
    heavy part, whichever side the tuning exponent favors;
  * some other relation light, relation v-1 light: candidates from the
    first light relation.

The auxiliary view ``views[v]`` aggregates variable v-1 out of the join of
relation v-1's light part with the heavy parts of all remaining relations
(other than v). That shape makes the constant-time case above work and
stays maintainable: an update to a heavy member scans the light member at
its fixed leading key, an update to the light member scans relation v-2's
heavy part, whose leading variable is again the free one. At degree 3 the
views are the triangle engine's wedges, but the strategies differ: this
engine evaluates each combination on its own, so it has no counterpart of
the triangle engine's single light walk that probes both sides of the
second neighbor, and at exponents above 1/2 it scans the heavy part for
the light/heavy case instead. Relations are named R1..Rn (or indexed
0..n-1); rebalancing comes from the shared kernel.
"""

from __future__ import annotations

from itertools import product

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, LIGHT, Partition, bump


class LWEngine(MaintenanceKernel):
    """Cyclic count of degree n under single-tuple updates."""

    def __init__(self, n: int, eps: float = 0.5, counters: OpCounters | None = None):
        if n < 3:
            raise ValueError("degree must be at least 3")
        super().__init__([f"R{i+1}" for i in range(n)], [n - 1] * n, eps, counters)
        self.n = n
        self.arity = n - 1
        specs = self._index_specs()
        self.parts = [Partition(self.arity, specs) for _ in range(n)]
        self.views: list[dict] = [{} for _ in range(n)]

    def _index_specs(self):
        arity = self.arity
        specs = {(0,)}
        for p in range(arity):
            specs.add(tuple(q for q in range(arity) if q != p))
        return tuple(sorted(specs))

    def space_used(self) -> int:
        return (sum(p.total_size() for p in self.parts)
                + sum(len(v) for v in self.views))

    # -- variable/tuple plumbing ---------------------------------------------

    def _fill(self, v: int, t: tuple) -> list:
        vals = [None] * self.n
        for pos in range(self.arity):
            vals[(v + pos) % self.n] = t[pos]
        return vals

    def _tuple_of(self, j: int, vals) -> tuple:
        n = self.n
        return tuple(vals[(j + k) % n] for k in range(self.arity))

    def _scan(self, src: int, side: str, free_var: int, vals):
        """Posting map of src's part matching ``vals`` with one variable free.

        Returns (postings, position of the free variable) or (None, pos).
        """
        pc = (free_var - src) % self.n
        spec = tuple(q for q in range(self.arity) if q != pc)
        rel = self.parts[src].parts[side]
        if len(spec) == 1:
            key = vals[(src + spec[0]) % self.n]
        else:
            key = tuple(vals[(src + q) % self.n] for q in spec)
        return rel.indexes[spec].get(key), pc

    # -- update procedures ----------------------------------------------------

    def delta(self, v: int, t: tuple, m: int) -> int:
        """Count change for the delta ``m`` of ``t`` in relation v."""
        n = self.n
        c = self.counters
        vals = self._fill(v, t)
        free = (v - 1) % n
        others = [(v + d) % n for d in range(1, n)]
        acc = 0
        for combo in product((HEAVY, LIGHT), repeat=n - 1):
            labs = dict(zip(others, combo))
            u_prev = labs[free]  # relation v-1 owns the free variable
            early_lights = [j for j in others if j != free and labs[j] == LIGHT]
            if not early_lights:
                if u_prev == LIGHT:
                    c.lookups += 1
                    acc += self.views[v].get(t, 0)
                    continue
                src, side = free, HEAVY
            elif u_prev == HEAVY and self.eps > 0.5:
                src, side = free, HEAVY
            else:
                src, side = early_lights[0], LIGHT
            posts, pc = self._scan(src, side, free, vals)
            if not posts:
                continue
            c.iterations += len(posts)
            rest = [j for j in others if j != src]
            for u, prod in posts.items():
                vals[free] = u[pc]
                for j in rest:
                    mj = self.parts[j].parts[labs[j]].get(self._tuple_of(j, vals))
                    if not mj:
                        prod = 0
                        break
                    prod *= mj
                acc += prod
        vals[free] = None
        return m * acc

    def _maintain_views(self, v: int, side: str, t: tuple, m: int) -> None:
        n = self.n
        c = self.counters
        vals = self._fill(v, t)
        free = (v - 1) % n
        if side == HEAVY:
            # heavy member of views[i] for every i outside {v, v+1}; the
            # light member, relation i-1, is scanned
            sources = [(i, (i - 1) % n, LIGHT) for i in range(n)
                       if i != v and i != (v + 1) % n]
        else:
            # light member of exactly views[v+1]; relation v-1's heavy part
            # is scanned, its leading variable is the free one
            sources = [((v + 1) % n, (v - 1) % n, HEAVY)]
        for i, src, src_side in sources:
            posts, pc = self._scan(src, src_side, free, vals)
            if not posts:
                continue
            c.iterations += len(posts)
            rest = [j for j in range(n) if j not in (v, i, src)]
            view = self.views[i]
            for u, mu in posts.items():
                vals[free] = u[pc]
                prod = m * mu
                for j in rest:
                    mj = self.parts[j].heavy.get(self._tuple_of(j, vals))
                    if not mj:
                        prod = 0
                        break
                    prod *= mj
                if prod:
                    bump(view, self._tuple_of(i, vals), prod)
        vals[free] = None

    def apply_update(self, v: int, side: str, t: tuple, m: int) -> int:
        """Apply a routed delta; returns the stored multiplicity."""
        self._maintain_views(v, side, t, m)
        return self.parts[v].parts[side].upsert(t, m)

    def rebuild_views(self) -> None:
        self.views = [self._build_view(i) for i in range(self.n)]

    def _build_view(self, i: int) -> dict:
        """Aggregated join behind views[i], outer side chosen by cost."""
        n = self.n
        c = self.counters
        light_member = (i - 1) % n
        anchor = (i + 1) % n
        lrel = self.parts[light_member].light
        arel = self.parts[anchor].heavy
        view: dict = {}
        if not lrel or not arel:
            return view
        est_anchor = len(arel) * 1.5 * self._theta()
        est_light = len(lrel) * 2 * (self.N ** (1.0 - self.eps))
        if est_anchor <= est_light:
            outer, outer_side = anchor, HEAVY
            inner, inner_side = light_member, LIGHT
            inner_free = (anchor - 1) % n  # the one variable outer leaves open
        else:
            outer, outer_side = light_member, LIGHT
            inner, inner_side = (light_member - 1) % n, HEAVY
            inner_free = (light_member - 1) % n
        outer_rel = self.parts[outer].parts[outer_side]
        members = {j: (LIGHT if j == light_member else HEAVY)
                   for j in range(n) if j != i}
        rest = [j for j in members if j not in (outer, inner)]
        for t, mo in outer_rel.items():
            vals = self._fill(outer, t)
            posts, pc = self._scan(inner, members[inner], inner_free, vals)
            if not posts:
                continue
            c.iterations += len(posts)
            for u, mi in posts.items():
                vals[inner_free] = u[pc]
                prod = mo * mi
                for j in rest:
                    mj = self.parts[j].parts[members[j]].get(self._tuple_of(j, vals))
                    if not mj:
                        prod = 0
                        break
                    prod *= mj
                if prod:
                    bump(view, self._tuple_of(i, vals), prod)
        return view
