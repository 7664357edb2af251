"""Cyclic count queries of configurable degree.

Degree n joins n relations of arity n-1 over variables 0..n-1; relation i
ranges over variables i, i+1, ..., i+n-2 (cyclically) and omits variable
i-1. Degree 3 is exactly the triangle count. Each relation is partitioned
on its leading variable.

An update to relation v fixes every variable except v-1, so all delta work
reduces to enumerating candidates for that one free variable:

  * every non-aggregated relation heavy, relation v-1 light: a
    constant-time lookup in the auxiliary view keyed by the update tuple;
  * all parts heavy: candidates from relation v-1's heavy part, whose
    leading variable is the free one, so candidates are capped by the
    number of distinct heavy keys;
  * some other relation light: candidates from the first light relation
    (per-key light budget), or from relation v-1's heavy part when that is
    heavy and the tuning exponent is above 1/2.

The strategies are planned once, at construction, as walks. A walk scans
one part at a key read from the update tuple and, for each candidate,
probes the tuples of the other relations, read from the update tuple
extended by the candidate. The combinations that scan the same part share
one walk, which probes every part any of them probes: a tuple sits in
exactly one part, even while its key is in transit, so the first part
holding it gives its multiplicity, and the sum over the combinations is
one product. Relation v's delta thus runs n walks: the view lookup, the
scan of relation v-1's heavy part, and one scan of the light part of each
of the n-2 other relations.

The auxiliary view ``views[v]`` aggregates variable v-1 out of the join of
relation v-1's light part with the heavy parts of all remaining relations
(other than v). That shape makes the constant-time case above work and
stays maintainable: an update to a heavy member scans the light member at
its fixed leading key, an update to the light member scans relation v-2's
heavy part, whose leading variable is again the free one. A view is built
by one member's upkeep walk, run over that member's part. At degree 3 the
views are the triangle engine's wedges and the walks scan what its walks
scan, so the two engines count the same lookups and iterations on every
update, at every exponent. Relations are named R1..Rn (or indexed
0..n-1); rebalancing comes from the shared kernel.
"""

from __future__ import annotations

from operator import itemgetter

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, LIGHT, Partition, bump

# the probe of a second part, for a relation probed in one part only
_absent = {}.get


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
        # The walks bind parts and index dicts: a Partition never replaces
        # its Relations, nor a Relation its index dicts. Views and counters
        # are read when a walk runs: rebuild_views replaces the view list
        # and _uncounted swaps the counters.
        both, heavy = (LIGHT, HEAVY), (HEAVY,)
        # above 1/2, relation v-1's heavy scan takes every combination with
        # v-1 heavy and the light scans the rest; else the heavy scan takes
        # only the all-heavy one
        scan_sides, prev_sides = (both, (LIGHT,)) if self.eps > 0.5 else (heavy, both)

        def heavy_rest(*skip):
            return [(j, heavy) for j in range(n) if j not in skip]
        # per relation v: its delta's scans; per relation and part: the
        # upkeep walks of the views it is a member of, by view
        self._deltas = []
        self._upkeep = []
        for v in range(n):
            prev, nxt = (v - 1) % n, (v + 1) % n
            middle = [(v + d) % n for d in range(1, n - 1)]
            # v-1's heavy scan, then the k-th light scan: the relations
            # before it heavy, the others either
            self._deltas.append(
                [self._plan(v, prev, HEAVY, [(j, scan_sides) for j in middle])]
                + [self._plan(v, j, LIGHT, [(h, heavy) for h in middle[:k]]
                              + [(r, both) for r in middle[k + 1:]] + [(prev, prev_sides)])
                   for k, j in enumerate(middle)])
            # a heavy member of every view i outside {v, v+1} scans the light
            # member, relation i-1; the light member of view v+1 scans v-1's
            # heavy part
            self._upkeep.append({
                HEAVY: {i: self._plan(v, (i - 1) % n, LIGHT, heavy_rest(v, i, (i - 1) % n), i)
                        for i in range(n) if i not in (v, nxt)},
                LIGHT: {nxt: self._plan(v, prev, HEAVY, heavy_rest(v, nxt, prev), nxt)}})

    def _index_specs(self):
        arity = self.arity
        specs = {(0,)}
        for p in range(arity):
            specs.add(tuple(q for q in range(arity) if q != p))
        return tuple(sorted(specs))

    def space_used(self) -> int:
        return (sum(p.total_size() for p in self.parts)
                + sum(len(v) for v in self.views))

    # -- walks ----------------------------------------------------------------

    def _plan(self, v: int, src: int, side: str, probes, view: int | None = None) -> tuple:
        """The walk, for an update to relation v, that scans part ``side`` of ``src``.

        Candidates for the free variable v-1 come from the scanned part's
        index on its other variables. ``probes`` lists ``(j, sides)``, the
        parts of relation j a tuple may sit in, light first. A walk given
        a ``view`` adds into ``views[view]``, keyed by relation ``view``'s
        tuple; one without returns its sum. Tuples are read from
        ``t + (candidate,)``, where variable x sits at position
        ``(x - v) % n``.
        """
        n, arity = self.n, self.arity

        def at(j):
            return itemgetter(*((j + k - v) % n for k in range(arity)))
        pc = (v - 1 - src) % n
        spec = tuple(q for q in range(arity) if q != pc)
        key_of = itemgetter(*((src + q - v) % n for q in spec))
        probes = tuple((at(j), *[self.parts[j].parts[s].get for s in sides], _absent)[:3]
                       for j, sides in probes)
        return (self.parts[src].parts[side].indexes[spec], key_of, pc, probes,
                view, None if view is None else at(view))

    def _run(self, walk: tuple, t: tuple, m: int) -> int:
        """Run ``walk`` for the delta ``m`` of ``t``: its sum, or 0 after adding to its view."""
        idx, key_of, pc, probes, view, view_key = walk
        posts = idx.get(key_of(t))
        if not posts:
            return 0
        self.counters.iterations += len(posts)
        if view is not None:
            view = self.views[view]
        acc = 0
        for u, prod in posts.items():
            ext = t + (u[pc],)
            for tuple_of, first, second in probes:
                key = tuple_of(ext)
                mj = first(key) or second(key)
                if not mj:
                    break
                prod *= mj
            else:
                if view is None:
                    acc += prod
                else:
                    bump(view, view_key(ext), m * prod)
        return m * acc

    # -- update procedures ----------------------------------------------------

    def delta(self, v: int, t: tuple, m: int) -> int:
        """Count change for the delta ``m`` of ``t`` in relation v."""
        self.counters.lookups += 1
        acc = m * self.views[v].get(t, 0)
        for walk in self._deltas[v]:
            acc += self._run(walk, t, m)
        return acc

    def apply_update(self, v: int, side: str, t: tuple, m: int) -> int:
        """Apply a routed delta; returns the stored multiplicity."""
        for walk in self._upkeep[v][side].values():
            self._run(walk, t, m)
        return self.parts[v].parts[side].upsert(t, m)

    def rebuild_views(self) -> None:
        """Build each view by one member's upkeep walk over its part, chosen by cost."""
        n = self.n
        self.views = [{} for _ in range(n)]
        for i in range(n):
            light_member, anchor = (i - 1) % n, (i + 1) % n
            lrel = self.parts[light_member].light
            arel = self.parts[anchor].heavy
            if not lrel or not arel:
                continue
            if len(arel) * 1.5 * self._theta() <= len(lrel) * 2 * (self.N ** (1.0 - self.eps)):
                walk, rel = self._upkeep[anchor][HEAVY][i], arel
            else:
                walk, rel = self._upkeep[light_member][LIGHT][i], lrel
            for t, m in rel.items():
                self._run(walk, t, m)
