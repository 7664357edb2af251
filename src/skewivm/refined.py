"""Triangle counting with two-variable relation partitions.

Same query and same update-time budget as the base engine, but every
relation is split on the degrees of both of its variables, giving four
parts (hh, hl, lh, ll). The payoff is space: each wedge view now joins a
part that is heavy on the exported variable with one that is heavy on the
other exported variable, so its size is capped both by "entries times
light budget" and by "heavy keys squared", which is linear at the balanced
exponent 1/2.

Update deltas split into sixteen part combinations per neighbor pair;
blocks sharing a scan are evaluated together:

  * next heavy on the join variable and second heavy on its own key:
    scan the second neighbor's heavy-keyed parts at the update's shared
    value, probing both next-relation candidates;
  * next heavy-heavy against second light: scan the next relation's
    heavy-heavy part (few distinct second values), probing the light part;
  * next heavy-light against second light-light: scan the second's
    light-light entries at the shared value;
  * next heavy-light against second light-heavy: the wedge lookup;
  * next light against second heavy: smaller side by the tuning exponent;
  * next light against second light: scan the next side. When the
    exponent picks the next side for the previous case too, one walk of
    the next relation's light rows probes every part of the second.

Wedge maintenance only fires for updates landing in an hl part (own wedge)
or an lh part (preceding wedge). Minor rebalancing (``QuadPartition``'s
check, run by the shared kernel) looks at both variables of the updated
tuple and can fire twice for one update.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import IDX0, IDX1, QUAD_LABELS, QuadPartition, bump
from .triangle import build_wedge

REL_NAMES = ("R", "S", "T")

# stands in for an absent posting map; only ever read
_NONE: dict = {}


class RefinedTriangleEngine(MaintenanceKernel):
    """Triangle count over four-way partitioned relations."""

    REL = REL_NAMES

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (2, 2, 2), eps, counters)
        self.parts = [QuadPartition() for _ in range(3)]
        # wedges[i][(x, z)] = sum_y hl_i(x, y) * lh_{i+1}(y, z)
        self.wedges: list[dict] = [{}, {}, {}]

    def space_used(self) -> int:
        return (sum(q.total_size() for q in self.parts)
                + sum(len(w) for w in self.wedges))

    # -- update procedures --------------------------------------------------

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Count change for the delta ``m`` of ``t = (x, y)`` in relation i."""
        x, y = t
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        nxt = self.parts[i1].parts
        snd = self.parts[i2].parts
        acc = 0

        # the next relation's rows at y and the second's columns at x hold
        # every tuple a probe of this update can hit
        n_hh, n_hl, n_lh, n_ll = (nxt[lab].indexes[IDX0].get(y, _NONE) for lab in QUAD_LABELS)
        s_hh, s_hl, s_lh, s_ll = (snd[lab].indexes[IDX1].get(x, _NONE) for lab in QUAD_LABELS)

        # next heavy on join var, second heavy on own key
        for col in (s_hh, s_hl):
            if col:
                c.iterations += len(col)
                for u, mu in col.items():
                    z = u[0]
                    ms = n_hh.get((y, z), 0) + n_hl.get((y, z), 0)
                    if ms:
                        acc += ms * mu

        # next heavy-heavy, second light on own key
        if n_hh:
            c.iterations += len(n_hh)
            for u, mu in n_hh.items():
                z = u[1]
                mt = s_ll.get((z, x), 0) + s_lh.get((z, x), 0)
                if mt:
                    acc += mu * mt

        # next heavy-light, second light-light
        if s_ll:
            c.iterations += len(s_ll)
            for u, mu in s_ll.items():
                ms = n_hl.get((y, u[0]))
                if ms:
                    acc += ms * mu

        # next heavy-light, second light-heavy: the wedge
        c.lookups += 1
        acc += self.wedges[i1].get((y, x), 0)

        if self.eps <= 0.5:
            # next light against every part of the second neighbor in one
            # walk; the pair (z, x) sits in one part only
            for row in (n_lh, n_ll):
                if row:
                    c.iterations += len(row)
                    for u, mu in row.items():
                        k = (u[1], x)
                        mt = s_ll.get(k) or s_lh.get(k) or s_hh.get(k) or s_hl.get(k)
                        if mt:
                            acc += mu * mt
        else:
            # next light, second heavy: the heavy columns at x are shorter
            for col in (s_hh, s_hl):
                if col:
                    c.iterations += len(col)
                    for u, mu in col.items():
                        z = u[0]
                        ms = n_lh.get((y, z), 0) + n_ll.get((y, z), 0)
                        if ms:
                            acc += ms * mu
            # next light, second light
            for row in (n_lh, n_ll):
                if row:
                    c.iterations += len(row)
                    for u, mu in row.items():
                        z = u[1]
                        mt = s_ll.get((z, x), 0) + s_lh.get((z, x), 0)
                        if mt:
                            acc += mu * mt
        return m * acc

    def apply_update(self, i: int, lab: str, t: tuple, m: int) -> int:
        """Apply a delta routed to part ``lab``; returns the stored multiplicity."""
        x, y = t
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        if lab == "hl":
            w = self.wedges[i]
            src = self.parts[i1].parts["lh"]
            posts = src.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                for u, mu in posts.items():
                    bump(w, (x, u[1]), m * mu)
        elif lab == "lh":
            w = self.wedges[i2]
            src = self.parts[i2].parts["hl"]
            posts = src.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                for u, mu in posts.items():
                    bump(w, (u[0], y), m * mu)

        return self.parts[i].parts[lab].upsert(t, m)

    def rebuild_views(self) -> None:
        parts = self.parts
        self.wedges = [build_wedge(parts[i].parts["hl"], parts[(i + 1) % 3].parts["lh"],
                                   self.counters) for i in range(3)]
