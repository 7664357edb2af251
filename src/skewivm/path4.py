"""Endpoint-weighted two-hop count over four relations.

Maintains ``q = sum_{a,b,c} R(a) * S(a,b) * T(b,c) * U(c)`` under
single-tuple updates to any of the four relations. The unary endpoint
relations R and U stay unpartitioned; the binary middle relations S and T
are each partitioned on both variables into four parts, as in the refined
triangle engine.

A family of auxiliary views makes every one of the sixteen part
combinations of a delta either a constant-time lookup or a scan bounded by
a light-degree budget or by the distinct-key count of a heavy part:

  rs_xx(b)            endpoint-weighted S parts, per A-status
  s_xx_t_yy(a, c)     S-part joined with T-part over the middle variable
  t_xx_u(b)           T parts weighted by the far endpoint
  t_ind(b), s_ind(b)  indicator projections: 1 when the B-heavy, C-light
                      part of T (resp. the A-light, B-heavy part of S)
                      carries b, regardless of multiplicities
  r_s_hl_t_ind(b)     endpoint-weighted A-heavy/B-light S, masked by t_ind
  r_s_ll_t_lh(c)      both-light S chained through B-light/C-heavy T, with
                      the near endpoint folded in
  s_ind_t_lh_u(b)     B-light/C-heavy T weighted by the far endpoint,
                      masked by s_ind
  s_hl_t_ll_u(a)      the s_hl/t_ll join weighted by the far endpoint

The indicator views clamp to presence: internally their support is the
B-degree of the masked part, and the flag flips only when the last
supporting tuple dies. A flip forces a rebuild of the one masked view that
folds the indicator in, which stays within the per-update budget because
the masked scans are light-bounded.

Routing and rebalancing come from the shared kernel. R and U have no
partition, so their updates are not routed and only ever trigger the
size-driven major rebalance; updates to S or T can each trigger up to two
minor rebalances, one per variable, both checked against the same state:
a minor moves no tuple itself, its moves are drained by later updates.
The delta of every relation is computed
in ``delta``; the update procedures keep only the views and the stored
relations.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import IDX0, IDX1, QuadPartition, Relation, bump

REL_NAMES = ("R", "S", "T", "U")


class Path4Engine(MaintenanceKernel):
    """Four-relation path count under single-tuple updates."""

    REL = REL_NAMES

    # the S-T join views with the indexes the delta procedures walk them by
    JOIN_VIEWS = {"s_ll_t_lh": (IDX0,), "s_hl_t_ll": (IDX1,), "s_hl_t_lh": (IDX0, IDX1),
                  "s_hl_t_hh": (IDX0, IDX1), "s_hh_t_lh": (IDX0, IDX1)}

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (1, 2, 2, 1), eps, counters)
        self.r: dict = {}
        self.u: dict = {}
        # S and T are the kernel's partitions of relations 1 and 2
        self.s, self.t = QuadPartition(), QuadPartition()
        self.parts = [None, self.s, self.t, None]
        self.rs_ll: dict = {}
        self.rs_lh: dict = {}
        self.rs_hh: dict = {}
        for name, specs in self.JOIN_VIEWS.items():
            setattr(self, name, Relation(2, specs))
        self.t_ll_u: dict = {}
        self.t_hl_u: dict = {}
        self.t_hh_u: dict = {}
        self.t_ind: dict = {}
        self.s_ind: dict = {}
        self.r_s_hl_t_ind: dict = {}
        self.r_s_ll_t_lh: dict = {}
        self.s_ind_t_lh_u: dict = {}
        self.s_hl_t_ll_u: dict = {}

    def lookup(self, rel, t: tuple) -> int:
        i = self._checked_tuple(rel, t)
        if i == 0:
            return self.r.get(t[0], 0)
        if i == 3:
            return self.u.get(t[0], 0)
        return self.parts[i].multiplicity(t)

    def space_used(self) -> int:
        views = (len(self.rs_ll) + len(self.rs_lh) + len(self.rs_hh)
                 + len(self.s_ll_t_lh) + len(self.s_hl_t_ll)
                 + len(self.s_hl_t_lh) + len(self.s_hl_t_hh)
                 + len(self.s_hh_t_lh)
                 + len(self.t_ll_u) + len(self.t_hl_u) + len(self.t_hh_u)
                 + len(self.t_ind) + len(self.s_ind)
                 + len(self.r_s_hl_t_ind) + len(self.r_s_ll_t_lh)
                 + len(self.s_ind_t_lh_u) + len(self.s_hl_t_ll_u))
        return (len(self.r) + len(self.u) + self.s.total_size()
                + self.t.total_size() + views)

    # -- deltas ---------------------------------------------------------------

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Count change for the delta ``m`` of ``t`` in relation i."""
        c = self.counters
        if i == 1:
            a, b = t
            ra = self.r.get(a)
            if not ra:
                return 0
            t_parts = self.t.parts
            acc = self._hop_sum(t_parts["ll"], b, IDX0, self.u)
            acc += self._hop_sum(t_parts["lh"], b, IDX0, self.u)
            c.lookups += 1
            acc += self.t_hl_u.get(b, 0)
            acc += self._hop_sum(t_parts["hh"], b, IDX0, self.u)
            return ra * m * acc
        if i == 2:
            b, cval = t
            ug = self.u.get(cval)
            if not ug:
                return 0
            c.lookups += 3
            acc = (self.rs_ll.get(b, 0) + self.rs_lh.get(b, 0)
                   + self.rs_hh.get(b, 0))
            acc += self._hop_sum(self.s.parts["hl"], b, IDX1, self.r)
            return ug * m * acc
        return m * (self._delta_sum_r(t[0]) if i == 0 else self._delta_sum_u(t[0]))

    def _delta_sum_r(self, a) -> int:
        """One-sided sum for an endpoint update to R, all 16 combinations."""
        c = self.counters
        acc = 0
        u = self.u
        t_ll_u, t_hl_u, t_hh_u = self.t_ll_u, self.t_hl_u, self.t_hh_u

        posts = self.s.parts["ll"].indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            for e, ms in posts.items():
                b = e[1]
                w = t_ll_u.get(b, 0) + t_hl_u.get(b, 0) + t_hh_u.get(b, 0)
                if w:
                    acc += ms * w
        acc += self._hop_sum(self.s_ll_t_lh, a, IDX0, u)
        posts = self.s.parts["lh"].indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            ind_w = self.s_ind_t_lh_u
            for e, ms in posts.items():
                b = e[1]
                w = (t_ll_u.get(b, 0) + ind_w.get(b, 0)
                     + t_hl_u.get(b, 0) + t_hh_u.get(b, 0))
                if w:
                    acc += ms * w
        c.lookups += 1
        acc += self.s_hl_t_ll_u.get(a, 0)
        if t_hl_u:
            c.iterations += len(t_hl_u)
            row = self.s.parts["hl"].indexes[IDX0].get(a)
            if row:
                for b, w in t_hl_u.items():
                    ms = row.get((a, b))
                    if ms:
                        acc += ms * w
        for view in (self.s_hl_t_lh, self.s_hl_t_hh, self.s_hh_t_lh):
            acc += self._hop_sum(view, a, IDX0, u)
        posts = self.s.parts["hh"].indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            for e, ms in posts.items():
                b = e[1]
                w = t_ll_u.get(b, 0) + t_hl_u.get(b, 0) + t_hh_u.get(b, 0)
                if w:
                    acc += ms * w
        return acc

    def _delta_sum_u(self, cval) -> int:
        """Mirror of the R delta for an update to U."""
        c = self.counters
        acc = 0
        r = self.r
        rs_ll, rs_lh, rs_hh = self.rs_ll, self.rs_lh, self.rs_hh

        posts = self.t.parts["ll"].indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            for e, mt in posts.items():
                b = e[0]
                w = rs_ll.get(b, 0) + rs_lh.get(b, 0) + rs_hh.get(b, 0)
                if w:
                    acc += mt * w
        acc += self._hop_sum(self.s_hl_t_ll, cval, IDX1, r)
        posts = self.t.parts["hl"].indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            masked = self.r_s_hl_t_ind
            for e, mt in posts.items():
                b = e[0]
                w = (rs_ll.get(b, 0) + rs_lh.get(b, 0) + rs_hh.get(b, 0)
                     + masked.get(b, 0))
                if w:
                    acc += mt * w
        c.lookups += 1
        acc += self.r_s_ll_t_lh.get(cval, 0)
        if rs_lh:
            c.iterations += len(rs_lh)
            col = self.t.parts["lh"].indexes[IDX1].get(cval)
            if col:
                for b, w in rs_lh.items():
                    mt = col.get((b, cval))
                    if mt:
                        acc += w * mt
        for view in (self.s_hl_t_lh, self.s_hh_t_lh, self.s_hl_t_hh):
            acc += self._hop_sum(view, cval, IDX1, r)
        posts = self.t.parts["hh"].indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            for e, mt in posts.items():
                b = e[0]
                w = rs_ll.get(b, 0) + rs_lh.get(b, 0) + rs_hh.get(b, 0)
                if w:
                    acc += mt * w
        return acc

    def _hop_sum(self, rel: Relation, key, idx, weights: dict) -> int:
        """Sum over ``rel``'s postings at ``key`` of multiplicity * weight.

        The weight of a posting is looked up by its other variable.
        """
        posts = rel.indexes[idx].get(key)
        if not posts:
            return 0
        self.counters.iterations += len(posts)
        pos = 1 - idx[0]
        acc = 0
        for t, m in posts.items():
            w = weights.get(t[pos])
            if w:
                acc += m * w
        return acc

    # -- update procedures ------------------------------------------------------

    def update_r(self, a, m: int) -> int:
        c = self.counters
        for lab, view in (("ll", self.rs_ll), ("lh", self.rs_lh), ("hh", self.rs_hh)):
            posts = self.s.parts[lab].indexes[IDX0].get(a)
            if posts:
                c.iterations += len(posts)
                for e, ms in posts.items():
                    bump(view, e[1], m * ms)
        if self.t_ind:
            c.iterations += len(self.t_ind)
            row = self.s.parts["hl"].indexes[IDX0].get(a)
            if row:
                for b in self.t_ind:
                    ms = row.get((a, b))
                    if ms:
                        bump(self.r_s_hl_t_ind, b, m * ms)
        posts = self.s_ll_t_lh.indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            for e, mv in posts.items():
                bump(self.r_s_ll_t_lh, e[1], m * mv)

        return bump(self.r, a, m)

    def update_u(self, cval, m: int) -> int:
        c = self.counters
        for lab, view in (("ll", self.t_ll_u), ("hl", self.t_hl_u), ("hh", self.t_hh_u)):
            posts = self.t.parts[lab].indexes[IDX1].get(cval)
            if posts:
                c.iterations += len(posts)
                for e, mt in posts.items():
                    bump(view, e[0], m * mt)
        if self.s_ind:
            c.iterations += len(self.s_ind)
            col = self.t.parts["lh"].indexes[IDX1].get(cval)
            if col:
                for b in self.s_ind:
                    mt = col.get((b, cval))
                    if mt:
                        bump(self.s_ind_t_lh_u, b, m * mt)
        posts = self.s_hl_t_ll.indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            for e, mv in posts.items():
                bump(self.s_hl_t_ll_u, e[0], m * mv)

        return bump(self.u, cval, m)

    def update_s(self, lab: str, t: tuple, m: int) -> int:
        a, b = t
        c = self.counters
        ra = self.r.get(a, 0)
        new = self.s.parts[lab].upsert(t, m)

        if lab == "hh":
            if ra:
                bump(self.rs_hh, b, ra * m)
            self._join_scan(self.s_hh_t_lh, a, self.t.parts["lh"], b, m)
        elif lab == "lh":
            if ra:
                bump(self.rs_lh, b, ra * m)
            support = len(self.s.parts["lh"].indexes[IDX1].get(b, ()))
            if new == m and support == 1:
                self.s_ind[b] = 1
                w = self._hop_sum(self.t.parts["lh"], b, IDX0, self.u)
                if w:
                    self.s_ind_t_lh_u[b] = w
            elif new == 0 and support == 0:
                self.s_ind.pop(b, None)
                self.s_ind_t_lh_u.pop(b, None)
        elif lab == "hl":
            w_sum = 0
            posts = self.t.parts["ll"].indexes[IDX0].get(b)
            if posts:
                c.iterations += len(posts)
                u = self.u
                up = self.s_hl_t_ll.upsert
                for e, mt in posts.items():
                    up((a, e[1]), m * mt)
                    mu = u.get(e[1])
                    if mu:
                        w_sum += mt * mu
            if w_sum:
                bump(self.s_hl_t_ll_u, a, m * w_sum)
            self._join_scan(self.s_hl_t_lh, a, self.t.parts["lh"], b, m)
            self._join_scan(self.s_hl_t_hh, a, self.t.parts["hh"], b, m)
            if ra and b in self.t_ind:
                c.lookups += 1
                bump(self.r_s_hl_t_ind, b, ra * m)
        else:  # ll
            if ra:
                bump(self.rs_ll, b, ra * m)
            posts = self.t.parts["lh"].indexes[IDX0].get(b)
            if posts:
                c.iterations += len(posts)
                up = self.s_ll_t_lh.upsert
                for e, mt in posts.items():
                    up((a, e[1]), m * mt)
                    if ra:
                        bump(self.r_s_ll_t_lh, e[1], ra * m * mt)
        return new

    def update_t(self, lab: str, t: tuple, m: int) -> int:
        b, cval = t
        c = self.counters
        ug = self.u.get(cval, 0)
        new = self.t.parts[lab].upsert(t, m)

        if lab == "hh":
            if ug:
                bump(self.t_hh_u, b, ug * m)
            self._join_scan_left(self.s_hl_t_hh, self.s.parts["hl"], b, cval, m)
        elif lab == "hl":
            if ug:
                bump(self.t_hl_u, b, ug * m)
            support = len(self.t.parts["hl"].indexes[IDX0].get(b, ()))
            if new == m and support == 1:
                self.t_ind[b] = 1
                w = self._hop_sum(self.s.parts["hl"], b, IDX1, self.r)
                if w:
                    self.r_s_hl_t_ind[b] = w
            elif new == 0 and support == 0:
                self.t_ind.pop(b, None)
                self.r_s_hl_t_ind.pop(b, None)
        elif lab == "lh":
            posts = self.s.parts["ll"].indexes[IDX1].get(b)
            if posts:
                c.iterations += len(posts)
                r = self.r
                up = self.s_ll_t_lh.upsert
                for e, ms in posts.items():
                    up((e[0], cval), ms * m)
                    mr = r.get(e[0])
                    if mr:
                        bump(self.r_s_ll_t_lh, cval, mr * ms * m)
            self._join_scan_left(self.s_hl_t_lh, self.s.parts["hl"], b, cval, m)
            self._join_scan_left(self.s_hh_t_lh, self.s.parts["hh"], b, cval, m)
            if ug and b in self.s_ind:
                c.lookups += 1
                bump(self.s_ind_t_lh_u, b, ug * m)
        else:  # ll
            if ug:
                bump(self.t_ll_u, b, ug * m)
            posts = self.s.parts["hl"].indexes[IDX1].get(b)
            if posts:
                c.iterations += len(posts)
                up = self.s_hl_t_ll.upsert
                for e, ms in posts.items():
                    up((e[0], cval), ms * m)
                    if ug:
                        bump(self.s_hl_t_ll_u, e[0], ms * m * ug)
        return new

    def _join_scan(self, view: Relation, a, t_part: Relation, b, m: int) -> None:
        """view(a, c) += m * t_part(b, c) over the row of b."""
        posts = t_part.indexes[IDX0].get(b)
        if posts:
            self.counters.iterations += len(posts)
            up = view.upsert
            for e, mt in posts.items():
                up((a, e[1]), m * mt)

    def _join_scan_left(self, view: Relation, s_part: Relation, b, cval, m: int) -> None:
        """view(a, c) += s_part(a, b) * m over the column of b."""
        posts = s_part.indexes[IDX1].get(b)
        if posts:
            self.counters.iterations += len(posts)
            up = view.upsert
            for e, ms in posts.items():
                up((e[0], cval), ms * m)

    def apply_update(self, i: int, lab, t: tuple, m: int) -> int:
        """Dispatch a routed delta to the update procedure of its relation.

        Each procedure returns the stored multiplicity afterwards.
        """
        if i == 1:
            return self.update_s(lab, t, m)
        if i == 2:
            return self.update_t(lab, t, m)
        return self.update_r(t[0], m) if i == 0 else self.update_u(t[0], m)

    # -- recomputation -------------------------------------------------------

    VIEW_NAMES = ("rs_ll", "rs_lh", "rs_hh", "s_ll_t_lh", "s_hl_t_ll",
                  "s_hl_t_lh", "s_hl_t_hh", "s_hh_t_lh", "t_ll_u", "t_hl_u",
                  "t_hh_u", "t_ind", "s_ind", "r_s_hl_t_ind", "r_s_ll_t_lh",
                  "s_ind_t_lh_u", "s_hl_t_ll_u")

    def recompute_views(self) -> dict:
        """All auxiliary views rebuilt from the base relations."""
        c = self.counters
        s_parts, t_parts = self.s.parts, self.t.parts
        out: dict = {name: {} for name in
                     ("rs_ll", "rs_lh", "rs_hh", "t_ll_u", "t_hl_u", "t_hh_u",
                      "t_ind", "s_ind", "r_s_hl_t_ind", "r_s_ll_t_lh",
                      "s_ind_t_lh_u", "s_hl_t_ll_u")}
        for lab in ("ll", "lh", "hh"):
            self._fold(s_parts[lab], IDX0, self.r, out["rs_" + lab])
        for lab in ("ll", "hl", "hh"):
            self._fold(t_parts[lab], IDX1, self.u, out[f"t_{lab}_u"])
        for name, s_lab, t_lab in (("s_ll_t_lh", "ll", "lh"),
                                   ("s_hl_t_ll", "hl", "ll"),
                                   ("s_hl_t_lh", "hl", "lh"),
                                   ("s_hl_t_hh", "hl", "hh"),
                                   ("s_hh_t_lh", "hh", "lh")):
            rel = Relation(2, self.JOIN_VIEWS[name])
            s_idx = s_parts[s_lab].indexes[IDX1]
            t_idx = t_parts[t_lab].indexes[IDX0]
            for b in s_idx.keys() & t_idx.keys():
                s_posts = s_idx[b]
                t_posts = t_idx[b]
                c.iterations += len(s_posts) * len(t_posts)
                for e, ms in s_posts.items():
                    a = e[0]
                    for f, mt in t_posts.items():
                        rel.upsert((a, f[1]), ms * mt)
            out[name] = rel
        out["t_ind"] = {b: 1 for b in t_parts["hl"].indexes[IDX0]}
        out["s_ind"] = {b: 1 for b in s_parts["lh"].indexes[IDX1]}
        for b in out["t_ind"]:
            w = self._hop_sum(s_parts["hl"], b, IDX1, self.r)
            if w:
                out["r_s_hl_t_ind"][b] = w
        self._fold(out["s_ll_t_lh"], IDX0, self.r, out["r_s_ll_t_lh"])
        for b in out["s_ind"]:
            w = self._hop_sum(t_parts["lh"], b, IDX0, self.u)
            if w:
                out["s_ind_t_lh_u"][b] = w
        self._fold(out["s_hl_t_ll"], IDX1, self.u, out["s_hl_t_ll_u"])
        return out

    def _fold(self, rel: Relation, idx, weights: dict, view: dict) -> None:
        """view[other variable] += multiplicity * weights[key], per key of ``idx``."""
        c = self.counters
        pos = 1 - idx[0]
        for key, posts in rel.indexes[idx].items():
            c.iterations += len(posts)
            w = weights.get(key)
            if w:
                for t, m in posts.items():
                    bump(view, t[pos], m * w)

    def rebuild_views(self) -> None:
        views = self.recompute_views()
        for name in self.VIEW_NAMES:
            setattr(self, name, views[name])

    def load_whole(self, i: int, rows: dict) -> None:
        (self.r if i == 0 else self.u).update((t[0], m) for t, m in rows.items())
