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

Rebalancing comes from the shared kernel. R and U have no partition, so
their updates only ever trigger the size-driven major rebalance; updates
to S or T can each trigger up to two minor rebalances, one per variable,
with the second check evaluated against the already-moved state.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import IDX0, IDX1, QuadPartition, Relation, bump, quad_partition_strict

REL_NAMES = ("R", "S", "T", "U")


class Path4Engine(MaintenanceKernel):
    """Four-relation path count under single-tuple updates."""

    REL = REL_NAMES

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (1, 2, 2, 1), eps, counters)
        self.r: dict = {}
        self.u: dict = {}
        self._set_quads(QuadPartition(), QuadPartition())
        self.rs_ll: dict = {}
        self.rs_lh: dict = {}
        self.rs_hh: dict = {}
        self.s_ll_t_lh = Relation(2)
        self.s_hl_t_ll = Relation(2)
        self.s_hl_t_lh = Relation(2)
        self.s_hl_t_hh = Relation(2)
        self.s_hh_t_lh = Relation(2)
        self.t_ll_u: dict = {}
        self.t_hl_u: dict = {}
        self.t_hh_u: dict = {}
        self.t_ind: dict = {}
        self.s_ind: dict = {}
        self.r_s_hl_t_ind: dict = {}
        self.r_s_ll_t_lh: dict = {}
        self.s_ind_t_lh_u: dict = {}
        self.s_hl_t_ll_u: dict = {}

    def _set_quads(self, s: QuadPartition, t: QuadPartition) -> None:
        # S and T are the kernel's partitions of relations 1 and 2
        self.s, self.t = s, t
        self.parts = [None, s, t, None]

    def lookup(self, rel, t: tuple) -> int:
        i = self.rel_index(rel)
        if i == 0:
            return self.r.get(t[0], 0)
        if i == 3:
            return self.u.get(t[0], 0)
        return super().lookup(i, t)

    def space_used(self) -> int:
        views = (len(self.rs_ll) + len(self.rs_lh) + len(self.rs_hh)
                 + len(self.s_ll_t_lh.entries) + len(self.s_hl_t_ll.entries)
                 + len(self.s_hl_t_lh.entries) + len(self.s_hl_t_hh.entries)
                 + len(self.s_hh_t_lh.entries)
                 + len(self.t_ll_u) + len(self.t_hl_u) + len(self.t_hh_u)
                 + len(self.t_ind) + len(self.s_ind)
                 + len(self.r_s_hl_t_ind) + len(self.r_s_ll_t_lh)
                 + len(self.s_ind_t_lh_u) + len(self.s_hl_t_ll_u))
        return (len(self.r) + len(self.u) + self.s.total_size()
                + self.t.total_size() + views)

    # -- deltas ---------------------------------------------------------------

    def _delta_sum_r(self, a) -> int:
        """One-sided sum for an endpoint update to R, all 16 combinations."""
        c = self.counters
        acc = 0
        u = self.u
        t_ll_u, t_hl_u, t_hh_u = self.t_ll_u, self.t_hl_u, self.t_hh_u

        posts = self.s.parts["ll"].indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            se = self.s.parts["ll"].entries
            for e in posts:
                b = e[1]
                w = t_ll_u.get(b, 0) + t_hl_u.get(b, 0) + t_hh_u.get(b, 0)
                if w:
                    acc += se[e] * w
        posts = self.s_ll_t_lh.indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            ve = self.s_ll_t_lh.entries
            for e in posts:
                mu = u.get(e[1])
                if mu:
                    acc += ve[e] * mu
        posts = self.s.parts["lh"].indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            se = self.s.parts["lh"].entries
            ind_w = self.s_ind_t_lh_u
            for e in posts:
                b = e[1]
                w = (t_ll_u.get(b, 0) + ind_w.get(b, 0)
                     + t_hl_u.get(b, 0) + t_hh_u.get(b, 0))
                if w:
                    acc += se[e] * w
        c.lookups += 1
        acc += self.s_hl_t_ll_u.get(a, 0)
        she = self.s.parts["hl"].entries
        if t_hl_u:
            c.iterations += len(t_hl_u)
            for b, w in t_hl_u.items():
                ms = she.get((a, b))
                if ms:
                    acc += ms * w
        for view in (self.s_hl_t_lh, self.s_hl_t_hh, self.s_hh_t_lh):
            posts = view.indexes[IDX0].get(a)
            if posts:
                c.iterations += len(posts)
                ve = view.entries
                for e in posts:
                    mu = u.get(e[1])
                    if mu:
                        acc += ve[e] * mu
        posts = self.s.parts["hh"].indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            se = self.s.parts["hh"].entries
            for e in posts:
                b = e[1]
                w = t_ll_u.get(b, 0) + t_hl_u.get(b, 0) + t_hh_u.get(b, 0)
                if w:
                    acc += se[e] * w
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
            te = self.t.parts["ll"].entries
            for e in posts:
                b = e[0]
                w = rs_ll.get(b, 0) + rs_lh.get(b, 0) + rs_hh.get(b, 0)
                if w:
                    acc += te[e] * w
        posts = self.s_hl_t_ll.indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            ve = self.s_hl_t_ll.entries
            for e in posts:
                mr = r.get(e[0])
                if mr:
                    acc += ve[e] * mr
        posts = self.t.parts["hl"].indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            te = self.t.parts["hl"].entries
            masked = self.r_s_hl_t_ind
            for e in posts:
                b = e[0]
                w = (rs_ll.get(b, 0) + rs_lh.get(b, 0) + rs_hh.get(b, 0)
                     + masked.get(b, 0))
                if w:
                    acc += te[e] * w
        c.lookups += 1
        acc += self.r_s_ll_t_lh.get(cval, 0)
        tlhe = self.t.parts["lh"].entries
        if rs_lh:
            c.iterations += len(rs_lh)
            for b, w in rs_lh.items():
                mt = tlhe.get((b, cval))
                if mt:
                    acc += w * mt
        for view in (self.s_hl_t_lh, self.s_hh_t_lh, self.s_hl_t_hh):
            posts = view.indexes[IDX1].get(cval)
            if posts:
                c.iterations += len(posts)
                ve = view.entries
                for e in posts:
                    mr = r.get(e[0])
                    if mr:
                        acc += ve[e] * mr
        posts = self.t.parts["hh"].indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            te = self.t.parts["hh"].entries
            for e in posts:
                b = e[0]
                w = rs_ll.get(b, 0) + rs_lh.get(b, 0) + rs_hh.get(b, 0)
                if w:
                    acc += te[e] * w
        return acc

    def _hop_sum(self, quad_part: Relation, key, idx, weights: dict) -> int:
        """sum over one part's postings at key of entry * endpoint weight."""
        posts = quad_part.indexes[idx].get(key)
        if not posts:
            return 0
        self.counters.iterations += len(posts)
        e = quad_part.entries
        pos = 1 - idx[0]
        return sum(e[t] * weights.get(t[pos], 0) for t in posts)

    # -- update procedures ------------------------------------------------------

    def update_r(self, a, m: int) -> int:
        c = self.counters
        dq = m * self._delta_sum_r(a)
        self.q += dq

        for lab, view in (("ll", self.rs_ll), ("lh", self.rs_lh), ("hh", self.rs_hh)):
            part = self.s.parts[lab]
            posts = part.indexes[IDX0].get(a)
            if posts:
                c.iterations += len(posts)
                se = part.entries
                for e in posts:
                    bump(view, e[1], m * se[e])
        she = self.s.parts["hl"].entries
        if self.t_ind:
            c.iterations += len(self.t_ind)
            for b in self.t_ind:
                ms = she.get((a, b))
                if ms:
                    bump(self.r_s_hl_t_ind, b, m * ms)
        posts = self.s_ll_t_lh.indexes[IDX0].get(a)
        if posts:
            c.iterations += len(posts)
            ve = self.s_ll_t_lh.entries
            for e in posts:
                bump(self.r_s_ll_t_lh, e[1], m * ve[e])

        nv = self.r.get(a, 0) + m
        if nv:
            if a not in self.r:
                self.db_size += 1
            self.r[a] = nv
        else:
            del self.r[a]
            self.db_size -= 1
        return dq

    def update_u(self, cval, m: int) -> int:
        c = self.counters
        dq = m * self._delta_sum_u(cval)
        self.q += dq

        for lab, view in (("ll", self.t_ll_u), ("hl", self.t_hl_u), ("hh", self.t_hh_u)):
            part = self.t.parts[lab]
            posts = part.indexes[IDX1].get(cval)
            if posts:
                c.iterations += len(posts)
                te = part.entries
                for e in posts:
                    bump(view, e[0], m * te[e])
        tlhe = self.t.parts["lh"].entries
        if self.s_ind:
            c.iterations += len(self.s_ind)
            for b in self.s_ind:
                mt = tlhe.get((b, cval))
                if mt:
                    bump(self.s_ind_t_lh_u, b, m * mt)
        posts = self.s_hl_t_ll.indexes[IDX1].get(cval)
        if posts:
            c.iterations += len(posts)
            ve = self.s_hl_t_ll.entries
            for e in posts:
                bump(self.s_hl_t_ll_u, e[0], m * ve[e])

        nv = self.u.get(cval, 0) + m
        if nv:
            if cval not in self.u:
                self.db_size += 1
            self.u[cval] = nv
        else:
            del self.u[cval]
            self.db_size -= 1
        return dq

    def update_s(self, lab: str, t: tuple, m: int) -> int:
        a, b = t
        c = self.counters
        ra = self.r.get(a, 0)
        dq = 0
        if ra:
            acc = self._hop_sum(self.t.parts["ll"], b, IDX0, self.u)
            acc += self._hop_sum(self.t.parts["lh"], b, IDX0, self.u)
            c.lookups += 1
            acc += self.t_hl_u.get(b, 0)
            acc += self._hop_sum(self.t.parts["hh"], b, IDX0, self.u)
            dq = ra * m * acc
            self.q += dq

        new = self.s.parts[lab].upsert(t, m)
        self.db_size += (1 if new == m else 0) - (1 if new == 0 else 0)

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
                te = self.t.parts["ll"].entries
                u = self.u
                for e in posts:
                    mt = te[e]
                    self._rel_bump(self.s_hl_t_ll, (a, e[1]), m * mt)
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
                te = self.t.parts["lh"].entries
                for e in posts:
                    mt = te[e]
                    self._rel_bump(self.s_ll_t_lh, (a, e[1]), m * mt)
                    if ra:
                        bump(self.r_s_ll_t_lh, e[1], ra * m * mt)
        return dq

    def update_t(self, lab: str, t: tuple, m: int) -> int:
        b, cval = t
        c = self.counters
        ug = self.u.get(cval, 0)
        dq = 0
        if ug:
            c.lookups += 3
            acc = (self.rs_ll.get(b, 0) + self.rs_lh.get(b, 0)
                   + self.rs_hh.get(b, 0))
            posts = self.s.parts["hl"].indexes[IDX1].get(b)
            if posts:
                c.iterations += len(posts)
                se = self.s.parts["hl"].entries
                r = self.r
                for e in posts:
                    mr = r.get(e[0])
                    if mr:
                        acc += mr * se[e]
            dq = ug * m * acc
            self.q += dq

        new = self.t.parts[lab].upsert(t, m)
        self.db_size += (1 if new == m else 0) - (1 if new == 0 else 0)

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
                w = 0
                posts = self.s.parts["hl"].indexes[IDX1].get(b)
                if posts:
                    c.iterations += len(posts)
                    se = self.s.parts["hl"].entries
                    r = self.r
                    for e in posts:
                        mr = r.get(e[0])
                        if mr:
                            w += mr * se[e]
                if w:
                    self.r_s_hl_t_ind[b] = w
            elif new == 0 and support == 0:
                self.t_ind.pop(b, None)
                self.r_s_hl_t_ind.pop(b, None)
        elif lab == "lh":
            posts = self.s.parts["ll"].indexes[IDX1].get(b)
            if posts:
                c.iterations += len(posts)
                se = self.s.parts["ll"].entries
                r = self.r
                for e in posts:
                    ms = se[e]
                    self._rel_bump(self.s_ll_t_lh, (e[0], cval), ms * m)
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
                se = self.s.parts["hl"].entries
                for e in posts:
                    ms = se[e]
                    self._rel_bump(self.s_hl_t_ll, (e[0], cval), ms * m)
                    if ug:
                        bump(self.s_hl_t_ll_u, e[0], ms * m * ug)
        return dq

    def _join_scan(self, view: Relation, a, t_part: Relation, b, m: int) -> None:
        """view(a, c) += m * t_part(b, c) over the row of b."""
        posts = t_part.indexes[IDX0].get(b)
        if posts:
            self.counters.iterations += len(posts)
            te = t_part.entries
            for e in posts:
                self._rel_bump(view, (a, e[1]), m * te[e])

    def _join_scan_left(self, view: Relation, s_part: Relation, b, cval, m: int) -> None:
        """view(a, c) += s_part(a, b) * m over the column of b."""
        posts = s_part.indexes[IDX1].get(b)
        if posts:
            self.counters.iterations += len(posts)
            se = s_part.entries
            for e in posts:
                self._rel_bump(view, (e[0], cval), se[e] * m)

    @staticmethod
    def _rel_bump(view: Relation, key: tuple, d: int) -> None:
        if d:
            view.upsert(key, d)

    # -- routing --------------------------------------------------------------

    def route(self, i: int, t: tuple):
        if i == 0 or i == 3:
            return None
        self.counters.lookups += 1
        return self.parts[i].route(t, self.eps == 0.0)

    def apply_update(self, rel, lab, t: tuple, m: int) -> int:
        """Dispatch a routed delta to the update procedure of its relation."""
        i = self._index[rel]
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
        out: dict = {name: {} for name in
                     ("rs_ll", "rs_lh", "rs_hh", "t_ll_u", "t_hl_u", "t_hh_u",
                      "t_ind", "s_ind", "r_s_hl_t_ind", "r_s_ll_t_lh",
                      "s_ind_t_lh_u", "s_hl_t_ll_u")}
        for name, lab in (("rs_ll", "ll"), ("rs_lh", "lh"), ("rs_hh", "hh")):
            view = out[name]
            for (a, b), ms in self.s.parts[lab].entries.items():
                c.iterations += 1
                mr = self.r.get(a)
                if mr:
                    bump(view, b, mr * ms)
        for name, lab in (("t_ll_u", "ll"), ("t_hl_u", "hl"), ("t_hh_u", "hh")):
            view = out[name]
            for (b, cv), mt in self.t.parts[lab].entries.items():
                c.iterations += 1
                mu = self.u.get(cv)
                if mu:
                    bump(view, b, mt * mu)
        for name, s_lab, t_lab in (("s_ll_t_lh", "ll", "lh"),
                                   ("s_hl_t_ll", "hl", "ll"),
                                   ("s_hl_t_lh", "hl", "lh"),
                                   ("s_hl_t_hh", "hl", "hh"),
                                   ("s_hh_t_lh", "hh", "lh")):
            rel = Relation(2)
            t_idx = self.t.parts[t_lab].indexes[IDX0]
            te = self.t.parts[t_lab].entries
            for (a, b), ms in self.s.parts[s_lab].entries.items():
                posts = t_idx.get(b)
                if posts:
                    c.iterations += len(posts)
                    for e in posts:
                        d = ms * te[e]
                        if d:
                            rel.upsert((a, e[1]), d)
            out[name] = rel
        out["t_ind"] = {b: 1 for b in self.t.parts["hl"].indexes[IDX0]}
        out["s_ind"] = {b: 1 for b in self.s.parts["lh"].indexes[IDX1]}
        for b in out["t_ind"]:
            w = 0
            for e in self.s.parts["hl"].indexes[IDX1].get(b, ()):
                c.iterations += 1
                mr = self.r.get(e[0])
                if mr:
                    w += mr * self.s.parts["hl"].entries[e]
            if w:
                out["r_s_hl_t_ind"][b] = w
        for (a, cv), w in out["s_ll_t_lh"].entries.items():
            c.iterations += 1
            mr = self.r.get(a)
            if mr:
                bump(out["r_s_ll_t_lh"], cv, mr * w)
        for b in out["s_ind"]:
            w = 0
            for e in self.t.parts["lh"].indexes[IDX0].get(b, ()):
                c.iterations += 1
                mu = self.u.get(e[1])
                if mu:
                    w += self.t.parts["lh"].entries[e] * mu
            if w:
                out["s_ind_t_lh_u"][b] = w
        for (a, cv), w in out["s_hl_t_ll"].entries.items():
            c.iterations += 1
            mu = self.u.get(cv)
            if mu:
                bump(out["s_hl_t_ll_u"], a, w * mu)
        return out

    def rebuild_views(self) -> None:
        views = self.recompute_views()
        for name in self.VIEW_NAMES:
            setattr(self, name, views[name])

    @classmethod
    def preprocess(cls, db: dict, eps: float = 0.5,
                   counters: OpCounters | None = None) -> "Path4Engine":
        eng = cls(eps, counters)
        r_rel, s_rel, t_rel, u_rel = eng._load(db)
        eng.r = {t[0]: m for t, m in r_rel.entries.items()}
        eng.u = {t[0]: m for t, m in u_rel.entries.items()}
        theta = eng._theta()
        eng._set_quads(quad_partition_strict(s_rel, theta), quad_partition_strict(t_rel, theta))
        eng.rebuild_views()
        q = 0
        for a, mr in eng.r.items():
            q += mr * eng._delta_sum_r(a)
        eng.q = q
        return eng
