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

The one-variable views are plain dicts ``{key: m}``. Each S-T join view
is a ``JoinView``: nested maps ``rows = {a: {c: m}}`` and/or
``cols = {c: {a: m}}``, only those the deltas walk it by
(``JOIN_VIEWS``), and a running entry count. An upkeep walk adds a whole
line of postings at one fixed key through ``add_line``, and every other
view add happens inside the walk, so no view write costs a call per
posting.

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

from operator import itemgetter

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import IDX0, IDX1, QuadPartition, Relation, bump

REL_NAMES = ("R", "S", "T", "U")


class JoinView:
    """Finite map ``(a, c) -> nonzero int`` kept as nested maps.

    ``rows[a]`` maps each ``c`` to the multiplicity of ``(a, c)`` and
    ``cols[c]`` each ``a``; either map is ``None`` when the view is not
    walked by its variable, and with both they are exact transposes. No
    inner map is empty. ``n`` counts the entries.
    """

    __slots__ = ("rows", "cols", "n")

    def __init__(self, specs: tuple):
        self.rows = {} if IDX0 in specs else None
        self.cols = {} if IDX1 in specs else None
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def items(self):
        """Every ``((a, c), multiplicity)``."""
        if self.rows is not None:
            for a, row in self.rows.items():
                for c, m in row.items():
                    yield (a, c), m
        else:
            for c, col in self.cols.items():
                for a, m in col.items():
                    yield (a, c), m


def add_line(view: JoinView, key, by_row: bool, posts: dict, m: int) -> None:
    """Z-ring add of ``m * mult`` along one line of ``view``, per posting ``(e, mult)``.

    The postings are a T posting map ``{(b, c): mult}`` adding at
    ``(key, c)`` when ``by_row``, else an S posting map ``{(a, b): mult}``
    adding at ``(a, key)``.
    Each write goes into the map keyed by ``key``'s variable (the near
    map, one inner map for the whole walk) and is mirrored into the other;
    an entry that cancels to zero is deleted, and so is an inner map it
    leaves empty. ``view.n`` follows.
    """
    if by_row:
        near, far, pos = view.rows, view.cols, 1
    else:
        near, far, pos = view.cols, view.rows, 0
    n = view.n
    if near is None:
        # one inner map per posting, in the far map only
        for e, w in posts.items():
            o = e[pos]
            line = far.get(o)
            if line is None:
                far[o] = {key: m * w}
                n += 1
                continue
            old = line.get(key)
            if old is None:
                line[key] = m * w
                n += 1
            elif old + m * w:
                line[key] = old + m * w
            else:
                del line[key]
                n -= 1
                if not line:
                    del far[o]
        view.n = n
        return
    line = near.get(key)
    if line is None:
        line = {}
    for e, w in posts.items():
        o = e[pos]
        d = m * w
        old = line.get(o)
        if old is None:
            line[o] = d
            n += 1
            if far is not None:
                col = far.get(o)
                if col is None:
                    far[o] = {key: d}
                else:
                    col[key] = d
        elif old + d:
            line[o] = old + d
            if far is not None:
                far[o][key] = old + d
        else:
            del line[o]
            n -= 1
            if far is not None:
                col = far[o]
                del col[key]
                if not col:
                    del far[o]
    if line:
        near[key] = line
    else:
        near.pop(key, None)
    view.n = n


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
            setattr(self, name, JoinView(specs))
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
        acc += self._line_sum(self.s_ll_t_lh.rows.get(a), u)
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
            acc += self._line_sum(view.rows.get(a), u)
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
        acc += self._line_sum(self.s_hl_t_ll.cols.get(cval), r)
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
            acc += self._line_sum(view.cols.get(cval), r)
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

    def _line_sum(self, line: dict | None, weights: dict) -> int:
        """Sum over a join view's line ``{other: multiplicity}`` of multiplicity * weight."""
        if not line:
            return 0
        self.counters.iterations += len(line)
        acc = 0
        for k, m in line.items():
            w = weights.get(k)
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
                    b = e[1]
                    v = view.get(b, 0) + m * ms
                    if v:
                        view[b] = v
                    else:
                        del view[b]
        if self.t_ind:
            c.iterations += len(self.t_ind)
            row = self.s.parts["hl"].indexes[IDX0].get(a)
            if row:
                view = self.r_s_hl_t_ind
                for b in self.t_ind:
                    ms = row.get((a, b))
                    if ms:
                        v = view.get(b, 0) + m * ms
                        if v:
                            view[b] = v
                        else:
                            del view[b]
        line = self.s_ll_t_lh.rows.get(a)
        if line:
            c.iterations += len(line)
            view = self.r_s_ll_t_lh
            for cval, mv in line.items():
                v = view.get(cval, 0) + m * mv
                if v:
                    view[cval] = v
                else:
                    del view[cval]

        return bump(self.r, a, m)

    def update_u(self, cval, m: int) -> int:
        c = self.counters
        for lab, view in (("ll", self.t_ll_u), ("hl", self.t_hl_u), ("hh", self.t_hh_u)):
            posts = self.t.parts[lab].indexes[IDX1].get(cval)
            if posts:
                c.iterations += len(posts)
                for e, mt in posts.items():
                    b = e[0]
                    v = view.get(b, 0) + m * mt
                    if v:
                        view[b] = v
                    else:
                        del view[b]
        if self.s_ind:
            c.iterations += len(self.s_ind)
            col = self.t.parts["lh"].indexes[IDX1].get(cval)
            if col:
                view = self.s_ind_t_lh_u
                for b in self.s_ind:
                    mt = col.get((b, cval))
                    if mt:
                        v = view.get(b, 0) + m * mt
                        if v:
                            view[b] = v
                        else:
                            del view[b]
        line = self.s_hl_t_ll.cols.get(cval)
        if line:
            c.iterations += len(line)
            view = self.s_hl_t_ll_u
            for a, mv in line.items():
                v = view.get(a, 0) + m * mv
                if v:
                    view[a] = v
                else:
                    del view[a]

        return bump(self.u, cval, m)

    def update_s(self, lab: str, t: tuple, m: int) -> int:
        a, b = t
        c = self.counters
        ra = self.r.get(a, 0)
        new = self.s.parts[lab].upsert(t, m)
        t_parts = self.t.parts

        if lab == "hh":
            if ra:
                bump(self.rs_hh, b, ra * m)
            self._join_scan(self.s_hh_t_lh, a, True, t_parts["lh"].indexes[IDX0].get(b), m)
        elif lab == "lh":
            if ra:
                bump(self.rs_lh, b, ra * m)
            support = len(self.s.parts["lh"].indexes[IDX1].get(b, ()))
            if new == m and support == 1:
                self.s_ind[b] = 1
                w = self._hop_sum(t_parts["lh"], b, IDX0, self.u)
                if w:
                    self.s_ind_t_lh_u[b] = w
            elif new == 0 and support == 0:
                self.s_ind.pop(b, None)
                self.s_ind_t_lh_u.pop(b, None)
        elif lab == "hl":
            posts = t_parts["ll"].indexes[IDX0].get(b)
            self._join_scan(self.s_hl_t_ll, a, True, posts, m)
            if posts:
                u = self.u
                w_sum = 0
                for e, mt in posts.items():
                    mu = u.get(e[1])
                    if mu:
                        w_sum += mt * mu
                if w_sum:
                    bump(self.s_hl_t_ll_u, a, m * w_sum)
            self._join_scan(self.s_hl_t_lh, a, True, t_parts["lh"].indexes[IDX0].get(b), m)
            self._join_scan(self.s_hl_t_hh, a, True, t_parts["hh"].indexes[IDX0].get(b), m)
            if ra and b in self.t_ind:
                c.lookups += 1
                bump(self.r_s_hl_t_ind, b, ra * m)
        else:  # ll
            if ra:
                bump(self.rs_ll, b, ra * m)
            posts = t_parts["lh"].indexes[IDX0].get(b)
            self._join_scan(self.s_ll_t_lh, a, True, posts, m)
            if posts and ra:
                view = self.r_s_ll_t_lh
                for e, mt in posts.items():
                    cval = e[1]
                    v = view.get(cval, 0) + ra * m * mt
                    if v:
                        view[cval] = v
                    else:
                        del view[cval]
        return new

    def update_t(self, lab: str, t: tuple, m: int) -> int:
        b, cval = t
        c = self.counters
        ug = self.u.get(cval, 0)
        new = self.t.parts[lab].upsert(t, m)
        s_parts = self.s.parts

        if lab == "hh":
            if ug:
                bump(self.t_hh_u, b, ug * m)
            self._join_scan(self.s_hl_t_hh, cval, False, s_parts["hl"].indexes[IDX1].get(b), m)
        elif lab == "hl":
            if ug:
                bump(self.t_hl_u, b, ug * m)
            support = len(self.t.parts["hl"].indexes[IDX0].get(b, ()))
            if new == m and support == 1:
                self.t_ind[b] = 1
                w = self._hop_sum(s_parts["hl"], b, IDX1, self.r)
                if w:
                    self.r_s_hl_t_ind[b] = w
            elif new == 0 and support == 0:
                self.t_ind.pop(b, None)
                self.r_s_hl_t_ind.pop(b, None)
        elif lab == "lh":
            posts = s_parts["ll"].indexes[IDX1].get(b)
            self._join_scan(self.s_ll_t_lh, cval, False, posts, m)
            if posts:
                r = self.r
                w_sum = 0
                for e, ms in posts.items():
                    mr = r.get(e[0])
                    if mr:
                        w_sum += mr * ms
                if w_sum:
                    bump(self.r_s_ll_t_lh, cval, w_sum * m)
            self._join_scan(self.s_hl_t_lh, cval, False, s_parts["hl"].indexes[IDX1].get(b), m)
            self._join_scan(self.s_hh_t_lh, cval, False, s_parts["hh"].indexes[IDX1].get(b), m)
            if ug and b in self.s_ind:
                c.lookups += 1
                bump(self.s_ind_t_lh_u, b, ug * m)
        else:  # ll
            if ug:
                bump(self.t_ll_u, b, ug * m)
            posts = s_parts["hl"].indexes[IDX1].get(b)
            self._join_scan(self.s_hl_t_ll, cval, False, posts, m)
            if posts and ug:
                view = self.s_hl_t_ll_u
                for e, ms in posts.items():
                    a = e[0]
                    v = view.get(a, 0) + ms * m * ug
                    if v:
                        view[a] = v
                    else:
                        del view[a]
        return new

    def _join_scan(self, view: JoinView, key, by_row: bool, posts: dict | None, m: int) -> None:
        """``add_line`` over a posting map that may be missing; its postings count as iterations."""
        if posts:
            self.counters.iterations += len(posts)
            add_line(view, key, by_row, posts, m)

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
            self._fold(s_parts[lab].indexes[IDX0], self.r, out["rs_" + lab], 1)
        for lab in ("ll", "hl", "hh"):
            self._fold(t_parts[lab].indexes[IDX1], self.u, out[f"t_{lab}_u"], 0)
        for name, s_lab, t_lab in (("s_ll_t_lh", "ll", "lh"),
                                   ("s_hl_t_ll", "hl", "ll"),
                                   ("s_hl_t_lh", "hl", "lh"),
                                   ("s_hl_t_hh", "hl", "hh"),
                                   ("s_hh_t_lh", "hh", "lh")):
            view = JoinView(self.JOIN_VIEWS[name])
            s_idx = s_parts[s_lab].indexes[IDX1]
            t_idx = t_parts[t_lab].indexes[IDX0]
            for b in s_idx.keys() & t_idx.keys():
                s_posts = s_idx[b]
                t_posts = t_idx[b]
                c.iterations += len(s_posts) * len(t_posts)
                for e, ms in s_posts.items():
                    add_line(view, e[0], True, t_posts, ms)
            out[name] = view
        out["t_ind"] = {b: 1 for b in t_parts["hl"].indexes[IDX0]}
        out["s_ind"] = {b: 1 for b in s_parts["lh"].indexes[IDX1]}
        for b in out["t_ind"]:
            w = self._hop_sum(s_parts["hl"], b, IDX1, self.r)
            if w:
                out["r_s_hl_t_ind"][b] = w
        self._fold(out["s_ll_t_lh"].rows, self.r, out["r_s_ll_t_lh"])
        for b in out["s_ind"]:
            w = self._hop_sum(t_parts["lh"], b, IDX0, self.u)
            if w:
                out["s_ind_t_lh_u"][b] = w
        self._fold(out["s_hl_t_ll"].cols, self.u, out["s_hl_t_ll_u"])
        return out

    def _fold(self, lines: dict, weights: dict, view: dict, pos: int | None = None) -> None:
        """view[other] += multiplicity * weights[key], per line ``key -> {other: multiplicity}``.

        With ``pos`` the lines are an index's posting maps ``{tuple: multiplicity}``
        and the other variable is ``tuple[pos]``.
        """
        c = self.counters
        for key, line in lines.items():
            c.iterations += len(line)
            w = weights.get(key)
            if w:
                others = line if pos is None else map(itemgetter(pos), line)
                for o, m in zip(others, line.values()):
                    v = view.get(o, 0) + m * w
                    if v:
                        view[o] = v
                    else:
                        del view[o]

    def rebuild_views(self) -> None:
        views = self.recompute_views()
        for name in self.VIEW_NAMES:
            setattr(self, name, views[name])

    def load_whole(self, i: int, rows: dict) -> None:
        (self.r if i == 0 else self.u).update((t[0], m) for t, m in rows.items())
