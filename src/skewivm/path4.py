"""Endpoint-weighted two-hop count over four relations.

Maintains ``q = sum_{a,b,c} R(a) * S(a,b) * T(b,c) * U(c)`` under
single-tuple updates to any of the four relations. The unary endpoint
relations R and U stay unpartitioned; the binary middle relations S and T
are each partitioned on both variables into four parts, as in the refined
triangle engine.

A family of auxiliary views, listed in ``VIEW_PAIRS``, makes every one of
the sixteen part combinations of a delta either a constant-time lookup or
a scan bounded by a light-degree budget or by the distinct-key count of a
heavy part.

The query reads the same from either end: read backwards, R and U swap
and S(a,b) becomes T(b,a). A part label gives its statuses in end-first
order, so T's ``hl`` (B heavy, C light) is ``lh`` seen from U, and ``ll``
and ``hh`` stay. Under this mirror the views pair up, R end <-> U end:

  rs_ll, rs_lh, rs_hh  <->  t_ll_u, t_hl_u, t_hh_u
  r_s_hl_t_ind         <->  s_ind_t_lh_u
  r_s_ll_t_lh          <->  s_hl_t_ll_u
  s_ll_t_lh            <->  s_hl_t_ll, transposed
  s_hl_t_hh            <->  s_hh_t_lh, transposed
  s_hl_t_lh            <->  itself, transposed

so each end procedure (the update of an end relation, its delta, and the
update of the middle relation next to it) is written once, in the R end's
names, and runs on either end through an ``End`` descriptor; the view
attributes read and write the descriptors' fields.

The masked views keep the near hl part's weight only at the b values the
far hl part holds, read from its index on b: presence, not multiplicity.
A b enters with that part's first tuple there, by a light-bounded scan
within the per-update budget, and leaves with its last.

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
The delta of every relation is computed in ``delta``; the update
procedures keep only the views and the stored relations.
"""

from __future__ import annotations

from operator import attrgetter

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import IDX0, IDX1, QUAD_LABELS, QuadPartition, bump

REL_NAMES = ("R", "S", "T", "U")

# Every view with its mirror partner: the field of ``End`` that keeps the
# pair -> (the view at the R end, the view at the U end). Read from the end,
# with ``a`` its value, ``b`` the middle one and ``c`` the far end's:
VIEW_PAIRS = {
    # near part xy weighted by the end, by b
    "w_ll": ("rs_ll", "t_ll_u"), "w_lh": ("rs_lh", "t_hl_u"), "w_hh": ("rs_hh", "t_hh_u"),
    # near part hl weighted by the end, by b, at the b of the far part hl (B heavy, C light)
    "masked": ("r_s_hl_t_ind", "s_ind_t_lh_u"),
    # near part xy joined with far part zw over b, by (a, c)
    "ll_lh": ("s_ll_t_lh", "s_hl_t_ll"), "hl_hh": ("s_hl_t_hh", "s_hh_t_lh"),
    "hl_lh": ("s_hl_t_lh", "s_hl_t_lh"),
    # ll_lh weighted by the end, by c
    "chain": ("r_s_ll_t_lh", "s_hl_t_ll_u"),
}


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
    """Z-ring add of ``m * mult`` along one line of ``view``, per posting ``(o, mult)``.

    The postings are a T posting map ``{c: mult}`` adding at ``(key, c)``
    when ``by_row``, else an S posting map ``{a: mult}`` adding at ``(a,
    key)``.
    Each write goes into the map keyed by ``key``'s variable (the near
    map, one inner map for the whole walk) and is mirrored into the other;
    an entry that cancels to zero is deleted, and so is an inner map it
    leaves empty. ``view.n`` follows.
    """
    near, far = (view.rows, view.cols) if by_row else (view.cols, view.rows)
    n = view.n
    if near is None:
        # one inner map per posting, in the far map only
        for o, w in posts.items():
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
    for o, w in posts.items():
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


class End:
    """One end of the path as its procedures read it, with ``a`` the end's value.

    The near relation is the middle one at the end (S at R, T at U), the
    far one the other; ``labels`` maps the near ``parts``' labels to
    end-first ones, which key the near indexes by ``a`` (``at``, whose
    postings are keyed by ``b``) and by ``b`` (``near_b``, keyed by ``a``)
    and the far ones by ``b`` (``far_b``, keyed by the far end's value). A
    near tuple has ``a`` at ``apos`` and ``b`` at ``bpos``; ``by_row`` says
    whether ``a`` is the row variable of the join views. ``w`` is the
    end's weights, and the fields of ``VIEW_PAIRS`` hold its views.
    """

    __slots__ = ("w", "parts", "labels", "at", "near_b", "far_b", "apos", "bpos",
                 "by_row", *VIEW_PAIRS)

    def __init__(self, w: dict, near: QuadPartition, far: QuadPartition, by_row: bool):
        self.w, self.parts, self.by_row = w, near.parts, by_row
        self.labels = labels = {lab: lab if by_row else lab[::-1] for lab in QUAD_LABELS}
        self.apos = apos = 0 if by_row else 1
        self.bpos = bpos = 1 - apos
        self.at, self.near_b, self.far_b = (
            {labels[lab]: rel.indexes[(pos,)] for lab, rel in part.parts.items()}
            for part, pos in ((near, apos), (near, bpos), (far, apos)))


def _view_attr(name: str) -> property:
    """Engine attribute ``name``: the view in the end descriptors (both, for its own mirror)."""
    at = [(end, field) for field, pair in VIEW_PAIRS.items()
          for end, held in zip(("r_end", "u_end"), pair) if held == name]

    def put(self, view) -> None:
        for end, field in at:
            setattr(getattr(self, end), field, view)
    return property(attrgetter("%s.%s" % at[0]), put)


class Path4Engine(MaintenanceKernel):
    """Four-relation path count under single-tuple updates."""

    REL = REL_NAMES

    VIEW_NAMES = tuple(dict.fromkeys(name for pair in VIEW_PAIRS.values() for name in pair))
    # the S-T join views with the indexes the delta procedures walk them by
    JOIN_VIEWS = {"s_ll_t_lh": (IDX0,), "s_hl_t_ll": (IDX1,), "s_hl_t_lh": (IDX0, IDX1),
                  "s_hl_t_hh": (IDX0, IDX1), "s_hh_t_lh": (IDX0, IDX1)}

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (1, 2, 2, 1), eps, counters)
        self.r, self.u = {}, {}
        # S and T are the kernel's partitions of relations 1 and 2
        self.s, self.t = QuadPartition(), QuadPartition()
        self.parts = [None, self.s, self.t, None]
        self.r_end = End(self.r, self.s, self.t, True)
        self.u_end = End(self.u, self.t, self.s, False)
        for name in self.VIEW_NAMES:
            setattr(self, name, JoinView(self.JOIN_VIEWS[name]) if name in self.JOIN_VIEWS else {})

    def lookup(self, rel, t: tuple) -> int:
        i = self._checked_tuple(rel, t)
        if i == 0:
            return self.r.get(t[0], 0)
        if i == 3:
            return self.u.get(t[0], 0)
        return self.parts[i].multiplicity(t)

    def space_used(self) -> int:
        return (len(self.r) + len(self.u) + self.s.total_size() + self.t.total_size()
                + sum(len(getattr(self, name)) for name in self.VIEW_NAMES))

    # -- deltas ---------------------------------------------------------------

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Count change for the delta ``m`` of ``t`` in relation i."""
        c = self.counters
        if i == 1:
            a, b = t
            ra = self.r.get(a)
            if not ra:
                return 0
            t_by_b, u = self.r_end.far_b, self.u  # T's indexes by b, under T's own labels
            acc = self._hop_sum(t_by_b["ll"], b, u)
            acc += self._hop_sum(t_by_b["lh"], b, u)
            c.lookups += 1
            acc += self.u_end.w_lh.get(b, 0)  # t_hl_u
            acc += self._hop_sum(t_by_b["hh"], b, u)
            return ra * m * acc
        if i == 2:
            b, cval = t
            ug = self.u.get(cval)
            if not ug:
                return 0
            c.lookups += 3
            r_end = self.r_end
            acc = r_end.w_ll.get(b, 0) + r_end.w_lh.get(b, 0) + r_end.w_hh.get(b, 0)
            acc += self._hop_sum(self.s.parts["hl"].indexes[IDX1], b, self.r)
            return ug * m * acc
        if i == 0:
            return m * self._delta_sum(self.r_end, self.u_end, t[0])
        return m * self._delta_sum(self.u_end, self.r_end, t[0])

    def _delta_sum(self, d: End, o: End, a) -> int:
        """One-sided sum for an update at ``a`` to ``d``'s end relation, ``o`` the other end."""
        c = self.counters
        acc = 0
        at, by_row, fw = d.at, d.by_row, o.w
        o_ll, o_lh, o_hh = o.w_ll, o.w_lh, o.w_hh

        for lab in ("ll", "hh"):
            posts = at[lab].get(a)
            if posts:
                c.iterations += len(posts)
                for b, ms in posts.items():
                    w = o_ll.get(b, 0) + o_lh.get(b, 0) + o_hh.get(b, 0)
                    if w:
                        acc += ms * w
        posts = at["lh"].get(a)
        if posts:
            c.iterations += len(posts)
            masked = o.masked
            for b, ms in posts.items():
                w = o_ll.get(b, 0) + masked.get(b, 0) + o_lh.get(b, 0) + o_hh.get(b, 0)
                if w:
                    acc += ms * w
        c.lookups += 1
        acc += o.chain.get(a, 0)
        if o_lh:
            c.iterations += len(o_lh)
            row = at["hl"].get(a)
            if row:
                for b, w in o_lh.items():
                    ms = row.get(b)
                    if ms:
                        acc += ms * w
        for view in (d.ll_lh, d.hl_lh, d.hl_hh, o.hl_hh):
            acc += self._line_sum(view, a, by_row, fw)
        return acc

    def _hop_sum(self, index: dict, key, weights: dict) -> int:
        """Sum of multiplicity * weights[o] over the postings ``o`` of ``index`` at ``key``."""
        posts = index.get(key)
        if not posts:
            return 0
        self.counters.iterations += len(posts)
        acc = 0
        for o, m in posts.items():
            w = weights.get(o)
            if w:
                acc += m * w
        return acc

    def _line_sum(self, view: JoinView, key, by_row: bool, weights: dict) -> int:
        """Sum of multiplicity * weight over the row (``by_row``) or column ``key`` of ``view``."""
        line = (view.rows if by_row else view.cols).get(key)
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
        return self._update_end(self.r_end, a, m)

    def update_u(self, cval, m: int) -> int:
        return self._update_end(self.u_end, cval, m)

    def _update_end(self, d: End, a, m: int) -> int:
        """Add ``m`` at ``a`` to the end relation of ``d``; returns the stored multiplicity."""
        c = self.counters
        at = d.at
        for lab, view in (("ll", d.w_ll), ("lh", d.w_lh), ("hh", d.w_hh)):
            posts = at[lab].get(a)
            if posts:
                c.iterations += len(posts)
                for b, ms in posts.items():
                    v = view.get(b, 0) + m * ms
                    if v:
                        view[b] = v
                    else:
                        del view[b]
        mask = d.far_b["hl"]
        if mask:
            c.iterations += len(mask)
            row = at["hl"].get(a)
            if row:
                view = d.masked
                for b in mask:
                    ms = row.get(b)
                    if ms:
                        v = view.get(b, 0) + m * ms
                        if v:
                            view[b] = v
                        else:
                            del view[b]
        joined = d.ll_lh
        line = (joined.rows if d.by_row else joined.cols).get(a)
        if line:
            c.iterations += len(line)
            view = d.chain
            for cval, mv in line.items():
                v = view.get(cval, 0) + m * mv
                if v:
                    view[cval] = v
                else:
                    del view[cval]
        return bump(d.w, a, m)

    def update_s(self, lab: str, t: tuple, m: int) -> int:
        return self._update_near(self.r_end, self.u_end, lab, t, m)

    def update_t(self, lab: str, t: tuple, m: int) -> int:
        return self._update_near(self.u_end, self.r_end, lab, t, m)

    def _update_near(self, d: End, o: End, lab: str, t: tuple, m: int) -> int:
        """Add ``m`` to ``t`` in part ``lab`` of ``d``'s near relation, ``o`` the other end."""
        a, b = t[d.apos], t[d.bpos]
        ra = d.w.get(a, 0)
        new = d.parts[lab].upsert(t, m)
        far_b, by_row = d.far_b, d.by_row
        lab = d.labels[lab]

        if lab == "hh":
            if ra:
                bump(d.w_hh, b, ra * m)
            self._join_scan(o.hl_hh, a, by_row, far_b["lh"].get(b), m)
        elif lab == "lh":
            if ra:
                bump(d.w_lh, b, ra * m)
            support = len(d.near_b["lh"].get(b, ()))
            if new == m and support == 1:
                w = self._hop_sum(far_b["lh"], b, o.w)
                if w:
                    o.masked[b] = w
            elif new == 0 and support == 0:
                o.masked.pop(b, None)
        elif lab == "hl":
            posts = far_b["ll"].get(b)
            self._join_scan(o.ll_lh, a, by_row, posts, m)
            if posts:
                fw = o.w
                w_sum = 0
                for cval, mt in posts.items():
                    mu = fw.get(cval)
                    if mu:
                        w_sum += mt * mu
                if w_sum:
                    bump(o.chain, a, m * w_sum)
            self._join_scan(d.hl_lh, a, by_row, far_b["lh"].get(b), m)
            self._join_scan(d.hl_hh, a, by_row, far_b["hh"].get(b), m)
            if ra and b in far_b["hl"]:
                self.counters.lookups += 1
                bump(d.masked, b, ra * m)
        else:  # ll
            if ra:
                bump(d.w_ll, b, ra * m)
            posts = far_b["lh"].get(b)
            self._join_scan(d.ll_lh, a, by_row, posts, m)
            if posts and ra:
                view = d.chain
                for cval, mt in posts.items():
                    v = view.get(cval, 0) + ra * m * mt
                    if v:
                        view[cval] = v
                    else:
                        del view[cval]
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

    def recompute_views(self) -> dict:
        """All auxiliary views rebuilt from the base relations, by name."""
        c = self.counters
        out: dict = {}
        for k, d in enumerate((self.r_end, self.u_end)):
            views: dict = {}
            for lab in ("ll", "lh", "hh"):
                views["w_" + lab] = view = {}
                self._fold(d.at[lab], d.w, view)
            for field in ("ll_lh", "hl_hh", "hl_lh"):  # near part _ far part
                name = VIEW_PAIRS[field][k]
                if name in out:  # s_hl_t_lh, its own mirror, is built once
                    views[field] = out[name]
                    continue
                views[field] = view = JoinView(self.JOIN_VIEWS[name])
                near, far = d.near_b[field[:2]], d.far_b[field[3:]]
                for b in near.keys() & far.keys():
                    c.iterations += len(near[b]) * len(far[b])
                    for a, mn in near[b].items():
                        add_line(view, a, d.by_row, far[b], mn)
            views["masked"] = masked = {}
            for b in d.far_b["hl"]:
                w = self._hop_sum(d.near_b["hl"], b, d.w)
                if w:
                    masked[b] = w
            joined = views["ll_lh"]
            views["chain"] = chain = {}
            self._fold(joined.rows if d.by_row else joined.cols, d.w, chain)
            for field, view in views.items():
                out[VIEW_PAIRS[field][k]] = view
        return out

    def _fold(self, lines: dict, weights: dict, view: dict) -> None:
        """view[other] += multiplicity * weights[key], per line ``key -> {other: multiplicity}``.

        The lines are a join view's, or an index's posting maps.
        """
        c = self.counters
        for key, line in lines.items():
            c.iterations += len(line)
            w = weights.get(key)
            if w:
                for o, m in line.items():
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


for _name in Path4Engine.VIEW_NAMES:
    setattr(Path4Engine, _name, _view_attr(_name))
del _name
