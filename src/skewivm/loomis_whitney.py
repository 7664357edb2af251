"""Cyclic count queries of configurable degree, maintained by generated code.

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
    (per-key light budget).

The strategies are planned as walks. A walk scans one part at a key read
from the update tuple and, for each candidate, probes the other
relations' tuples, read from the update tuple extended by the candidate.
The combinations that scan the same part share one walk, which probes
every part any of them probes (a tuple sits in one part, even while its
key is in transit). Relation v's delta thus runs the view lookup, the
scan of relation v-1's heavy part, and one light scan per other relation.

The auxiliary view ``views[v]`` aggregates variable v-1 out of the join of
relation v-1's light part with the heavy parts of all remaining relations
(other than v). That shape makes the constant-time case above work and
stays maintainable: an update to a heavy member scans the light member at
its fixed leading key, an update to the light member scans relation v-2's
heavy part, whose leading variable is again the free one. A view is built
by one member's upkeep walk, run over that member's part. A plan may name
two more kinds of view (``Plan.kinds``), written by the same walks: a
family keeps variable v-1 instead of summing it out, and a listing is
keyed by every variable.

The walks are not interpreted: a plan (``Plan``, plain data) becomes
Python source (``plan_source()``) of integers and fixed names, one
``delta`` (none for a plan without deltas) and one ``apply_update`` with a
branch per relation and part label, and a ``build`` of each view from a
whole part, walked through its lookup index. It is compiled once per plan
and degree and bound per engine to its index dicts, relations, ``moving``
maps, counters and views. A scan index leaves only the free variable out,
so its postings are keyed by the candidate itself (``for z, prod in
posts.items()``). A probe reads the partition key's index or one the plan
names, at the probed tuple's key there, and gets the posting keyed by the
tuple's free part: the one value the index leaves out, or the whole tuple
when it leaves out more. The parts a probe may hit that differ only in the
status of that index's variables are read as one row while the partition
has no key in transit, all their rows while one is. A row whose key the
update fixes is read once per walk. Each part keeps only its lookup index
(on the partition key) and the indexes some walk reads.

At degree 3 the views are the triangle's wedges: the plan is the triangle
engine (``skewivm.triangle``), and over one partition standing in for all
three relations, the self-join engine (``skewivm.selfjoin``); a plan over
two-variable splits is the refined engine (``skewivm.refined``); the
triangle's upkeep walks writing families, plus walks into a listing, are
the enumeration engine (``skewivm.enumeration``). Relations are named
R1..Rn (or indexed 0..n-1); rebalancing comes from the kernel.
"""

from __future__ import annotations

from collections import ChainMap
from typing import NamedTuple

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, LIGHT, Partition, free_position


# the kinds of view (``Plan.kinds``)
SUM, KEEP, ALL = "sum", "keep", "all"


class Plan(NamedTuple):
    """A cyclic plan as data: part labels, per relation its delta and upkeep walks, views.

    A walk ``(v, src, side, probes, view)``, for an update to relation v,
    scans part ``side`` of relation ``src`` on its index over every
    variable but v-1 and, per candidate, probes ``(j, sides)`` or ``(j,
    sides, spec)``: the parts of relation j a tuple may sit in, through the
    index ``spec`` (the partition key by default). It adds into
    ``views[view]``, or to the delta; ``deltas`` is ``None`` for a plan
    that keeps no count. ``upkeep[v][label]`` are the walks of an update
    to that part. View i is keyed by relation i's tuple and sums out the
    variable it omits when ``kinds[i]`` is ``SUM``; keeps it when ``KEEP``
    (a family, ``views[i][key][value]``, whose keys relation i stores are
    ``live[i]``); or, when ``ALL``, is a listing keyed by every variable in
    order. ``builds[i]`` names two members ``(relation, label)`` of view i,
    each of which can build it by its upkeep walk over its part; a listing
    holds one combination per member and is built by both.
    """

    labels: tuple
    deltas: list | None
    upkeep: list
    builds: list
    kinds: tuple


def _plan(n: int) -> Plan:
    """The degree-n plan over splits of each relation's leading variable."""
    both, heavy = (LIGHT, HEAVY), (HEAVY,)
    deltas, upkeep = [], []
    for v in range(n):
        prev, nxt = (v - 1) % n, (v + 1) % n
        middle = [(v + d) % n for d in range(1, n - 1)]

        def heavy_rest(*skip):
            return tuple((j, heavy) for j in range(n) if j not in skip)
        # v-1's heavy scan, then the k-th light scan: the relations before
        # it heavy, the others either
        deltas.append(
            [(v, prev, HEAVY, tuple((j, heavy) for j in middle), None)]
            + [(v, j, LIGHT, tuple((h, heavy) for h in middle[:k])
                + tuple((r, both) for r in middle[k + 1:]) + ((prev, both),), None)
               for k, j in enumerate(middle)])
        # a heavy member of every view i outside {v, v+1} scans the light
        # member, relation i-1; the light member of view v+1 scans v-1's
        # heavy part
        upkeep.append({
            HEAVY: [(v, (i - 1) % n, LIGHT, heavy_rest(v, i, (i - 1) % n), i)
                    for i in range(n) if i not in (v, nxt)],
            LIGHT: [(v, prev, HEAVY, heavy_rest(v, nxt, prev), nxt)]})
    builds = [(((i - 1) % n, LIGHT), ((i + 1) % n, HEAVY)) for i in range(n)]
    return Plan((HEAVY, LIGHT), deltas, upkeep, builds, (SUM,) * n)


def _index_name(j: int, side: str, spec: tuple) -> str:
    return f"I{j}{side}_" + "_".join(map(str, spec))


def _source(plan: Plan, n: int) -> tuple[str, dict]:
    """The source of ``plan`` at degree n, and the indexes it reads per part label."""
    specs = {lab: {IDX0} for lab in plan.labels}
    lines: list[str] = []

    def emit(depth, *code):
        lines.extend("    " * depth + line for line in code)

    def walk(d, v, src, side, probes, view):
        # reads t0.. (the update tuple) and m; adds to acc or to its view
        pc = (v - 1 - src) % n
        spec = tuple(q for q in range(n - 1) if q != pc)
        specs[side].add(spec)

        def var(p):  # position p of the update tuple extended by the candidate z
            return "z" if p == n - 1 else f"t{p}"

        def tup(j, positions=range(n - 1)):  # relation j's tuple, or its variables at positions
            return "(" + ", ".join(var((j + k - v) % n) for k in positions) + ")"

        def key(j, spec):  # relation j's key on the index spec
            return tup(j, spec) if len(spec) > 1 else var((j + spec[0] - v) % n)

        def free(j, spec):  # relation j's free part on the index spec, the key of its postings
            p = free_position(n - 1, spec)
            return tup(j) if p is None else var((j + p - v) % n)

        def row(j, group, spec):  # relation j's row at its key on spec in a group of parts
            gets = [f"{_index_name(j, s, spec)}.get({key(j, spec)})" for s in group]
            both = f"ChainMap({' or EMPTY, '.join(gets)} or EMPTY)"
            return gets[0] if len(gets) == 1 else f"({' or '.join(gets)} if not M{j} else {both})"

        def rows(j, sides, index):  # relation j's rows on index, one per group of its parts
            rest: dict = {}
            for s in sides:
                specs[s].add(index)
                rest.setdefault(tuple(c for q, c in enumerate(s) if q not in index), []).append(s)
            return [row(j, group, index) for group in rest.values()]
        emit(d, f"posts = {_index_name(src, side, spec)}.get({key(src, spec)})", "if posts:",
             "    C.iterations += len(posts)")
        kind = None if view is None else plan.kinds[view]
        if kind is not None:
            emit(d + 1, f"W = VB[0][{view}]")
        if kind == KEEP:
            emit(d + 1, f"LV = VB[1][{view}]", "grown = 0")
        # one row per group of parts that differ only in the status of the
        # index's variables; rows whose key the update fixes are read once
        fixed, gets = [], {}
        for j, sides, *index in probes:
            index = index[0] if index else IDX0
            groups = rows(j, sides, index)
            if any((j + p - v) % n == n - 1 for p in index):
                gets[j] = " or ".join(f"({r} or EMPTY).get({free(j, index)})" for r in groups)
            else:  # one row may be None; of several, each is a dict
                one = len(groups) == 1
                names = [f"r{j}"] if one else [f"r{j}_{g}" for g in range(len(groups))]
                emit(d + 1, *(f"{r} = {g}" + ("" if one else " or EMPTY")
                              for r, g in zip(names, groups)))
                fixed.append(f"r{j} is not None" if one else f"({' or '.join(names)})")
                gets[j] = " or ".join(f"{r}.get({free(j, index)})" for r in names)
        if fixed:
            emit(d + 1, "if " + " and ".join(fixed) + ":")
        body = d + 1
        d += 2 if fixed else 1
        emit(d, "for z, prod in posts.items():")
        product = "prod"
        for j, get in gets.items():
            d += 1
            emit(d, f"m{j} = {get}", f"if m{j}:")
            product += f" * m{j}"
        if kind is None:
            emit(d + 1, f"acc += {product}")
        elif kind == KEEP:
            # a family keyed by relation view's tuple keeps y, the variable
            # it omits; a new key is live when that relation stores it
            y = var((view - 1 - v) % n)
            stored = " or ".join(f"({r} or EMPTY).get({free(view, IDX0)})"
                                 for r in rows(view, plan.labels, IDX0))
            emit(d + 1, f"k = {tup(view)}", "ys = W.get(k)", "if ys is None:",
                 f"    W[k] = {{{y}: m * {product}}}", "    grown += 1",
                 f"    if {stored}:", "        LV.add(k)",
                 f"elif {y} in ys:", f"    w = ys[{y}] + m * {product}", "    if w:",
                 f"        ys[{y}] = w", "    else:", f"        del ys[{y}]", "        grown -= 1",
                 "        if not ys:", "            del W[k]", "            LV.discard(k)",
                 "else:", f"    ys[{y}] = m * {product}", "    grown += 1")
            emit(body, "VB[2] += grown")
        else:  # a listing is keyed by variables 0..n-1
            emit(d + 1, f"k = {tup(view) if kind == SUM else tup(0, range(n))}",
                 f"w = W.get(k, 0) + m * {product}",
                 "if w:", "    W[k] = w", "else:", "    del W[k]")

    def store(d, v, lab):
        # the update itself; a family keyed by relation v's tuples follows
        # whether it is stored
        if plan.kinds[v] != KEEP:
            emit(d, f"return P{v}{lab}.upsert(t, m)")
        else:
            emit(d, f"new = P{v}{lab}.upsert(t, m)", "if new == m:", f"    if t in VB[0][{v}]:",
                 f"        VB[1][{v}].add(t)", "elif not new:", f"    VB[1][{v}].discard(t)",
                 "return new")

    unpack = ", ".join(f"t{p}" for p in range(n - 1)) + " = t"
    if plan.deltas is None:
        emit(1, "delta = None")
    else:
        emit(1, "def delta(v, t, m):", "    C.lookups += 1")
        for v in range(n):
            emit(2, f"if v == {v}:", "    " + unpack, f"    acc = VB[0][{v}].get(t, 0)")
            for w in plan.deltas[v]:
                walk(3, *w)
            emit(3, "return m * acc")
    emit(1, "def apply_update(v, side, t, m):")
    *tested, last = plan.labels
    for v in range(n):
        emit(2, f"if v == {v}:", "    " + unpack)
        for lab in tested:
            emit(3, f"if side == L{lab}:")
            for w in plan.upkeep[v][lab]:
                walk(4, *w)
            store(4, v, lab)
        for w in plan.upkeep[v][last]:
            walk(3, *w)
        store(3, v, last)
    # view i from the part of its first member (its light member), or of
    # its second (its anchor), walked through the part's lookup index
    emit(1, "def build(i, light, rows):")
    for i in range(len(plan.builds)):
        emit(2, f"if i == {i}:", "    if light:")
        for depth, (j, lab) in zip((4, 3), plan.builds[i]):
            if n == 3:  # the lookup index of a binary part keys each posting by t1
                emit(depth, "for t0, row in rows.items():", "    for t1, m in row.items():")
            else:
                emit(depth, "for row in rows.values():", "    for t, m in row.items():",
                     "        " + unpack)
            walk(depth + 2, *next(w for w in plan.upkeep[j][lab] if w[4] == i))
            emit(depth, "return")
    emit(1, "return delta, apply_update, build")
    specs = {lab: sorted(s) for lab, s in specs.items()}
    params = [f"M{j}, " + ", ".join(f"P{j}{lab}" for lab in plan.labels) + ", "
              + ", ".join(_index_name(j, lab, spec) for lab in specs for spec in specs[lab])
              for j in range(n)]
    return "\n".join([f"def bind(C, VB, {', '.join(params)}):"] + lines) + "\n", specs


# (plan, degree) -> (bind, source, index specs, plan), shared by their engines
_COMPILED: dict[tuple, tuple] = {}


class LWEngine(MaintenanceKernel):
    """Cyclic count of degree n under single-tuple updates; eps may be one per relation."""

    # the relation names; None names them R1..Rn
    REL: tuple | None = None
    # the plan of the walks, by degree
    PLAN = staticmethod(_plan)

    def __init__(self, n: int, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        if n < 3:
            raise ValueError("degree must be at least 3")
        super().__init__(self.REL or [f"R{i+1}" for i in range(n)], [n - 1] * n, eps, counters)
        self.delta = self._setup(self._eps)

    def _partition(self, specs: dict) -> Partition:
        """An empty split of one relation whose parts hold the indexes ``specs`` per label."""
        return Partition(self.n - 1, specs)

    def _setup(self, eps: tuple, shared: bool = False):
        """Build the partitions and views of the plan for the exponents ``eps``, and bind it.

        The plan is compiled once per plan and degree. With ``shared``, one
        partition and one view stand for every relation of the plan. The
        views, the families' live sets and their entry count are read
        through one list, so ``rebuild_views`` and callers may replace
        them; nothing bound refers to the engine. Sets ``apply_update`` and
        returns the delta (``None`` for a plan without deltas).
        """
        n = self.n = len(eps)
        self._plan_eps = eps
        key = (self.PLAN, n)
        if key not in _COMPILED:
            plan = self.PLAN(n)
            source, specs = _source(plan, n)
            namespace = {"EMPTY": {}, "ChainMap": ChainMap, **{f"L{x}": x for x in plan.labels}}
            exec(compile(source, f"<plan of degree {n}>", "exec"), namespace)
            _COMPILED[key] = (namespace["bind"], source, specs, plan)
        bind, self._source, specs, plan = _COMPILED[key]
        self._builds, self._kinds = plan.builds, plan.kinds
        self._sized = [i for i, kind in enumerate(plan.kinds) if kind != KEEP]
        self.parts = [self._partition(specs) for _ in range(1 if shared else n)]
        self._ring = self.parts * n if shared else self.parts
        self._views = [[{}] * n if shared else [{} for _ in plan.kinds],
                       [set() for _ in plan.kinds], 0]
        bindings = {"C": self.counters, "VB": self._views}
        for j, part in enumerate(self._ring):
            bindings[f"M{j}"] = part.moving
            for lab, held in specs.items():
                rel = bindings[f"P{j}{lab}"] = part.parts[lab]
                bindings.update((_index_name(j, lab, spec), rel.indexes[spec]) for spec in held)
        delta, self.apply_update, self._build = bind(**bindings)
        return delta

    @property
    def views(self) -> list[dict]:
        """``views[i]``, of the plan's kind ``i``: keyed by relation i's tuples, or a listing."""
        return self._views[0]

    @views.setter
    def views(self, views: list[dict]) -> None:
        self._views[0] = views

    @property
    def live(self) -> list[set]:
        """``live[i]``: the keys of family ``views[i]`` that relation i stores."""
        return self._views[1]

    @property
    def entries(self) -> int:
        """The entries of the families, one per key and kept value."""
        return self._views[2]

    def plan_source(self) -> str:
        """The generated source of the plan, shared by every engine of its plan and degree."""
        return self._source

    def space_used(self) -> int:
        # a family's entries are counted by the update step, any other
        # view's are its keys
        views, _, entries = self._views
        return (sum(p.total_size() for p in self.parts) + entries
                + sum(len(views[i]) for i in self._sized))

    def rebuild_views(self) -> None:
        self._views[:] = [[{} for _ in self._kinds], [set() for _ in self._kinds], 0]
        for i in range(len(self._kinds)):
            self._build_view(i)

    def _build_view(self, i: int) -> None:
        """Build view i by its members' upkeep walks over their parts.

        A listing is built by both. Any other view is built by one, chosen
        by cost: a light member's tuple (relation i-1) walks heavy keys of
        relation i-2, an anchor's a light row of relation i-1.
        """
        n, eps, N = self.n, self._plan_eps, self.N
        (lj, llab), (aj, alab) = self._builds[i]
        lrel, arel = self._ring[lj].parts[llab], self._ring[aj].parts[alab]
        if self._kinds[i] == ALL:
            self._build(i, True, lrel.indexes[IDX0])
            self._build(i, False, arel.indexes[IDX0])
        elif lrel and arel:
            light = (len(arel) * 1.5 * N ** eps[lj]
                     > len(lrel) * 2 * N ** (1.0 - eps[(i - 2) % n]))
            self._build(i, light, (lrel if light else arel).indexes[IDX0])
