"""Count queries maintained by generated code: cyclic joins of any degree, and the path.

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
Python source (``plan_source()``) of integers and fixed names. It defines
one ``step`` with a branch per relation and part label, which adds the
delta walks' sum to the answer, then runs the upkeep walks and stores the
update, all in one call; given no part, it returns that sum instead and
changes nothing. ``delta``, for the loader, is that step with no part
(none for a plan without deltas), and ``apply_update``, for moves, the
step without the delta, so each delta walk is emitted once. A ``build``
makes each view from a whole part, walked through its lookup index. The
source is compiled once per plan and degree and bound per engine to
its index dicts, relations, ``moving`` maps, counters, views and answer.
A scan index leaves only the free variable out, so its postings are
keyed by the candidate itself (``for z, prod in posts.items()``). A probe
reads the partition key's index or one the plan names, at the probed
tuple's key there, and gets the posting keyed by the tuple's free part:
the one value the index leaves out, or the whole tuple when it leaves out
more. The parts a probe may hit that differ only in the status of that
index's variables are read as one row while the partition has no key in
transit, all their rows while one is. A row whose key the update fixes is
read once per walk. Each part keeps only its lookup index (on the
partition key) and the indexes some walk reads.

At degree 3 the views are the triangle's wedges: the plan is the triangle
engine (``skewivm.triangle``), and over one partition standing in for all
three relations, the self-join engine (``skewivm.selfjoin``); a plan over
two-variable splits is the refined engine (``skewivm.refined``); the
triangle's upkeep walks writing families, plus walks into a listing, are
the enumeration engine (``skewivm.enumeration``). A plan may also name
each relation's variables, keep a relation whole and key its views by the
variables it names, scan a view or the keys of an index, and mask a view
by the keys of a part: the path count (``skewivm.path4``). Relations are
named R1..Rn (or indexed 0..n-1). Routing, rebalancing, loading and
the boundary checks are the engine's own (``LWEngine``), the same for
every plan.
"""

from __future__ import annotations

import math
import sys
from collections import ChainMap, deque
from collections.abc import Mapping
from functools import partial
from typing import NamedTuple

from .metrics import OpCounters
from .relation import (HEAVY, IDX0, LIGHT, QUAD_LABELS, Partition, QuadPartition, SchemaError,
                       free_position)


# the kinds of view (``Plan.kinds``)
SUM, KEEP, ALL = "sum", "keep", "all"
# the one part label of a relation kept whole, a plain map ``{value: multiplicity}``
WHOLE = ""


class Plan(NamedTuple):
    """A plan as data: part labels, per relation its delta and upkeep walks, views.

    A walk ``(v, src, side, probes, view)``, for an update to relation v,
    scans part ``side`` of relation ``src`` on its index over the
    variables the update fixes, or, given a sixth item ``spec`` on none of
    them, the keys of its index on ``spec``. With ``src`` ``None`` it scans
    view ``side``: its line at the fixed key, or all of it when it sums and
    the update fixes none of its key; with ``side`` ``None`` as well it
    scans nothing and runs once. Per candidate it probes ``(j, sides)`` or
    ``(j, sides, spec)``: the parts of relation j a tuple may sit in,
    through the index ``spec`` (the partition key by default), a presence
    test that counts a lookup when the posting's value is neither fixed nor
    the candidate; ``(j, (WHOLE,))``, a relation kept whole; or ``(None,
    views)``, the sum of those views at the candidate. It adds into
    ``views[view]``, into each view of a tuple of them (the others are the
    first one's transposes, whose entries it does not count), or to the
    delta; a view keyed by values the update fixes gets the sum over the
    candidates, once. A seventh item ``False`` leaves the postings
    uncounted, when another walk counts the same ones.

    ``deltas`` is ``None`` for a plan that keeps no count.
    ``upkeep[v][label]`` are the walks of an update to that part, under the
    one label ``WHOLE`` for a relation kept whole. View i is keyed by
    relation i's tuple and sums out the variable it omits when
    ``kinds[i]`` is ``SUM``; keeps it when ``KEEP`` (a family,
    ``views[i][key][value]``, whose keys relation i stores are
    ``live[i]``); when ``ALL``, is a listing keyed by every variable in
    order; otherwise ``kinds[i]`` names its key variable and, if it keeps
    one, the kept variable. ``builds[i]`` names two members ``(relation,
    label)`` of view i, each of which can build it by its upkeep walk over
    its whole part (the engine picks one, ``LWEngine._first_builds``; a
    listing holds one combination per member and is built by both); or
    one, which builds it; or is ``None`` for a view written with another.
    ``vars`` gives each relation's variables (``None``: cyclic).
    ``lookups[v]`` is ``(guard, views)``: the relation kept whole whose
    entry at the update zeroes the delta or multiplies it (or ``None``),
    and the views the delta reads at the update (``None``: view v at the
    update tuple). ``masks[v][label]`` is a walk that, when the part gains
    its first tuple at the key of the walk's view, sets the view's entry
    there, without the update's multiplicity; the entry goes with the last.
    """

    labels: tuple
    deltas: list | None
    upkeep: list
    builds: list
    kinds: tuple
    vars: list | None = None
    lookups: list | None = None
    masks: list | None = None


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
    """The source of ``plan`` over n relations, and the indexes it reads per part label."""
    specs = {lab: {IDX0} for lab in plan.labels}
    lines: list[str] = []
    variables = plan.vars or [tuple((j + k) % n for k in range(n - 1)) for j in range(n)]
    masks = plan.masks or [{}] * n

    def keyed(i):  # view i's key variables, and the variable it keeps (None: it sums)
        kind = plan.kinds[i]
        if kind in (SUM, KEEP):
            return variables[i], (i - 1) % n if kind == KEEP else None
        return (tuple(range(n)), None) if kind == ALL else (kind[:1], (*kind, None)[1])

    def emit(depth, *code):
        lines.extend("    " * depth + line for line in code)

    def written(view):  # the views a walk writes: the first counts, the others are transposes
        return () if view is None else view if isinstance(view, tuple) else (view,)

    def masked(v, lab):  # the mask walk of part lab of relation v, with its index on the key
        w = masks[v][lab]
        spec = (variables[v].index(keyed(written(w[4])[0])[0][0]),)
        specs[lab].add(spec)
        return spec, w

    def namer(v):  # variable x in relation v's update: t<its position>, else the candidate z
        return lambda x: f"t{variables[v].index(x)}" if x in variables[v] else "z"

    def walk(d, v, src, side, probes, view, spec=None, counted=True, mult="m * "):
        # reads t0.. (the update tuple) and m; adds to acc or to its views
        var, bound = namer(v), variables[v]

        def key(xs):  # a key on the variables xs: one value, or a tuple of several
            return var(xs[0]) if len(xs) == 1 else "(" + ", ".join(map(var, xs)) + ")"

        def at(j, spec):  # relation j's variables at the positions spec
            return [variables[j][p] for p in spec]

        def free(j, spec):  # relation j's free part on the index spec, the key of its postings
            p = free_position(len(variables[j]), spec)
            return key(variables[j]) if p is None else var(variables[j][p])

        def row(j, group, spec):  # relation j's row at its key on spec in a group of parts
            gets = [f"{_index_name(j, s, spec)}.get({key(at(j, spec))})" for s in group]
            both = f"ChainMap({' or EMPTY, '.join(gets)} or EMPTY)"
            return gets[0] if len(gets) == 1 else f"({' or '.join(gets)} if not M{j} else {both})"

        def rows(j, sides, index):  # relation j's rows on index, one per group of its parts
            rest: dict = {}
            for s in sides:
                specs[s].add(index)
                rest.setdefault(tuple(c for q, c in enumerate(s) if q not in index), []).append(s)
            return [row(j, group, index) for group in rest.values()]
        # the source: a part's postings at the key the update fixes, keyed by
        # the candidate, or its keys on spec; a view's line at the fixed
        # key, or the whole view; or nothing
        cand, keys = None, False
        if src is None and side is not None:
            outer, kept = keyed(side)
            cand, source = outer[0] if kept is None else kept, f"VB[0][{side}]"
            if kept is not None:
                source += f".get({key(outer)})"
        elif side is not None:
            spec = spec or tuple(p for p, x in enumerate(variables[src]) if x in bound)
            specs[side].add(spec)
            source, keys = _index_name(src, side, spec), variables[src][spec[0]] not in bound
            cand = variables[src][spec[0] if keys else free_position(len(variables[src]), spec)]
            if not keys:
                source += f".get({key(at(src, spec))})"
        if side is not None:
            emit(d, f"posts = {source}", "if posts:")
            if counted:
                emit(d + 1, "C.iterations += len(posts)")
            d += 1
        targets = written(view)
        emit(d, *(f"W{k or ''} = VB[0][{i}]" for k, i in enumerate(targets)))
        if targets and plan.kinds[targets[0]] == KEEP:
            emit(d, f"LV = VB[1][{targets[0]}]")
        nested = targets and keyed(targets[0])[1] is not None
        if nested:
            emit(d, "grown = 0")
        # one row per group of parts that differ only in the status of the
        # index's variables; rows whose key the update fixes are read once
        fixed, gets, ticks = [], {}, 0
        factors = ["prod"] if side is not None and not keys else []
        for j, sides, *index in probes:
            index = index[0] if index else IDX0
            f = free_position(len(variables[j]), index) if j is not None else None
            if j is None:  # a sum of views at the candidate
                emit(d, *(f"V{i} = VB[0][{i}]" for i in sides))
                gets["v"] = " + ".join(f"V{i}.get({var(keyed(i)[0][0])}, 0)" for i in sides)
            elif sides == (WHOLE,) and variables[j][0] in bound:  # kept whole, at a fixed value
                emit(d, f"m{j} = P{j}.get({var(variables[j][0])})")
                fixed.append(f"m{j}")
                factors.append(f"m{j}")
            elif sides == (WHOLE,):
                gets[j] = f"P{j}.get(z)"
            elif f is not None and variables[j][f] not in (*bound, cand):
                # the free value is neither fixed nor the candidate: a presence test
                fixed.append(f"{key(at(j, index))} in {_index_name(j, sides[0], index)}")
                ticks += 1
            elif "z" in key(at(j, index)):
                gets[j] = " or ".join(f"({r} or EMPTY).get({free(j, index)})"
                                      for r in rows(j, sides, index))
            else:  # one row may be None; of several, each is a dict
                groups = rows(j, sides, index)
                one = len(groups) == 1
                names = [f"r{j}"] if one else [f"r{j}_{g}" for g in range(len(groups))]
                emit(d, *(f"{r} = {g}" + ("" if one else " or EMPTY")
                          for r, g in zip(names, groups)))
                fixed.append(f"r{j} is not None" if one else f"({' or '.join(names)})")
                gets[j] = " or ".join(f"{r}.get({free(j, index)})" for r in names)
        if fixed:
            emit(d, "if " + " and ".join(fixed) + ":")
            d += 1
        if ticks:
            emit(d, f"C.lookups += {ticks}")
        body = d
        # a view keyed by values the update fixes is summed over the
        # candidates and written once after them
        summed = side is not None and targets and keyed(targets[0])[1] is None \
            and "z" not in key(keyed(targets[0])[0])
        if summed:
            emit(d, "s = 0")
        if side is not None:
            emit(d, "for z in posts:" if keys else "for z, prod in posts.items():")
            d += 1
        for j, get in gets.items():
            emit(d, f"m{j} = {get}", f"if m{j}:")
            factors.append(f"m{j}")
            d += 1
        product = " * ".join(factors)
        if view is None:
            emit(d, f"acc += {product}")
        elif summed:
            emit(d, f"s += {product}")
            emit(body, "if s:")
            d, product = body + 1, "s"
        for k, i in enumerate(targets):
            write(d, var, i, f"W{k or ''}", mult + product, k == 0, rows, free)
        if nested:
            emit(body - bool(fixed), "VB[2] += grown")

    def write(d, var, i, w, value, counted, rows, free):
        # Z-ring add of value into view i at the walk's key; a map keyed by
        # it keeps y, and a family's new key is live when the relation it is
        # keyed by stores it
        outer, kept = keyed(i)
        k = var(outer[0]) if len(outer) == 1 else "(" + ", ".join(map(var, outer)) + ")"
        if kept is None:
            emit(d, f"k = {k}", f"w = {w}.get(k, 0) + {value}",
                 "if w:", f"    {w}[k] = w", "else:", f"    del {w}[k]")
            return
        y, live, grow = var(kept), plan.kinds[i] == KEEP, ["grown += 1"] if counted else []
        stored = " or ".join(f"({r} or EMPTY).get({free(i, IDX0)})"
                             for r in rows(i, plan.labels, IDX0)) if live else ""
        emit(d, f"k = {k}", f"ys = {w}.get(k)", "if ys is None:", f"    {w}[k] = {{{y}: {value}}}",
             *("    " + g for g in grow),
             *([f"    if {stored}:", "        LV.add(k)"] if live else []),
             f"elif {y} in ys:", f"    w = ys[{y}] + {value}", "    if w:",
             f"        ys[{y}] = w", "    else:", f"        del ys[{y}]",
             *("        grown -= 1" for _ in grow), "        if not ys:", f"            del {w}[k]",
             *(["            LV.discard(k)"] if live else []), "else:", f"    ys[{y}] = {value}",
             *("    " + g for g in grow))

    def store(d, v, lab):
        # the update itself; a family keyed by relation v's tuples follows
        # whether it is stored, and a view masked by the part's keys on a
        # spec gains its entry with the first tuple at a key and loses it
        # with the last
        if lab == WHOLE:
            emit(d, f"w = P{v}.get(t0, 0) + m", "if w:", f"    P{v}[t0] = w", "else:",
                 f"    del P{v}[t0]", "return w")
        elif plan.kinds[v] == KEEP:
            emit(d, f"new = P{v}{lab}.upsert(t, m)", "if new == m:", f"    if t in VB[0][{v}]:",
                 f"        VB[1][{v}].add(t)", "elif not new:", f"    VB[1][{v}].discard(t)",
                 "return new")
        elif lab in masks[v]:
            spec, w = masked(v, lab)
            at, index = f"t{spec[0]}", _index_name(v, lab, spec)
            emit(d, f"new = P{v}{lab}.upsert(t, m)", "if new == m:",
                 f"    if len({index}[{at}]) == 1:")
            walk(d + 2, *w, mult="")
            emit(d, "elif not new:", f"    if {at} not in {index}:",
                 f"        VB[0][{w[4]}].pop({at}, None)", "return new")
        else:
            emit(d, f"return P{v}{lab}.upsert(t, m)")

    def unpack(v):
        names = [f"t{p}" for p in range(len(variables[v]))]
        return ", ".join(names) + ("," if len(names) == 1 else "") + " = t"

    # per relation, a relation kept whole whose entry at the update zeroes
    # or multiplies the delta, and the views it reads there
    lookups = plan.lookups or [(None, (v,)) for v in range(n)]
    if plan.deltas is None:
        emit(1, "delta = None")
    else:  # the answer's change, the step with no part
        emit(1, "def delta(v, t, m):", "    return step(v, None, t, m)")
    # one routed update in one call: the answer gains its delta, read first
    # unless ``count`` is false (a move), then the upkeep walks of the part
    # it is routed to run and the update is stored; with no part (``side``
    # ``None``) the delta is returned instead, and nothing changes
    emit(1, "def step(v, side, t, m, count=True):")
    for v in range(n):
        emit(2, f"if v == {v}:", "    " + unpack(v))
        if plan.deltas is not None:
            (guard, looked), var = lookups[v], namer(v)
            emit(3, "if count:")
            d = 4
            if guard is not None:  # a zero guard skips the delta walks, not the store
                emit(4, f"g = P{guard}.get({var(variables[guard][0])})", "if g:")
                d = 5
            # the views read at the update, a view keyed by the whole update
            # tuple at t, summed into acc, then the delta walks adding to it
            at = ["t" if keyed(i)[0] == variables[v] and len(variables[v]) > 1
                  else var(keyed(i)[0][0]) for i in looked]
            emit(d, f"C.lookups += {len(looked)}",
                 "acc = " + " + ".join(f"VB[0][{i}].get({k}, 0)" for i, k in zip(looked, at)))
            for w in plan.deltas[v]:
                walk(d, *w)
            total = "m * acc" if guard is None else "m * g * acc"
            emit(d, "if side is None:", f"    return {total}", f"Q[0] += {total}")
            if guard is not None:
                emit(4, "elif side is None:", "    return 0")
        *tested, last = plan.upkeep[v]
        for lab in tested:
            emit(3, f"if side == L{lab}:")
            for w in plan.upkeep[v][lab]:
                walk(4, *w)
            store(4, v, lab)
        for w in plan.upkeep[v][last]:
            walk(3, *w)
        store(3, v, last)
    emit(1, "def apply_update(v, side, t, m):", "    return step(v, side, t, m, False)")
    # view i from the part of its first member (``light``) or of its
    # second, walked through the part's lookup index (by each key of a
    # mask), or over the whole map of a relation kept whole
    emit(1, "def build(i, light):")
    for i, members in enumerate(plan.builds):
        if members is None:
            continue
        emit(2, f"if i == {i}:", "    if light:")
        for depth, (j, lab) in zip((4, 3), members):
            walks = [(None, w) for w in plan.upkeep[j][lab]]
            if lab in masks[j]:
                walks.append(masked(j, lab))
            spec, w = next((spec, w) for spec, w in walks if i in written(w[4]))
            src = f"P{j}" if lab == WHOLE else _index_name(j, lab, spec or IDX0)
            if spec is not None or lab == WHOLE:
                emit(depth, f"for t{spec[0]} in {src}:" if spec else f"for t0, m in {src}.items():")
                walk(depth + 1, *w, mult="" if spec else "m * ")
            elif len(variables[j]) == 2:  # a binary part's lookup index keys each posting by t1
                emit(depth, f"for t0, row in {src}.items():", "    for t1, m in row.items():")
                walk(depth + 2, *w)
            else:
                emit(depth, f"for row in {src}.values():", "    for t, m in row.items():",
                     "        " + unpack(j))
                walk(depth + 2, *w)
            emit(depth, "return")
    emit(1, "return delta, step, apply_update, build")
    specs = {lab: sorted(s) for lab, s in specs.items()}
    params = [f"P{j}" if WHOLE in plan.upkeep[j] else
              f"M{j}, " + ", ".join(f"P{j}{lab}" for lab in plan.labels) + ", "
              + ", ".join(_index_name(j, lab, spec) for lab in specs for spec in specs[lab])
              for j in range(n)]
    return "\n".join([f"def bind(C, VB, Q, {', '.join(params)}):"] + lines) + "\n", specs


# (plan, degree) -> (bind, source, index specs, plan), shared by their engines
_COMPILED: dict[tuple, tuple] = {}


def compiled(plan_of, n: int) -> tuple:
    """``plan_of(n)`` compiled: ``(bind, source, index specs, plan)``, made once.

    The fixed plans are compiled when their modules load, so no engine
    pays for it while it runs; ``LWEngine(n)`` compiles its degree on
    first use.
    """
    key = (plan_of, n)
    if key not in _COMPILED:
        plan = plan_of(n)
        source, specs = _source(plan, n)
        namespace = {"EMPTY": {}, "ChainMap": ChainMap, **{f"L{x}": x for x in plan.labels}}
        exec(compile(source, f"<plan of degree {n}>", "exec"), namespace)
        _COMPILED[key] = (namespace["bind"], source, specs, plan)
    return _COMPILED[key]


# tuple moves each update drains from the queue of rebalance moves
B = 2
# key degrees each update reads, across the engine, of the light keys a
# halving left unread. The halving leaves db_size = N//4 - 1 =: s, so the
# partitions hold at most 2s such keys (a key per stored tuple on each of
# at most two partition variables). The new base is N//2 - 1 <= 2s + 2,
# so the next halving needs at least s + 1 - (s + 1)/2 = (s + 1)/2 size
# changes, and a doubling more; 4 reads per update cover 2s + 2 keys, and
# 4s/(s + 1) approaches 4, so no smaller constant does for every s.
SWEEP = 4


class LWEngine:
    """A compiled plan under single-tuple updates: the cyclic count of degree n by default.

    The engine keeps the relations of its query split by key degree, one
    partition per relation (``None`` for a relation the plan keeps whole,
    whose rows are a plain map), and the plan's views over the parts. What
    keeps those splits meaningful is the same for every plan:

      * the boundary check: an update names a known relation (by its name,
        a ``str``, or its position, an ``int``), carries a tuple of that
        relation's arity with hashable values and a nonzero ``int``
        multiplicity, or it is refused with ``SchemaError`` before anything
        changes; the preprocess loader applies the same rules to every row
        before it builds anything;
      * the size invariant ``floor(N/4) <= db_size < N`` on the threshold
        base ``N``: reaching ``N`` doubles it, falling below a quarter
        roughly halves it, and either triggers a major rebalance, which
        puts every key whose strict status flips in transit (the answer
        never changes). A major reads the heavy keys, the keys in transit
        and, per partition variable, the light keys its degree watermark
        recorded: those that reached the threshold the next halving would
        set, rounded up (``_marks``), which a doubling's threshold exceeds.
        A halving lowers that mark; it copies its light keys, without
        reading a degree, and every later update reads ``SWEEP`` of them
        and records those at or above the mark, which ends before the
        next major can fire;
      * minor rebalancing: a key that drifts past one and a half times, or
        below half of, its relation's threshold ``N ** eps`` (computed when
        ``N`` changes, not per update) is put in transit to the other part.
        Every key sits inside these loose bounds after every update, a key
        in transit by its degree over all parts against the bound of the
        status it is bound for (the loader and majors start from a strict
        split, each minor restores the bound of the key it moves, and a key
        in transit that crosses its destination's bound turns around), so
        an update checks only the bound it can cross: a create checks its
        key where the key is light, a delete where it is heavy, and an
        update that only changes a stored tuple's multiplicity moves no
        degree and no size and checks nothing;
      * moves: a rebalance moves no tuple itself. It queues its keys, and
        every later ``on_update`` first drains at most ``B`` tuple moves
        from the queue, each through ``apply_move``, a delete/insert pair
        through the generated update step, so the views stay exact after
        every move and no update pays for more than ``B`` moves. While a
        key is in transit its tuples may sit in both parts: routing sends a
        stored tuple to the part that holds it and a new one to the key's
        destination, and the generated walks combine the parts tuple by
        tuple. A major leaves the moves still queued in the queue: it
        judges each key in transit by its degree over all parts against
        the new threshold, turns it around if needed, and queues only the
        keys it newly puts in transit, so no update makes more than ``B``
        moves. Right after a major, ``finish_moves`` (which empties the
        queue at once) leaves the split strict for the new ``N``;
      * the one loader, ``preprocess``, which sets ``N`` to twice the
        database size plus one, fills every partition strictly from its
        rows' key degrees, each tuple stored once, and then builds the
        views and the answer once;
      * the invariant report.

    Each update is routed by its relation's split (a ``Partition`` on one
    variable or a ``QuadPartition`` on two, with one ``minor_check``,
    ``restrict``, ``move_key`` and route in transit for both; every tuple
    pinned heavy at ``eps == 0``) and applied by one call of the plan's
    generated ``step``, which adds the update's delta, read before the
    update, to the answer, keeps the views and stores the update;
    ``db_size`` follows the stored multiplicity it returns. The class's
    schema, its relations' names and arities, is read without building
    an engine (``schema``).
    """

    # the relation names; None names them R1..Rn
    REL: tuple | None = None
    # the plan of the walks, by degree
    PLAN = staticmethod(_plan)
    # the degree of an engine class bound to one plan (None: given per engine)
    DEGREE: int | None = None

    def __init__(self, n: int, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        """The empty state of the degree-n plan, its schema read from the plan.

        Each relation has the arity of its variables in the plan (``n - 1``
        for a cyclic one), is kept whole when the plan gives it the one
        label ``WHOLE``, and is split otherwise, on both variables when the
        plan's labels are the quad split's. With fewer names than plan
        relations, one partition stands for every relation of the plan and
        one view, built and counted once, for every view. ``eps`` is one
        exponent, or one per name. The plan is compiled once per plan and
        degree (``compiled``); the views, the families' live sets and the
        entry count of the maps of maps are read through one list, so
        ``rebuild_views`` and callers may replace them, and nothing bound
        refers to the engine.
        """
        self.names, self.arities = self.schema(n)
        names = self.names
        # one exponent for all relations, or a tuple of one per relation
        self.eps = eps if isinstance(eps, tuple) else float(eps)
        self._eps = eps if isinstance(eps, tuple) else (self.eps,) * len(names)
        if len(self._eps) != len(names):
            raise ValueError(f"{type(self).__name__} takes one eps per relation, got {eps!r}")
        for value in self._eps:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"eps={value} outside [0, 1]")
        bind, self._source, specs, plan = compiled(self.PLAN, n)
        self.n = n
        self._index = {name: i for i, name in enumerate(names)}
        self._index.update((i, i) for i in range(len(names)))
        # an exponent of 0 pins every tuple of the relation heavy
        self._pinned = tuple(value == 0.0 for value in self._eps)
        self.N = 1
        self._set_thetas()
        self.db_size = 0
        # the answer, in the one slot the update step adds to
        self._q = [0]
        self.counters = counters if counters is not None else OpCounters()
        # (relation, key) per key in transit, in the order its moves were queued
        self._queue: deque = deque()
        # the partitions with light keys a halving left unread
        self._sweeping: list = []
        # whether moves may be queued or keys left to sweep
        self._pending = False

        shared = len(names) < n
        self._plan_eps = self._eps * n if shared else self._eps
        # one partition for every relation: view 0 stands in every slot, so
        # the others are written with it
        self._builds = [plan.builds[0]] + [None] * (n - 1) if shared else plan.builds
        self._kinds = plan.kinds
        # the views counted by their keys, once each; the update step counts
        # the entries of maps of maps
        self._sized = [i for i, kind in enumerate(plan.kinds) if self._builds[i] is not None
                       and (kind in (SUM, ALL) or len(kind) == 1)]
        self._whole = {j: {} for j in range(n) if WHOLE in plan.upkeep[j]}
        # every part of a quad split indexes both variables, whatever the walks read
        self.parts = [None if j in self._whole else QuadPartition(self.counters)
                      if plan.labels == QUAD_LABELS
                      else Partition(self.arities[j], specs, self.counters)
                      for j in range(len(names))]
        self._ring = self.parts * n if shared else self.parts
        self._views = self._empty_views()
        bindings = {"C": self.counters, "VB": self._views}
        bindings.update((f"P{j}", rows) for j, rows in self._whole.items())
        for j, part in enumerate(self._ring):
            if part is None:
                continue
            bindings[f"M{j}"] = part.moving
            for lab, held in specs.items():
                rel = bindings[f"P{j}{lab}"] = part.parts[lab]
                bindings.update((_index_name(j, lab, spec), rel.indexes[spec]) for spec in held)
        # ``step(i, label, t, m)``: one routed update in one call, adding its
        # delta to the answer and returning the tuple's stored multiplicity
        # after it, the plan's ``_step`` unless a subclass wraps it; with
        # ``label`` ``None`` (no part) it returns the delta and changes
        # nothing. ``delta(i, t, m)``, the answer's change when ``m`` is
        # added to ``t`` of relation ``i`` (``None`` without a count), is
        # that step with no part, likewise the plan's ``_delta``;
        # ``apply_update(i, label, t, m)``: the step without the delta, as a
        # move makes it
        self._delta, self._step, self.apply_update, self._build = bind(Q=self._q, **bindings)
        self.delta, self.step = self._delta, self._step

    @classmethod
    def schema(cls, n: int | None = None) -> tuple[tuple, tuple]:
        """The relation names and their arities at degree n (by default the class's).

        Read from the class and its compiled plan, without building an
        engine: each relation has the arity of its variables in the plan,
        ``n - 1`` for a cyclic one.
        """
        n = cls.DEGREE if n is None else n
        if n < 3:
            raise ValueError("degree must be at least 3")
        plan = compiled(cls.PLAN, n)[3]
        names = tuple(cls.REL or [f"R{i+1}" for i in range(n)])
        return names, tuple(len(plan.vars[j]) if plan.vars else n - 1 for j in range(len(names)))

    @property
    def q(self) -> int:
        """The maintained count (0 without one)."""
        return self._q[0]

    @q.setter
    def q(self, q: int) -> None:
        self._q[0] = q

    @property
    def views(self) -> list[dict]:
        """``views[i]``, of the plan's kind ``i``: keyed by relation i's tuples, or a listing."""
        return self._views[0]

    @property
    def live(self) -> list[set]:
        """``live[i]``: the keys of family ``views[i]`` that relation i stores."""
        return self._views[1]

    @property
    def entries(self) -> int:
        """The entries of the maps of maps, one per key and kept value."""
        return self._views[2]

    def plan_source(self) -> str:
        """The generated source of the plan, shared by every engine of its plan and degree."""
        return self._source

    def space_used(self) -> int:
        # a map of maps' entries are counted by the update step (a
        # transpose's not at all), any other view's are its keys
        views, _, entries = self._views
        return (sum(p.total_size() for p in self.parts if p) + sum(map(len, self._whole.values()))
                + entries + sum(len(views[i]) for i in self._sized))

    # -- accessors --------------------------------------------------------------

    def _set_thetas(self) -> None:
        # N changes only on a major rebalance or a load, so the thresholds
        # N ** eps are computed there, not on every update, with each
        # watermark's mark: the threshold a halving to N//2 - 1 would set,
        # rounded up (1 while N is too small to halve)
        self._thetas = tuple(self.N ** e for e in self._eps)
        base = max(self.N // 2 - 1, 1)
        self._marks = tuple(math.ceil(base ** e) for e in self._eps)

    def rel_index(self, rel) -> int:
        """Position of relation ``rel``, given by name or by position.

        Only a ``str`` or an exact ``int`` names a relation: ``True`` or
        ``1.0`` hash like position 1 but are refused.
        """
        if rel.__class__ is str or rel.__class__ is int:
            i = self._index.get(rel)
            if i is not None:
                return i
        raise SchemaError(f"unknown relation {rel!r}, expected one of {self.names}")

    def answer(self) -> int:
        return self._q[0]

    def lookup(self, rel, t: tuple) -> int:
        """Current multiplicity of ``t`` across all parts of ``rel``, or in it when kept whole."""
        i = self._checked_tuple(rel, t)
        part = self.parts[i]
        return self._whole[i].get(t[0], 0) if part is None else part.multiplicity(t)

    def _checked_tuple(self, rel, t) -> int:
        """Position of relation ``rel``, once ``t`` is known to fit it.

        Refuses with ``SchemaError`` an unknown relation, a ``t`` that is
        not a tuple of the relation's arity, or one with an unhashable
        value.
        """
        cls = rel.__class__
        i = self._index.get(rel) if cls is str or cls is int else None
        if i is None:
            self.rel_index(rel)  # raises SchemaError
        if not isinstance(t, tuple) or len(t) != self.arities[i]:
            raise SchemaError(f"{self.names[i]} takes tuples of arity {self.arities[i]}, "
                              f"got {t!r}")
        try:
            hash(t)
        except TypeError:
            raise SchemaError(f"tuple values must be hashable, got {t!r}") from None
        return i

    # -- the update loop ----------------------------------------------------------

    def on_update(self, rel, t: tuple, m: int) -> None:
        """Check, route and apply one update, then rebalance as needed.

        The checks are ``_checked_tuple``'s, made inline for a plain tuple
        of a known relation; anything else goes through it, which refuses
        the update, before any state changes, or accepts a tuple subclass.
        Once the update is known to be valid, up to ``B`` queued tuple
        moves are made first, and ``SWEEP`` keys a halving left unread are
        read. Then one call of the generated ``step`` adds the update's
        delta, read before the update, to the answer, keeps the views,
        stores the update and returns the stored multiplicity. If that is
        neither ``m`` (a create) nor 0 (a delete), the update changed only
        the multiplicity of a stored tuple: no key degree and no size
        moved, so no rebalance can be due and nothing more is checked.
        Otherwise the size changes by one and the size invariant is
        checked; if it holds, the partition checks the one key bound the
        update can have crossed, given the part it was routed to and
        whether it created or destroyed a tuple.
        """
        if type(m) is not int or m == 0:
            raise SchemaError(f"multiplicity must be a nonzero int, got {m!r}")
        cls = rel.__class__
        i = self._index.get(rel) if cls is str or cls is int else None
        if i is None or t.__class__ is not tuple or len(t) != self.arities[i]:
            i = self._checked_tuple(rel, t)
        else:
            try:
                hash(t)
            except TypeError:
                self._checked_tuple(rel, t)  # raises SchemaError
        if self._pending:
            self._catch_up()
        part = self.parts[i]
        if part is None:
            label = WHOLE
        else:
            self.counters.lookups += 1
            label = part.route(t, self._pinned[i])
        new = self.step(i, label, t, m)

        if new == m:
            self.db_size += 1
            if self.db_size == self.N:
                self.N *= 2
                self.major_rebalance(i, t)
                return
        elif new == 0:
            self.db_size -= 1
            if self.db_size < self.N // 4:
                self.N = self.N // 2 - 1
                # the size invariant keeps N >= 4 whenever halving can fire
                assert self.N >= 1
                self.major_rebalance()
                return
        else:
            return
        if part is not None:
            part.minor_check(self, i, t, label, new == m, self._thetas[i])

    def apply_move(self, i: int, src, dst, t: tuple, m: int) -> None:
        """Move ``t`` (multiplicity ``m``) of relation ``i`` from part ``src`` to ``dst``.

        A delete from ``src`` and an insert into ``dst``, both through
        ``apply_update``, so the views stay exact. The relation as a whole
        does not change, so neither do the answer and the size.
        """
        self.apply_update(i, src, t, -m)
        self.apply_update(i, dst, t, m)

    def major_rebalance(self, i: int | None = None, grown: tuple | None = None) -> None:
        """Put every key whose strict status for the current ``N`` differs in transit.

        Every partition judges its keys against its new threshold and
        mark (``restrict``): keys already in transit keep their place in
        the queue, turned around where needed, and the keys it newly puts
        in transit are queued after them, to be moved ``B`` tuples per
        later update. A major that flips nothing does no view work.
        ``grown`` is the tuple of relation ``i`` whose create doubled
        ``N``, unchecked by ``minor_check``. The partitions a halving left
        light keys to read are swept from the next update on.
        """
        self.counters.rebalance_major += 1
        self._set_thetas()
        queue, self._sweeping = self._queue, []
        for j, part in enumerate(self.parts):
            if part is not None:
                new = part.restrict(self._thetas[j], self._marks[j], grown if j == i else None)
                if new:
                    queue.extend((j, key) for key in list(part.moving)[-new:])
                if any(part.unswept):
                    self._sweeping.append(part)
        self._pending = bool(queue or self._sweeping)

    def minor_rebalance(self, i: int, key) -> None:
        """Queue the moves of ``key``, which partition ``i`` has just put in transit."""
        self.counters.rebalance_minor += 1
        self._queue.append((i, key))
        self._pending = True

    def _catch_up(self) -> None:
        """Make up to ``B`` queued moves, then read ``SWEEP`` keys a halving left unread."""
        if self._queue:
            self._drain(B)
        if self._sweeping:
            self._sweep()
        self._pending = bool(self._queue or self._sweeping)

    def _drain(self, budget: int) -> None:
        """Make up to ``budget`` queued tuple moves, key by key in queue order.

        A key leaves the queue once its partition has moved its last
        tuple (``move_key``), which may be right away when every tuple
        left the old part by deletes or the key turned around early.
        """
        queue = self._queue
        moved = 0
        while queue:
            i, key = queue[0]
            part = self.parts[i]
            moved += part.move_key(key, budget - moved, partial(self.apply_move, i))
            if key in part.moving:
                break
            queue.popleft()
        self.counters.moves += moved

    def _sweep(self) -> None:
        """Read ``SWEEP`` keys left by the last halving, partition by partition."""
        sweeping = self._sweeping
        budget = SWEEP
        while sweeping:
            budget -= sweeping[-1].sweep(budget)
            if not budget:
                return
            sweeping.pop()

    def finish_moves(self) -> None:
        """Make every queued move now, whatever the per-update budget.

        Right after a major the split is then strict; later, keys may
        have drifted inside their loose bounds.
        """
        self._drain(sys.maxsize)

    def pending_moves(self) -> int:
        """Keys whose queued moves are not done yet."""
        return len(self._queue)

    # -- loading and checks -------------------------------------------------------

    @classmethod
    def preprocess(cls, db, *args, **kwargs):
        """A ready engine ``cls(*args, **kwargs)`` holding the full database ``db``.

        ``db`` maps relations (as ``on_update`` names them) to
        ``{tuple: multiplicity}`` or lists those maps in relation order.
        Every row is checked by ``on_update``'s rules before anything is
        stored, and ``SchemaError`` refuses the whole database; zero
        multiplicities are dropped. The threshold base becomes twice the
        database size plus one, so the ready state sits well inside its
        size invariant. Each partition is filled strictly from its rows'
        key degrees (``load``) and each relation kept whole takes its rows
        as they are; then the views are built from the parts and the
        answer is computed once, by ``loaded_count`` over relation 0's
        rows.
        """
        eng = cls(*args, **kwargs)
        tables = eng._checked(db)
        eng.db_size = sum(map(len, tables))
        eng.N = 2 * eng.db_size + 1
        eng._set_thetas()
        for i, rows in enumerate(tables):
            part = eng.parts[i]
            if part is None:
                eng._whole[i].update((t[0], m) for t, m in rows.items())
            else:
                part.load(rows, eng._thetas[i], eng._marks[i])
        eng.rebuild_views()
        eng.q = eng.loaded_count(tables[0])
        return eng

    def _checked(self, db) -> list[dict]:
        """The rows of ``db`` per relation, checked, without zero multiplicities.

        ``db`` is a mapping from relations to rows or a list or tuple of
        rows in relation order; the rows of a relation are a ``dict``, or
        ``None`` (or absent) for none. Anything else is refused with
        ``SchemaError``. The caller's dicts are returned, not copied, when
        they hold no zero.
        """
        n = len(self.names)
        if isinstance(db, (list, tuple)):
            if len(db) != n:
                raise SchemaError(f"{n} relations expected, got {len(db)}")
            tables = list(db)
        elif isinstance(db, Mapping):
            named: dict = {}
            for rel, rows in db.items():
                i = self.rel_index(rel)
                if i in named:
                    raise SchemaError(f"relation {self.names[i]} given twice")
                named[i] = rows
            tables = [named.get(i) for i in range(n)]
        else:
            raise SchemaError(f"a database maps relations to rows or lists them in order, "
                              f"got {type(db).__name__}")
        checked = []
        for i, rows in enumerate(tables):
            if rows is None:
                rows = {}
            elif not isinstance(rows, dict):
                raise SchemaError(f"{self.names[i]} rows must be a dict of tuples to "
                                  f"multiplicities, got {type(rows).__name__}")
            for t, m in rows.items():
                if not isinstance(t, tuple) or len(t) != self.arities[i]:
                    raise SchemaError(f"{self.names[i]} takes tuples of arity "
                                      f"{self.arities[i]}, got {t!r}")
                if type(m) is not int:
                    raise SchemaError(f"multiplicity must be an int, got {m!r}")
            # the loader only reads the rows, so a map without zeros is used
            # as given: a copy would raise the load's peak memory
            checked.append(rows if all(rows.values()) else {t: m for t, m in rows.items() if m})
        return checked

    def loaded_count(self, rows: dict) -> int:
        """The answer over the freshly built parts and views; 0 without a count.

        ``rows`` are relation 0's loaded rows, each weighted by the plan's
        delta (``_delta``, without an engine's own terms). The answer is
        linear in relation 0 and that delta does not read relation 0, so
        the sum against the finished state is exact.
        """
        delta = self._delta
        if delta is None:
            return 0
        return sum(delta(0, t, m) for t, m in rows.items())

    def _empty_views(self) -> list:
        """Empty views, live sets and entry count; one view in every slot of a shared plan."""
        kinds = self._kinds
        views = [{}] * len(kinds) if len(self.names) < self.n else [{} for _ in kinds]
        return [views, [set() for _ in kinds], 0]

    def rebuild_views(self) -> None:
        """Build every view from the parts (after ``preprocess`` has filled them)."""
        self._views[:] = self._empty_views()
        for i in range(len(self._kinds)):
            self._build_view(i)

    def _build_view(self, i: int) -> None:
        """Build view i by its members' upkeep walks over their parts.

        A view with one member is built by it, a listing by both, a view
        written with another with that one, and a view with a member
        holding no rows not at all. Any other view is built by the member
        ``_first_builds`` picks.
        """
        rows = [self._whole[j] if lab == WHOLE else self._ring[j].parts[lab]
                for j, lab in self._builds[i] or ()]
        if len(rows) == 1:
            self._build(i, True)
        elif self._kinds[i] == ALL:
            self._build(i, True)
            self._build(i, False)
        elif rows and all(rows):
            self._build(i, self._first_builds(i, *rows))

    def _first_builds(self, i: int, first, second) -> bool:
        """Whether view i's first member builds it, given both members' rows.

        By cost: a tuple of the first (light) member, relation i-1, walks
        heavy keys of relation i-2, one of the second (the anchor) a light
        row of relation i-1.
        """
        eps, N = self._plan_eps, self.N
        return (len(second) * 1.5 * N ** eps[self._builds[i][0][0]]
                > len(first) * 2 * N ** (1.0 - eps[(i - 2) % self.n]))

    def check_invariants(self, loose: bool = True) -> list[str]:
        """Broken size or partition conditions; empty when healthy.

        ``loose=False`` checks the strict split a major rebalance leaves
        once its moves are done, so it refuses keys in transit. Every key
        in transit must have its moves queued, and only those.
        """
        out = []
        if not (self.N // 4 <= self.db_size < self.N):
            out.append(f"size invariant broken: N={self.N} db={self.db_size}")
        queued = set(self._queue)
        for i, part in enumerate(self.parts):
            if part is not None:
                transit = {(i, key) for key in part.moving}
                if transit != {entry for entry in queued if entry[0] == i}:
                    out.append(f"{self.names[i]}: keys in transit and queued moves differ")
                for v in part.violations(self._thetas[i], strict=not loose):
                    out.append(f"{self.names[i]}: {v}")
        return out
