"""Ground-truth oracles, independent of every maintenance engine.

Two layers:

  * ``brute_force_*`` functions evaluate a query's defining sum by nested
    loops over plain ``{tuple: multiplicity}`` dicts. No partitions, no
    views, no thresholds. These are the definitional oracles.

  * ``*Tracker`` classes maintain the same counts incrementally with the
    plain first-order delta rule over unpartitioned relations (one change
    per update, full-relation scans). They exist because checking every
    prefix of long streams against a from-scratch count is too slow; the
    trackers are themselves validated against the brute-force functions in
    the test suite and at sampled prefixes of the acceptance runs. Every
    tracker takes an update as ``update(rel, t, m)``, with the relation
    named as an update stream names it, returns the count's change and
    keeps the count in ``count``. The triangle and cyclic trackers also
    take a relation's position; the self-join tracker has one relation
    and ignores ``rel``.

Also here: the reduction harness that drives a triangle-count engine as an
online vector-matrix-vector multiplication solver, used as a correctness
check of the engine under adversarially structured update sequences.
"""

from __future__ import annotations

from collections import defaultdict


# ---------------------------------------------------------------------------
# brute force, from scratch


def brute_force_triangle(r: dict, s: dict, t: dict) -> int:
    """Sum of r(a,b) * s(b,c) * t(c,a) by nested loops."""
    s_by_b = defaultdict(list)
    for (b, c), ms in s.items():
        s_by_b[b].append((c, ms))
    total = 0
    for (a, b), mr in r.items():
        for c, ms in s_by_b.get(b, ()):
            mt = t.get((c, a))
            if mt:
                total += mr * ms * mt
    return total


def brute_force_selfjoin(r: dict) -> int:
    """Sum of r(a,b) * r(b,c) * r(c,a), self-loops and all."""
    return brute_force_triangle(r, r, r)


def brute_force_enumerate(r: dict, s: dict, t: dict) -> dict[tuple, int]:
    """Full join result {(a,b,c): product multiplicity}, zero entries dropped."""
    s_by_b = defaultdict(list)
    for (b, c), ms in s.items():
        s_by_b[b].append((c, ms))
    out: dict[tuple, int] = {}
    for (a, b), mr in r.items():
        for c, ms in s_by_b.get(b, ()):
            mt = t.get((c, a))
            if mt:
                out[(a, b, c)] = mr * ms * mt
    return out


def brute_force_path4(r: dict, s: dict, t: dict, u: dict) -> int:
    """Sum of r(a) * s(a,b) * t(b,c) * u(c)."""
    t_by_b = defaultdict(list)
    for (b, c), mt in t.items():
        t_by_b[b].append((c, mt))
    total = 0
    for (a, b), ms in s.items():
        mr = r.get(a)
        if not mr:
            continue
        for c, mt in t_by_b.get(b, ()):
            mu = u.get(c)
            if mu:
                total += mr * ms * mt * mu
    return total


def lw_schemas(n: int) -> list[tuple[int, ...]]:
    """Variable layout of the degree-n cyclic count query.

    Relation i (0-based) ranges over variables i, i+1, ..., i+n-2 mod n,
    omitting variable i-1 mod n.
    """
    if n < 3:
        raise ValueError("degree must be at least 3")
    return [tuple((i + k) % n for k in range(n - 1)) for i in range(n)]


def brute_force_lw(rels: list[dict], n: int) -> int:
    """Sum of the product over all n cyclic relations, by candidate join.

    Tuples of relation 0 fix all variables but one; candidates for the
    missing variable come from scanning relation 1, the rest are lookups.
    """
    schemas = lw_schemas(n)
    free = (0 - 1) % n  # the one variable relation 0 does not carry
    total = 0
    for t0, m0 in rels[0].items():
        vals: list = [None] * n
        for pos, var in enumerate(schemas[0]):
            vals[var] = t0[pos]
        for t1, m1 in rels[1].items():
            ok = True
            for pos, var in enumerate(schemas[1]):
                if var == free:
                    continue
                if t1[pos] != vals[var]:
                    ok = False
                    break
            if not ok:
                continue
            vals[free] = t1[schemas[1].index(free)]
            prod = m0 * m1
            for j in range(2, n):
                mj = rels[j].get(tuple(vals[v] for v in schemas[j]))
                if not mj:
                    prod = 0
                    break
                prod *= mj
            total += prod
        vals[free] = None
    return total


# ---------------------------------------------------------------------------
# incremental trackers (first-order deltas over unpartitioned relations)


class TriangleTracker:
    """Plain-delta maintenance of the three-relation triangle count."""

    REL = ("R", "S", "T")

    def __init__(self):
        # per relation: tuple dict plus one nested index by the join-out var
        self.rels = [{}, {}, {}]
        self.by_first = [defaultdict(dict), defaultdict(dict), defaultdict(dict)]
        self.count = 0

    def update(self, rel, t, m) -> int:
        i = rel if isinstance(rel, int) else self.REL.index(rel)
        x, y = t
        nxt = self.by_first[(i + 1) % 3]
        prv = self.rels[(i + 2) % 3]
        delta = 0
        for z, ms in nxt.get(y, {}).items():
            mt = prv.get((z, x))
            if mt:
                delta += ms * mt
        delta *= m
        self.count += delta
        d = self.rels[i]
        nv = d.get(t, 0) + m
        row = self.by_first[i][x]
        if nv:
            d[t] = nv
            row[y] = nv
        else:
            del d[t]
            del row[y]
            if not row:
                del self.by_first[i][x]
        return delta

    def db(self) -> dict[str, dict]:
        return dict(zip(self.REL, [dict(r) for r in self.rels]))


class SelfJoinTracker:
    """Plain-delta maintenance of the one-relation triangle count."""

    def __init__(self):
        self.rel: dict[tuple, int] = {}
        self.by_first = defaultdict(dict)
        self.count = 0

    def update(self, rel, t, m) -> int:
        # the query's one relation is ``self.rel``, whatever ``rel`` names
        a, b = t
        by_first = self.by_first
        rel = self.rel
        edge = 0
        for c, m1 in by_first.get(b, {}).items():
            m2 = rel.get((c, a))
            if m2:
                edge += m1 * m2
        delta = 3 * m * edge
        if a == b:
            delta += 3 * m * m * rel.get((a, a), 0)
            delta += m * m * m
        self.count += delta
        nv = rel.get(t, 0) + m
        row = by_first[a]
        if nv:
            rel[t] = nv
            row[b] = nv
        else:
            del rel[t]
            del row[b]
            if not row:
                del by_first[a]
        return delta


class Path4Tracker:
    """Plain-delta maintenance of the endpoint-weighted two-hop count."""

    REL = ("R", "S", "T", "U")

    def __init__(self):
        self.r: dict = {}
        self.s: dict[tuple, int] = {}
        self.t: dict[tuple, int] = {}
        self.u: dict = {}
        self.s_by_a = defaultdict(dict)
        self.s_by_b = defaultdict(dict)
        self.t_by_b = defaultdict(dict)
        self.t_by_c = defaultdict(dict)
        self.count = 0

    def update(self, rel, t, m) -> int:
        if rel == "R":
            (a,) = t
            delta = 0
            for b, ms in self.s_by_a.get(a, {}).items():
                for c, mt in self.t_by_b.get(b, {}).items():
                    mu = self.u.get(c)
                    if mu:
                        delta += ms * mt * mu
            delta *= m
            _scalar_bump(self.r, a, m)
        elif rel == "S":
            a, b = t
            mr = self.r.get(a, 0)
            delta = 0
            if mr:
                for c, mt in self.t_by_b.get(b, {}).items():
                    mu = self.u.get(c)
                    if mu:
                        delta += mt * mu
                delta *= m * mr
            _nested_bump(self.s, self.s_by_a, self.s_by_b, (a, b), m)
        elif rel == "T":
            b, c = t
            mu = self.u.get(c, 0)
            delta = 0
            if mu:
                for a, ms in self.s_by_b.get(b, {}).items():
                    mr = self.r.get(a)
                    if mr:
                        delta += mr * ms
                delta *= m * mu
            _nested_bump(self.t, self.t_by_b, self.t_by_c, (b, c), m)
        elif rel == "U":
            (c,) = t
            delta = 0
            for b, mt in self.t_by_c.get(c, {}).items():
                for a, ms in self.s_by_b.get(b, {}).items():
                    mr = self.r.get(a)
                    if mr:
                        delta += mr * ms * mt
            delta *= m
            _scalar_bump(self.u, c, m)
        else:
            raise KeyError(rel)
        self.count += delta
        return delta

    def db(self):
        return {"R": {(k,): v for k, v in self.r.items()},
                "S": dict(self.s), "T": dict(self.t),
                "U": {(k,): v for k, v in self.u.items()}}


class LWTracker:
    """Plain-delta maintenance of the degree-n cyclic count."""

    def __init__(self, n: int):
        self.n = n
        self.schemas = lw_schemas(n)
        self.rels: list[dict] = [{} for _ in range(n)]
        self.count = 0
        # relation i is named R<i+1>
        self.names = {f"R{i + 1}": i for i in range(n)}

    def update(self, rel, t, m) -> int:
        i = rel if isinstance(rel, int) else self.names[rel]
        n = self.n
        schemas = self.schemas
        free = (i - 1) % n
        vals: list = [None] * n
        for pos, var in enumerate(schemas[i]):
            vals[var] = t[pos]
        scan = (i + 1) % n
        free_pos = schemas[scan].index(free)
        delta = 0
        for ts, ms in self.rels[scan].items():
            ok = True
            for pos, var in enumerate(schemas[scan]):
                if pos != free_pos and ts[pos] != vals[var]:
                    ok = False
                    break
            if not ok:
                continue
            vals[free] = ts[free_pos]
            prod = ms
            for j in range(n):
                if j in (i, scan):
                    continue
                mj = self.rels[j].get(tuple(vals[v] for v in schemas[j]))
                if not mj:
                    prod = 0
                    break
                prod *= mj
            delta += prod
        vals[free] = None
        delta *= m
        self.count += delta
        d = self.rels[i]
        nv = d.get(t, 0) + m
        if nv:
            d[t] = nv
        else:
            del d[t]
        return delta


def _scalar_bump(d, k, m):
    nv = d.get(k, 0) + m
    if nv:
        d[k] = nv
    else:
        del d[k]


def _nested_bump(d, by_a, by_b, t, m):
    a, b = t
    nv = d.get(t, 0) + m
    if nv:
        d[t] = nv
        by_a[a][b] = nv
        by_b[b][a] = nv
    else:
        del d[t]
        del by_a[a][b]
        if not by_a[a]:
            del by_a[a]
        del by_b[b][a]
        if not by_b[b]:
            del by_b[b]


# ---------------------------------------------------------------------------
# online vector-matrix-vector multiplication harness

# Row/column indices are 1-based; the shared endpoint constant must stay
# outside that range.
OUMV_ANCHOR = 0


class OuMvInstance:
    """A boolean matrix plus a sequence of query vector pairs."""

    __slots__ = ("n", "matrix", "pairs")

    def __init__(self, n: int, matrix, pairs):
        self.n = n
        self.matrix = [list(row) for row in matrix]
        self.pairs = [(list(u), list(v)) for u, v in pairs]
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix shape mismatch")
        for u, v in self.pairs:
            if len(u) != n or len(v) != n:
                raise ValueError("vector length mismatch")

    @classmethod
    def random(cls, n: int, rng, rounds: int | None = None, density: float = 0.5):
        rounds = n if rounds is None else rounds
        matrix = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        pairs = [([1 if rng.random() < 0.5 else 0 for _ in range(n)],
                  [1 if rng.random() < 0.5 else 0 for _ in range(n)])
                 for _ in range(rounds)]
        return cls(n, matrix, pairs)


def oumv_direct(inst: OuMvInstance) -> list[int]:
    """Reference bits: u^T M v per round, computed directly."""
    bits = []
    for u, v in inst.pairs:
        hit = 0
        for i in range(inst.n):
            if not u[i]:
                continue
            row = inst.matrix[i]
            if any(row[j] and v[j] for j in range(inst.n)):
                hit = 1
                break
        bits.append(hit)
    return bits


def solve_oumv_via_engine(inst: OuMvInstance, engine_factory) -> list[int]:
    """Drive a triangle-count engine as an online u^T M v solver.

    The matrix loads into the middle relation once; each round overwrites
    the outer relations with the round's vectors (delta = target minus
    current value, skipping zero deltas) and reads off whether the count
    is nonzero.
    """
    eng = engine_factory()
    a = OUMV_ANCHOR
    for i in range(inst.n):
        row = inst.matrix[i]
        for j in range(inst.n):
            if row[j]:
                eng.on_update("S", (i + 1, j + 1), row[j])
    bits = []
    for u, v in inst.pairs:
        for i in range(inst.n):
            cur = eng.lookup("R", (a, i + 1))
            d = u[i] - cur
            if d:
                eng.on_update("R", (a, i + 1), d)
            cur = eng.lookup("T", (i + 1, a))
            d = v[i] - cur
            if d:
                eng.on_update("T", (i + 1, a), d)
        bits.append(1 if eng.answer() != 0 else 0)
    return bits
