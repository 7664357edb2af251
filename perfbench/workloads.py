"""Seeded update streams, one generator per benchmark workload.

Every generator returns ``(db, updates)``: the initial database handed to
the engine's ``preprocess`` as ``{relation: {tuple: multiplicity}}``, and
the update stream as a list of ``(relation, tuple, multiplicity)``. The
same seed gives the same stream. ``scale`` shrinks every size for the
self-test; the benchmark itself always runs at scale 1.

Each workload also names the engine it drives, the query family its
stream must fit (checked against ``skewivm.cli.family_arities`` before a
replay), and the oracle that checks the engine's answers.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import random
from dataclasses import dataclass
from typing import Callable

from skewivm import EnumTriangleEngine, Path4Engine, TriangleEngine, preprocess_enum
from skewivm.cli import family_arities
from skewivm.oracle import (brute_force_enumerate, brute_force_path4,
                            brute_force_triangle)

EPS = 0.5


def _size(n: int, scale: float) -> int:
    return max(1, int(n * scale))


class _Zipf:
    """Ranks 0..domain-1 drawn with probability proportional to 1/(rank+1)^s."""

    def __init__(self, rng: random.Random, domain: int, s: float):
        self.rng = rng
        self.cdf = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(domain)))

    def draw(self) -> int:
        return bisect.bisect_left(self.cdf, self.rng.random() * self.cdf[-1])


class _Bag:
    """Live tuple copies of one relation; removes a uniformly random copy."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.copies: list = []

    def add(self, t) -> None:
        self.copies.append(t)

    def pop_random(self):
        c = self.copies
        j = self.rng.randrange(len(c))
        c[j], c[-1] = c[-1], c[j]
        return c.pop()


def _as_db(rels, copies_by_rel) -> dict:
    db = {rel: {} for rel in rels}
    for rel, copies in copies_by_rel.items():
        rows = db[rel]
        for t in copies:
            rows[t] = rows.get(t, 0) + 1
    return db


def tri_hub_grow(seed: int, scale: float = 1.0):
    """Insert-only triangle stream: 8 hub A/B values, a wide C domain.

    R(a, b) only ever sees hub pairs, so its 64 tuples gain multiplicity;
    S(b, c) and T(c, a) gain distinct tuples, so the database grows from
    the preload through several doublings of the threshold base.
    """
    rng = random.Random(seed)
    hubs, wide = 8, 1 << 30

    def draw(i):
        rel = "RST"[i % 3]
        a, b, c = rng.randrange(hubs), rng.randrange(hubs), rng.randrange(wide)
        return rel, ((a, b) if rel == "R" else (b, c) if rel == "S" else (c, a)), 1

    preload = [draw(i) for i in range(_size(2000, scale))]
    db = {"R": {}, "S": {}, "T": {}}
    for rel, t, m in preload:
        db[rel][t] = db[rel].get(t, 0) + m
    return db, [draw(i) for i in range(_size(120_000, scale))]


def tri_uniform_churn(seed: int, scale: float = 1.0):
    """Uniform triangle churn at a steady size, no key near its threshold.

    10k distinct uniform tuples per relation over 2000 values (degree about
    5, threshold about 245), then alternating inserts of fresh uniform
    tuples and deletes of uniformly random live ones. At this size each
    relation's tuple dict resizes twice per stream, so the 6 resizes stay
    fewer than the 10 updates beyond the p99.99 rank.
    """
    rng = random.Random(seed)
    domain = 2000
    live = {}
    for rel in "RST":
        rows: dict = {}
        while len(rows) < _size(10_000, scale):
            rows[(rng.randrange(domain), rng.randrange(domain))] = len(rows)
        live[rel] = (list(rows), rows)
    db = {rel: {t: 1 for t in live[rel][0]} for rel in "RST"}
    updates = []
    for i in range(_size(100_000, scale)):
        rel = "RST"[rng.randrange(3)]
        order, pos = live[rel]
        if i % 2 == 0:
            t = (rng.randrange(domain), rng.randrange(domain))
            while t in pos:
                t = (rng.randrange(domain), rng.randrange(domain))
            pos[t] = len(order)
            order.append(t)
            updates.append((rel, t, 1))
        else:
            j = rng.randrange(len(order))
            t, last = order[j], order.pop()
            if last != t:
                order[j] = last
                pos[last] = j
            del pos[t]
            updates.append((rel, t, -1))
    return db, updates


def enum_churn_read(seed: int, scale: float = 1.0):
    """Sliding-window triangle churn with drifting skew.

    Values of each variable follow a Zipf(0.8) background over 1000 values;
    with probability 0.4 the variable instead takes its current hot value,
    and every 1500 updates one variable's hot value is replaced by a fresh
    one. Each relation keeps its last 1500 inserts (an insert is followed by
    the delete of that relation's oldest copy), so a hot key climbs past
    1.5 theta while hot and decays below 0.5 theta after it: minor
    rebalances recur at a steady size.
    """
    rng = random.Random(seed)
    domain, window, drift, p_hot = 1000, _size(1500, scale), _size(1500, scale), 0.4
    zipf = _Zipf(rng, domain, 0.8)
    hot = [domain + v for v in range(3)]
    fresh = domain + 3
    variables = {"R": (0, 1), "S": (1, 2), "T": (2, 0)}

    def value(v):
        return hot[v] if rng.random() < p_hot else zipf.draw()

    def draw(rel):
        return tuple(value(v) for v in variables[rel])

    windows = {rel: collections.deque(draw(rel) for _ in range(window)) for rel in "RST"}
    db = _as_db("RST", windows)
    updates = []
    for i in range(_size(100_000, scale)):
        if i % drift == 0:
            hot[(i // drift) % 3] = fresh
            fresh += 1
        rel = "RST"[(i // 2) % 3]
        if i % 2 == 0:
            t = draw(rel)
            windows[rel].append(t)
            updates.append((rel, t, 1))
        else:
            updates.append((rel, windows[rel].popleft(), -1))
    return db, updates


def path4_zipf_grow_shrink(seed: int, scale: float = 1.0):
    """Path4 stream that grows, shrinks, then churns, with Zipf(1.0) values.

    S and T pairs take both values from a Zipf over 2000 values, R and U
    endpoints too; S and T get four updates for each one of R and U. A
    delete removes a uniformly random live copy of its relation. Updates
    insert with probability 0.8 until 12,000 copies are live, then with 0.2
    until 2,800 are; after that each insert is followed by a delete from
    the same relation, so the size stays put. The phase ends sit between
    the size thresholds, so every seed sees the same 2 doublings and 1
    halving. The churn phase makes the stream long enough that the 15
    updates beyond its p99.99 outnumber the rebalances (4 to 10).
    """
    rng = random.Random(seed)
    zipf = _Zipf(rng, 2000, 1.0)
    rels = "RSSSSTTTTU"
    bags = {rel: _Bag(rng) for rel in "RSTU"}
    peak, floor = _size(12_000, scale), _size(2_800, scale)

    def draw(rel):
        return (zipf.draw(),) if rel in "RU" else (zipf.draw(), zipf.draw())

    live = _size(2000, scale)
    for _ in range(live):
        rel = rels[rng.randrange(len(rels))]
        bags[rel].add(draw(rel))
    db = _as_db("RSTU", {rel: bag.copies for rel, bag in bags.items()})
    p_insert = 0.8
    updates = []
    n = _size(150_000, scale)
    while len(updates) < n:
        if p_insert == 0.8 and live >= peak:
            p_insert = 0.2
        elif p_insert == 0.2 and live <= floor:
            p_insert = None
        rel = rels[rng.randrange(len(rels))]
        bag = bags[rel]
        if p_insert is None:
            t = draw(rel)
            bag.add(t)
            updates += [(rel, t, 1), (rel, bag.pop_random(), -1)]
        elif rng.random() < p_insert or not bag.copies:
            t = draw(rel)
            bag.add(t)
            updates.append((rel, t, 1))
            live += 1
        else:
            updates.append((rel, bag.pop_random(), -1))
            live -= 1
    return db, updates[:n]


# ---------------------------------------------------------------------------
# engines and oracles


def _unary(rows: dict) -> dict:
    return {t[0]: m for t, m in rows.items()}


def _check_count(engine, db) -> list[str]:
    want = brute_force_triangle(db["R"], db["S"], db["T"])
    got = engine.answer()
    return [] if got == want else [f"answer {got} != oracle {want}"]


def _check_enum(engine, db) -> list[str]:
    want = brute_force_enumerate(db["R"], db["S"], db["T"])
    out = []
    if engine.result_multiset() != want:
        out.append("enumerated multiset differs from oracle")
    got = engine.answer()
    if got != len(want):
        out.append(f"answer {got} != oracle {len(want)}")
    return out


def _check_path4(engine, db) -> list[str]:
    want = brute_force_path4(_unary(db["R"]), db["S"], db["T"], _unary(db["U"]))
    got = engine.answer()
    return [] if got == want else [f"answer {got} != oracle {want}"]


def _parts_size(engine) -> int:
    return sum(p.total_size() for p in engine.parts)


def _path4_base_size(engine) -> int:
    return len(engine.r) + len(engine.u) + engine.s.total_size() + engine.t.total_size()


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    layer: str                      # trace prefix of the engine module
    engine_cls: type
    generate: Callable
    build: Callable                 # db -> ready engine, through preprocess
    check: Callable                 # (engine, db) -> list of mismatches
    base_size: Callable             # engine -> stored tuples, views excluded
    reads: bool = False             # full enumerate() after every segment
    tracker_prefix: int = 0         # updates replayed into TriangleTracker


WORKLOADS = {w.name: w for w in (
    Workload("tri-hub-grow",
             "triangle", "triangle", TriangleEngine, tri_hub_grow,
             lambda db: TriangleEngine.preprocess(db, EPS), _check_count, _parts_size,
             tracker_prefix=40_000),
    Workload("tri-uniform-churn",
             "triangle", "triangle", TriangleEngine, tri_uniform_churn,
             lambda db: TriangleEngine.preprocess(db, EPS), _check_count, _parts_size,
             tracker_prefix=100_000),
    Workload("enum-churn-read",
             "triangle", "enumeration", EnumTriangleEngine, enum_churn_read,
             lambda db: preprocess_enum(db, EPS), _check_enum, _parts_size,
             reads=True),
    Workload("path4-zipf-grow-shrink",
             "path4", "path4", Path4Engine, path4_zipf_grow_shrink,
             lambda db: Path4Engine.preprocess(db, EPS), _check_path4, _path4_base_size),
)}


def check_family(family: str, db: dict, updates) -> None:
    """Refuse a stream whose relations or arities do not fit ``family``."""
    arities = family_arities(family)
    for rel, rows in db.items():
        if rel not in arities:
            raise ValueError(f"{family} has no relation {rel!r}")
        for t, m in rows.items():
            if len(t) != arities[rel] or type(m) is not int or m == 0:
                raise ValueError(f"preload {rel}{t} * {m!r} does not fit {family}")
    for k, (rel, t, m) in enumerate(updates):
        if rel not in arities or len(t) != arities[rel] or type(m) is not int or m == 0:
            raise ValueError(f"update {k} {rel}{t} * {m!r} does not fit {family}")
