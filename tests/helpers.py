"""Shared stream builders and comparison drivers for the test suite."""

from __future__ import annotations

import random

from skewivm.cli import Update
from skewivm.relation import Relation


def mixed_stream(seed: int, length: int, domain: int, rels=("R", "S", "T"),
                 arity: int = 2, mults=(-2, -1, 1, 2)) -> list[Update]:
    """Uniform mixed insert/delete stream over a bounded domain."""
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        rel = rels[rng.randrange(len(rels))]
        values = tuple(rng.randrange(domain) for _ in range(arity))
        out.append(Update(rel, values, rng.choice(mults)))
    return out


def path4_stream(seed: int, length: int, domain: int,
                 mults=(-2, -1, 1, 2)) -> list[Update]:
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        rel = ("R", "S", "T", "U")[rng.randrange(4)]
        arity = 1 if rel in ("R", "U") else 2
        values = tuple(rng.randrange(domain) for _ in range(arity))
        out.append(Update(rel, values, rng.choice(mults)))
    return out


def lw_stream(seed: int, length: int, domain: int, n: int,
              mults=(-2, -1, 1, 2)) -> list[tuple[int, tuple, int]]:
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        i = rng.randrange(n)
        values = tuple(rng.randrange(domain) for _ in range(n - 1))
        out.append((i, values, rng.choice(mults)))
    return out


def varied_length(rng: random.Random, cap: int, floor: int = 40) -> int:
    """Length draw biased toward shorter streams (quadratic taper)."""
    return floor + int((cap - floor) * rng.random() ** 2)


def db_from_pairs(**rels) -> dict:
    return {name: dict(pairs) for name, pairs in rels.items()}


def grow_shrink_stream(seed: int, length: int, arities: dict, wide: int) -> list[Update]:
    """Skewed inserts, then deletes of seven eighths of them in random order.

    Half of the tuples take their leading value from two hot keys, the
    other values come from ``range(wide)``. The hot keys cross the light
    cap while the database grows and thin out while it shrinks; the
    deletes drop the database below a quarter of the threshold base.
    ``arities`` maps relation names to tuple arities.
    """
    rng = random.Random(seed)
    names = list(arities)
    grow = []
    for _ in range(length):
        rel = names[rng.randrange(len(names))]
        lead = rng.randrange(2) if rng.random() < 0.5 else rng.randrange(wide)
        rest = tuple(rng.randrange(wide) for _ in range(arities[rel] - 1))
        grow.append(Update(rel, (lead,) + rest, rng.choice((1, 2))))
    shrink = [Update(u.rel, u.values, -u.mult) for u in grow]
    rng.shuffle(shrink)
    return grow + shrink[:length * 7 // 8]


def synthetic_totals(n: int, per_step) -> int:
    """Sum of a per-step cost model over a run of length ``n``.

    Used by calibration tests, e.g. ``per_step=lambda i: math.isqrt(i) + 1``
    gives totals growing like n^(3/2).
    """
    return sum(per_step(i) for i in range(1, n + 1))


def replay_audit(engine_factory, stream) -> bool:
    """Run a stream twice on fresh engines and compare counters.

    The update path must be deterministic: identical streams on identical
    configurations account identical primitive work. Returns True when the
    two counter snapshots agree.
    """
    a = engine_factory()
    b = engine_factory()
    for rel, t, m in stream:
        a.on_update(rel, t, m)
    for rel, t, m in stream:
        b.on_update(rel, t, m)
    return a.counters.snapshot() == b.counters.snapshot()


# Read-only views of one index of a relation, for assertions.

def matching(rel: Relation, var, key):
    """``(tuple, multiplicity)`` pairs of ``rel`` whose ``var`` equals ``key``."""
    return iter(rel._index_for(var).get(key, {}).items())


def degree(rel: Relation, var, key) -> int:
    """Number of tuples of ``rel`` whose ``var`` equals ``key``."""
    return len(rel._index_for(var).get(key, ()))


def has_key(rel: Relation, var, key) -> bool:
    return key in rel._index_for(var)


def keys(rel: Relation, var):
    """The distinct values of ``var`` present in ``rel``."""
    return rel._index_for(var).keys()
