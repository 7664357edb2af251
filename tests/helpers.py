"""Shared stream builders and comparison drivers for the test suite."""

from __future__ import annotations

import random

from skewivm.cli import Update


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
