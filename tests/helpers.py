"""Shared stream builders and comparison drivers for the test suite."""

from __future__ import annotations

import random
import sys

from skewivm.cli import Update
from skewivm.path4 import JoinView
from skewivm.relation import Relation
from skewivm.triangle import TriangleEngine


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


def swing_stream(seed: int, length: int, arities: dict, wide: int,
                 mult_only: float = 0.35, hot: list | None = None) -> list[Update]:
    """A mixed stream aimed at the edges of minor rebalancing.

    In waves of 180 updates, each on the next relation of arity two or
    more, tuples whose first value is the hot value 0 or whose second value
    is the hot value 1 are created for 90 updates, then cancelled, so the
    degree of 0 on the first variable and of 1 on the second climbs from
    nothing past one and a half times a small threshold and falls back
    below half of it. ``hot``, when given, lists the hot keys
    ``(relation, variable, value)`` of every wave instead (on variable 0
    or 1, all relations of one arity), so the keys of several relations
    swing together. Between the hot updates come:

      * multiplicity changes of a stored tuple that neither create nor
        cancel it, a share ``mult_only`` of all updates;
      * exact cancellations of a stored tuple to zero;
      * creates with negative as well as positive multiplicities;
      * loops, tuples repeating one value.

    ``arities`` maps relation names to tuple arities. The other values of
    a hot tuple come from ``range(4 * wide)``, every other value from
    ``range(wide)``.
    """
    rng = random.Random(seed)
    names = list(arities)
    live: dict = {}  # (relation, tuple) -> multiplicity
    out = []

    def emit(rel, t, m):
        out.append(Update(rel, t, m))
        v = live.get((rel, t), 0) + m
        if v:
            live[rel, t] = v
        else:
            del live[rel, t]

    def fresh(arity):
        return tuple(rng.randrange(wide) for _ in range(arity))

    waves = ([[(n, 0, 0), (n, 1, 1)] for n in names if arities[n] > 1]
             if hot is None else [hot])
    hot_keys = {key for wave in waves for key in wave}
    while len(out) < length:
        wave, at = divmod(len(out), 180)
        growing = at < 90
        r = rng.random()
        if r < mult_only and live:
            (rel, t), m = rng.choice(list(live.items()))
            emit(rel, t, rng.choice([d for d in (-2, -1, 1, 2) if d != -m]))
        elif r < mult_only + 0.35:
            stored = [(rel, t) for rel, t in live if len(t) > 1
                      and ((rel, 0, t[0]) in hot_keys or (rel, 1, t[1]) in hot_keys)]
            if growing or not stored:
                keys = waves[wave % len(waves)]
                t = tuple(rng.randrange(4 * wide) for _ in range(arities[keys[0][0]]))
                rel, var, value = keys[rng.randrange(len(keys))]
                t = t[:var] + (value,) + t[var + 1:]
                emit(rel, t, rng.choice((1, 1, 2, -1)))
            else:
                rel, t = rng.choice(stored)
                emit(rel, t, -live[rel, t])
        elif r < mult_only + 0.45 and live:
            rel, t = rng.choice(list(live))
            emit(rel, t, -live[rel, t])
        else:
            rel = names[rng.randrange(len(names))]
            arity = arities[rel]
            t = (rng.randrange(wide),) * arity if rng.random() < 0.2 else fresh(arity)
            emit(rel, t, rng.choice((-2, -1, 1, 2)))
    return out


def multiplicity_churn(stream: list[Update], seed: int, per_update: int = 2) -> list[Update]:
    """``stream`` with ``per_update`` multiplicity-only changes after each update.

    Each change adds a nonzero delta to the multiplicity of a tuple stored
    at that point without cancelling it, so it creates and destroys no
    tuple; nothing is added while no tuple is stored.
    """
    rng = random.Random(seed)
    live: dict = {}  # (relation, tuple) -> multiplicity
    out = []
    for upd in [u for u in stream for u in (u,) + (None,) * per_update]:
        if upd is None:
            if not live:
                continue
            (rel, t), m = rng.choice(list(live.items()))
            upd = Update(rel, t, rng.choice([d for d in (-2, -1, 1, 2) if d != -m]))
        out.append(upd)
        v = live.get((upd.rel, upd.values), 0) + upd.mult
        if v:
            live[upd.rel, upd.values] = v
        else:
            del live[upd.rel, upd.values]
    return out


def apply_routed(eng, i: int, label, t: tuple, m: int) -> int:
    """One update of relation ``i`` to part ``label``, without routing or rebalancing.

    The answer gains the update's ``delta`` and the engine's
    ``apply_update`` keeps its parts and views; returns what it returns,
    the stored multiplicity. The size is not kept.
    """
    eng.q += eng.delta(i, t, m)
    return eng.apply_update(i, label, t, m)


class ThreeCopiesEngine:
    """Self-join count via three synchronized copies in the base engine.

    Every edge update is replayed into all three relations of a
    ``TriangleEngine``; after the third replay the copies agree and the
    count equals the self-join count. A cross-check for ``SelfJoinEngine``.
    """

    def __init__(self, cfg=0.5):
        self.inner = TriangleEngine(cfg)

    def on_update(self, rel, t, m):
        for name in ("R", "S", "T"):
            self.inner.on_update(name, t, m)

    def answer(self) -> int:
        return self.inner.answer()


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


def settle(part, move) -> int:
    """Make every move of the keys in transit in ``part`` now; returns the tuples moved.

    ``move(src, dst, t, m)`` must delete ``t`` from part ``src`` and
    insert it into ``dst``, as the kernel's ``apply_move`` does.
    """
    return sum(part.move_key(key, sys.maxsize, move) for key in list(part.moving))


# Read-only views of one single-variable index of a relation, for
# assertions; a variable without an index raises ``KeyError``.

def matching(rel: Relation, var: int, key):
    """``(tuple, multiplicity)`` pairs of ``rel`` whose ``var`` equals ``key``."""
    return iter(rel.indexes[(var,)].get(key, {}).items())


def degree(rel: Relation, var: int, key) -> int:
    """Number of tuples of ``rel`` whose ``var`` equals ``key``."""
    return len(rel.indexes[(var,)].get(key, ()))


def has_key(rel: Relation, var: int, key) -> bool:
    return key in rel.indexes[(var,)]


def keys(rel: Relation, var: int):
    """The distinct values of ``var`` present in ``rel``."""
    return rel.indexes[(var,)].keys()


# The maintained views of an engine against a fresh build from its parts.

def _plain(view):
    # path4's join views flatten to {(a, c): m}; every other view compares as it is
    return dict(view.items()) if isinstance(view, JoinView) else view


def views(eng, names) -> dict:
    """The engine attributes ``names`` (its views), by name."""
    return {name: _plain(getattr(eng, name)) for name in names}


def fresh_views(eng, names) -> dict:
    """The views ``rebuild_views`` computes from the current parts, by name.

    The maintained views are put back afterwards, so a replay goes on
    with whatever the engine kept.
    """
    kept = {name: getattr(eng, name) for name in names}
    eng._uncounted(eng.rebuild_views)
    fresh = views(eng, names)
    for name, view in kept.items():
        setattr(eng, name, view)
    return fresh


def path4_views_exact(eng, where=None) -> None:
    """The path4 engine's views equal a fresh build, and its join views are well formed.

    No inner map of a join view is empty, the two maps of a two-sided view
    are exact transposes, and every entry count equals a recount.
    """
    assert views(eng, eng.VIEW_NAMES) == fresh_views(eng, eng.VIEW_NAMES), where
    for name in eng.JOIN_VIEWS:
        view = getattr(eng, name)
        sides = [side for side in (view.rows, view.cols) if side is not None]
        assert all(all(side.values()) for side in sides), (name, where)
        if len(sides) == 2:
            flipped: dict = {}
            for a, row in view.rows.items():
                for c, m in row.items():
                    flipped.setdefault(c, {})[a] = m
            assert flipped == view.cols, (name, where)
        assert view.n == sum(map(len, sides[0].values())), (name, where)
