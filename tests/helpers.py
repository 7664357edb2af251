"""Shared stream builders and comparison drivers for the test suite."""

from __future__ import annotations

import random
import sys

from skewivm.cli import Update
from skewivm.relation import HEAVY, IDX0, IDX1, LIGHT, Relation
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

    The answer gains the update's ``delta``, the engine's step with no
    part, which reads and changes nothing (an engine without a count has
    none), and the engine's ``apply_update`` keeps its parts and views;
    returns what it returns, the stored multiplicity. ``label`` is a part
    label, ``WHOLE`` for a relation kept whole. The size is not kept.
    """
    if eng.delta is not None:
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
    insert it into ``dst``, as the engine's ``apply_move`` does.
    """
    return sum(part.move_key(key, sys.maxsize, move) for key in list(part.moving))


# Read-only views of one single-variable index of a relation, for
# assertions; a variable without an index raises ``KeyError``.

def posted_tuple(arity: int, spec: tuple, key, free) -> tuple:
    """The tuple a posting keyed ``free`` at ``key`` of the index on ``spec`` stands for.

    The posting is keyed by the value at the one position the index leaves
    out, or by the whole tuple when it leaves out more.
    """
    left = [p for p in range(arity) if p not in spec]
    if len(left) != 1:
        return free
    values = dict(zip(spec, key if len(spec) > 1 else (key,)))
    values[left[0]] = free
    return tuple(values[p] for p in range(arity))


def matching(rel: Relation, var: int, key):
    """``(tuple, multiplicity)`` pairs of ``rel`` whose ``var`` equals ``key``."""
    posts = rel.indexes[(var,)].get(key, {})
    return ((posted_tuple(rel.arity, (var,), key, f), m) for f, m in posts.items())


def degree(rel: Relation, var: int, key) -> int:
    """Number of tuples of ``rel`` whose ``var`` equals ``key``."""
    return len(rel.indexes[(var,)].get(key, ()))


def has_key(rel: Relation, var: int, key) -> bool:
    return key in rel.indexes[(var,)]


def keys(rel: Relation, var: int):
    """The distinct values of ``var`` present in ``rel``."""
    return rel.indexes[(var,)].keys()


# The maintained views of an engine against a fresh build from its parts.

def views(eng, names) -> dict:
    """The engine attributes ``names`` (its views), by name."""
    return {name: getattr(eng, name) for name in names}


def fresh_views(eng, names) -> dict:
    """The views ``rebuild_views`` computes from the current parts, by name.

    The maintained views, live sets and entry count and the counters'
    values are put back afterwards, so a replay goes on with whatever the
    engine kept and counts only its own work.
    """
    kept = eng._views[:]
    counted = eng.counters.snapshot()
    eng.rebuild_views()
    fresh = views(eng, names)
    eng._views[:] = kept
    for name, value in counted.items():
        setattr(eng.counters, name, value)
    return fresh


def build_wedge(hl: Relation, lh: Relation) -> dict:
    """The join ``hl(y, z) * lh(z, x)`` summed over z, keyed ``(x, y)``.

    Pairs the postings of each z present on both sides, so it shares no
    code with the engines' walks.
    """
    w: dict = {}
    h_idx, l_idx = hl.indexes[IDX1], lh.indexes[IDX0]
    for z in h_idx.keys() & l_idx.keys():
        # hl's postings at z are keyed by y, lh's by x
        for y, mh in h_idx[z].items():
            for x, ml in l_idx[z].items():
                v = w.get((x, y), 0) + mh * ml
                if v:
                    w[x, y] = v
                else:
                    del w[x, y]
    return w


def refined_views(eng) -> list[dict]:
    """The refined triangle engine's ``views``, built independently from its parts.

    ``views[v][(x, y)]`` sums, over z, the next relation's hl part at
    ``(y, z)`` times the previous relation's lh part at ``(z, x)``.
    """
    return [build_wedge(eng.parts[(v + 1) % 3].parts["hl"], eng.parts[(v - 1) % 3].parts["lh"])
            for v in range(3)]


def _by_first(rows: dict) -> dict:
    """Binary ``rows`` grouped by their first value: ``{x: {y: multiplicity}}``."""
    out: dict = {}
    for (x, y), m in rows.items():
        out.setdefault(x, {})[y] = m
    return out


def enum_views(eng) -> dict:
    """The enumeration engine's ``views``, ``live`` and ``entries``, built from its parts.

    Plain loops over the stored tuples of each part, sharing no code with
    the engine's walks. The listing ``views[3]`` holds the triangles whose
    three tuples sit in parts of one label. Family ``views[w]`` joins
    relation w+1's heavy tuples ``(y, z)`` with relation w-1's light
    tuples ``(z, x)``, keyed ``(x, y)``, relation w's tuple, with the
    middle value z kept: ``views[w][x, y][z]``. ``live[w]`` holds the
    family's keys that relation w stores; the listing's slot is empty.
    """
    rows = [{lab: dict(part.parts[lab].items()) for lab in (HEAVY, LIGHT)}
            for part in eng.parts]
    listing: dict = {}
    for lab in (HEAVY, LIGHT):
        r, s, t = (rel[lab] for rel in rows)
        s_by_b = _by_first(s)
        for (a, b), mr in r.items():
            for c, ms in s_by_b.get(b, {}).items():
                if (c, a) in t:
                    listing[a, b, c] = mr * ms * t[c, a]
    families, live = [], []
    for w in range(3):
        fam: dict = {}
        light_by_z = _by_first(rows[(w - 1) % 3][LIGHT])
        for (y, z), mh in rows[(w + 1) % 3][HEAVY].items():
            for x, ml in light_by_z.get(z, {}).items():
                fam.setdefault((x, y), {})[z] = mh * ml
        families.append(fam)
        live.append({k for k in fam if k in rows[w][HEAVY] or k in rows[w][LIGHT]})
    return {"views": families + [listing], "live": live + [set()],
            "entries": sum(len(ys) for fam in families for ys in fam.values())}


def _joined(left: dict, right: dict) -> dict:
    """``left(x, b) * right(b, y)`` summed over b, keyed ``(x, y)``, zeros dropped."""
    by_b: dict = {}
    for (b, y), m in right.items():
        by_b.setdefault(b, []).append((y, m))
    out: dict = {}
    for (x, b), ml in left.items():
        for y, mr in by_b.get(b, ()):
            out[x, y] = out.get((x, y), 0) + ml * mr
    return {k: m for k, m in out.items() if m}


def _weighted(pairs: dict, weights: dict, var: int) -> dict:
    """``pairs(x0, x1) * weights(x_var)`` summed over ``x_var``, keyed by the other value."""
    out: dict = {}
    for t, m in pairs.items():
        w = weights.get(t[var], 0)
        if w:
            out[t[1 - var]] = out.get(t[1 - var], 0) + m * w
    return {k: m for k, m in out.items() if m}


def path4_views(eng) -> dict:
    """The path4 engine's views, by name, built from its relations by plain loops.

    Shares no code with the engine's walks. S holds ``(a, b)``, T ``(b,
    c)``. ``rs_xy`` sums R(a) S_xy(a, b) by b and ``t_xy_u`` sums T_xy(b,
    c) U(c) by b; ``s_xy_t_zw`` joins S_xy with T_zw over b, keyed ``(a,
    c)``; the chains weight ``s_ll_t_lh`` by R, by c, and ``s_hl_t_ll`` by
    U, by a. The masked views are indicator views: ``r_s_hl_t_ind`` keeps
    R(a) S_hl(a, b) only at the b values T's hl part holds, and
    ``s_ind_t_lh_u`` keeps T_lh(b, c) U(c) only at the b values S's lh
    part holds, whatever the multiplicities there.
    """
    r, u = eng.r, eng.u
    s = {lab: dict(rel.items()) for lab, rel in eng.s.parts.items()}
    t = {lab: dict(rel.items()) for lab, rel in eng.t.parts.items()}
    out = {}
    for lab in ("ll", "lh", "hh"):
        out["rs_" + lab] = _weighted(s[lab], r, 0)
    for lab in ("ll", "hl", "hh"):
        out[f"t_{lab}_u"] = _weighted(t[lab], u, 1)
    t_hl_bs = {b for b, _ in t["hl"]}
    s_lh_bs = {b for _, b in s["lh"]}
    out["r_s_hl_t_ind"] = {b: w for b, w in _weighted(s["hl"], r, 0).items() if b in t_hl_bs}
    out["s_ind_t_lh_u"] = {b: w for b, w in _weighted(t["lh"], u, 1).items() if b in s_lh_bs}
    for near, far in (("ll", "lh"), ("hl", "ll"), ("hl", "lh"), ("hl", "hh"), ("hh", "lh")):
        out[f"s_{near}_t_{far}"] = _joined(s[near], t[far])
    out["r_s_ll_t_lh"] = _weighted(out["s_ll_t_lh"], r, 0)
    out["s_hl_t_ll_u"] = _weighted(out["s_hl_t_ll"], u, 1)
    return out


def path4_view(eng, name: str) -> dict:
    """The path4 engine's view ``name``, one of its ``VIEW_NAMES``."""
    return eng.views[eng.VIEW_NAMES.index(name)]


def path4_named(eng) -> dict:
    """The path4 engine's views by the names ``path4_views`` gives them.

    A map of maps keyed by ``(a, c)`` (``name@a``) or ``(c, a)``
    (``name@c``) is flattened to ``{(a, c): m}``; when a view keeps both,
    both flatten to it or the view is reported twice, as ``name@a`` and
    ``name@c``.
    """
    out: dict = {}
    for name in eng.VIEW_NAMES:
        view = dict(path4_view(eng, name))
        base, _, by = name.partition("@")
        if by:
            view = {((x, y) if by == "a" else (y, x)): m
                    for x, line in view.items() for y, m in line.items()}
        if out.get(base, view) != view:
            out[name] = view
        out[base] = view
    return out


def path4_views_exact(eng, where=None) -> None:
    """The path4 engine's views equal ``path4_views``, and its maps of maps are well formed.

    No inner map is empty, the two maps of a two-sided view are exact
    transposes (``path4_named``), and the entries of every map of maps,
    each two-sided view counted once, add up to the engine's entry count.
    Every key of a masked view is a key of the far part's index on b that
    masks it.
    """
    assert path4_named(eng) == path4_views(eng), where
    # b is T's first variable and S's second
    for name, mask in (("r_s_hl_t_ind", eng.t.parts["hl"].indexes[IDX0]),
                       ("s_ind_t_lh_u", eng.s.parts["lh"].indexes[IDX1])):
        assert path4_view(eng, name).keys() <= mask.keys(), where
    nested = {name.partition("@")[0]: path4_view(eng, name)
              for name in eng.VIEW_NAMES if "@" in name}
    assert all(all(view.values()) for view in nested.values()), where
    assert eng.entries == sum(len(line) for view in nested.values() for line in view.values())
