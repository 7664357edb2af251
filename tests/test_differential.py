"""Every engine against the oracle after every update, at the rebalancing edges.

Each engine of ``test_major_rebalance.ENGINES`` replays ``swing_stream``
streams across the exponent grid (the triangle, refined, enumeration
and path4 engines also at a few per-relation exponent tuples), from
empty and from a preprocessed start; the path4 engine also replays one
stream whose hot waves on S and T overlap, which at exponent 1/4 fills
the two-sided join views and adds entries to columns that already hold
one, and the refined triangle engine one whose hot S and T keys fill its
views; the cyclic join of degree 4, whose other streams never close a
join, replays one more over a domain of one value, and its oracle answer
must be nonzero on some prefix. The streams mix
multiplicity-only changes, cancellations to zero, negative multiplicities
and loops with hot keys whose degrees swing past one and a half times the
threshold and back below half of it, on both variables of a quad
partition. After every update the loose bounds and
the size invariant must hold (``check_invariants() == []``), the size
the engine keeps must equal the number of stored tuples of the oracle
database, and the answer must equal the oracle's: the first-order tracker
of the query family, or for enumeration the brute-force result. At
exponent 1/2 the enumeration engine's maintained views must also equal a
build from its parts without its walks (``helpers.enum_views``), with no
empty kept-value map, an entry count equal to a recount and live sets
that hold exactly the keys their relation stores; the path4 engine's
must equal a fresh build, with no empty
inner map in a join view, the two maps of a two-sided join view exact
transposes of each other, each view's entry count equal to a recount and
each masked view's keys inside the index that masks it.
The path4 engine's checks run at exponent 1/4 too, and at both exponents
the refined triangle engine's views must equal a join of its parts built
without its walks (``helpers.refined_views``): its ``rebuild_views`` runs
the same generated walks as its upkeep, so a fresh rebuild would share
their faults.

A rebalance only queues its keys, and each later update makes at most
``B`` of the queued tuple moves, so a key in transit may have tuples in
both parts for many updates. Between the stream's updates the replay
interleaves updates aimed at the keys in transit (``_aimed``): creates,
negative and positive multiplicity-only changes and cancellations to zero
on a key's tuples, updates of a quad tuple whose keys are both in
transit, and creates of fresh tuples that trigger a doubling while moves
are still queued. Every update may add at most ``B`` to
``counters.moves``: a major leaves the moves it finds queued in the queue.

At every major the light keys a halving left unread must all have been
swept, and at every halving the keys put in transit or turned around
must be exactly those a scan of every key finds: the keys whose strict
status for the new threshold differs from their status, or from the one
they are bound for while in transit (``_watch_majors``).

The engine checks only the bound an update can cross, and nothing after
an update that changed only a multiplicity; a key that crossed a bound
unchecked shows here as a loose-bound violation.

One more stream per engine (``_size_swing_stream``) drives the size
across N and below N/4 on purpose, several times each, with a hot key
whose moves are still queued when later majors come.
"""

import math
import random
from itertools import count

import pytest

from skewivm import cli
from skewivm.cli import Update, family_arities
from skewivm.loomis_whitney import B
from skewivm.oracle import brute_force_enumerate
from skewivm.relation import HEAVY, LIGHT, QuadPartition

from helpers import (enum_views, matching, path4_views_exact, refined_views, swing_stream,
                     views)
from test_major_rebalance import ENGINES, EPS_GRID

# (seed, length, width of the other values, updates preprocessed first)
STREAMS = ((1, 540, 12, 0), (2, 540, 40, 120), (3, 720, 6, 0), (4, 720, 20, 300))
# one more path4 stream whose hot waves on S and T overlap: two hot A values
# of S and a hot C value of T at once fill the two-sided join views
PATH4_OVERLAP = ((6, 720, 8, 0), [("S", 0, 0), ("S", 0, 2), ("T", 1, 1)])
# one more refined stream: hot first values of S and hot second values of T
# meet on light C values, which fills the views; the other streams leave
# them empty at 1/2 and nearly so at 1/4
REFINED_OVERLAP = ((6, 720, 8, 0), [("S", 0, 0), ("T", 1, 1)])
# one more stream of the cyclic join of degree 4: over a domain of one
# value (hot tuples over four) its relations meet, which they never do in
# the streams above
LW4_NARROW = ((6, 720, 1, 0), None)

KINDS = ("create", "down", "up", "cancel")


def _record_minors(eng, seen):
    """Record (variable, promote?) of every minor rebalance ``eng`` queues."""
    inner = eng.minor_rebalance

    def minor(i, key):
        seen.add((key[0], eng.parts[i].moving[key] == HEAVY))
        return inner(i, key)

    eng.minor_rebalance = minor


def _statuses(part):
    """Every key of ``part`` per variable, with its status or the one it is bound for."""
    out = {}
    for var, (ha, hb, la, lb) in enumerate(part._by_status):
        for k in {*ha, *hb, *la, *lb}:
            out[var, k] = part.moving.get((var, k)) or (HEAVY if k in ha or k in hb else LIGHT)
    return out


def _watch_majors(eng):
    """Check each major of ``eng``: no key left to sweep, and a halving flips what a full scan finds.

    Before the major, no partition may still hold light keys a halving
    left unread. After a halving, the keys whose status (or, in transit,
    the status they are bound for) changed must be exactly the keys whose
    degree over all parts puts them on the other side of the new
    threshold, and no key may be left on the wrong side. Returns a
    one-item list counting the halvings checked.
    """
    inner = eng.major_rebalance
    base, halvings = [eng.N], [0]

    def major(*args):
        parts = [(j, part) for j, part in enumerate(eng.parts) if part is not None]
        assert not any(keys for _, part in parts for keys in part.unswept), eng.N
        before = [_statuses(part) for _, part in parts]
        inner(*args)
        if eng.N < base[0]:
            halvings[0] += 1
            for (j, part), was in zip(parts, before):
                theta = eng._thetas[j]
                now = _statuses(part)
                strict = {(var, k): HEAVY if part.degree(var, k) >= theta else LIGHT
                          for var, k in was}
                assert {key for key in was if now[key] != was[key]} == \
                    {key for key in was if strict[key] != was[key]}, (eng.N, j)
                assert now == strict, (eng.N, j)
        base[0] = eng.N

    eng.major_rebalance = major
    return halvings


def _database(updates, arities):
    db = {name: {} for name in arities}
    for rel, t, m in updates:
        rows = db[rel]
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
    return db


def _enum_views_exact(eng, names, where):
    """The enumeration engine's views equal a build without its walks and hold no dead key.

    The reference is ``helpers.enum_views``, plain loops over the parts:
    the engine's own ``rebuild_views`` runs the generated walks of its
    upkeep, so a fresh rebuild would share their faults. Each family's
    live set must hold exactly its keys that its relation stores, read
    through ``lookup``, so a key left out by the upkeep and the reference
    alike still shows.
    """
    assert views(eng, names) == enum_views(eng), where
    kept = [ys for fam in eng.views[:3] for ys in fam.values()]
    assert all(kept), where
    assert eng.entries == sum(map(len, kept)), where
    for w, fam in enumerate(eng.views[:3]):
        assert eng.live[w] == {k for k in fam if eng.lookup(eng.REL[w], k)}, (w, where)


def _stored(part, var, key):
    """The stored ``(tuple, multiplicity)`` pairs of ``part`` carrying ``key`` on ``var``."""
    return [item for rel in part.parts.values() for item in matching(rel, var, key)]


def _change(rng, t, m, kind):
    """An update of the stored ``t`` (multiplicity ``m``) of the given kind."""
    if kind == "cancel":
        return -m
    deltas = (1, 2) if kind == "up" else (-1, -2)
    return rng.choice([d for d in deltas if d != -m])


def _aimed(eng, names, arities, rng, fresh, seen):
    """An update aimed at a key in transit, or ``None`` when none is worth one.

    While moves are queued and a few creates would double ``N``, fresh
    tuples trigger that doubling. Otherwise, with probability one half, a key
    in transit gets an update of a kind drawn from ``KINDS`` (a quad
    tuple whose two keys are both in transit comes first); ``seen``
    collects the kinds sent.
    """
    if eng.pending_moves() and eng.N - eng.db_size <= 4:
        rel = names[rng.randrange(len(names))]
        return Update(rel, tuple(next(fresh) for _ in range(arities[rel])), 1)
    if rng.random() < 0.5:
        return None
    for i, part in enumerate(eng.parts):
        if part is None or not part.moving:
            continue
        rel = names[i]
        keys = list(part.moving)
        firsts = [k for v, k in keys if v == 0]
        seconds = [k for v, k in keys if v == 1]
        if firsts and seconds:
            t = (rng.choice(firsts), rng.choice(seconds))
            m = eng.lookup(rel, t)
            kind = "create" if not m else KINDS[1 + rng.randrange(3)]
            seen.add(("both", kind))
            return Update(rel, t, 1 if not m else _change(rng, t, m, kind))
        var, key = rng.choice(keys)
        kind = rng.choice(KINDS)
        stored = _stored(part, var, key)
        if kind == "create" or not stored:
            t = tuple(key if p == var else next(fresh) for p in range(arities[rel]))
            seen.add("create")
            return Update(rel, t, rng.choice((1, 2, -1)))
        t, m = rng.choice(stored)
        seen.add(kind)
        return Update(rel, t, _change(rng, t, m, kind))
    return None


# per-relation exponents per engine: walks next to a neighbor pinned heavy
# (0) or light (1), and minors on relations whose thresholds differ; path4's
# R and U entries split nothing
MIXED_EPS = {
    "triangle": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.5), (0.75, 0.0, 0.25)),
    "refined": ((1.0, 0.0, 0.5), (0.75, 0.0, 0.25)),
    "enum": ((1.0, 0.0, 0.5), (0.75, 0.0, 0.25)),
    "path4": ((0.5, 0.0, 1.0, 0.5), (0.5, 0.75, 0.25, 0.5)),
}


@pytest.mark.parametrize(
    "name, eps",
    [(name, eps) for name in sorted(ENGINES) for eps in EPS_GRID]
    + [pytest.param(name, eps, id=f"{name}-{cli._spell_exponent(eps)}")
       for name, tuples in MIXED_EPS.items() for eps in tuples])
def test_every_update_keeps_the_bounds_and_the_oracle_answer(name, eps):
    family, make, view_names, load, _ = ENGINES[name]
    arities = family_arities(family)
    names = list(arities)
    minors: set = set()
    aimed: set = set()
    unchanged = updates = queued = 0
    runs = [(spec, None) for spec in STREAMS] + {"path4": [PATH4_OVERLAP],
                                                 "refined": [REFINED_OVERLAP],
                                                 "lw:4": [LW4_NARROW]}.get(name, [])
    for (seed, length, wide, preload), hot in runs:
        joined = False
        stream = swing_stream(seed, length, arities, wide, hot=hot)
        db = _database(stream[:preload], arities)
        eng = load(db, eps) if preload else make(eps)
        _record_minors(eng, minors)
        # these streams only double; the size swings below halve
        _watch_majors(eng)
        tracker = cli.build_tracker(family)
        for upd in stream[:preload]:
            tracker.update(upd.rel, upd.values, upd.mult)
        rng = random.Random(seed)
        fresh = count(10 ** 6)
        pending = iter(stream[preload:])
        step = preload
        while True:
            upd = _aimed(eng, names, arities, rng, fresh, aimed)
            if upd is None:
                upd = next(pending, None)
                if upd is None:
                    break
            rel, t, m = upd
            size, moves = eng.db_size, eng.counters.moves
            queued += eng.pending_moves() > 0
            eng.on_update(rel, t, m)
            updates += 1
            unchanged += eng.db_size == size
            where = (seed, step, eng.N, rel, t, m)
            step += 1
            assert eng.check_invariants() == [], where
            assert eng.counters.moves - moves <= B, where
            v = db[rel].get(t, 0) + m
            if v:
                db[rel][t] = v
            else:
                del db[rel][t]
            assert eng.db_size == sum(map(len, db.values())), where
            if name == "enum":
                assert eng.result_multiset() == brute_force_enumerate(
                    db["R"], db["S"], db["T"]), where
                if eps == 0.5:
                    _enum_views_exact(eng, view_names, where)
            else:
                tracker.update(upd.rel, upd.values, upd.mult)
                assert eng.answer() == tracker.count, where
                joined = joined or tracker.count != 0
                # at 1/4 the two-sided S-T join views fill: entries are
                # created in columns that already hold others
                if name == "path4" and eps in (0.25, 0.5):
                    path4_views_exact(eng, where)
                if name == "refined" and eps in (0.25, 0.5):
                    assert eng.views == refined_views(eng), where
        eng.finish_moves()
        assert eng.check_invariants() == []
        if ((seed, length, wide, preload), hot) == LW4_NARROW:
            assert joined  # the delta walks found joins
    # a third of the updates or more leave the size alone: the early return
    assert unchanged * 3 >= updates
    if eps in (0.25, 0.5):
        # moves stayed queued across updates, and every kind of update
        # reached a key in transit
        assert queued and set(KINDS) <= aimed, aimed
    if eps == 0.5:
        # both bounds are crossed, on both variables of a quad partition
        quad = name in ("refined", "path4")
        want = {(var, up) for var in ((0, 1) if quad else (0,)) for up in (True, False)}
        assert want <= minors, minors


class _Checked:
    """An engine of ``ENGINES`` at exponent 1/2, checked after every update.

    Each update must keep ``check_invariants()`` empty, add at most ``B``
    to ``counters.moves`` and leave the oracle's answer; each major is
    checked by ``_watch_majors``.
    """

    def __init__(self, name):
        family, make, _, _, _ = ENGINES[name]
        self.name = name
        self.eng = make(0.5)
        self.halvings = _watch_majors(self.eng)
        self.db = {rel: {} for rel in family_arities(family)}
        self.tracker = cli.build_tracker(family)
        self.fresh = count(10 ** 6)

    def __call__(self, rel, t, m):
        eng = self.eng
        moves = eng.counters.moves
        eng.on_update(rel, t, m)
        assert eng.check_invariants() == [], (rel, t, m)
        assert eng.counters.moves - moves <= B, (rel, t, m)
        rows = self.db[rel]
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
        if self.name == "enum":
            db = self.db
            assert eng.result_multiset() == brute_force_enumerate(db["R"], db["S"], db["T"])
        else:
            self.tracker.update(rel, t, m)
            assert eng.answer() == self.tracker.count, (rel, t, m)


def _kinds(run, rel, t, moving):
    """Up, down, cancel and create again the stored tuple ``t``.

    Before each update every key of ``moving`` must still be in transit.
    """
    part = run.eng.parts[run.eng.rel_index(rel)]
    for delta in (lambda m: 2 if m != -2 else 1, lambda m: -1 if m != 1 else -2,
                  lambda m: -m, lambda m: 1):
        assert moving <= set(part.moving)
        run(rel, t, delta(run.db[rel].get(t, 0)))


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_keys_in_transit_take_every_kind_of_update(name):
    """Updates to keys whose moves are queued, then a doubling that finds them queued.

    At threshold base 64 (threshold 8, light cap 12) the first partitioned
    relation is filled with fresh tuples to a few creates short of the
    next doubling, counting the hot tuples that follow. One-variable partitions: two
    hot keys climb together until both are queued; before the second has
    started moving, one of its tuples changes up, down, cancels and comes
    back, and a new tuple with a negative multiplicity joins it on the
    side it is bound for. Quad partitions: two keys, one per variable,
    reach the light cap on the same update, the shared tuple ``(1, 2)``,
    which then takes every kind of update with both keys in transit. Then
    fresh tuples double ``N`` while moves are queued: the major leaves
    them queued, its update makes at most ``B`` moves, and the split is
    strict once ``finish_moves`` has made every queued move.
    """
    run = _Checked(name)
    eng = run.eng
    i = next(i for i, part in enumerate(eng.parts) if part is not None)
    rel, part, arity = eng.names[i], eng.parts[i], eng.arities[i]
    fresh = run.fresh
    while eng.N < 64:
        run(rel, tuple(next(fresh) for _ in range(arity)), 1)
    cap = math.ceil(1.5 * eng._thetas[i])
    # the hot tuples, one more create, then three fresh creates reach N
    while eng.db_size < eng.N - 2 * cap - 4:
        run(rel, tuple(next(fresh) for _ in range(arity)), 1)
    if isinstance(part, QuadPartition):
        for k in range(cap - 1):
            run(rel, (1, 100 + k), 1)
            run(rel, (200 + k, 2), 1)
        run(rel, (1, 2), 1)
        _kinds(run, rel, (1, 2), {(0, 1), (1, 2)})
        run(rel, (1, 300), -1)
        assert part.moving
    else:
        b = count(1)
        while (0, 8) not in part.moving:
            for key in (7, 8):
                run(rel, (key,) + (next(b),) * (arity - 1), 1)
        assert list(part.moving) == [(0, 7), (0, 8)]
        stored = next(t for t in run.db[rel] if t[0] == 8)
        _kinds(run, rel, stored, {(0, 8)})
        run(rel, (8,) + (next(b),) * (arity - 1), -1)
        assert (0, 8) in part.moving and part.light.get(stored) == 0 and part.heavy.get(stored)
    majors = eng.counters.rebalance_major
    while eng.counters.rebalance_major == majors:
        assert eng.pending_moves() and eng.N == 64
        queued = set(part.moving)
        run(rel, tuple(next(fresh) for _ in range(arity)), 1)
    # the keys in transit before the doubling are still in transit after it
    assert eng.N == 128 and queued <= set(part.moving), (queued, part.moving)
    eng.finish_moves()
    assert eng.check_invariants(loose=False) == []


# sizes a replay from empty climbs to and falls back to, in turn: on the way
# up the size reaches N, on the way down it falls below N/4, several times
SIZE_SWINGS = (48, 6, 100, 12, 60, 3, 90)


def _size_swing_stream(seed, arities, wide=12, targets=SIZE_SWINGS):
    """Creates up to each even-indexed target size, cancellations down to each odd-indexed one.

    The size is the number of stored tuples, as the engine counts it. Most
    creates take the hot leading value 0, with their other values drawn
    from ``range(4 * wide)``, so that key turns heavy as the size climbs
    and light again as it falls; the other creates draw every value from
    ``range(wide)``. A create may carry a negative multiplicity or hit a
    stored tuple. Each cancellation takes a stored tuple to zero.
    """
    rng = random.Random(seed)
    names = list(arities)
    live: dict = {}  # (relation, tuple) -> multiplicity
    out = []
    for k, target in enumerate(targets):
        while len(live) < target if k % 2 == 0 else len(live) > target:
            if k % 2 == 0:
                rel = names[rng.randrange(len(names))]
                hot = rng.random() < 0.6
                t = tuple(0 if hot and p == 0 else rng.randrange(4 * wide if hot else wide)
                          for p in range(arities[rel]))
                m = rng.choice((1, 2, -1))
            else:
                (rel, t), m = rng.choice(list(live.items()))
                m = -m
            out.append(Update(rel, t, m))
            v = live.get((rel, t), 0) + m
            if v:
                live[rel, t] = v
            else:
                del live[rel, t]
    return out


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_the_size_swings_across_both_bounds_of_the_threshold_base(name):
    """The size crosses N and N/4 on purpose, and every update is checked.

    From empty, at exponent 1/2, the size climbs to and falls from the
    ``SIZE_SWINGS`` targets, so the threshold base doubles and halves
    several times each, and the hot keys' moves are still queued while
    later updates, and later majors, arrive. After every update the
    bounds, the move budget and the oracle's answer are checked
    (``_Checked``).
    """
    run = _Checked(name)
    eng = run.eng
    bases = [eng.N]
    queued = 0
    for upd in _size_swing_stream(5, family_arities(ENGINES[name][0])):
        queued += eng.pending_moves() > 0
        run(*upd)
        if eng.N != bases[-1]:
            bases.append(eng.N)
    doublings = sum(b > a for a, b in zip(bases, bases[1:]))
    assert doublings >= 8 and len(bases) - 1 - doublings >= 6, bases
    assert run.halvings[0] == len(bases) - 1 - doublings
    assert eng.counters.moves and queued
