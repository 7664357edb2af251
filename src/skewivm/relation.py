"""Z-ring relations stored as posting maps, and degree-based partitioning.

A relation is a finite map from value tuples to nonzero integer
multiplicities (inserts carry positive, deletes negative deltas; the two
compose by addition and an entry dies when its multiplicity reaches zero).
It has no flat tuple map. Each configured index (one variable or a tuple
of variables) maps a key to the posting map ``{tuple: multiplicity}`` of
the stored tuples carrying that key, so every index holds every tuple with
its multiplicity. That gives

  * constant-time degree counts (``len`` of a posting map),
  * constant-time key membership,
  * a scan of the tuples matching a key that reads each multiplicity
    from the posting it walks,
  * point lookups through the first index, the lookup index.

No dict holds every tuple, so no update resizes one: the largest dict an
update can resize is an index, keyed by distinct values, or the posting
map of one key, as large as that key's degree. The size is a counter.

On top of that sit two partitioning primitives used by all maintenance
engines: ``Partition`` splits a binary-or-wider relation into a heavy and a
light part by comparing the degree of its partition key against a
threshold, and ``QuadPartition`` does the same independently for both
variables of a binary relation, yielding four parts. Both offer the same
surface to the engines' shared kernel: ``load`` to fill them strictly from
a full database, ``restrict`` to put the keys a major rebalance flips in
transit, ``minor_check`` to find the key an update moved past its loose
bound (only the bound that update can cross is read) and put it in
transit, and ``move_key`` to hand up to a budget of a key's tuples to the
kernel one by one. A key in transit (``moving``) may have tuples on both
sides until its last tuple has moved.
"""

from __future__ import annotations

import math
import sys
from collections import ChainMap
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator


class SchemaError(ValueError):
    """Update does not fit the engine's schema.

    Raised for an unknown relation, a tuple of the wrong arity or with an
    unhashable value, or a multiplicity that is zero or not an ``int``.
    """


HEAVY = "h"
LIGHT = "l"

IDX0 = (0,)
IDX1 = (1,)


class Relation:
    """Finite map ``tuple -> nonzero int`` kept as per-index posting maps.

    ``indexes[spec][key]`` is the posting map ``{tuple: multiplicity}`` of
    the tuples whose ``spec`` variables equal ``key``; it is never empty.
    The first spec, on one variable, is the lookup index behind ``get``
    and ``items``.
    """

    __slots__ = ("arity", "indexes", "_n", "_lead", "_first", "_rest", "tall_at", "tall")

    def __init__(self, arity: int, index_specs: Iterable[tuple[int, ...]] | None = None):
        if index_specs is None:
            index_specs = tuple((i,) for i in range(arity))
        specs = tuple(dict.fromkeys(tuple(s) for s in index_specs))
        if not specs or len(specs[0]) != 1:
            raise ValueError(f"the first index must be on one variable, got {specs[:1]}")
        self.arity = arity
        self.indexes: dict[tuple[int, ...], dict] = {s: {} for s in specs}
        self._lead = specs[0][0]
        self._first = self.indexes[specs[0]]
        # the other indexes with their key getters (a bare value for one
        # variable, a tuple for several)
        self._rest = tuple((itemgetter(*s), self.indexes[s]) for s in specs[1:])
        self._n = 0
        # degree watermark on the lookup index: a create that lifts its
        # key's posting map to ``tall_at`` tuples or more records the key
        # (an int, compared faster than a float; ``tall`` is a dict used as
        # a set, so its order does not depend on hashing)
        self.tall_at = sys.maxsize
        self.tall: dict = {}

    def __len__(self) -> int:
        return self._n

    def size(self) -> int:
        """Number of tuples with nonzero multiplicity."""
        return self._n

    def get(self, t: tuple) -> int:
        """Multiplicity of ``t``, 0 when absent."""
        posts = self._first.get(t[self._lead])
        return posts.get(t, 0) if posts else 0

    def items(self) -> Iterator[tuple[tuple, int]]:
        """Every ``(tuple, multiplicity)``, grouped by lookup-index key."""
        return chain.from_iterable(map(dict.items, self._first.values()))

    def upsert(self, t: tuple, m: int) -> int:
        """Add ``m`` to the multiplicity of ``t``; return the new multiplicity.

        Creates the tuple's postings when the old multiplicity was zero,
        removes them (and any posting map left empty) when the new one is,
        and otherwise rewrites the multiplicity in every index. ``new == m``
        therefore signals a created entry and ``new == 0`` a destroyed one.
        A create that leaves the lookup-index key with ``tall_at`` or more
        tuples adds the key to ``tall``; the key leaves ``tall`` with its
        last tuple, so ``tall`` holds live keys only.
        """
        if len(t) != self.arity:
            raise SchemaError(f"arity {len(t)} tuple in arity {self.arity} relation")
        if m == 0:
            raise ValueError("updates must carry a nonzero multiplicity")
        k = t[self._lead]
        first = self._first
        posts = first.get(k)
        if posts is None:
            first[k] = posts = {t: m}
        else:
            new = posts.get(t, 0) + m
            if new == 0:
                del posts[t]
                if not posts:
                    del first[k]
                    if self.tall:
                        self.tall.pop(k, None)
                self._n -= 1
                for key_of, idx in self._rest:
                    k = key_of(t)
                    posts = idx[k]
                    del posts[t]
                    if not posts:
                        del idx[k]
                return 0
            posts[t] = new
            if new != m:
                for key_of, idx in self._rest:
                    idx[key_of(t)][t] = new
                return new
        if len(posts) >= self.tall_at:
            self.tall[k] = None
        self._n += 1
        for key_of, idx in self._rest:
            k = key_of(t)
            posts = idx.get(k)
            if posts is None:
                idx[k] = {t: m}
            else:
                posts[t] = m
        return m

    def check_consistency(self) -> None:
        """Assert structural invariants; used by tests, not hot paths."""
        stored = dict(self.items())
        assert len(stored) == self._n, f"size counter {self._n} for {len(stored)} tuples"
        for spec, idx in self.indexes.items():
            key_of = itemgetter(*spec)
            seen = {}
            for key, posts in idx.items():
                assert posts, f"empty posting map for {key} in index {spec}"
                for t, m in posts.items():
                    assert m != 0, f"zero multiplicity stored for {t}"
                    assert len(t) == self.arity
                    assert key_of(t) == key
                    seen[t] = m
            assert seen == stored, f"index {spec} disagrees with the lookup index"


class Partition:
    """Heavy/light split of a relation keyed by the degree of its first variable.

    The heavy part holds the tuples whose partition key is heavy, the light
    part the rest. A key sits on one side, except while it is in transit:
    a rebalance that changes a key's status records the side it is bound
    for in ``moving`` and leaves its tuples where they are, and the kernel
    then moves them a few per update (``move_key``), so until the last one
    has moved the key's tuples may sit on both sides. Between rebalances
    the sides are allowed to drift inside the loose bounds (heavy keys stay
    at or above half the threshold, light keys below one and a half times
    it); a key in transit is held, by its degree over both sides, to the
    bound of the side it is bound for.

    The partition key's index (on variable 0) comes first on both sides,
    so point lookups go through it. By default the heavy side also indexes
    every other variable and the light side nothing else, the layout the
    triangle engines walk; ``index_specs`` gives both sides the same
    indexes instead.
    """

    __slots__ = ("heavy", "light", "theta", "moving", "light_rows", "_heavy_keys",
                 "_light_keys")

    def __init__(self, arity: int, index_specs: Iterable[tuple[int, ...]] | None = None):
        if index_specs is None:
            light_specs = (IDX0,)
            heavy_specs = light_specs + tuple((i,) for i in range(arity))
        else:
            heavy_specs = light_specs = (IDX0,) + tuple(map(tuple, index_specs))
        self.heavy = Relation(arity, heavy_specs)
        self.light = Relation(arity, light_specs)
        # the partition-key index of each side; a relation builds its index
        # dicts once and never replaces them, so the references stay valid
        self._heavy_keys = self.heavy.indexes[IDX0]
        self._light_keys = self.light.indexes[IDX0]
        # the threshold of an empty engine (N = 1); load and restrict set it
        self.theta = 1.0
        self.light.tall_at = 1
        # keys in transit -> the side they are bound for
        self.moving: dict = {}
        # the light rows as a probe that sees both sides of a key in transit
        self.light_rows = _TransitRows(self._light_keys, self._heavy_keys, self.moving)

    def side(self, label: str) -> Relation:
        return self.heavy if label == HEAVY else self.light

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination side for an update of ``t``: the side of its partition key.

        Heavy when the key ``t[0]`` is already present in the heavy side's
        partition-key index (cached at construction) or when
        ``force_heavy`` pins every tuple heavy; light otherwise. A tuple
        of a key in transit goes to the side that stores it, or, when it
        is new, to the side the key is bound for; while no key is in
        transit that costs one truthiness check. A key not in transit
        lives on one side, so the label is also where its degree is kept,
        which ``minor_check`` relies on.
        """
        if self.moving:
            dst = self.moving.get(t[0])
            if dst is not None:
                # only a stored tuple still on the side the key leaves stays there
                if dst == HEAVY:
                    posts = self._light_keys.get(t[0])
                    return LIGHT if posts and t in posts else HEAVY
                posts = self._heavy_keys.get(t[0])
                return HEAVY if posts and t in posts else LIGHT
        if force_heavy or t[0] in self._heavy_keys:
            return HEAVY
        return LIGHT

    def degree(self, label: str, key) -> int:
        return len(self.side(label).indexes[IDX0].get(key, ()))

    def multiplicity(self, t: tuple) -> int:
        return self.heavy.get(t) + self.light.get(t)

    def minor_check(self, engine, i: int, t: tuple, label: str, grew: bool,
                    theta: float) -> None:
        """Put the partition key of ``t`` in transit if the update moved it past its loose bound.

        ``label`` is the side the update was routed to and ``grew`` tells
        whether it created a tuple (otherwise it destroyed one).
        Precondition: every key sat inside its loose bound before the
        update; ``load`` and ``restrict`` leave the split strict and every
        minor rebalance restores the bound of the key it moves. One update
        changes one key's degree by one, so only two cases can cross a
        bound: a create on the light side can lift its key to one and a
        half times ``theta`` (it is bound heavy), and a delete on the
        heavy side can drop its key below half of it (it is bound light).
        Only that side is read. The key's moves are queued through
        ``engine.minor_rebalance`` for relation ``i``. A key already in
        transit is not queued again; it turns around when its degree over
        both sides crosses the bound of the side it is bound for.
        """
        key = t[0]
        moving = self.moving
        if moving and key in moving:
            _steer(moving, key, len(self._heavy_keys.get(key, ()))
                   + len(self._light_keys.get(key, ())), grew, theta)
        elif grew:
            if label == LIGHT and len(self._light_keys[key]) >= 1.5 * theta:
                moving[key] = HEAVY
                engine.minor_rebalance(i, key)
        elif label == HEAVY and 0 < len(self._heavy_keys.get(key, ())) < 0.5 * theta:
            moving[key] = LIGHT
            engine.minor_rebalance(i, key)

    def move_key(self, key, budget: int, move: Callable) -> int:
        """Move up to ``budget`` tuples of ``key``, in transit, to the side it is bound for.

        Each tuple goes through ``move(src, dst, t, m)`` with the side
        labels, which must delete it from ``src`` and insert it into
        ``dst`` (the kernel's ``apply_move``), in posting-map order. Once
        no tuple of the key is left on the other side, the key leaves
        ``moving``. Returns the number of moved tuples.
        """
        dst = self.moving[key]
        src, idx = (LIGHT, self._light_keys) if dst == HEAVY else (HEAVY, self._heavy_keys)
        posts = idx.get(key)
        moved = 0
        while posts and moved < budget:
            t, m = next(iter(posts.items()))
            move(src, dst, t, m)
            moved += 1
        if not posts:
            del self.moving[key]
        return moved

    def load(self, rows: dict, theta: float) -> None:
        """Fill the empty sides with ``rows``, strict for ``theta``.

        ``rows`` maps tuples to nonzero multiplicities. A tuple goes heavy
        when its key's degree in ``rows`` is at least ``theta``, light
        otherwise, so every light key stays below the light side's
        watermark, as after ``restrict``.
        """
        degree: dict = {}
        for t in rows:
            k = t[0]
            degree[k] = degree.get(k, 0) + 1
        self.theta = float(theta)
        self.light.tall_at = math.ceil(theta)
        heavy, light = self.heavy.upsert, self.light.upsert
        for t, m in rows.items():
            (heavy if degree[t[0]] >= theta else light)(t, m)

    def restrict(self, theta: float, grown: tuple | None = None) -> int:
        """Put every key whose strict status for ``theta`` differs in transit.

        No key may be in transit. A key's degree is that of its side.
        Every heavy key is checked. The light side's watermark stands at
        the previous threshold rounded up, and the last split (or the empty
        start) left every light key below it. So when ``theta`` rounds up
        to no less, as on a doubling, a light key at or above ``theta``
        must have crossed the watermark since: only the keys recorded in
        ``light.tall`` are checked (``Relation.upsert`` records every
        create, so ``grown``, the tuple whose create triggered a doubling,
        needs no look). A lower ``theta`` checks every light key.

        Each key that changes side is entered in ``moving`` (demotions
        first), for the kernel to queue and move through ``move_key``.
        Returns the number of keys put in transit.
        """
        light = self.light
        h_idx, l_idx = self._heavy_keys, self._light_keys
        tall_at = math.ceil(theta)
        moving = self.moving
        for k, posts in h_idx.items():
            if len(posts) < theta:
                moving[k] = LIGHT
        if tall_at >= light.tall_at:
            for k in light.tall:
                if len(l_idx.get(k, ())) >= theta:
                    moving[k] = HEAVY
        else:
            for k, posts in l_idx.items():
                if len(posts) >= theta:
                    moving[k] = HEAVY
        self.theta = float(theta)
        light.tall_at = tall_at
        light.tall.clear()
        return len(moving)

    def total_size(self) -> int:
        return len(self.heavy) + len(self.light)

    def violations(self, theta: float | None = None, strict: bool = False) -> list[str]:
        """Scan for broken partition conditions; empty list means healthy.

        A key in transit is judged by its degree over both sides against
        the bound of the side it is bound for; ``strict`` also refuses
        keys in transit.
        """
        theta = self.theta if theta is None else theta
        out = []
        h_idx, l_idx = self._heavy_keys, self._light_keys
        moving = self.moving
        if strict and moving:
            out.append(f"keys in transit: {list(moving)[:5]}")
        overlap = (h_idx.keys() & l_idx.keys()) - moving.keys()
        if overlap:
            out.append(f"keys on both sides: {sorted(overlap)[:5]}")
        h_floor = theta if strict else 0.5 * theta
        l_ceil = theta if strict else 1.5 * theta
        for k, posts in h_idx.items():
            if len(posts) < h_floor and k not in moving:
                out.append(f"heavy key {k} degree {len(posts)} < {h_floor}")
        for k, posts in l_idx.items():
            if len(posts) >= l_ceil and k not in moving:
                out.append(f"light key {k} degree {len(posts)} >= {l_ceil}")
        for k, dst in moving.items():
            d = len(h_idx.get(k, ())) + len(l_idx.get(k, ()))
            if (0 < d < h_floor) if dst == HEAVY else d >= l_ceil:
                out.append(f"key {k} bound {dst} degree {d} outside its bound")
        return out


class _TransitRows:
    """``get(key)``: the light posting map of ``key`` while it is not in transit.

    For a key in transit with tuples on both sides, a read-only chain of
    both sides' posting maps; a tuple sits on one side, so its
    multiplicity is found in one of them. It holds the partition's dicts,
    not the partition, so it makes no reference cycle.
    """

    __slots__ = ("_light", "_heavy", "_moving")

    def __init__(self, light: dict, heavy: dict, moving: dict):
        self._light, self._heavy, self._moving = light, heavy, moving

    def get(self, key):
        row = self._light.get(key)
        if row and key in self._moving:
            other = self._heavy.get(key)
            if other:
                return ChainMap(row, other)
        return row


def _steer(moving: dict, key, degree: int, grew: bool, theta: float) -> None:
    """Turn ``key``, in transit, around if ``degree`` crossed its destination's loose bound.

    The key keeps its place in the queue; its moves then take back the
    tuples already moved.
    """
    if grew:
        if moving[key] == LIGHT and degree >= 1.5 * theta:
            moving[key] = HEAVY
    elif moving[key] == HEAVY and 0 < degree < 0.5 * theta:
        moving[key] = LIGHT


QUAD_LABELS = ("hh", "hl", "lh", "ll")

# Per variable of a four-way partition: its index, the two parts in which it
# is light and the two in which it is heavy.
_QUAD_DRIFT = (
    (IDX0, ("ll", "lh"), ("hl", "hh")),
    (IDX1, ("ll", "hl"), ("lh", "hh")),
)


class QuadPartition:
    """Four-way split of a binary relation on the degrees of both variables.

    Part ``xy`` holds tuples whose first-variable key has status ``x`` and
    second-variable key status ``y`` (h above the threshold, l below). The
    same loose drift bounds as for ``Partition`` apply per variable, with
    degrees aggregated across the two parts sharing a status. A key in
    transit on one variable (``moving[(var, key)]``, the status it is bound
    for) may have tuples in all four parts until ``move_key`` has moved the
    last of them.
    """

    __slots__ = ("parts", "theta", "moving", "tall", "tall_at", "_hl0", "_hh0", "_lh1",
                 "_hh1", "_lookup", "_on_create", "_on_delete", "_away")

    def __init__(self):
        self.parts: dict[str, Relation] = {lab: Relation(2) for lab in QUAD_LABELS}
        # the threshold of an empty engine (N = 1); load and restrict set it
        self.theta = 1.0
        # (variable, key) in transit -> the status it is bound for
        self.moving: dict = {}
        # per variable, a degree watermark as ``Partition``'s light side
        # keeps: a create that lifts a light key's degree to ``tall_at`` or
        # more records the key (dicts used as ordered sets, never replaced)
        self.tall_at = 1
        self.tall = ({}, {})
        # index dicts read on every update, cached: a relation builds them
        # once and never replaces them. The heavy-key indexes of each
        # variable serve ``route``; per part label, the variables on which
        # a create (light ones) or a delete (heavy ones) can cross a bound
        # serve ``minor_check``, each with the two indexes its degree is
        # summed over and its watermark.
        parts = self.parts
        self._hl0, self._hh0 = parts["hl"].indexes[IDX0], parts["hh"].indexes[IDX0]
        self._lh1, self._hh1 = parts["lh"].indexes[IDX1], parts["hh"].indexes[IDX1]
        # every part's first-variable index, where a stored tuple is found
        self._lookup = tuple((lab, rel.indexes[IDX0]) for lab, rel in parts.items())
        on_create = {lab: [] for lab in QUAD_LABELS}
        on_delete = {lab: [] for lab in QUAD_LABELS}
        for var, (spec, light, heavy) in enumerate(_QUAD_DRIFT):
            for checks, labs in ((on_create, light), (on_delete, heavy)):
                entry = (var, parts[labs[0]].indexes[spec], parts[labs[1]].indexes[spec],
                         self.tall[var])
                for lab in labs:
                    checks[lab].append(entry)
        self._on_create = {lab: tuple(v) for lab, v in on_create.items()}
        self._on_delete = {lab: tuple(v) for lab, v in on_delete.items()}
        # per variable and status, the (index, label) of the two parts a
        # key bound for that status moves out of
        self._away = tuple({dst: tuple((parts[lab].indexes[spec], lab)
                                       for lab in QUAD_LABELS if lab[var] != dst)
                            for dst in (HEAVY, LIGHT)}
                           for var, spec in enumerate((IDX0, IDX1)))

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part by the current status of each key.

        A value is heavy when it appears in the key index of a part that
        is heavy on its variable (those indexes are cached at
        construction); absent values count light. Keys change status only
        through rebalancing, so routing by status keeps the per-variable
        domain partitions intact, and the label gives the statuses of both
        keys not in transit, which ``minor_check`` relies on. A tuple with
        a key in transit goes to the part that stores it, or, when it is
        new, takes the status that key is bound for; while no key is in
        transit that costs one truthiness check.
        """
        if force_heavy:
            return "hh"
        if self.moving:
            lab = self._route_moving(t)
            if lab is not None:
                return lab
        a, b = t[0], t[1]
        if a in self._hl0 or a in self._hh0:
            return "hh" if b in self._lh1 or b in self._hh1 else "hl"
        return "lh" if b in self._lh1 or b in self._hh1 else "ll"

    def _route_moving(self, t: tuple) -> str | None:
        """The part of ``t`` when one of its keys is in transit, else ``None``."""
        a, b = t[0], t[1]
        s0 = self.moving.get((0, a))
        s1 = self.moving.get((1, b))
        if s0 is None and s1 is None:
            return None
        for lab, idx in self._lookup:
            posts = idx.get(a)
            if posts and t in posts:
                return lab
        if s0 is None:
            s0 = HEAVY if a in self._hl0 or a in self._hh0 else LIGHT
        if s1 is None:
            s1 = HEAVY if b in self._lh1 or b in self._hh1 else LIGHT
        return s0 + s1

    def pair_degree(self, var: int, key, lab_a: str, lab_b: str) -> int:
        spec = (var,)
        return (len(self.parts[lab_a].indexes[spec].get(key, ()))
                + len(self.parts[lab_b].indexes[spec].get(key, ())))

    def degree(self, var: int, key) -> int:
        """Degree of ``key`` on variable ``var``, over all four parts."""
        spec = (var,)
        return sum(len(rel.indexes[spec].get(key, ())) for rel in self.parts.values())

    def multiplicity(self, t: tuple) -> int:
        return sum(p.get(t) for p in self.parts.values())

    def minor_check(self, engine, i: int, t: tuple, label: str, grew: bool,
                    theta: float) -> None:
        """Put each key of ``t`` that the update moved past its loose bound in transit.

        ``label`` is the part the update was routed to and ``grew`` tells
        whether it created a tuple. Precondition, as for
        ``Partition.minor_check``: every key sat inside its loose bound
        before the update. So a variable is checked only when a create
        landed where its key is light (it may now reach one and a half
        times ``theta``; on the way, at ``tall_at``, the watermark records
        it) or a delete where its key is heavy (it may now fall below half
        of it). Both variables are checked against the same state, since
        nothing moves yet, so one update can queue two minors. A key in
        transit is judged over all four parts against the status it is
        bound for, and turns around as in ``Partition.minor_check``.
        """
        moving = self.moving
        if grew:
            tall_at = self.tall_at
            for var, idx_a, idx_b, tall in self._on_create[label]:
                key = t[var]
                if moving and (var, key) in moving:
                    continue
                d = len(idx_a.get(key, ())) + len(idx_b.get(key, ()))
                # d is an integer, so d >= 1.5 * theta implies d >= tall_at
                if d >= tall_at:
                    tall[key] = None
                    if d >= 1.5 * theta:
                        moving[var, key] = HEAVY
                        engine.minor_rebalance(i, (var, key))
        else:
            for var, idx_a, idx_b, _ in self._on_delete[label]:
                key = t[var]
                if moving and (var, key) in moving:
                    continue
                if 0 < len(idx_a.get(key, ())) + len(idx_b.get(key, ())) < 0.5 * theta:
                    moving[var, key] = LIGHT
                    engine.minor_rebalance(i, (var, key))
        if moving:
            for var in (0, 1):
                key = t[var]
                if (var, key) in moving:
                    d = self.degree(var, key)
                    if grew and d >= self.tall_at and moving[var, key] == LIGHT:
                        self.tall[var][key] = None
                    _steer(moving, (var, key), d, grew, theta)

    def move_key(self, key: tuple, budget: int, move: Callable) -> int:
        """Move up to ``budget`` tuples of ``key = (var, value)``, in transit.

        A tuple leaves a part of the other status on ``var`` for the part
        of the status the key is bound for; its other variable keeps its
        status, or takes the one its key is bound for if that key is in
        transit too, so each tuple moves once. Works as
        ``Partition.move_key`` does otherwise; returns the number of moved
        tuples.
        """
        var, value = key
        dst = self.moving[key]
        other = 1 - var
        moving = self.moving
        moved = 0
        for idx, lab in self._away[var][dst]:
            posts = idx.get(value)
            while posts and moved < budget:
                t, m = next(iter(posts.items()))
                o = moving.get((other, t[other])) or lab[other]
                move(lab, dst + o if var == 0 else o + dst, t, m)
                moved += 1
            if posts:
                return moved
        del moving[key]
        return moved

    def load(self, rows: dict, theta: float) -> None:
        """Fill the empty parts with ``rows``, strict for ``theta`` on both variables.

        ``rows`` maps pairs to nonzero multiplicities; a pair's part follows
        the degrees of its two values in ``rows``.
        """
        deg0: dict = {}
        deg1: dict = {}
        for a, b in rows:
            deg0[a] = deg0.get(a, 0) + 1
            deg1[b] = deg1.get(b, 0) + 1
        self.theta = float(theta)
        self.tall_at = math.ceil(theta)
        parts = self.parts
        for t, m in rows.items():
            parts[(HEAVY if deg0[t[0]] >= theta else LIGHT)
                  + (HEAVY if deg1[t[1]] >= theta else LIGHT)].upsert(t, m)

    def restrict(self, theta: float, grown: tuple | None = None) -> int:
        """Put every key whose strict status for ``theta`` differs in transit.

        No key may be in transit. A key's tuples lie in the two parts of
        its status on each variable, so its degree is the sum over those
        two. Every heavy key is checked. As in ``Partition.restrict``, a
        threshold that rounds up to no less than the watermark (a
        doubling) checks only the light keys the watermark recorded, plus
        the keys of ``grown``, the tuple whose create triggered the
        doubling: its update went unchecked, so the watermark may not have
        seen it. A lower threshold checks every light key.

        Each flipped key is entered in ``moving`` as ``(var, key)``, the
        first variable's first and, per variable, promotions first.
        Returns the number of keys put in transit.
        """
        parts = self.parts
        moving = self.moving
        tall_at = math.ceil(theta)
        doubling = tall_at >= self.tall_at
        for var, (spec, light, heavy) in enumerate(_QUAD_DRIFT):
            la, lb = parts[light[0]].indexes[spec], parts[light[1]].indexes[spec]
            ha, hb = parts[heavy[0]].indexes[spec], parts[heavy[1]].indexes[spec]
            tall = self.tall[var]
            if doubling:
                for k in tall if grown is None else (*tall, grown[var]):
                    if len(la.get(k, ())) + len(lb.get(k, ())) >= theta:
                        moving[var, k] = HEAVY
            else:
                for k, posts in la.items():
                    if len(posts) + len(lb.get(k, ())) >= theta:
                        moving[var, k] = HEAVY
                for k, posts in lb.items():
                    if k not in la and len(posts) >= theta:
                        moving[var, k] = HEAVY
            for k, posts in ha.items():
                if len(posts) + len(hb.get(k, ())) < theta:
                    moving[var, k] = LIGHT
            for k, posts in hb.items():
                if k not in ha and len(posts) < theta:
                    moving[var, k] = LIGHT
            tall.clear()
        self.theta = float(theta)
        self.tall_at = tall_at
        return len(moving)

    def total_size(self) -> int:
        return sum(len(rel) for rel in self.parts.values())

    def violations(self, theta: float | None = None, strict: bool = False) -> list[str]:
        """Per-variable conditions on whole-relation degrees, loose by default.

        Keys in transit are judged as in ``Partition.violations``.
        """
        theta = self.theta if theta is None else theta
        h_floor = theta if strict else 0.5 * theta
        l_ceil = theta if strict else 1.5 * theta
        out = []
        if strict and self.moving:
            out.append(f"keys in transit: {list(self.moving)[:5]}")
        for var in (0, 1):
            spec = (var,)
            transit = {k: dst for (v, k), dst in self.moving.items() if v == var}
            h_keys = set()
            l_keys = set()
            for lab, rel in self.parts.items():
                (h_keys if lab[var] == HEAVY else l_keys).update(rel.indexes[spec].keys())
            overlap = (h_keys & l_keys) - transit.keys()
            if overlap:
                out.append(f"var {var} keys with mixed status: {sorted(overlap)[:5]}")
            for k in h_keys - transit.keys():
                if self.degree(var, k) < h_floor:
                    out.append(f"var {var} heavy key {k} degree {self.degree(var, k)} "
                               f"< {h_floor}")
            for k in l_keys - transit.keys():
                if self.degree(var, k) >= l_ceil:
                    out.append(f"var {var} light key {k} degree {self.degree(var, k)} "
                               f">= {l_ceil}")
            for k, dst in transit.items():
                d = self.degree(var, k)
                if (0 < d < h_floor) if dst == HEAVY else d >= l_ceil:
                    out.append(f"var {var} key {k} bound {dst} degree {d} outside its bound")
        return out


def bump(d: dict, key, delta: int) -> int:
    """Z-ring add into a plain dict view; drops the key on cancellation."""
    nv = d.get(key, 0) + delta
    if nv:
        d[key] = nv
    else:
        d.pop(key, None)
    return nv
