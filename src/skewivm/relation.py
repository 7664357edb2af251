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
a full database, ``restrict`` for a major rebalance, ``minor_check`` to
find the key an update moved past its loose bound (only the bound that
update can cross is read) and ``move_key`` to hand that key's tuples to
the kernel one by one.
"""

from __future__ import annotations

import math
import sys
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

# minor moves of a one-variable partition: (source side, destination side)
PROMOTE = ((LIGHT, HEAVY),)
DEMOTE = ((HEAVY, LIGHT),)


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

    The heavy part holds every tuple whose partition-key degree is high,
    the light part the rest; a key never appears on both sides. Between
    rebalances the sides are allowed to drift inside the loose bounds
    (heavy keys stay at or above half the threshold, light keys below one
    and a half times it).

    The partition key's index (on variable 0) comes first on both sides,
    so point lookups go through it. By default the heavy side also indexes
    every other variable and the light side nothing else, the layout the
    triangle engines walk; ``index_specs`` gives both sides the same
    indexes instead.
    """

    __slots__ = ("heavy", "light", "theta", "_heavy_keys", "_light_keys")

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

    def side(self, label: str) -> Relation:
        return self.heavy if label == HEAVY else self.light

    def sides(self):
        return ((HEAVY, self.heavy), (LIGHT, self.light))

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination side for an update of ``t``: the side of its partition key.

        Heavy when the key ``t[0]`` is already present in the heavy side's
        partition-key index (cached at construction) or when
        ``force_heavy`` pins every tuple heavy; light otherwise. A key
        lives on one side, so the label is also where its degree is kept,
        which ``minor_check`` relies on.
        """
        if force_heavy or t[0] in self._heavy_keys:
            return HEAVY
        return LIGHT

    def degree(self, label: str, key) -> int:
        return len(self.side(label).indexes[IDX0].get(key, ()))

    def multiplicity(self, t: tuple) -> int:
        return self.heavy.get(t) + self.light.get(t)

    def minor_check(self, engine, i: int, t: tuple, label: str, grew: bool,
                    theta: float) -> None:
        """Rebalance the partition key of ``t`` if the update moved it past its loose bound.

        ``label`` is the side the update was routed to and ``grew`` tells
        whether it created a tuple (otherwise it destroyed one).
        Precondition: every key sat inside its loose bound before the
        update; ``load`` and ``restrict`` leave the split strict and every
        minor rebalance restores the bound of the key it moves. One update
        changes one key's degree by one, so only two cases can cross a
        bound: a create on the light side can lift its key to one and a
        half times ``theta`` (it moves heavy), and a delete on the heavy
        side can drop its key below half of it (it moves light). Only that
        side is read. The move goes through ``engine.minor_rebalance`` for
        relation ``i``.
        """
        key = t[0]
        if grew:
            if label == LIGHT and len(self._light_keys[key]) >= 1.5 * theta:
                engine.minor_rebalance(i, key, PROMOTE, IDX0)
        elif label == HEAVY and 0 < len(self._heavy_keys.get(key, ())) < 0.5 * theta:
            engine.minor_rebalance(i, key, DEMOTE, IDX0)

    def move_key(self, key, src_label: str, sink: Callable[[tuple, int], None],
                 spec: tuple[int, ...] = IDX0) -> int:
        """Move every tuple carrying ``key`` out of one side.

        Each tuple is handed to ``sink(t, m)`` exactly once; the sink is
        expected to delete it from the source side and insert it into the
        other side (typically through an engine's update procedure so that
        materialized views stay exact). ``spec`` names the index the key is
        looked up in, the partition key by default. Returns the number of
        moved tuples.
        """
        posts = self.side(src_label).indexes[spec].get(key)
        if not posts:
            return 0
        batch = list(posts.items())
        for t, m in batch:
            sink(t, m)
        return len(batch)

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

    def restrict(self, theta: float, move: Callable) -> int:
        """Re-establish the strict split for ``theta``; return tuples moved.

        Strictness is decided on whole-relation degrees, which coincide
        with per-side degrees because a key lives on exactly one side.
        Every heavy key is checked. The light side's watermark stands at
        the previous threshold rounded up, and the last split (or the empty
        start) left every light key below it. So when ``theta`` rounds up
        to no less, as on a doubling, a light key at or above ``theta``
        must have crossed the watermark since: only the keys recorded in
        ``light.tall`` are checked. A lower ``theta`` checks every light
        key.

        Each tuple that changes side is moved by ``move(src, dst, t, m)``
        with the side labels, which must delete it from ``src`` and insert
        it into ``dst`` (the kernel's ``apply_move``).
        """
        heavy, light = self.heavy, self.light
        h_idx, l_idx = self._heavy_keys, self._light_keys
        tall_at = math.ceil(theta)
        demote = [k for k, posts in h_idx.items() if len(posts) < theta]
        if tall_at >= light.tall_at:
            promote = [k for k in light.tall if len(l_idx.get(k, ())) >= theta]
        else:
            promote = [k for k, posts in l_idx.items() if len(posts) >= theta]
        moved = 0
        for keys, idx, src, dst in ((demote, h_idx, HEAVY, LIGHT),
                                    (promote, l_idx, LIGHT, HEAVY)):
            for k in keys:
                batch = list(idx[k].items())
                for t, m in batch:
                    move(src, dst, t, m)
                moved += len(batch)
        self.theta = float(theta)
        light.tall_at = tall_at
        light.tall.clear()
        return moved

    def total_size(self) -> int:
        return len(self.heavy) + len(self.light)

    def violations(self, theta: float | None = None, strict: bool = False) -> list[str]:
        """Scan for broken partition conditions; empty list means healthy."""
        theta = self.theta if theta is None else theta
        out = []
        h_idx, l_idx = self._heavy_keys, self._light_keys
        overlap = h_idx.keys() & l_idx.keys()
        if overlap:
            out.append(f"keys on both sides: {sorted(overlap)[:5]}")
        h_floor = theta if strict else 0.5 * theta
        l_ceil = theta if strict else 1.5 * theta
        for k, posts in h_idx.items():
            if len(posts) < h_floor:
                out.append(f"heavy key {k} degree {len(posts)} < {h_floor}")
        for k, posts in l_idx.items():
            if len(posts) >= l_ceil:
                out.append(f"light key {k} degree {len(posts)} >= {l_ceil}")
        return out


QUAD_LABELS = ("hh", "hl", "lh", "ll")

# Per variable of a four-way partition: its index, the two parts in which it
# is light, the two in which it is heavy, and the part moves that promote or
# demote one of its keys.
_QUAD_DRIFT = (
    (IDX0, ("ll", "lh"), ("hl", "hh"),
     (("ll", "hl"), ("lh", "hh")), (("hl", "ll"), ("hh", "lh"))),
    (IDX1, ("ll", "hl"), ("lh", "hh"),
     (("ll", "lh"), ("hl", "hh")), (("lh", "ll"), ("hh", "hl"))),
)


class QuadPartition:
    """Four-way split of a binary relation on the degrees of both variables.

    Part ``xy`` holds tuples whose first-variable key has status ``x`` and
    second-variable key status ``y`` (h above the threshold, l below). The
    same loose drift bounds as for ``Partition`` apply per variable, with
    degrees aggregated across the two parts sharing a status.
    """

    __slots__ = ("parts", "theta", "_hl0", "_hh0", "_lh1", "_hh1", "_on_create", "_on_delete")

    def __init__(self):
        self.parts: dict[str, Relation] = {lab: Relation(2) for lab in QUAD_LABELS}
        # the threshold of an empty engine (N = 1); load and restrict set it
        self.theta = 1.0
        # index dicts read on every update, cached: a relation builds them
        # once and never replaces them. The heavy-key indexes of each
        # variable serve ``route``; per part label, the variables on which
        # a create (light ones) or a delete (heavy ones) can cross a bound
        # serve ``minor_check``, each with the two indexes its degree is
        # summed over and the moves that rebalance it.
        parts = self.parts
        self._hl0, self._hh0 = parts["hl"].indexes[IDX0], parts["hh"].indexes[IDX0]
        self._lh1, self._hh1 = parts["lh"].indexes[IDX1], parts["hh"].indexes[IDX1]
        on_create = {lab: [] for lab in QUAD_LABELS}
        on_delete = {lab: [] for lab in QUAD_LABELS}
        for var, (spec, light, heavy, promote, demote) in enumerate(_QUAD_DRIFT):
            for checks, labs, moves in ((on_create, light, promote), (on_delete, heavy, demote)):
                entry = (var, parts[labs[0]].indexes[spec], parts[labs[1]].indexes[spec],
                         moves, spec)
                for lab in labs:
                    checks[lab].append(entry)
        self._on_create = {lab: tuple(v) for lab, v in on_create.items()}
        self._on_delete = {lab: tuple(v) for lab, v in on_delete.items()}

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part by the current status of each key.

        A value is heavy when it appears in the key index of a part that
        is heavy on its variable (those indexes are cached at
        construction); absent values count light. Keys change status only
        through rebalancing, so routing by status keeps the per-variable
        domain partitions intact, and the label gives both keys' statuses,
        which ``minor_check`` relies on.
        """
        if force_heavy:
            return "hh"
        a, b = t[0], t[1]
        if a in self._hl0 or a in self._hh0:
            return "hh" if b in self._lh1 or b in self._hh1 else "hl"
        return "lh" if b in self._lh1 or b in self._hh1 else "ll"

    def pair_degree(self, var: int, key, lab_a: str, lab_b: str) -> int:
        spec = (var,)
        return (len(self.parts[lab_a].indexes[spec].get(key, ()))
                + len(self.parts[lab_b].indexes[spec].get(key, ())))

    def multiplicity(self, t: tuple) -> int:
        return sum(p.get(t) for p in self.parts.values())

    def minor_check(self, engine, i: int, t: tuple, label: str, grew: bool,
                    theta: float) -> None:
        """Rebalance each key of ``t`` that the update moved past its loose bound.

        ``label`` is the part the update was routed to and ``grew`` tells
        whether it created a tuple. Precondition, as for
        ``Partition.minor_check``: every key sat inside its loose bound
        before the update. So a variable is checked only when a create
        landed where its key is light (it may now reach one and a half
        times ``theta``) or a delete where its key is heavy (it may now
        fall below half of it). The first variable is checked first; the
        second is checked against the state the first rebalance left,
        which moves tuples only between parts that differ in the first
        variable's status, so one update can fire two.
        """
        if grew:
            for var, idx_a, idx_b, moves, spec in self._on_create[label]:
                key = t[var]
                if len(idx_a.get(key, ())) + len(idx_b.get(key, ())) >= 1.5 * theta:
                    engine.minor_rebalance(i, key, moves, spec)
        else:
            for var, idx_a, idx_b, moves, spec in self._on_delete[label]:
                key = t[var]
                if 0 < len(idx_a.get(key, ())) + len(idx_b.get(key, ())) < 0.5 * theta:
                    engine.minor_rebalance(i, key, moves, spec)

    def move_key(self, key, src_label: str, sink: Callable[[tuple, int], None],
                 spec: tuple[int, ...]) -> int:
        """Move every tuple whose ``spec`` key is ``key`` out of one part.

        Works as ``Partition.move_key`` does; returns the number of moved
        tuples.
        """
        posts = self.parts[src_label].indexes[spec].get(key)
        if not posts:
            return 0
        batch = list(posts.items())
        for t, m in batch:
            sink(t, m)
        return len(batch)

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
        parts = self.parts
        for t, m in rows.items():
            parts[(HEAVY if deg0[t[0]] >= theta else LIGHT)
                  + (HEAVY if deg1[t[1]] >= theta else LIGHT)].upsert(t, m)

    def restrict(self, theta: float, move: Callable) -> int:
        """Strictly reassign every tuple by whole-relation degrees.

        A key's tuples lie in the two parts of its status on each variable
        (routing and rebalancing keep them there), so its degree is the sum
        over those two. The keys whose status flips are found first; then
        each tuple carrying one goes, once, to the part of its new statuses
        through ``move(src, dst, t, m)`` as in ``Partition.restrict``.
        Returns the number of tuples moved.
        """
        self.theta = float(theta)
        parts = self.parts
        flips = []
        for spec, light, heavy, _, _ in _QUAD_DRIFT:
            # a dict as an ordered set, so the order of the moves (and with
            # it the engines' op counts) does not depend on hashing
            flip: dict = {}
            for (lab_a, lab_b), was_heavy in ((light, False), (heavy, True)):
                idx_a, idx_b = parts[lab_a].indexes[spec], parts[lab_b].indexes[spec]
                for k, posts in idx_a.items():
                    if (len(posts) + len(idx_b.get(k, ())) >= theta) != was_heavy:
                        flip[k] = None
                for k, posts in idx_b.items():
                    if k not in idx_a and (len(posts) >= theta) != was_heavy:
                        flip[k] = None
            flips.append(flip)
        flip0, flip1 = flips
        other = {HEAVY: LIGHT, LIGHT: HEAVY}
        moved = 0
        for var, spec in enumerate((IDX0, IDX1)):
            for key in flips[var]:
                # a tuple whose first variable flipped went in the first pass
                batch = [(lab, t, m) for lab, rel in parts.items()
                         for t, m in rel.indexes[spec].get(key, {}).items()
                         if var == 0 or t[0] not in flip0]
                for lab, t, m in batch:
                    target = ((other[lab[0]] if t[0] in flip0 else lab[0])
                              + (other[lab[1]] if t[1] in flip1 else lab[1]))
                    move(lab, target, t, m)
                moved += len(batch)
        return moved

    def total_size(self) -> int:
        return sum(len(rel) for rel in self.parts.values())

    def violations(self, theta: float | None = None, strict: bool = False) -> list[str]:
        """Per-variable conditions on whole-relation degrees, loose by default."""
        theta = self.theta if theta is None else theta
        h_floor = theta if strict else 0.5 * theta
        l_ceil = theta if strict else 1.5 * theta
        out = []
        for var in (0, 1):
            spec = (var,)
            heavy_labs = [lab for lab in QUAD_LABELS if lab[var] == HEAVY]
            light_labs = [lab for lab in QUAD_LABELS if lab[var] == LIGHT]
            h_keys = set()
            for lab in heavy_labs:
                h_keys |= self.parts[lab].indexes[spec].keys()
            l_keys = set()
            for lab in light_labs:
                l_keys |= self.parts[lab].indexes[spec].keys()
            overlap = h_keys & l_keys
            if overlap:
                out.append(f"var {var} keys with mixed status: {sorted(overlap)[:5]}")
            total = lambda k: sum(len(self.parts[lab].indexes[spec].get(k, ()))
                                  for lab in QUAD_LABELS)
            for k in h_keys:
                if total(k) < h_floor:
                    out.append(f"var {var} heavy key {k} degree {total(k)} < {h_floor}")
            for k in l_keys:
                if total(k) >= l_ceil:
                    out.append(f"var {var} light key {k} degree {total(k)} >= {l_ceil}")
        return out


def bump(d: dict, key, delta: int) -> int:
    """Z-ring add into a plain dict view; drops the key on cancellation."""
    nv = d.get(key, 0) + delta
    if nv:
        d[key] = nv
    else:
        d.pop(key, None)
    return nv
