"""Z-ring relations stored as posting maps, and degree-based partitioning.

A relation is a finite map from value tuples to nonzero integer
multiplicities (inserts carry positive, deletes negative deltas; the two
compose by addition and an entry dies when its multiplicity reaches zero).
It has no flat tuple map. Each configured index (one variable or a tuple
of variables) maps a key to the posting map of the stored tuples carrying
that key, so every index holds every tuple with its multiplicity. A
posting map is keyed by each tuple's free part: the one value at the
position the index leaves out, or the whole tuple when it leaves out more
than one (the lookup index of a relation of arity three or more). Every
index of a binary relation thus maps a value to ``{other value:
multiplicity}``, and a scan reads the free value without unpacking a
tuple. That gives

  * constant-time degree counts (``len`` of a posting map),
  * constant-time key membership,
  * a scan of the tuples matching a key that reads each free value and
    multiplicity from the posting it walks,
  * point lookups through the first index, the lookup index.

No dict holds every tuple, so no update resizes one: the largest dict an
update can resize is an index, keyed by distinct values, or the posting
map of one key, as large as that key's degree. The size is a counter.

On top of that sits the one degree split all maintenance engines use. It
compares the degree of a key on each partition variable against a
threshold and labels its parts with one status, heavy or light, per
variable: ``Partition`` splits on variable 0 into two parts, each with
the indexes its engine gives that part label, ``QuadPartition`` on both
variables of a binary relation into four, and the two differ only in
how they route a tuple. The engine (``LWEngine``) calls ``load`` to fill
the parts strictly from a full database, ``restrict`` to put the keys a
major rebalance flips in transit, ``minor_check`` to put in transit a key
an update moved past its loose bound (only the bound that update can
cross is read), ``sweep`` to read a few of the light keys a halving left
unread, and ``move_key`` to have up to a budget of a key's tuples moved
one by one. A key in transit (``moving[(var, key)]``) may have tuples in
parts of both statuses until its last tuple has moved: a stored tuple
stays in its part, and a new one takes, per variable, the status its key
is bound for or else the key's current status. Routing tests the tuple's
keys for transit first and then probes only the parts other than that
destination which can still hold the tuple.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator

from .metrics import OpCounters


class SchemaError(ValueError):
    """Update does not fit the engine's schema.

    Raised for an unknown relation, a tuple of the wrong arity or with an
    unhashable value, or a multiplicity that is zero or not an ``int``.
    """


HEAVY = "h"
LIGHT = "l"

QUAD_LABELS = ("hh", "hl", "lh", "ll")
# the other status
FLIP = {HEAVY: LIGHT, LIGHT: HEAVY}

IDX0 = (0,)
IDX1 = (1,)


def free_position(arity: int, spec: tuple) -> int | None:
    """The one position an index on ``spec`` leaves free, or ``None`` for the whole tuple.

    ``None`` when the index leaves out more than one position (or none).
    """
    left = [p for p in range(arity) if p not in spec]
    return left[0] if len(left) == 1 else None


def joiner(arity: int, spec: tuple) -> Callable | None:
    """``(key, free value) -> tuple`` for the postings of an index on ``spec``.

    The key is a bare value on one variable, a tuple on several. ``None``
    when the index's postings are keyed by the whole tuple.
    """
    free = free_position(arity, spec)
    if free is None:
        return None
    cols = (*spec, free)
    back = itemgetter(*sorted(range(len(cols)), key=cols.__getitem__))
    if len(spec) == 1:
        return lambda k, f: back((k, f))
    return lambda k, f: back((*k, f))


class Relation:
    """Finite map ``tuple -> nonzero int`` kept as per-index posting maps.

    ``indexes[spec][key]`` is the posting map of the tuples whose ``spec``
    variables equal ``key``; it is never empty. It maps each tuple's free
    part to the tuple's multiplicity: the value at the one position
    ``spec`` leaves out, or the whole tuple when it leaves out more. The
    first spec, on one variable, is the lookup index behind ``get`` and
    ``items``.
    """

    __slots__ = ("arity", "indexes", "_n", "_lead", "_free", "_join", "_first", "_rest")

    def __init__(self, arity: int, index_specs: Iterable[tuple[int, ...]] | None = None):
        if index_specs is None:
            index_specs = tuple((i,) for i in range(arity))
        specs = tuple(dict.fromkeys(tuple(s) for s in index_specs))
        if not specs or len(specs[0]) != 1:
            raise ValueError(f"the first index must be on one variable, got {specs[:1]}")
        self.arity = arity
        self.indexes: dict[tuple[int, ...], dict] = {s: {} for s in specs}
        self._lead = specs[0][0]
        # the lookup index's free position (None: the whole tuple), and how
        # its key and free value give the tuple back
        self._free = free_position(arity, specs[0])
        self._join = joiner(arity, specs[0])
        self._first = self.indexes[specs[0]]
        # the other indexes with their key getters (a bare value for one
        # variable, a tuple for several) and free positions
        self._rest = tuple((itemgetter(*s), free_position(arity, s), self.indexes[s])
                           for s in specs[1:])
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def size(self) -> int:
        """Number of tuples with nonzero multiplicity."""
        return self._n

    def get(self, t: tuple) -> int:
        """Multiplicity of ``t``, 0 when absent."""
        posts = self._first.get(t[self._lead])
        if not posts:
            return 0
        p = self._free
        return posts.get(t if p is None else t[p], 0)

    def items(self) -> Iterator[tuple[tuple, int]]:
        """Every ``(tuple, multiplicity)``, grouped by lookup-index key."""
        join = self._join
        if join is None:
            return chain.from_iterable(map(dict.items, self._first.values()))
        return ((join(k, f), m) for k, posts in self._first.items() for f, m in posts.items())

    def upsert(self, t: tuple, m: int) -> int:
        """Add ``m`` to the multiplicity of ``t``; return the new multiplicity.

        Creates the tuple's postings when the old multiplicity was zero,
        removes them (and any posting map left empty) when the new one is,
        and otherwise rewrites the multiplicity in every index. ``new == m``
        therefore signals a created entry and ``new == 0`` a destroyed one.
        """
        if len(t) != self.arity:
            raise SchemaError(f"arity {len(t)} tuple in arity {self.arity} relation")
        if type(m) is not int or not m:
            raise SchemaError(f"multiplicity must be a nonzero int, got {m!r}")
        k = t[self._lead]
        p = self._free
        f = t if p is None else t[p]
        first = self._first
        posts = first.get(k)
        if posts is None:
            first[k] = {f: m}
        else:
            new = posts.get(f, 0) + m
            if new == 0:
                del posts[f]
                if not posts:
                    del first[k]
                self._n -= 1
                for key_of, p, idx in self._rest:
                    k = key_of(t)
                    posts = idx[k]
                    del posts[t if p is None else t[p]]
                    if not posts:
                        del idx[k]
                return 0
            posts[f] = new
            if new != m:
                for key_of, p, idx in self._rest:
                    idx[key_of(t)][t if p is None else t[p]] = new
                return new
        self._n += 1
        for key_of, p, idx in self._rest:
            k = key_of(t)
            f = t if p is None else t[p]
            posts = idx.get(k)
            if posts is None:
                idx[k] = {f: m}
            else:
                posts[f] = m
        return m

    def fill(self, tuples: list, mults: list) -> None:
        """Store ``tuples`` with the multiplicities ``mults`` in this empty relation.

        The tuples are distinct and of the relation's arity, the
        multiplicities nonzero ints; nothing is checked. Each index is
        built in one pass, in the order given, so every dict ends in the
        order upserts of the same rows would leave.
        """
        if self._n:
            raise ValueError("fill takes an empty relation")
        for key_of, p, idx in ((itemgetter(self._lead), self._free, self._first), *self._rest):
            frees = tuples if p is None else map(itemgetter(p), tuples)
            for k, f, m in zip(map(key_of, tuples), frees, mults):
                posts = idx.get(k)
                if posts is None:
                    idx[k] = {f: m}
                else:
                    posts[f] = m
        self._n = len(tuples)

    def check_consistency(self) -> None:
        """Assert structural invariants; used by tests, not hot paths."""
        stored = dict(self.items())
        assert len(stored) == self._n, f"size counter {self._n} for {len(stored)} tuples"
        for spec, idx in self.indexes.items():
            key_of = itemgetter(*spec)
            join = joiner(self.arity, spec)
            seen = {}
            for key, posts in idx.items():
                assert posts, f"empty posting map for {key} in index {spec}"
                for f, m in posts.items():
                    t = f if join is None else join(key, f)
                    assert m != 0, f"zero multiplicity stored for {t}"
                    assert len(t) == self.arity
                    assert key_of(t) == key
                    seen[t] = m
            assert seen == stored, f"index {spec} disagrees with the lookup index"


class Partition:
    """Degree split of a relation: one status, heavy or light, per partition variable.

    A part's label gives one status per partition variable in order:
    ``"h"`` and ``"l"`` on variable 0 here, ``"hh"`` to ``"ll"`` in
    ``QuadPartition``. A key's tuples lie in the parts of its status on
    each variable, except while it is in transit: a rebalance that
    changes the status of ``key`` on ``var`` records the status it is
    bound for in ``moving[(var, key)]``, and the engine then moves its
    tuples a few per update (``move_key``). Between rebalances degrees
    drift inside the loose bounds (heavy keys at or above half the
    threshold, light keys below one and a half times it); a key in
    transit is held, by its degree over all parts, to the bound of the
    status it is bound for. The threshold is the engine's: every method
    that reads it takes it as an argument.

    Per variable, a degree watermark (``tall[var]``, a dict used as an
    ordered set) records the light keys whose degree reached the mark
    ``tall_at``: the threshold the next halving would set, rounded up,
    which the engine passes to ``load`` and ``restrict``. A halving flips
    exactly the light keys at or above it and a doubling a subset of
    them, so a major reads only the heavy keys, the keys in transit and
    the recorded ones. Every light key at or above the mark is recorded,
    and so is every key in transit bound light, except that the light
    keys a halving copied into ``unswept[var]`` when it lowered the mark
    wait there until ``sweep`` reads them. Recorded keys may have fallen
    below the mark since. ``counters.checks`` counts the keys whose
    degree ``restrict``, ``minor_check`` and ``sweep`` read.

    Each part's indexes are given per part label (``index_specs``), after
    the partition key's index (on variable 0), which comes first in both
    parts, so point lookups and degrees go through it. ``heavy`` and
    ``light`` name the two parts.
    """

    __slots__ = ("parts", "moving", "tall_at", "tall", "unswept", "counters", "heavy", "light",
                 "_heavy_keys", "_by_status", "_on_create", "_on_delete", "_away")

    def __init__(self, arity: int, index_specs: dict, counters: OpCounters | None = None):
        self.heavy, self.light = (Relation(arity, (IDX0, *index_specs[lab]))
                                  for lab in (HEAVY, LIGHT))
        self._split({HEAVY: self.heavy, LIGHT: self.light}, counters)
        self._heavy_keys = self.heavy.indexes[IDX0]

    def _split(self, parts: dict[str, Relation], counters: OpCounters | None) -> None:
        """Take ``parts``, labelled one status per variable, and cache their indexes.

        A relation builds its index dicts once and never replaces them.
        """
        self.parts = parts
        variables = range(len(next(iter(parts))))
        # (variable, key) in transit -> the status it is bound for
        self.moving: dict = {}
        self.tall_at = 1
        self.tall = tuple({} for _ in variables)
        self.unswept = tuple([] for _ in variables)
        self.counters = counters if counters is not None else OpCounters()

        def indexes(var: int, status: str) -> tuple:
            # the variable's index in the two parts of that status, the part
            # light on the other variable first; an empty dict, never
            # written, stands in for the second part of a status one holds
            return (*[parts[lab].indexes[(var,)] for lab in sorted(parts, reverse=True)
                      if lab[var] == status], {})[:2]
        # per variable: the indexes of its two heavy, then two light parts
        self._by_status = tuple(indexes(var, HEAVY) + indexes(var, LIGHT) for var in variables)
        # per part label, the variables on which a create there can cross a
        # bound (the light ones) or a delete (the heavy ones), each with the
        # indexes its degree is summed over and its watermark
        self._on_create, self._on_delete = (
            {lab: tuple((var, *self._by_status[var][at:at + 2], self.tall[var])
                        for var in variables if lab[var] == s) for lab in parts}
            for s, at in ((LIGHT, 2), (HEAVY, 0)))
        # per variable and status, for each part a key bound for that status
        # moves out of: the part's index on the variable, how a posting
        # there gives its tuple back (None: it is the tuple), its label, the
        # label the tuple moves to and the other variables, whose keys keep
        # their status unless they are in transit too
        self._away = tuple(
            {dst: tuple((rel.indexes[(var,)], joiner(rel.arity, (var,)), lab,
                         lab[:var] + dst + lab[var + 1:], tuple(w for w in variables if w != var))
                        for lab, rel in parts.items() if lab[var] != dst)
             for dst in (HEAVY, LIGHT)}
            for var in variables)

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part for an update of ``t``: the status of its partition key.

        Heavy when the key ``t[0]`` is already present in the heavy
        part's partition-key index or when ``force_heavy`` pins every
        tuple heavy; light otherwise. A tuple whose key is in transit goes
        to the part the key is bound for, unless the other part holds it
        (one probe); while no key is in transit, that costs one truthiness
        check. A key not in transit lives in one part, so the label is
        also where its degree is kept, which ``minor_check`` relies on.
        """
        if self.moving:
            dst = self.moving.get((0, t[0]))
            if dst is not None:
                src = FLIP[dst]
                return src if self.parts[src].get(t) else dst
        if force_heavy or t[0] in self._heavy_keys:
            return HEAVY
        return LIGHT

    def degree(self, var: int, key) -> int:
        """Degree of ``key`` on variable ``var``, over all parts."""
        spec = (var,)
        return sum(len(rel.indexes[spec].get(key, ())) for rel in self.parts.values())

    def multiplicity(self, t: tuple) -> int:
        return sum(rel.get(t) for rel in self.parts.values())

    def total_size(self) -> int:
        return sum(map(len, self.parts.values()))

    def minor_check(self, engine, i: int, t: tuple, label: str, grew: bool,
                    theta: float) -> None:
        """Put each key of ``t`` that the update moved past its loose bound in transit.

        ``label`` is the part the update was routed to and ``grew`` tells
        whether it created a tuple (otherwise it destroyed one).
        Precondition: every key sat inside its loose bound before the
        update (``load`` and ``restrict`` leave the split strict, and every
        minor restores the bound of the key it moves). An update changes a
        key's degree by one, so a variable is checked only when a create
        landed where its key is light (it may reach one and a half times
        ``theta``; at the mark ``tall_at`` the watermark records it) or a
        delete where its key is heavy (it may fall below half of it),
        reading the parts of that status only. Every variable is checked
        against the same state, so one update can queue a minor per
        variable, through ``engine.minor_rebalance(i, (var, key))``. A key
        already in transit is judged over all parts against the status it
        is bound for. A key turned light, or created on while bound light,
        is recorded at or above the mark.
        """
        moving = self.moving
        if grew:
            for var, idx_a, idx_b, tall in self._on_create[label]:
                key = t[var]
                if moving and (var, key) in moving:
                    continue
                self.counters.checks += 1
                d = len(idx_a.get(key, ())) + len(idx_b.get(key, ()))
                # d is an integer and the mark is at most theta rounded up,
                # so d >= 1.5 * theta implies d >= tall_at
                if d >= self.tall_at:
                    tall[key] = None
                    if d >= 1.5 * theta:
                        moving[var, key] = HEAVY
                        engine.minor_rebalance(i, (var, key))
        else:
            for var, idx_a, idx_b, tall in self._on_delete[label]:
                key = t[var]
                if moving and (var, key) in moving:
                    continue
                self.counters.checks += 1
                d = len(idx_a.get(key, ())) + len(idx_b.get(key, ()))
                if 0 < d < 0.5 * theta:
                    if d >= self.tall_at:
                        tall[key] = None
                    moving[var, key] = LIGHT
                    engine.minor_rebalance(i, (var, key))
        if moving:
            tall_at = self.tall_at
            for var, tall in enumerate(self.tall):
                key = t[var]
                dst = moving.get((var, key))
                # a create cannot break the bound of a key bound heavy, nor
                # a delete that of a key bound light
                if dst is None or (dst == HEAVY) == grew:
                    continue
                # a key that crossed its destination's bound turns around; it
                # keeps its place in the queue, and its moves take back the
                # tuples already moved
                self.counters.checks += 1
                d = self.degree(var, key)
                if grew:
                    if d >= tall_at:
                        tall[key] = None
                        if d >= 1.5 * theta:
                            moving[var, key] = HEAVY
                elif 0 < d < 0.5 * theta:
                    if d >= tall_at:
                        tall[key] = None
                    moving[var, key] = LIGHT

    def move_key(self, key: tuple, budget: int, move: Callable) -> int:
        """Move up to ``budget`` tuples of ``key = (var, value)``, in transit.

        A tuple leaves a part of the other status on ``var`` for the
        status the key is bound for; on its other variables it keeps its
        status, or takes the one its key there is bound for, so each tuple
        moves once. Each goes, in posting-map order, through ``move(src,
        dst, t, m)`` with the part labels, which must delete it from
        ``src`` and insert it into ``dst`` (the engine's ``apply_move``).
        Once none is left to move, the key leaves ``moving``. Returns the moves.
        """
        var, value = key
        moving = self.moving
        moved = 0
        for idx, join, lab, dst, others in self._away[var][moving[key]]:
            posts = idx.get(value)
            while posts and moved < budget:
                f, m = next(iter(posts.items()))
                t = f if join is None else join(value, f)
                to = dst
                for w in others:
                    s = moving.get((w, t[w]))
                    if s is not None:
                        to = to[:w] + s + to[w + 1:]
                move(lab, to, t, m)
                moved += 1
            if posts:
                return moved
        del moving[key]
        return moved

    def load(self, rows: dict, theta: float, tall_at: int) -> None:
        """Fill the empty parts with ``rows``, strict for ``theta`` on every variable.

        ``rows`` maps tuples to nonzero multiplicities. A key is heavy on a
        variable when its degree there in ``rows`` is at least ``theta``.
        The mark becomes ``tall_at``, and the watermark takes the light
        keys at or above it from the same degree counts. Each part is
        filled in bulk (``Relation.fill``), its tuples in the order of
        ``rows``.
        """
        # each row's part label, one status per variable, built column by column
        labels = None
        for var, tall in enumerate(self.tall):
            degree = Counter(map(itemgetter(var), rows))
            status = {k: HEAVY if d >= theta else LIGHT for k, d in degree.items()}
            tall.update(dict.fromkeys(k for k, d in degree.items() if tall_at <= d < theta))
            column = map(status.__getitem__, map(itemgetter(var), rows))
            labels = column if labels is None else map(add, labels, column)
        self.tall_at = tall_at
        labels = list(labels)
        for lab, rel in self.parts.items():
            keep = list(map(lab.__eq__, labels))
            rel.fill(list(compress(rows, keep)), list(compress(rows.values(), keep)))

    def restrict(self, theta: float, tall_at: int, grown: tuple | None = None) -> int:
        """Put every key whose strict status for ``theta`` differs in transit.

        The mark in place must not exceed ``theta`` rounded up: the engine
        sets it at the threshold the next halving would set, and a
        doubling's threshold is higher. So every light key at or above
        ``theta`` is recorded or waits in ``unswept``, and only those keys
        are read, with the keys of ``grown`` (the tuple whose create
        triggered a doubling; its update went unchecked), the heavy keys
        and the keys in transit. A key in transit is judged by its degree
        over all parts and turned around where its strict status differs
        from the one it is bound for; it keeps its place in the engine's
        queue.

        Each newly flipped key is entered in ``moving`` as ``(var, key)``,
        after the keys already there, variable by variable and, per
        variable, promotions first, for the engine to queue and move
        through ``move_key``. The mark becomes ``tall_at``, and the
        watermark keeps the keys read that are, or turn, light at or above
        it. A mark lower than the last one (a halving) leaves the light
        keys below the last one unread: they are copied, without reading
        a degree, into ``unswept`` for ``sweep``. Returns the number of keys
        newly put in transit.
        """
        moving = self.moving
        known = checks = len(moving)
        halving = tall_at < self.tall_at
        for var, tall in enumerate(self.tall):
            ha, hb, la, lb = self._by_status[var]
            unswept = self.unswept[var]
            keep = {}
            for key in moving:  # values are rewritten, no key is added
                if key[0] == var:
                    d = self.degree(var, key[1])
                    if d >= theta:
                        moving[key] = HEAVY
                    else:
                        moving[key] = LIGHT
                        if d >= tall_at:
                            keep[key[1]] = None
            light = [*tall, *unswept] if grown is None else [*tall, *unswept, grown[var]]
            checks += len(light) + len(ha) + len(hb)
            for k in light:
                if (var, k) not in moving:
                    d = len(la.get(k, ())) + len(lb.get(k, ()))
                    if d >= theta:
                        moving[var, k] = HEAVY
                    elif d >= tall_at:
                        keep[k] = None
            for k, d in self._below(var, theta):
                if (var, k) not in moving:
                    moving[var, k] = LIGHT
                    if d >= tall_at:
                        keep[k] = None
            tall.clear()
            tall.update(keep)
            unswept[:] = [*la, *lb] if halving else ()
        self.tall_at = tall_at
        self.counters.checks += checks
        return len(moving) - known

    def sweep(self, budget: int) -> int:
        """Read up to ``budget`` keys left in ``unswept``; record those at or above the mark.

        A key's degree is summed over the light parts on its variable.
        Returns the keys read, fewer than ``budget`` once none is left.
        """
        tall_at = self.tall_at
        read = 0
        for var, keys in enumerate(self.unswept):
            _, _, la, lb = self._by_status[var]
            tall = self.tall[var]
            while keys and read < budget:
                k = keys.pop()
                read += 1
                if len(la.get(k, ())) + len(lb.get(k, ())) >= tall_at:
                    tall[k] = None
        self.counters.checks += read
        return read

    def violations(self, theta: float, strict: bool = False) -> list[str]:
        """Broken split conditions, per variable; an empty list means healthy.

        Degrees are judged against the loose bounds, or with ``strict``
        against ``theta``, which also refuses keys in transit. A key in
        transit is judged by its degree over all parts against the bound of
        the status it is bound for. For ``restrict``, every light key at or
        above the mark ``tall_at`` must be recorded in the watermark or
        wait in ``unswept``, and every key in transit bound light at or
        above it must be recorded.
        """
        h_floor = theta if strict else 0.5 * theta
        l_ceil = theta if strict else 1.5 * theta
        tall_at = self.tall_at
        out = []
        if strict and self.moving:
            out.append(f"keys in transit: {list(self.moving)[:5]}")
        for var, (tall, unswept) in enumerate(zip(self.tall, self.unswept)):
            ha, hb, la, lb = self._by_status[var]
            transit = {k: dst for (v, k), dst in self.moving.items() if v == var}
            # the second part of a status is empty on a one-variable split
            mixed = ha.keys() & la.keys()
            if lb:
                mixed |= ha.keys() & lb.keys()
            if hb:
                mixed |= hb.keys() & la.keys()
                if lb:
                    mixed |= hb.keys() & lb.keys()
            if transit:
                mixed -= transit.keys()
            if mixed:
                out.append(f"var {var} keys with mixed status: {sorted(mixed)[:5]}")
            for k, d in self._below(var, h_floor):
                if k not in transit:
                    out.append(f"var {var} heavy key {k} degree {d} < {h_floor}")
            unseen = []
            for k, d in self._above(var, min(l_ceil, tall_at)):
                if k not in transit:
                    if d >= l_ceil:
                        out.append(f"var {var} light key {k} degree {d} >= {l_ceil}")
                    if d >= tall_at and k not in tall:
                        unseen.append(k)
            if unseen and unswept:
                waiting = set(unswept)
                unseen = [k for k in unseen if k not in waiting]
            for k, dst in transit.items():
                d = self.degree(var, k)
                if (0 < d < h_floor) if dst == HEAVY else d >= l_ceil:
                    out.append(f"var {var} key {k} bound {dst} degree {d} outside its bound")
                if dst == LIGHT and d >= tall_at and k not in tall:
                    unseen.append(k)
            if unseen:
                out.append(f"var {var} keys at or above the watermark {tall_at} "
                           f"not recorded: {unseen[:5]}")
        return out

    def _above(self, var: int, ceil: float) -> list:
        """The keys with tuples in the light parts on ``var`` whose degree there reaches ``ceil``.

        As ``(key, degree)`` pairs; reads every such key.
        """
        _, _, la, lb = self._by_status[var]
        if not lb:
            return [(k, d) for k, posts in la.items() if (d := len(posts)) >= ceil]
        up = [(k, d) for k, posts in la.items()
              if (d := len(posts) + (len(lb[k]) if k in lb else 0)) >= ceil]
        return up + [(k, len(p)) for k, p in lb.items() if k not in la and len(p) >= ceil]

    def _below(self, var: int, floor: float) -> list:
        """The keys with tuples in the heavy parts on ``var`` whose degree there is below ``floor``.

        As ``(key, degree)`` pairs; reads every such key.
        """
        ha, hb, _, _ = self._by_status[var]
        if not hb:
            return [(k, d) for k, posts in ha.items() if (d := len(posts)) < floor]
        down = [(k, d) for k, posts in ha.items()
                if (d := len(posts) + (len(hb[k]) if k in hb else 0)) < floor]
        return down + [(k, len(p)) for k, p in hb.items() if k not in ha and len(p) < floor]


class QuadPartition(Partition):
    """Four-way split of a binary relation on the degrees of both variables.

    Part ``xy`` holds the tuples whose first-variable key has status ``x``
    and second-variable key status ``y``; all but the route of a tuple
    is ``Partition``'s.
    """

    __slots__ = ("_hl0", "_hh0", "_lh1", "_hh1")

    def __init__(self, counters: OpCounters | None = None):
        self._split({lab: Relation(2) for lab in QUAD_LABELS}, counters)
        # the heavy-key indexes of each variable, read by ``route``
        (self._hl0, self._hh0, *_), (self._lh1, self._hh1, *_) = self._by_status

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part by the current status of each key.

        A value is heavy when it appears in the key index of a part that is
        heavy on its variable; absent values count light. So the label gives
        the statuses of both keys not in transit, which ``minor_check``
        relies on. A tuple with a key in transit goes where
        ``_route_moving`` sends it; while no key is in transit that costs
        one truthiness check.
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
        """The part of ``t`` when one of its keys is in transit, else ``None``.

        The destination takes, per variable, the status the key is bound
        for, or the key's current status when it is not in transit. A
        stored tuple stays where it is, which differs from the destination
        only on variables in transit; those parts alone are probed.
        """
        moving = self.moving
        a, b = t[0], t[1]
        to_a = moving.get((0, a))
        to_b = moving.get((1, b))
        if to_a is None:
            if to_b is None:
                return None
            to_a = HEAVY if a in self._hl0 or a in self._hh0 else LIGHT
            held = (to_a + FLIP[to_b],)
        elif to_b is None:
            to_b = HEAVY if b in self._lh1 or b in self._hh1 else LIGHT
            held = (FLIP[to_a] + to_b,)
        else:
            held = (FLIP[to_a] + to_b, to_a + FLIP[to_b], FLIP[to_a] + FLIP[to_b])
        parts = self.parts
        for lab in held:
            if parts[lab].get(t):
                return lab
        return to_a + to_b

    # perfbench's tracer wraps ``restrict`` through each class's own __dict__
    restrict = Partition.restrict
