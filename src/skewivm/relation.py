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

On top of that sits the one degree split all maintenance engines use. It
compares the degree of a key on each partition variable against a
threshold and labels its parts with one status, heavy or light, per
variable: ``Partition`` splits on variable 0 into two parts,
``QuadPartition`` on both variables of a binary relation into four, and
the two differ only in routing. The engines' shared kernel calls ``load``
to fill the parts strictly from a full database, ``restrict`` to put the
keys a major rebalance flips in transit, ``minor_check`` to put in transit
a key an update moved past its loose bound (only the bound that update can
cross is read) and ``move_key`` to have up to a budget of a key's tuples
moved one by one. A key in transit (``moving[(var, key)]``) may have
tuples in parts of both statuses until its last tuple has moved.
"""

from __future__ import annotations

import math
from collections import ChainMap, Counter
from itertools import chain
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator


class SchemaError(ValueError):
    """Update does not fit the engine's schema.

    Raised for an unknown relation, a tuple of the wrong arity or with an
    unhashable value, or a multiplicity that is zero or not an ``int``.
    """


HEAVY = "h"
LIGHT = "l"

QUAD_LABELS = ("hh", "hl", "lh", "ll")

IDX0 = (0,)
IDX1 = (1,)


class Relation:
    """Finite map ``tuple -> nonzero int`` kept as per-index posting maps.

    ``indexes[spec][key]`` is the posting map ``{tuple: multiplicity}`` of
    the tuples whose ``spec`` variables equal ``key``; it is never empty.
    The first spec, on one variable, is the lookup index behind ``get``
    and ``items``.
    """

    __slots__ = ("arity", "indexes", "_n", "_lead", "_first", "_rest")

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
    """Degree split of a relation: one status, heavy or light, per partition variable.

    A part's label gives one status per partition variable in order:
    ``"h"`` and ``"l"`` on variable 0 here, ``"hh"`` to ``"ll"`` in
    ``QuadPartition``. A key's tuples lie in the parts of its status on
    each variable, except while it is in transit: a rebalance that
    changes the status of ``key`` on ``var`` records the status it is
    bound for in ``moving[(var, key)]``, and the kernel then moves its
    tuples a few per update (``move_key``). Between rebalances degrees
    drift inside the loose bounds (heavy keys at or above half the
    threshold, light keys below one and a half times it); a key in
    transit is held, by its degree over all parts, to the bound of the
    status it is bound for. Per variable, a degree watermark
    (``tall[var]``, a dict used as an ordered set) records the light keys
    that reached ``tall_at``, the last split's threshold rounded up, so
    that a doubling checks only those light keys.

    Here the partition key's index (on variable 0) comes first in both
    parts, so point lookups go through it. By default the heavy part also
    indexes every other variable and the light part nothing else, the
    layout the triangle engines walk; ``index_specs`` gives both parts the
    same indexes instead. ``heavy`` and ``light`` name the two parts, and
    ``light_rows`` probes the light rows of a key in transit on both sides.
    """

    __slots__ = ("parts", "theta", "moving", "tall_at", "tall", "heavy", "light",
                 "light_rows", "_heavy_keys", "_light_keys", "_by_status", "_on_create",
                 "_on_delete", "_away")

    def __init__(self, arity: int, index_specs: Iterable[tuple[int, ...]] | None = None):
        if index_specs is None:
            light_specs = (IDX0,)
            heavy_specs = light_specs + tuple((i,) for i in range(arity))
        else:
            heavy_specs = light_specs = (IDX0,) + tuple(map(tuple, index_specs))
        self.heavy = Relation(arity, heavy_specs)
        self.light = Relation(arity, light_specs)
        self._split({HEAVY: self.heavy, LIGHT: self.light})
        self._heavy_keys = self.heavy.indexes[IDX0]
        self._light_keys = self.light.indexes[IDX0]
        # the light rows as a probe that sees both sides of a key in transit
        self.light_rows = _TransitRows(self._light_keys, self._heavy_keys, self.moving)

    def _split(self, parts: dict[str, Relation]) -> None:
        """Take ``parts``, labelled one status per variable, and cache their indexes.

        A relation builds its index dicts once and never replaces them.
        """
        self.parts = parts
        variables = range(len(next(iter(parts))))
        # the threshold of an empty engine (N = 1); load and restrict set it
        self.theta = 1.0
        # (variable, key) in transit -> the status it is bound for
        self.moving: dict = {}
        self.tall_at = 1
        self.tall = tuple({} for _ in variables)

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
        # moves out of: the part's index on the variable, its label, the
        # label the tuple moves to and the other variables, whose keys keep
        # their status unless they are in transit too
        self._away = tuple(
            {dst: tuple((rel.indexes[(var,)], lab, lab[:var] + dst + lab[var + 1:],
                         tuple(w for w in variables if w != var))
                        for lab, rel in parts.items() if lab[var] != dst)
             for dst in (HEAVY, LIGHT)}
            for var in variables)

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part for an update of ``t``: the status of its partition key.

        Heavy when the key ``t[0]`` is already present in the heavy
        part's partition-key index or when ``force_heavy`` pins every
        tuple heavy; light otherwise. A tuple of a key in transit goes to
        the part that stores it, or, when it is new, to the part the key
        is bound for; while no key is in transit that costs one
        truthiness check. A key not in transit lives in one part, so the
        label is also where its degree is kept, which ``minor_check``
        relies on.
        """
        if self.moving:
            dst = self.moving.get((0, t[0]))
            if dst is not None:
                # only a stored tuple still in the part the key leaves stays there
                if dst == HEAVY:
                    posts = self._light_keys.get(t[0])
                    return LIGHT if posts and t in posts else HEAVY
                posts = self._heavy_keys.get(t[0])
                return HEAVY if posts and t in posts else LIGHT
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
        ``theta``; at ``tall_at`` the watermark records it) or a delete
        where its key is heavy (it may fall below half of it), reading the
        parts of that status only. Every variable is checked against the
        same state, so one update can queue a minor per variable, through
        ``engine.minor_rebalance(i, (var, key))``. A key already in transit
        is judged over all parts against the status it is bound for, and
        recorded by the watermark while bound light.
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
            for var, tall in enumerate(self.tall):
                key = t[var]
                dst = moving.get((var, key))
                if dst is None:
                    continue
                # a key that crossed its destination's bound turns around; it
                # keeps its place in the queue, and its moves take back the
                # tuples already moved
                d = self.degree(var, key)
                if not grew:
                    if dst == HEAVY and 0 < d < 0.5 * theta:
                        moving[var, key] = LIGHT
                elif dst == LIGHT and d >= self.tall_at:
                    tall[key] = None
                    if d >= 1.5 * theta:
                        moving[var, key] = HEAVY

    def move_key(self, key: tuple, budget: int, move: Callable) -> int:
        """Move up to ``budget`` tuples of ``key = (var, value)``, in transit.

        A tuple leaves a part of the other status on ``var`` for the
        status the key is bound for; on its other variables it keeps its
        status, or takes the one its key there is bound for, so each tuple
        moves once. Each goes, in posting-map order, through ``move(src,
        dst, t, m)`` with the part labels, which must delete it from
        ``src`` and insert it into ``dst`` (the kernel's ``apply_move``).
        Once none is left to move, the key leaves ``moving``. Returns the moves.
        """
        var, value = key
        moving = self.moving
        moved = 0
        for idx, lab, dst, others in self._away[var][moving[key]]:
            posts = idx.get(value)
            while posts and moved < budget:
                t, m = next(iter(posts.items()))
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

    def load(self, rows: dict, theta: float) -> None:
        """Fill the empty parts with ``rows``, strict for ``theta`` on every variable.

        ``rows`` maps tuples to nonzero multiplicities. A key is heavy on a
        variable when its degree there in ``rows`` is at least ``theta``,
        so every light key stays below the watermark, as after ``restrict``.
        """
        # each row's part label, one status per variable, built column by column
        labels = None
        for var in range(len(self.tall)):
            degree = Counter(map(itemgetter(var), rows))
            status = {k: HEAVY if d >= theta else LIGHT for k, d in degree.items()}
            column = map(status.__getitem__, map(itemgetter(var), rows))
            labels = column if labels is None else map(add, labels, column)
        self.theta = float(theta)
        self.tall_at = math.ceil(theta)
        upsert = {lab: rel.upsert for lab, rel in self.parts.items()}
        for lab, (t, m) in zip(labels, rows.items()):
            upsert[lab](t, m)

    def restrict(self, theta: float, grown: tuple | None = None) -> int:
        """Put every key whose strict status for ``theta`` differs in transit.

        No key may be in transit. Every heavy key is checked. The watermark
        stands at the previous threshold rounded up, and the last split (or
        the empty start) left every light key below it, so when ``theta``
        rounds up to no less, as on a doubling, a light key at or above
        ``theta`` must have crossed the watermark since: only the light keys
        it recorded are checked, plus the keys of ``grown``, the tuple whose
        create triggered the doubling (its update went unchecked). A lower
        threshold checks every light key.

        Each flipped key is entered in ``moving`` as ``(var, key)``,
        variable by variable and, per variable, promotions first, for the
        kernel to queue and move through ``move_key``. Returns the number
        of keys put in transit.
        """
        moving = self.moving
        tall_at = math.ceil(theta)
        doubling = tall_at >= self.tall_at
        for var, tall in enumerate(self.tall):
            light = None if not doubling else tall if grown is None else (*tall, grown[var])
            up, down = self._crossing(var, theta, theta, light)
            for k, _ in up:
                moving[var, k] = HEAVY
            for k, _ in down:
                moving[var, k] = LIGHT
            tall.clear()
        self.theta = float(theta)
        self.tall_at = tall_at
        return len(moving)

    def violations(self, theta: float | None = None, strict: bool = False) -> list[str]:
        """Broken split conditions, per variable; an empty list means healthy.

        Degrees are judged against the loose bounds, or with ``strict``
        against ``theta``, which also refuses keys in transit. A key in
        transit is judged by its degree over all parts against the bound of
        the status it is bound for. For ``restrict``'s doubling shortcut,
        the watermark must record every light key, or key in transit bound
        light, at or above ``tall_at``.
        """
        theta = self.theta if theta is None else theta
        h_floor = theta if strict else 0.5 * theta
        l_ceil = theta if strict else 1.5 * theta
        tall_at = self.tall_at
        out = []
        if strict and self.moving:
            out.append(f"keys in transit: {list(self.moving)[:5]}")
        for var, tall in enumerate(self.tall):
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
            unseen = []
            up, down = self._crossing(var, h_floor, min(l_ceil, tall_at))
            for k, d in down:
                if k not in transit:
                    out.append(f"var {var} heavy key {k} degree {d} < {h_floor}")
            for k, d in up:
                if k not in transit:
                    if d >= l_ceil:
                        out.append(f"var {var} light key {k} degree {d} >= {l_ceil}")
                    if d >= tall_at and k not in tall:
                        unseen.append(k)
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

    def _crossing(self, var: int, floor: float, ceil: float,
                  light: Iterable | None = None) -> tuple[list, list]:
        """The keys on ``var`` that cross a bound, as ``(key, degree)`` pairs.

        A key's degree is summed over the parts of its status on ``var``.
        Returns the light keys at or above ``ceil`` and the heavy keys
        below ``floor``; ``light`` limits the light keys looked at.
        """
        ha, hb, la, lb = self._by_status[var]
        if light is not None:
            up = [(k, d) for k in light if (d := len(la.get(k, ())) + len(lb.get(k, ()))) >= ceil]
        elif lb:
            up = [(k, d) for k, posts in la.items()
                  if (d := len(posts) + (len(lb[k]) if k in lb else 0)) >= ceil]
            up += [(k, len(p)) for k, p in lb.items() if k not in la and len(p) >= ceil]
        else:
            up = [(k, d) for k, posts in la.items() if (d := len(posts)) >= ceil]
        if hb:
            down = [(k, d) for k, posts in ha.items()
                    if (d := len(posts) + (len(hb[k]) if k in hb else 0)) < floor]
            down += [(k, len(p)) for k, p in hb.items() if k not in ha and len(p) < floor]
        else:
            down = [(k, d) for k, posts in ha.items() if (d := len(posts)) < floor]
        return up, down


class QuadPartition(Partition):
    """Four-way split of a binary relation on the degrees of both variables.

    Part ``xy`` holds the tuples whose first-variable key has status ``x``
    and second-variable key status ``y``; all but routing is ``Partition``'s.
    """

    __slots__ = ("_hl0", "_hh0", "_lh1", "_hh1", "_lookup")

    def __init__(self):
        self._split({lab: Relation(2) for lab in QUAD_LABELS})
        # the heavy-key indexes of each variable, read by ``route``, and
        # every part's first-variable index, where a stored tuple is found
        parts = self.parts
        self._hl0, self._hh0 = parts["hl"].indexes[IDX0], parts["hh"].indexes[IDX0]
        self._lh1, self._hh1 = parts["lh"].indexes[IDX1], parts["hh"].indexes[IDX1]
        self._lookup = tuple((lab, rel.indexes[IDX0]) for lab, rel in parts.items())

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part by the current status of each key.

        A value is heavy when it appears in the key index of a part that is
        heavy on its variable; absent values count light. So the label gives
        the statuses of both keys not in transit, which ``minor_check``
        relies on. A tuple with a key in transit goes to the part that
        stores it, or, when it is new, takes the status that key is bound
        for; while no key is in transit that costs one truthiness check.
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

    # perfbench's tracer wraps ``restrict`` through each class's own __dict__
    restrict = Partition.restrict


class _TransitRows:
    """``get(key)``: the light posting map of ``key`` while it is not in transit.

    For a key in transit with tuples on both sides, a read-only chain of
    both sides' posting maps (a tuple sits on one side). It holds the
    partition's dicts, not the partition, so it makes no reference cycle.
    """

    __slots__ = ("_light", "_heavy", "_moving")

    def __init__(self, light: dict, heavy: dict, moving: dict):
        self._light, self._heavy, self._moving = light, heavy, moving

    def get(self, key):
        row = self._light.get(key)
        if row and (0, key) in self._moving:
            other = self._heavy.get(key)
            if other:
                return ChainMap(row, other)
        return row


def bump(d: dict, key, delta: int) -> int:
    """Z-ring add into a plain dict view; drops the key on cancellation."""
    nv = d.get(key, 0) + delta
    if nv:
        d[key] = nv
    else:
        d.pop(key, None)
    return nv
