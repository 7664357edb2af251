"""The maintenance loop every engine shares.

An engine keeps the relations of its query split by key degree, one
partition per relation (``None`` for a relation it keeps whole), and some
views over the parts. What keeps those splits meaningful is the same for
every query, so it lives here once:

  * the boundary check: an update names a known relation (by its name, a
    ``str``, or its position, an ``int``), carries a tuple of that
    relation's arity with hashable values and a nonzero ``int``
    multiplicity, or it is refused with ``SchemaError`` before anything
    changes; the preprocess loader applies the same rules to every row
    before it builds anything;
  * the size invariant ``floor(N/4) <= db_size < N`` on the threshold base
    ``N``: reaching ``N`` doubles it, falling below a quarter roughly
    halves it, and either triggers a major rebalance, which puts every
    key whose strict status flips in transit (the answer never changes).
    A doubling checks every heavy key but only the light keys that
    climbed past the old threshold since the last split (the partitions'
    degree watermarks); a halving checks every key;
  * minor rebalancing: a key that drifts past one and a half times, or
    below half of, its relation's threshold ``N ** eps`` (computed when
    ``N`` changes, not per update) is put in transit to the other part.
    Every key sits inside these loose bounds after every update, a key in
    transit by its degree over all parts against the bound of the status
    it is bound for (the loader and majors start from a strict split,
    each minor restores the bound of the key it moves, and a key in
    transit that crosses its destination's bound turns around), so an
    update checks only the bound it can cross: a create checks its key
    where the key is light, a delete where it is heavy, and an update
    that only changes a stored tuple's multiplicity moves no degree and
    no size and checks nothing;
  * moves: a rebalance moves no tuple itself. It queues its keys, and
    every later ``on_update`` first drains at most ``B`` tuple moves from
    the queue, each through ``apply_move``, a delete/insert pair through
    the engine's own update step, so the views stay exact after every
    move and no update pays for more than ``B`` moves. While a key is in
    transit its tuples may sit in both parts: routing sends a stored
    tuple to the part that holds it and a new one to the key's
    destination, and every engine's ``delta`` and update step combine the
    parts tuple by tuple. A major that finds moves still queued makes
    them first (``flushes`` counts those majors), so it starts from a
    settled split; right after a major, ``finish_moves`` (which empties
    the queue at once) leaves the split strict for the new ``N``;
  * the one loader, ``preprocess``, which sets ``N`` to twice the database
    size plus one, fills every partition strictly from its rows' key
    degrees, each tuple stored once, and then has the engine build its
    views and its answer once;
  * the invariant report.

The kernel routes each update itself (the ``route`` of the relation's
split, a ``Partition`` on one variable or a ``QuadPartition`` on two,
with one ``minor_check``, ``restrict`` and ``move_key`` for both; every
tuple pinned heavy at ``eps == 0``), adds the answer's change before the
update is applied, and keeps ``db_size`` from what the update step
returns. An engine supplies its partitions in ``parts``; ``delta`` (the
answer's change for one update, read before it is applied; ``None`` for
an engine without a count); ``apply_update`` (one routed update to the
parts and views, returning the tuple's stored multiplicity afterwards);
``space_used``; and for ``preprocess`` ``rebuild_views`` and, when it
keeps a relation whole, ``load_whole``. The loaded answer is the sum of
relation 0's deltas over its rows (``loaded_count``), which an engine
whose relation 0 joins with itself replaces.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Mapping
from functools import partial

from .metrics import OpCounters
from .relation import SchemaError

# tuple moves each update drains from the queue of rebalance moves
B = 2


class MaintenanceKernel:
    """Base class of the engines: size invariant, rebalancing, loading, checks."""

    # whether the engine's strategies read one exponent per relation; an
    # engine without them refuses a tuple of exponents
    PER_RELATION_EPS = False

    def __init__(self, names, arities, eps, counters: OpCounters | None = None):
        # one exponent for all relations, or a tuple of one per relation
        if isinstance(eps, tuple) and not self.PER_RELATION_EPS:
            raise ValueError(f"{type(self).__name__} takes one eps for all relations, "
                             f"got {eps!r}")
        self.eps = eps if isinstance(eps, tuple) else float(eps)
        self._eps = eps if isinstance(eps, tuple) else (self.eps,) * len(names)
        for value in self._eps:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"eps={value} outside [0, 1]")
        self.names = tuple(names)
        self.arities = tuple(arities)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._index.update((i, i) for i in range(len(self.names)))
        self.parts: list = [None] * len(self.names)
        # an exponent of 0 pins every tuple of the relation heavy
        self._pinned = tuple(value == 0.0 for value in self._eps)
        self.N = 1
        self._set_thetas()
        self.db_size = 0
        self.q = 0
        self.counters = counters if counters is not None else OpCounters()
        # (relation, key) per key in transit, in the order its moves were queued
        self._queue: deque = deque()
        # majors that found moves still queued and made them first
        self.flushes = 0

    # -- engine hooks ---------------------------------------------------------

    # ``delta(i, t, m)``: the answer's change when ``m`` is added to ``t`` of
    # relation ``i``, read from the state before the update; ``None`` for an
    # engine that keeps no count
    delta = None

    def apply_update(self, i: int, label, t: tuple, m: int) -> int:
        """Apply one delta to the part ``label`` of relation ``i``, keeping the views exact.

        Returns the multiplicity of ``t`` stored afterwards: ``m`` when the
        update created the tuple, 0 when it deleted it. The answer is not
        touched; ``on_update`` adds the ``delta``.
        """
        raise NotImplementedError

    def rebuild_views(self) -> None:
        """Build every view from the parts (after ``preprocess`` has filled them)."""
        raise NotImplementedError

    def loaded_count(self, rows: dict) -> int:
        """The answer over the freshly built parts and views; 0 without a count.

        ``rows`` are relation 0's loaded rows. The answer is linear in
        relation 0 and its delta does not read relation 0, so the sum of
        the rows' deltas against the finished state is exact.
        """
        delta = self.delta
        if delta is None:
            return 0
        return sum(delta(0, t, m) for t, m in rows.items())

    def load_whole(self, i: int, rows: dict) -> None:
        """Store the rows of relation ``i``, which the engine keeps unpartitioned."""
        raise NotImplementedError

    def apply_move(self, i: int, src, dst, t: tuple, m: int) -> None:
        """Move ``t`` (multiplicity ``m``) of relation ``i`` from part ``src`` to ``dst``.

        A delete from ``src`` and an insert into ``dst``, both through
        ``apply_update``, so the views stay exact. The relation as a whole
        does not change, so neither do the answer and the size.
        """
        self.apply_update(i, src, t, -m)
        self.apply_update(i, dst, t, m)

    # -- accessors --------------------------------------------------------------

    def _theta(self, i: int = 0) -> float:
        return self._thetas[i]

    def _set_thetas(self) -> None:
        # N changes only on a major rebalance or a load, so the thresholds
        # N ** eps are computed there, not on every update
        self._thetas = tuple(self.N ** e for e in self._eps)

    def rel_index(self, rel) -> int:
        """Position of relation ``rel``, given by name or by position.

        Only a ``str`` or an exact ``int`` names a relation: ``True`` or
        ``1.0`` hash like position 1 but are refused.
        """
        if rel.__class__ is str or rel.__class__ is int:
            i = self._index.get(rel)
            if i is not None:
                return i
        raise SchemaError(f"unknown relation {rel!r}, expected one of {self.names}")

    def answer(self) -> int:
        return self.q

    def lookup(self, rel, t: tuple) -> int:
        """Current multiplicity of ``t`` across all parts of ``rel``."""
        return self.parts[self._checked_tuple(rel, t)].multiplicity(t)

    def _checked_tuple(self, rel, t) -> int:
        """Position of relation ``rel``, once ``t`` is known to fit it.

        Refuses with ``SchemaError`` an unknown relation, a ``t`` that is
        not a tuple of the relation's arity, or one with an unhashable
        value.
        """
        cls = rel.__class__
        i = self._index.get(rel) if cls is str or cls is int else None
        if i is None:
            self.rel_index(rel)  # raises SchemaError
        if not isinstance(t, tuple) or len(t) != self.arities[i]:
            raise SchemaError(f"{self.names[i]} takes tuples of arity {self.arities[i]}, "
                              f"got {t!r}")
        try:
            hash(t)
        except TypeError:
            raise SchemaError(f"tuple values must be hashable, got {t!r}") from None
        return i

    # -- the update loop ----------------------------------------------------------

    def on_update(self, rel, t: tuple, m: int) -> None:
        """Check, route and apply one update, then rebalance as needed.

        Once the update is known to be valid, up to ``B`` queued tuple
        moves are made first. The answer gains the update's ``delta``,
        read before the update; then ``apply_update`` returns the stored
        multiplicity. If that is neither ``m`` (a create) nor 0 (a
        delete), the update changed only the multiplicity of a stored
        tuple: no key degree and no size moved, so no rebalance can be
        due and nothing more is checked. Otherwise the size changes by one
        and the size invariant is checked; if it holds, the partition
        checks the one key bound the update can have crossed, given the
        part it was routed to and whether it created or destroyed a tuple.
        """
        if type(m) is not int or m == 0:
            raise SchemaError(f"multiplicity must be a nonzero int, got {m!r}")
        i = self._checked_tuple(rel, t)
        if self._queue:
            self._drain(B)
        part = self.parts[i]
        if part is None:
            label = None
        else:
            self.counters.lookups += 1
            label = part.route(t, self._pinned[i])
        delta = self.delta
        if delta is not None:
            self.q += delta(i, t, m)
        new = self.apply_update(i, label, t, m)

        if new == m:
            self.db_size += 1
            if self.db_size == self.N:
                self.N *= 2
                self.major_rebalance(i, t)
                return
        elif new == 0:
            self.db_size -= 1
            if self.db_size < self.N // 4:
                self.N = self.N // 2 - 1
                # the size invariant keeps N >= 4 whenever halving can fire
                assert self.N >= 1
                self.major_rebalance()
                return
        else:
            return
        if part is not None:
            part.minor_check(self, i, t, label, new == m, self._thetas[i])

    def major_rebalance(self, i: int | None = None, grown: tuple | None = None) -> None:
        """Put every key whose strict status for the current ``N`` differs in transit.

        Moves still queued are made first, so each ``restrict`` starts
        from a settled split; ``flushes`` counts the majors that found
        any. Then every partition enters its flipped keys in its
        ``moving`` map and they are queued, to be moved ``B`` tuples per
        later update. A major that flips nothing does no view work.
        ``grown`` is the tuple of relation ``i`` whose create doubled
        ``N``, unchecked by ``minor_check``.
        """
        c = self.counters
        c.rebalance_major += 1
        if self._queue:
            self.flushes += 1
            self.finish_moves()
        self._set_thetas()
        queue = self._queue
        for j, part in enumerate(self.parts):
            if part is not None and part.restrict(self._thetas[j], grown if j == i else None):
                queue.extend((j, key) for key in part.moving)

    def minor_rebalance(self, i: int, key) -> None:
        """Queue the moves of ``key``, which partition ``i`` has just put in transit."""
        self.counters.rebalance_minor += 1
        self._queue.append((i, key))

    def _drain(self, budget: int) -> None:
        """Make up to ``budget`` queued tuple moves, key by key in queue order.

        A key leaves the queue once its partition has moved its last
        tuple (``move_key``), which may be right away when every tuple
        left the old part by deletes or the key turned around early.
        """
        queue = self._queue
        moved = 0
        while queue:
            i, key = queue[0]
            part = self.parts[i]
            moved += part.move_key(key, budget - moved, partial(self.apply_move, i))
            if key in part.moving:
                break
            queue.popleft()
        self.counters.moves += moved

    def finish_moves(self) -> None:
        """Make every queued move now, whatever the per-update budget.

        Right after a major the split is then strict; later, keys may
        have drifted inside their loose bounds.
        """
        self._drain(sys.maxsize)

    def pending_moves(self) -> int:
        """Keys whose queued moves are not done yet."""
        return len(self._queue)

    # -- construction and checks --------------------------------------------------

    @classmethod
    def preprocess(cls, db, *args, **kwargs):
        """A ready engine ``cls(*args, **kwargs)`` holding the full database ``db``.

        ``db`` maps relations (as ``on_update`` names them) to
        ``{tuple: multiplicity}`` or lists those maps in relation order.
        Every row is checked by ``on_update``'s rules before anything is
        stored, and ``SchemaError`` refuses the whole database; zero
        multiplicities are dropped. The threshold base becomes twice the
        database size plus one, so the ready state sits well inside its
        size invariant. Each partition is filled strictly from its rows'
        key degrees (``load``) and each relation kept whole by
        ``load_whole``; then the views are built from the parts and the
        answer is computed once, by ``loaded_count`` over relation 0's
        rows.
        """
        eng = cls(*args, **kwargs)
        tables = eng._checked(db)
        eng.db_size = sum(map(len, tables))
        eng.N = 2 * eng.db_size + 1
        eng._set_thetas()
        for i, rows in enumerate(tables):
            part = eng.parts[i]
            if part is None:
                eng.load_whole(i, rows)
            else:
                part.load(rows, eng._thetas[i])
        eng.rebuild_views()
        eng.q = eng.loaded_count(tables[0])
        return eng

    def _checked(self, db) -> list[dict]:
        """The rows of ``db`` per relation, checked, without zero multiplicities.

        ``db`` is a mapping from relations to rows or a list or tuple of
        rows in relation order; the rows of a relation are a ``dict``, or
        ``None`` (or absent) for none. Anything else is refused with
        ``SchemaError``. The caller's dicts are returned, not copied, when
        they hold no zero.
        """
        n = len(self.names)
        if isinstance(db, (list, tuple)):
            if len(db) != n:
                raise SchemaError(f"{n} relations expected, got {len(db)}")
            tables = list(db)
        elif isinstance(db, Mapping):
            named: dict = {}
            for rel, rows in db.items():
                i = self.rel_index(rel)
                if i in named:
                    raise SchemaError(f"relation {self.names[i]} given twice")
                named[i] = rows
            tables = [named.get(i) for i in range(n)]
        else:
            raise SchemaError(f"a database maps relations to rows or lists them in order, "
                              f"got {type(db).__name__}")
        checked = []
        for i, rows in enumerate(tables):
            if rows is None:
                rows = {}
            elif not isinstance(rows, dict):
                raise SchemaError(f"{self.names[i]} rows must be a dict of tuples to "
                                  f"multiplicities, got {type(rows).__name__}")
            for t, m in rows.items():
                if not isinstance(t, tuple) or len(t) != self.arities[i]:
                    raise SchemaError(f"{self.names[i]} takes tuples of arity "
                                      f"{self.arities[i]}, got {t!r}")
                if type(m) is not int:
                    raise SchemaError(f"multiplicity must be an int, got {m!r}")
            # the loader only reads the rows, so a map without zeros is used
            # as given: a copy would raise the load's peak memory
            checked.append(rows if all(rows.values()) else {t: m for t, m in rows.items() if m})
        return checked

    def _uncounted(self, build, *args):
        """``build(*args)`` with its work kept out of the engine's counters."""
        saved = self.counters
        self.counters = OpCounters()
        try:
            return build(*args)
        finally:
            self.counters = saved

    def check_invariants(self, loose: bool = True) -> list[str]:
        """Broken size or partition conditions; empty when healthy.

        ``loose=False`` checks the strict split a major rebalance leaves
        once its moves are done, so it refuses keys in transit. Every key
        in transit must have its moves queued, and only those.
        """
        out = []
        if not (self.N // 4 <= self.db_size < self.N):
            out.append(f"size invariant broken: N={self.N} db={self.db_size}")
        queued = set(self._queue)
        for i, part in enumerate(self.parts):
            if part is not None:
                transit = {(i, key) for key in part.moving}
                if transit != {entry for entry in queued if entry[0] == i}:
                    out.append(f"{self.names[i]}: keys in transit and queued moves differ")
                for v in part.violations(self._theta(i), strict=not loose):
                    out.append(f"{self.names[i]}: {v}")
        return out
