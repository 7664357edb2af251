"""The maintenance loop every engine shares.

An engine keeps the relations of its query split by key degree, one
partition per relation (``None`` for a relation it keeps whole), and some
views over the parts. What keeps those splits meaningful is the same for
every query, so it lives here once:

  * the boundary check: an update names a known relation, carries a tuple
    of that relation's arity and a nonzero ``int`` multiplicity, or it is
    refused with ``SchemaError`` before anything changes;
  * the size invariant ``floor(N/4) <= db_size < N`` on the threshold base
    ``N``: reaching ``N`` doubles it, falling below a quarter roughly
    halves it, and either triggers a major rebalance, which strictly
    repartitions every relation in place and rebuilds the views (the
    answer never changes);
  * minor rebalancing: a key that drifts past one and a half times, or
    below half of, its relation's threshold ``N ** eps`` has its tuples
    moved to the other part, each as a delete/insert pair through the
    engine's own update step, so the answer and views stay exact;
  * the preprocess loader, which sets ``N`` to twice the database size
    plus one, and the invariant report.

An engine supplies its partitions in ``parts``, ``route`` (the part an
update goes to), ``apply_update`` (one routed delta), ``rebuild_views`` and
``space_used``.
"""

from __future__ import annotations

from .metrics import OpCounters
from .relation import Relation, SchemaError


class MaintenanceKernel:
    """Base class of the engines: size invariant, rebalancing, loading, checks."""

    def __init__(self, names, arities, eps, counters: OpCounters | None = None):
        # one exponent for all relations, or a tuple of one per relation
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
        self.N = 1
        self.db_size = 0
        self.q = 0
        self.counters = counters if counters is not None else OpCounters()

    # -- engine hooks ---------------------------------------------------------

    def route(self, i: int, t: tuple):
        """Label of the part of relation ``i`` that receives ``t``."""
        raise NotImplementedError

    def apply_update(self, rel, label, t: tuple, m: int):
        """Apply one delta to the part ``label``, keeping answer and views exact."""
        raise NotImplementedError

    def rebuild_views(self) -> None:
        """Recompute every view from the current parts."""
        raise NotImplementedError

    # -- accessors --------------------------------------------------------------

    def _theta(self, i: int = 0) -> float:
        return self.N ** self._eps[i]

    def rel_index(self, rel) -> int:
        try:
            return self._index[rel]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown relation {rel!r}") from None

    def answer(self) -> int:
        return self.q

    def lookup(self, rel, t: tuple) -> int:
        """Current multiplicity of ``t`` across all parts of ``rel``."""
        return self.parts[self.rel_index(rel)].multiplicity(t)

    # -- the update loop ----------------------------------------------------------

    def on_update(self, rel, t: tuple, m: int) -> None:
        """Check, route and apply one update, then rebalance as needed."""
        try:
            i = self._index[rel]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown relation {rel!r}, expected one of "
                              f"{self.names}") from None
        if not isinstance(t, tuple) or len(t) != self.arities[i]:
            raise SchemaError(f"{self.names[i]} takes tuples of arity {self.arities[i]}, "
                              f"got {t!r}")
        if type(m) is not int or m == 0:
            raise SchemaError(f"multiplicity must be a nonzero int, got {m!r}")
        self.apply_update(i, self.route(i, t), t, m)

        if self.db_size == self.N:
            self.N *= 2
            self.major_rebalance()
        elif self.db_size < self.N // 4:
            self.N = self.N // 2 - 1
            # the size invariant keeps N >= 4 whenever halving can fire
            assert self.N >= 1
            self.major_rebalance()
        else:
            part = self.parts[i]
            if part is not None:
                part.minor_check(self, i, t, self.N ** self._eps[i])

    def major_rebalance(self) -> None:
        """Strictly repartition every relation in place, then rebuild the views."""
        c = self.counters
        c.rebalance_major += 1
        for i, part in enumerate(self.parts):
            if part is not None:
                c.moves += part.restrict(self._theta(i))
        self.rebuild_views()

    def minor_rebalance(self, i: int, key, moves, spec) -> int:
        """Move the tuples with ``key`` in index ``spec`` of relation ``i``.

        ``moves`` lists ``(source, destination)`` part labels; each tuple
        goes as a delete from its source and an insert into the destination.
        Returns the number of tuples moved.
        """
        c = self.counters
        c.rebalance_minor += 1
        part = self.parts[i]
        apply = self.apply_update
        moved = 0
        for src, dst in moves:
            def sink(t, m, src=src, dst=dst):
                apply(i, src, t, -m)
                apply(i, dst, t, m)
                c.moves += 1
            moved += part.move_key(key, src, sink, spec)
        return moved

    # -- construction and checks --------------------------------------------------

    def _load(self, db, index_specs=None) -> list[Relation]:
        """Stage a full database; set ``N`` and ``db_size`` for it.

        ``db`` maps relation names to ``{tuple: multiplicity}`` or lists
        those maps in relation order; zero multiplicities are dropped. The
        threshold base becomes twice the database size plus one, so the
        ready state sits well inside its size invariant.
        """
        staged = []
        for i, name in enumerate(self.names):
            rows = db[i] if isinstance(db, (list, tuple)) else db.get(name, {})
            r = Relation(self.arities[i], index_specs)
            for t, m in dict(rows).items():
                if m:
                    r.upsert(tuple(t), m)
            staged.append(r)
        total = sum(len(r.entries) for r in staged)
        self.N = 2 * total + 1
        self.db_size = total
        return staged

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

        ``loose=False`` checks the strict split a major rebalance leaves.
        """
        out = []
        if not (self.N // 4 <= self.db_size < self.N):
            out.append(f"size invariant broken: N={self.N} db={self.db_size}")
        for i, part in enumerate(self.parts):
            if part is not None:
                for v in part.violations(self._theta(i), strict=not loose):
                    out.append(f"{self.names[i]}: {v}")
        return out
