"""Z-ring relations with secondary indexes and degree-based partitioning.

A relation is a finite map from value tuples to nonzero integer
multiplicities (inserts carry positive, deletes negative deltas; the two
compose by addition and an entry dies when its multiplicity reaches zero).
Every relation keeps one secondary index per configured variable (or
variable tuple): a hash map from key to the set of stored tuples carrying
that key. The index gives

  * constant-time degree counts (``len`` of the posting set),
  * constant-time key membership,
  * constant-delay enumeration of the entries matching a key.

On top of that sit two partitioning primitives used by all maintenance
engines: ``Partition`` splits a binary-or-wider relation into a heavy and a
light part by comparing the degree of its partition key against a
threshold, and ``QuadPartition`` does the same independently for both
variables of a binary relation, yielding four parts. Both offer the same
rebalancing surface to the engines' shared kernel: ``restrict`` for a major
rebalance, ``minor_check`` to find a key that drifted past its loose bound
and ``move_key`` to hand that key's tuples to the kernel one by one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator


class SchemaError(ValueError):
    """Update does not fit the engine's schema.

    Raised for an unknown relation, a tuple of the wrong arity, or a
    multiplicity that is zero or not an ``int``.
    """


class UnindexedVariable(LookupError):
    """A matching scan was requested on a variable that carries no index."""


HEAVY = "h"
LIGHT = "l"

IDX0 = (0,)
IDX1 = (1,)

# minor moves of a one-variable partition: (source side, destination side)
PROMOTE = ((LIGHT, HEAVY),)
DEMOTE = ((HEAVY, LIGHT),)


def _index_key(t, spec):
    # Single-variable indexes use the bare value as key, wider ones a tuple.
    return t[spec[0]] if len(spec) == 1 else tuple(t[p] for p in spec)


class Relation:
    """Finite map ``tuple -> nonzero int`` with per-variable posting sets."""

    __slots__ = ("arity", "entries", "indexes")

    def __init__(self, arity: int, index_specs: Iterable[tuple[int, ...]] | None = None):
        if index_specs is None:
            index_specs = tuple((i,) for i in range(arity))
        self.arity = arity
        self.entries: dict[tuple, int] = {}
        self.indexes: dict[tuple[int, ...], dict] = {tuple(s): {} for s in index_specs}

    def __len__(self) -> int:
        return len(self.entries)

    def size(self) -> int:
        """Number of tuples with nonzero multiplicity."""
        return len(self.entries)

    def multiplicity(self, t: tuple) -> int:
        return self.entries.get(t, 0)

    def upsert(self, t: tuple, m: int) -> int:
        """Add ``m`` to the multiplicity of ``t``; return the new multiplicity.

        Creates the entry and its index postings when the old multiplicity
        was zero, removes them when the new one is. ``new == m`` therefore
        signals a created entry and ``new == 0`` a destroyed one.
        """
        if len(t) != self.arity:
            raise SchemaError(f"arity {len(t)} tuple in arity {self.arity} relation")
        if m == 0:
            raise ValueError("updates must carry a nonzero multiplicity")
        entries = self.entries
        old = entries.get(t, 0)
        new = old + m
        if new == 0:
            del entries[t]
            for spec, idx in self.indexes.items():
                k = t[spec[0]] if len(spec) == 1 else tuple(t[p] for p in spec)
                posts = idx[k]
                posts.discard(t)
                if not posts:
                    del idx[k]
        else:
            entries[t] = new
            if old == 0:
                for spec, idx in self.indexes.items():
                    k = t[spec[0]] if len(spec) == 1 else tuple(t[p] for p in spec)
                    posts = idx.get(k)
                    if posts is None:
                        idx[k] = {t}
                    else:
                        posts.add(t)
        return new

    def _index_for(self, var) -> dict:
        spec = (var,) if isinstance(var, int) else tuple(var)
        try:
            return self.indexes[spec]
        except KeyError:
            raise UnindexedVariable(f"no index on variable(s) {spec}") from None

    def matching(self, var, key) -> Iterator[tuple[tuple, int]]:
        """Constant-delay stream of ``(tuple, multiplicity)`` with ``var = key``."""
        entries = self.entries
        for t in self._index_for(var).get(key, ()):
            yield t, entries[t]

    def degree(self, var, key) -> int:
        """``|sigma_{var=key}|`` in constant time."""
        return len(self._index_for(var).get(key, ()))

    def has_key(self, var, key) -> bool:
        return key in self._index_for(var)

    def keys(self, var):
        """The distinct values of ``var`` present in the relation."""
        return self._index_for(var).keys()

    def postings(self, var, key):
        """The live posting set for ``key`` (empty tuple when absent)."""
        return self._index_for(var).get(key, ())

    def items(self):
        return self.entries.items()

    def check_consistency(self) -> None:
        """Assert structural invariants; used by tests, not hot paths."""
        for t, m in self.entries.items():
            assert m != 0, f"zero multiplicity stored for {t}"
            assert len(t) == self.arity
        for spec, idx in self.indexes.items():
            count = 0
            for key, posts in idx.items():
                assert posts, f"empty posting set for {key}"
                for t in posts:
                    assert t in self.entries, f"dangling posting {t}"
                    assert _index_key(t, spec) == key
                count += len(posts)
            assert count == len(self.entries), f"index {spec} covers {count} entries"


class Partition:
    """Heavy/light split of a relation keyed by the degree of one variable.

    The heavy part holds every tuple whose partition-key degree is high,
    the light part the rest; a key never appears on both sides. Between
    rebalances the sides are allowed to drift inside the loose bounds
    (heavy keys stay at or above half the threshold, light keys below one
    and a half times it).
    """

    __slots__ = ("heavy", "light", "part_spec", "theta")

    def __init__(self, arity: int, part_spec: tuple[int, ...] = IDX0,
                 theta: float = 1.0,
                 index_specs: Iterable[tuple[int, ...]] | None = None):
        specs = tuple(index_specs) if index_specs is not None else None
        self.heavy = Relation(arity, specs)
        self.light = Relation(arity, specs)
        self.part_spec = tuple(part_spec)
        self.theta = float(theta)

    def side(self, label: str) -> Relation:
        return self.heavy if label == HEAVY else self.light

    def sides(self):
        return ((HEAVY, self.heavy), (LIGHT, self.light))

    def route(self, key, force_heavy: bool = False) -> str:
        """Destination side for an update carrying ``key``.

        Heavy when the key is already present in the heavy side's key
        projection or when ``force_heavy`` pins every tuple heavy;
        light otherwise.
        """
        if force_heavy or key in self.heavy.indexes[self.part_spec]:
            return HEAVY
        return LIGHT

    def degree(self, label: str, key) -> int:
        return len(self.side(label).indexes[self.part_spec].get(key, ()))

    def multiplicity(self, t: tuple) -> int:
        return self.heavy.entries.get(t, 0) + self.light.entries.get(t, 0)

    def minor_check(self, engine, i: int, t: tuple, theta: float) -> None:
        """Rebalance the partition key of ``t`` if it left its loose bound.

        A light key at or above one and a half times ``theta`` moves heavy,
        a heavy key below half of it moves light, through
        ``engine.minor_rebalance`` for relation ``i``. The engines partition
        on one variable, so the key is a single value of ``t``.
        """
        spec = self.part_spec
        key = t[spec[0]]
        if len(self.light.indexes[spec].get(key, ())) >= 1.5 * theta:
            engine.minor_rebalance(i, key, PROMOTE, spec)
        elif 0 < len(self.heavy.indexes[spec].get(key, ())) < 0.5 * theta:
            engine.minor_rebalance(i, key, DEMOTE, spec)

    def move_key(self, key, src_label: str, sink: Callable[[tuple, int], None],
                 spec: tuple[int, ...] | None = None) -> int:
        """Move every tuple carrying ``key`` out of one side.

        Each tuple is handed to ``sink(t, m)`` exactly once; the sink is
        expected to delete it from the source side and insert it into the
        other side (typically through an engine's update procedure so that
        materialized views stay exact). ``spec`` names the index the key is
        looked up in, the partition key by default. Returns the number of
        moved tuples.
        """
        src = self.side(src_label)
        posts = src.indexes[self.part_spec if spec is None else spec].get(key)
        if not posts:
            return 0
        moved = 0
        for t in list(posts):
            sink(t, src.entries[t])
            moved += 1
        return moved

    def _relocate(self, key, src: Relation, dst: Relation) -> int:
        posts = src.indexes[self.part_spec].get(key)
        if not posts:
            return 0
        moved = 0
        for t in list(posts):
            m = src.entries[t]
            src.upsert(t, -m)
            dst.upsert(t, m)
            moved += 1
        return moved

    def restrict(self, theta: float) -> int:
        """Re-establish the strict split for ``theta``; return tuples moved.

        Strictness is decided on whole-relation degrees, which coincide
        with per-side degrees because a key lives on exactly one side.
        """
        self.theta = float(theta)
        h_idx = self.heavy.indexes[self.part_spec]
        l_idx = self.light.indexes[self.part_spec]
        demote = [k for k, posts in h_idx.items() if len(posts) < theta]
        promote = [k for k, posts in l_idx.items() if len(posts) >= theta]
        moved = 0
        for k in demote:
            moved += self._relocate(k, self.heavy, self.light)
        for k in promote:
            moved += self._relocate(k, self.light, self.heavy)
        return moved

    def total_size(self) -> int:
        return len(self.heavy.entries) + len(self.light.entries)

    def violations(self, theta: float | None = None, strict: bool = False) -> list[str]:
        """Scan for broken partition conditions; empty list means healthy."""
        theta = self.theta if theta is None else theta
        out = []
        h_idx = self.heavy.indexes[self.part_spec]
        l_idx = self.light.indexes[self.part_spec]
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


def strict_partition(relation: Relation, part_vars, theta: float,
                     index_specs: Iterable[tuple[int, ...]] | None = None) -> Partition:
    """Strictly split ``relation`` on ``part_vars`` in one linear pass.

    Keys with degree at or above ``theta`` land heavy, all others light.
    """
    if theta <= 0:
        raise ValueError("threshold must be positive")
    spec = (part_vars,) if isinstance(part_vars, int) else tuple(part_vars)
    if index_specs is None:
        index_specs = relation.indexes.keys()
    part = Partition(relation.arity, spec, theta, index_specs)
    idx = relation._index_for(spec)
    entries = relation.entries
    for key, posts in idx.items():
        dest = part.heavy if len(posts) >= theta else part.light
        for t in posts:
            dest.upsert(t, entries[t])
    return part


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

    __slots__ = ("parts", "theta")

    def __init__(self, theta: float = 1.0):
        self.parts: dict[str, Relation] = {lab: Relation(2) for lab in QUAD_LABELS}
        self.theta = float(theta)

    def route(self, t: tuple, force_heavy: bool = False) -> str:
        """Destination part by the current status of each key.

        A value is heavy when it appears in the key projection of a part
        that is heavy on its variable; absent values count light. Keys
        change status only through rebalancing, so routing by status keeps
        the per-variable domain partitions intact.
        """
        if force_heavy:
            return "hh"
        a, b = t[0], t[1]
        a_heavy = (a in self.parts["hl"].indexes[IDX0]
                   or a in self.parts["hh"].indexes[IDX0])
        b_heavy = (b in self.parts["lh"].indexes[IDX1]
                   or b in self.parts["hh"].indexes[IDX1])
        return (HEAVY if a_heavy else LIGHT) + (HEAVY if b_heavy else LIGHT)

    def pair_degree(self, var: int, key, lab_a: str, lab_b: str) -> int:
        spec = (var,)
        return (len(self.parts[lab_a].indexes[spec].get(key, ()))
                + len(self.parts[lab_b].indexes[spec].get(key, ())))

    def multiplicity(self, t: tuple) -> int:
        return sum(p.entries.get(t, 0) for p in self.parts.values())

    def minor_check(self, engine, i: int, t: tuple, theta: float) -> None:
        """Rebalance each variable of ``t`` whose key left its loose bound.

        The first variable is checked first; the second is checked against
        the state the first rebalance left, so one update can fire two.
        """
        self._minor_check_var(engine, i, t[0], theta, _QUAD_DRIFT[0])
        self._minor_check_var(engine, i, t[1], theta, _QUAD_DRIFT[1])

    def _minor_check_var(self, engine, i: int, key, theta: float, drift) -> None:
        spec, (la, lb), (ha, hb), promote, demote = drift
        parts = self.parts
        if (len(parts[la].indexes[spec].get(key, ()))
                + len(parts[lb].indexes[spec].get(key, ()))) >= 1.5 * theta:
            engine.minor_rebalance(i, key, promote, spec)
        elif 0 < (len(parts[ha].indexes[spec].get(key, ()))
                  + len(parts[hb].indexes[spec].get(key, ()))) < 0.5 * theta:
            engine.minor_rebalance(i, key, demote, spec)

    def move_key(self, key, src_label: str, sink: Callable[[tuple, int], None],
                 spec: tuple[int, ...]) -> int:
        """Move every tuple whose ``spec`` key is ``key`` out of one part.

        Works as ``Partition.move_key`` does; returns the number of moved
        tuples.
        """
        src = self.parts[src_label]
        posts = src.indexes[spec].get(key)
        if not posts:
            return 0
        batch = list(posts)
        for t in batch:
            sink(t, src.entries[t])
        return len(batch)

    def restrict(self, theta: float) -> int:
        """Strictly reassign every tuple by whole-relation degrees."""
        self.theta = float(theta)
        deg0: dict = {}
        deg1: dict = {}
        for rel in self.parts.values():
            for key, posts in rel.indexes[IDX0].items():
                deg0[key] = deg0.get(key, 0) + len(posts)
            for key, posts in rel.indexes[IDX1].items():
                deg1[key] = deg1.get(key, 0) + len(posts)
        moved = 0
        for lab in QUAD_LABELS:
            rel = self.parts[lab]
            for t in list(rel.entries):
                target = (HEAVY if deg0[t[0]] >= theta else LIGHT) + \
                         (HEAVY if deg1[t[1]] >= theta else LIGHT)
                if target != lab:
                    m = rel.entries[t]
                    rel.upsert(t, -m)
                    self.parts[target].upsert(t, m)
                    moved += 1
        return moved

    def total_size(self) -> int:
        return sum(len(rel.entries) for rel in self.parts.values())

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


def quad_partition_strict(relation: Relation, theta: float) -> QuadPartition:
    """Strict two-variable split of a binary relation."""
    if theta <= 0:
        raise ValueError("threshold must be positive")
    quad = QuadPartition(theta)
    idx0 = relation._index_for(0)
    idx1 = relation._index_for(1)
    for t, m in relation.entries.items():
        lab = (HEAVY if len(idx0[t[0]]) >= theta else LIGHT) + \
              (HEAVY if len(idx1[t[1]]) >= theta else LIGHT)
        quad.parts[lab].upsert(t, m)
    return quad


def bump(d: dict, key, delta: int) -> int:
    """Z-ring add into a plain dict view; drops the key on cancellation."""
    nv = d.get(key, 0) + delta
    if nv:
        d[key] = nv
    else:
        d.pop(key, None)
    return nv
