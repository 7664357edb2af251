"""Storage layer: Z-ring entries, indexes, degree-threshold partitioning."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewivm.relation import HEAVY, LIGHT, Partition, QuadPartition, Relation, SchemaError

from helpers import degree, keys, matching, settle


# the triangle's layout: the heavy part also indexes variable 1
SPECS = {HEAVY: ((1,),), LIGHT: ()}
# the layout of LWEngine(4)'s arity-3 partitions
SPECS3 = {HEAVY: ((1, 2),), LIGHT: ((0, 1), (0, 2))}


def rel_of(pairs: dict) -> Relation:
    r = Relation(2)
    for t, m in pairs.items():
        r.upsert(t, m)
    return r


def strict(rows: dict, theta, tall_at=None) -> Partition:
    """A partition on variable 0 loaded strictly for ``theta``.

    Its watermark's mark is ``tall_at``, by default ``theta`` rounded up;
    a later ``restrict`` to a lower threshold needs a mark no higher than
    that threshold rounded up.
    """
    p = Partition(2, SPECS)
    p.load(rows, theta, math.ceil(theta) if tall_at is None else tall_at)
    return p


def strict_quad(rows: dict, theta, tall_at=None) -> QuadPartition:
    quad = QuadPartition()
    quad.load(rows, theta, math.ceil(theta) if tall_at is None else tall_at)
    return quad


class TestUpsert:
    def test_insert_into_empty(self):
        r = Relation(2)
        assert r.upsert((1, 2), 1) == 1
        assert r.size() == 1

    def test_exact_cancellation_clears_entry_and_postings(self):
        r = rel_of({(1, 2): 1})
        assert r.upsert((1, 2), -1) == 0
        assert r.size() == 0
        assert not r.indexes[(0,)] and not r.indexes[(1,)]

    def test_negative_multiplicities_are_legal(self):
        r = rel_of({(1, 2): 1})
        assert r.upsert((1, 2), -3) == -2
        assert r.size() == 1
        assert r.get((1, 2)) == -2

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            Relation(2).upsert((1, 2, 3), 1)

    def test_zero_delta_rejected(self):
        r = rel_of({(1, 2): 1})
        with pytest.raises(SchemaError):
            r.upsert((1, 2), 0)
        assert dict(r.items()) == {(1, 2): 1}

    def test_multiplicity_that_is_not_an_int_rejected(self):
        r = rel_of({(1, 2): 1})
        for m in (1.5, 1.0, True, None):
            with pytest.raises(SchemaError):
                r.upsert((1, 2), m)
            with pytest.raises(SchemaError):
                r.upsert((3, 4), m)
        assert dict(r.items()) == {(1, 2): 1} and r.size() == 1
        r.check_consistency()


class TestMatching:
    def test_selects_exactly_the_matching_entries(self):
        r = rel_of({(1, 2): 1, (1, 3): 2, (4, 5): 1})
        assert dict(matching(r, 0, 1)) == {(1, 2): 1, (1, 3): 2}

    def test_absent_key_yields_nothing(self):
        r = rel_of({(1, 2): 1})
        assert list(matching(r, 0, 99)) == []

    def test_index_coherent_after_cancellation(self):
        r = rel_of({(1, 2): 1, (1, 3): 2})
        r.upsert((1, 2), -1)
        assert dict(matching(r, 0, 1)) == {(1, 3): 2}

    def test_unindexed_variable(self):
        r = Relation(2, index_specs=((0,),))
        r.upsert((1, 2), 1)
        with pytest.raises(KeyError):
            list(matching(r, 1, 2))


class TestFreePartLayout:
    """A posting map is keyed by the value its index leaves free, or by the whole tuple."""

    ROWS2 = {(1, 2): 3, (4, 2): -1, (1, 5): 2}
    ROWS3 = {(1, 2, 3): 1, (1, 4, 3): 2, (5, 2, 3): -1, (5, 2, 6): 4}

    @staticmethod
    def _of(rel: Relation, rows: dict) -> Relation:
        for t, m in rows.items():
            rel.upsert(t, m)
        return rel

    def test_binary_relation_with_its_lookup_on_variable_1(self):
        r = self._of(Relation(2, [(1,), (0,)]), self.ROWS2)
        assert r.indexes[(1,)] == {2: {1: 3, 4: -1}, 5: {1: 2}}
        assert r.indexes[(0,)] == {1: {2: 3, 5: 2}, 4: {2: -1}}
        # grouped by the lookup key, variable 1
        assert list(r.items()) == [((1, 2), 3), ((4, 2), -1), ((1, 5), 2)]
        assert all(r.get(t) == m for t, m in self.ROWS2.items())
        assert r.get((2, 1)) == 0 and r.get((1, 9)) == 0
        r.check_consistency()
        assert r.upsert((4, 2), 1) == 0
        assert r.indexes[(1,)] == {2: {1: 3}, 5: {1: 2}}
        assert r.indexes[(0,)] == {1: {2: 3, 5: 2}}
        r.check_consistency()

    def test_arity_three_pair_index_by_value_single_index_by_tuple(self):
        r = self._of(Relation(3, [(0,), (0, 2)]), self.ROWS3)
        # the lookup index leaves two positions out: postings keyed by the tuple
        assert r.indexes[(0,)] == {1: {(1, 2, 3): 1, (1, 4, 3): 2},
                                   5: {(5, 2, 3): -1, (5, 2, 6): 4}}
        # the pair index leaves position 1 out: postings keyed by its value
        assert r.indexes[(0, 2)] == {(1, 3): {2: 1, 4: 2}, (5, 3): {2: -1}, (5, 6): {2: 4}}
        assert dict(r.items()) == self.ROWS3
        assert all(r.get(t) == m for t, m in self.ROWS3.items()) and r.get((1, 2, 6)) == 0
        r.check_consistency()
        assert r.upsert((1, 4, 3), -2) == 0 and r.upsert((5, 2, 3), 3) == 2
        assert r.indexes[(0, 2)] == {(1, 3): {2: 1}, (5, 3): {2: 2}, (5, 6): {2: 4}}
        r.check_consistency()

    def test_pair_index_out_of_variable_order_leaves_position_0(self):
        r = self._of(Relation(3, [(1,), (2, 1)]), self.ROWS3)
        assert r.indexes[(2, 1)] == {(3, 2): {1: 1, 5: -1}, (3, 4): {1: 2}, (6, 2): {5: 4}}
        assert dict(r.items()) == self.ROWS3
        r.check_consistency()

    def test_fill_builds_what_upserts_build_in_the_same_order(self):
        for arity, specs, rows in ((2, [(1,), (0,)], self.ROWS2),
                                   (3, [(0,), (0, 2), (1,)], self.ROWS3)):
            filled = Relation(arity, specs)
            filled.fill(list(rows), list(rows.values()))
            upserted = self._of(Relation(arity, specs), rows)
            for spec in filled.indexes:
                got, want = filled.indexes[spec], upserted.indexes[spec]
                assert got == want and list(got) == list(want)
                assert [list(p) for p in got.values()] == [list(p) for p in want.values()]
            assert len(filled) == len(rows)
            filled.check_consistency()
        with pytest.raises(ValueError):
            filled.fill([(9, 9, 9)], [1])

    def test_check_consistency_refuses_a_posting_under_the_wrong_key(self):
        r = self._of(Relation(2), self.ROWS2)
        del r.indexes[(1,)][5][1]
        r.indexes[(1,)][5][9] = 2  # stands for (9, 5), which the lookup index lacks
        with pytest.raises(AssertionError):
            r.check_consistency()

    def test_move_key_hands_over_whole_tuples(self):
        def mover(part, seen):
            def move(src, dst, t, m):
                seen.append(t)
                part.parts[src].upsert(t, -m)
                part.parts[dst].upsert(t, m)
            return move

        # a binary split on variable 0, a quad split moving a key on
        # variable 1, and an arity-3 split whose lookup postings are tuples
        binary = strict(self.ROWS2, 10)
        quad = strict_quad(self.ROWS2, 10)
        triple = Partition(3, {HEAVY: ((0, 2),), LIGHT: ((0, 2),)})
        triple.load(self.ROWS3, 10, 10)
        for part, key, rows in ((binary, (0, 1), self.ROWS2), (quad, (1, 2), self.ROWS2),
                                (triple, (0, 5), self.ROWS3)):
            seen: list = []
            part.moving[key] = HEAVY
            assert part.move_key(key, 10, mover(part, seen)) == len(seen) > 0
            var, value = key
            assert sorted(seen) == sorted(t for t in rows if t[var] == value)
            assert {t: m for rel in part.parts.values() for t, m in rel.items()} == rows
            for rel in part.parts.values():
                rel.check_consistency()


class TestStrictPartition:
    def test_degree_at_threshold_goes_heavy(self):
        p = strict({(1, b): 1 for b in (1, 2, 3)}, 2)
        assert p.heavy.size() == 3 and p.light.size() == 0

    def test_below_threshold_goes_light(self):
        p = strict({(1, b): 1 for b in (1, 2, 3)}, 5)
        assert p.light.size() == 3 and p.heavy.size() == 0

    def test_mixed_degrees_split(self):
        p = strict({(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 9): 1}, 2)
        assert set(keys(p.heavy, 0)) == {1}
        assert set(keys(p.light, 0)) == {2}
        assert not p.violations(2, strict=True)

    def test_union_is_preserved(self):
        rng = random.Random(5)
        pairs = {}
        for _ in range(300):
            t = (rng.randrange(12), rng.randrange(12))
            pairs[t] = pairs.get(t, 0) + rng.choice((-2, 1, 3))
        pairs = {t: m for t, m in pairs.items() if m}
        p = strict(pairs, 3.5)
        merged = dict(p.heavy.items())
        for t, m in p.light.items():
            assert t not in merged
            merged[t] = m
        assert merged == pairs


class TestRoute:
    def test_key_in_heavy_routes_heavy(self):
        p = strict({(1, b): 1 for b in range(4)}, 2)
        assert p.route((1, 9)) == HEAVY

    def test_absent_key_routes_light(self):
        p = Partition(2, SPECS)
        assert p.route((42, 1)) == LIGHT

    def test_force_heavy_overrides(self):
        p = Partition(2, SPECS)
        assert p.route((42, 1), force_heavy=True) == HEAVY

    def test_idempotent_and_consistent_with_projection(self):
        p = strict({(1, 0): 1, (1, 1): 1, (2, 0): 1}, 2)
        for key in (1, 2, 3):
            assert p.route((key, 0)) == p.route((key, 5))
        for key in keys(p.heavy, 0):
            assert p.route((key, 0)) == HEAVY


class TestMoveKey:
    def _make(self, arity=2):
        p = Partition(arity, SPECS if arity == 2 else SPECS3)
        for b, m in ((1, 1), (2, -2), (3, 1)):
            p.light.upsert(self._tuple(arity, b), m)

        def move(src, dst, t, m):
            p.parts[src].upsert(t, -m)
            p.parts[dst].upsert(t, m)
        return p, move

    @staticmethod
    def _tuple(arity, b):
        """Key 7's tuple ``(7, b)``, or on arity 3 ``(7, b, b + 10)``."""
        return (7, b, b + 10)[:arity]

    def test_moves_all_and_reports_count(self):
        p, move = self._make()
        p.moving[0, 7] = HEAVY
        assert p.move_key((0, 7), 10, move) == 3
        assert p.light.size() == 0
        assert p.heavy.size() == 3
        assert not p.moving

    def test_budget_bounds_each_call(self):
        for arity in (2, 3):
            p, move = self._make(arity)
            p.moving[0, 7] = HEAVY
            assert p.move_key((0, 7), 2, move) == 2
            assert p.moving == {(0, 7): HEAVY}
            # a stored tuple stays in its part, a new one goes where its key is bound
            assert p.route(self._tuple(arity, 1)) == HEAVY
            assert p.route(self._tuple(arity, 3)) == LIGHT
            assert p.route(self._tuple(arity, 9)) == HEAVY
            assert p.move_key((0, 7), 2, move) == 1
            assert not p.moving

    def test_absent_key_is_noop(self):
        p, move = self._make()
        p.moving[0, 99] = HEAVY
        assert p.move_key((0, 99), 5, move) == 0
        assert not p.moving

    def test_multiplicities_survive_tuple_by_tuple(self):
        p, move = self._make()
        p.moving[0, 7] = HEAVY
        p.move_key((0, 7), 10, move)
        assert p.heavy.get((7, 2)) == -2

    def test_round_trip_restores_partition(self):
        p, move = self._make()
        before = (dict(p.heavy.items()), dict(p.light.items()))
        p.moving[0, 7] = HEAVY
        p.move_key((0, 7), 10, move)
        p.moving[0, 7] = LIGHT
        p.move_key((0, 7), 10, move)
        assert (dict(p.heavy.items()), dict(p.light.items())) == before


def test_random_sequence_keeps_structure_consistent():
    # long mixed run: no zero entries, postings alive, degrees recount
    rng = random.Random(99)
    r = Relation(2)
    shadow = {}
    for step in range(2000):
        t = (rng.randrange(32), rng.randrange(32))
        m = rng.choice((-2, -1, 1, 2))
        r.upsert(t, m)
        nv = shadow.get(t, 0) + m
        if nv:
            shadow[t] = nv
        else:
            del shadow[t]
        if step % 50 == 0:
            r.check_consistency()
            assert dict(r.items()) == shadow
            for x in set(a for a, _ in shadow):
                recount = sum(1 for (a, _b) in shadow if a == x)
                assert degree(r, 0, x) == recount
    r.check_consistency()
    assert dict(r.items()) == shadow


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.sampled_from((-2, -1, 1, 2))), max_size=60))
def test_upsert_agrees_with_plain_accumulation(ops):
    r = Relation(2)
    shadow = {}
    for a, b, m in ops:
        r.upsert((a, b), m)
        nv = shadow.get((a, b), 0) + m
        if nv:
            shadow[(a, b)] = nv
        else:
            del shadow[(a, b)]
    assert dict(r.items()) == shadow
    r.check_consistency()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40),
       st.floats(0.5, 6.0))
def test_strict_partition_conditions_hold(pairs, theta):
    r = Relation(2)
    for t in pairs:
        r.upsert(t, 1)
    p = strict(dict(r.items()), theta)
    assert not p.violations(theta, strict=True)
    assert p.total_size() == r.size()


class TestQuadPartition:
    def test_strict_assignment_on_both_variables(self):
        quad = strict_quad({(1, 5): 1, (1, 6): 1, (1, 7): 1,
                            (2, 5): 1, (3, 5): 1, (4, 9): 1}, 3)
        # degree(1)=3 heavy on A; degree(5)=3 heavy on B
        assert quad.parts["hh"].get((1, 5))
        assert quad.parts["hl"].get((1, 6))
        assert quad.parts["lh"].get((2, 5))
        assert quad.parts["ll"].get((4, 9))
        assert not quad.violations(3)

    def test_route_by_key_status(self):
        quad = strict_quad({(1, 5): 1, (1, 6): 1, (1, 7): 1, (2, 5): 1, (3, 5): 1}, 3)
        assert quad.route((1, 5)) == "hh"
        assert quad.route((1, 99)) == "hl"
        assert quad.route((99, 5)) == "lh"
        assert quad.route((98, 99)) == "ll"
        assert quad.route((98, 99), force_heavy=True) == "hh"

    def test_route_with_keys_in_transit(self):
        # heavy at 3: keys 1 and 2 on variable 0, keys 5 and 8 on variable 1
        rows = {(1, 5): 1, (1, 6): 1, (1, 7): 1, (2, 5): 1, (2, 8): 1, (2, 9): 1,
                (3, 5): 1, (3, 8): 1, (4, 8): 1}
        # per transit: stored tuples, which keep their part, and new tuples,
        # which take the bound status of a key in transit and the current
        # status of the other key
        cases = [
            ({(0, 1): LIGHT}, {(1, 5): "hh", (1, 6): "hl", (2, 9): "hl"},
             {(1, 8): "lh", (1, 99): "ll", (2, 99): "hl", (99, 5): "lh"}),
            ({(1, 8): LIGHT}, {(2, 8): "hh", (3, 8): "lh", (2, 5): "hh"},
             {(1, 8): "hl", (6, 8): "ll", (1, 99): "hl", (6, 5): "lh"}),
            ({(0, 3): HEAVY, (1, 6): HEAVY}, {(3, 5): "lh", (1, 6): "hl", (3, 8): "lh"},
             {(3, 6): "hh", (3, 7): "hl", (9, 6): "lh", (2, 6): "hh", (9, 9): "ll"}),
            ({(0, 1): LIGHT, (1, 5): LIGHT}, {(1, 5): "hh", (2, 5): "hh", (3, 5): "lh"},
             {(1, 9): "ll", (2, 7): "hl", (4, 5): "ll"}),
        ]
        for moving, stored, new in cases:
            quad = strict_quad(rows, 3)
            quad.moving.update(moving)
            for t, lab in {**stored, **new}.items():
                assert bool(quad.parts[lab].get(t)) == (t in stored), (moving, t)
                assert quad.route(t) == lab, (moving, t)

    def test_restrict_reassigns_everything(self):
        # everything starts light on both variables, every key recorded at
        # a mark below the lower threshold
        rng = random.Random(3)
        rows: dict = {}
        for _ in range(200):
            t = (rng.randrange(6), rng.randrange(6))
            rows[t] = rows.get(t, 0) + 1
        quad = strict_quad(rows, 1000, 4)
        assert len(quad.parts["ll"]) == len(rows)

        def move(src, dst, t, m):
            quad.parts[src].upsert(t, -m)
            quad.parts[dst].upsert(t, m)

        quad.restrict(4, 4)
        assert quad.moving
        settle(quad, move)
        assert not quad.moving
        assert not quad.violations(4, strict=True)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                       st.sampled_from((-2, -1, 1, 3)), max_size=40),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.sampled_from((-1, 1, 2))), max_size=30),
       st.sampled_from((1, 2, 3, 5)), st.sampled_from((0.5, 1.5, 2, 3, 4.5, 6)), st.booleans())
def test_quad_restrict_moves_each_changed_tuple_once(rows, updates, theta0, theta, lower):
    """A major restrict moves exactly the tuples whose strict part changed.

    The parts start strict for ``theta0`` and take routed updates with
    their minor checks, as an engine's do (a queued minor moves at once
    here); then ``restrict(theta)`` and the moves of the keys it puts in
    transit must hand every tuple whose part under the strict split for
    ``theta`` differs to ``move`` once, from its current part to that one,
    and leave the parts strict. The watermark's mark is the lower
    threshold rounded up, as the engine sets it for the next halving, so
    a ``theta`` that rounds up to no less than ``theta0`` reads only the
    light keys the watermark recorded. The restrict's own mark is
    ``theta`` rounded up or, when ``lower``, 1, below the mark in place:
    then it copies the light keys for ``sweep``, and the split must still
    report no unrecorded key.
    """
    quad = strict_quad({t: m for t, m in rows.items() if m}, theta0,
                       math.ceil(min(theta0, theta)))

    def shift(src, dst, t, m):
        quad.parts[src].upsert(t, -m)
        quad.parts[dst].upsert(t, m)

    class Kernel:
        def minor_rebalance(self, i, key):
            quad.move_key(key, sys.maxsize, shift)

    for a, b, m in updates:
        lab = quad.route((a, b))
        new = quad.parts[lab].upsert((a, b), m)
        if new in (m, 0):
            quad.minor_check(Kernel(), 0, (a, b), lab, new == m, theta0)
    where = {t: lab for lab, rel in quad.parts.items() for t, _ in rel.items()}
    union = {t: m for rel in quad.parts.values() for t, m in rel.items()}
    deg = [{}, {}]
    for t in union:
        for var in (0, 1):
            deg[var][t[var]] = deg[var].get(t[var], 0) + 1
    want = {t: (HEAVY if deg[0][t[0]] >= theta else LIGHT)
            + (HEAVY if deg[1][t[1]] >= theta else LIGHT) for t in union}
    seen = []

    def move(src, dst, t, m):
        seen.append((t, src, dst))
        assert m == union[t]
        quad.parts[src].upsert(t, -m)
        quad.parts[dst].upsert(t, m)

    quad.restrict(theta, 1 if lower else math.ceil(theta))
    moved = settle(quad, move)
    expected = {(t, where[t], want[t]) for t in union if where[t] != want[t]}
    assert moved == len(seen) == len(expected)
    assert set(seen) == expected
    assert not quad.violations(theta, strict=True)
    assert {t: m for rel in quad.parts.values() for t, m in rel.items()} == union


def test_partition_restrict_hands_moves_to_the_callback():
    part = strict({(1, 1): 1, (1, 2): 1, (2, 1): 1, (3, 1): 1, (3, 2): 1, (3, 3): 1}, 3, 2)
    seen = []

    def move(src, dst, t, m):
        seen.append((src, dst, t))
        part.parts[src].upsert(t, -m)
        part.parts[dst].upsert(t, m)

    assert part.restrict(2, 2) == 1 and part.moving == {(0, 1): HEAVY}
    assert seen == [] and settle(part, move) == 2
    assert sorted(seen) == [(LIGHT, HEAVY, (1, 1)), (LIGHT, HEAVY, (1, 2))]
    assert part.restrict(4, 2) == 2 and settle(part, move) == 5
    assert not part.violations(4, strict=True)
    assert len(part.heavy) == 0 and len(part.light) == 6



def test_restrict_turns_keys_in_transit_around():
    """A major takes keys in transit as they stand and judges them by their degree.

    Key 1 (degree 3, light at threshold 4) is bound heavy and key 2
    (degree 5, heavy) bound light, none of their tuples moved yet. At 4
    both turn around and keep their places; key 1, bound light at or
    above the mark 2, is recorded. At 2 key 1 turns heavy again, and key 3
    (degree 2, light and recorded) is the one key newly put in transit.
    """
    rows = {(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 2): 1, (2, 3): 1, (2, 4): 1,
            (2, 5): 1, (3, 1): 1, (3, 2): 1}
    part = strict(rows, 4, 2)
    part.moving.update({(0, 1): HEAVY, (0, 2): LIGHT})
    assert part.restrict(4, 2) == 0
    assert list(part.moving.items()) == [((0, 1), LIGHT), ((0, 2), HEAVY)]
    assert 1 in part.tall[0]

    def move(src, dst, t, m):
        part.parts[src].upsert(t, -m)
        part.parts[dst].upsert(t, m)

    assert part.restrict(2, 2) == 1
    assert list(part.moving.items()) == [((0, 1), HEAVY), ((0, 2), HEAVY), ((0, 3), HEAVY)]
    assert settle(part, move) == 5 and not part.violations(2, strict=True)
