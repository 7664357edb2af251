"""Storage layer: Z-ring entries, indexes, degree-threshold partitioning."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewivm.relation import (HEAVY, LIGHT, Partition, QuadPartition, Relation,
                              SchemaError, bump)

from helpers import degree, keys, matching, settle


def rel_of(pairs: dict) -> Relation:
    r = Relation(2)
    for t, m in pairs.items():
        r.upsert(t, m)
    return r


def strict(rows: dict, theta) -> Partition:
    """A partition on variable 0 loaded strictly for ``theta``."""
    p = Partition(2)
    p.load(rows, theta)
    return p


def strict_quad(rows: dict, theta) -> QuadPartition:
    quad = QuadPartition()
    quad.load(rows, theta)
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
        with pytest.raises(ValueError):
            Relation(2).upsert((1, 2), 0)


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
        assert not p.violations(strict=True)

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
        p = Partition(2)
        assert p.route((42, 1)) == LIGHT

    def test_force_heavy_overrides(self):
        p = Partition(2)
        assert p.route((42, 1), force_heavy=True) == HEAVY

    def test_idempotent_and_consistent_with_projection(self):
        p = strict({(1, 0): 1, (1, 1): 1, (2, 0): 1}, 2)
        for key in (1, 2, 3):
            assert p.route((key, 0)) == p.route((key, 5))
        for key in keys(p.heavy, 0):
            assert p.route((key, 0)) == HEAVY


class TestMoveKey:
    def _make(self):
        p = Partition(2)
        for b, m in ((1, 1), (2, -2), (3, 1)):
            p.light.upsert((7, b), m)

        def move(src, dst, t, m):
            p.parts[src].upsert(t, -m)
            p.parts[dst].upsert(t, m)
        return p, move

    def test_moves_all_and_reports_count(self):
        p, move = self._make()
        p.moving[0, 7] = HEAVY
        assert p.move_key((0, 7), 10, move) == 3
        assert p.light.size() == 0
        assert p.heavy.size() == 3
        assert not p.moving

    def test_budget_bounds_each_call(self):
        p, move = self._make()
        p.moving[0, 7] = HEAVY
        assert p.move_key((0, 7), 2, move) == 2
        assert p.moving == {(0, 7): HEAVY}
        assert p.route((7, 1)) == HEAVY and p.route((7, 3)) == LIGHT
        assert p.route((7, 9)) == HEAVY
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

    def test_restrict_reassigns_everything(self):
        # everything starts light on both variables; a lower threshold
        # checks every key
        rng = random.Random(3)
        rows: dict = {}
        for _ in range(200):
            t = (rng.randrange(6), rng.randrange(6))
            rows[t] = rows.get(t, 0) + 1
        quad = strict_quad(rows, 1000)
        assert len(quad.parts["ll"]) == len(rows)

        def move(src, dst, t, m):
            quad.parts[src].upsert(t, -m)
            quad.parts[dst].upsert(t, m)

        quad.restrict(4)
        assert quad.moving
        settle(quad, move)
        assert not quad.moving
        assert not quad.violations(4, strict=True)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                       st.sampled_from((-2, -1, 1, 3)), max_size=40),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.sampled_from((-1, 1, 2))), max_size=30),
       st.sampled_from((1, 2, 3, 5)), st.sampled_from((0.5, 1.5, 2, 3, 4.5, 6)))
def test_quad_restrict_moves_each_changed_tuple_once(rows, updates, theta0, theta):
    """A major restrict moves exactly the tuples whose strict part changed.

    The parts start strict for ``theta0`` and take routed updates with
    their minor checks, as an engine's do (a queued minor moves at once
    here); then ``restrict(theta)`` and the moves of the keys it puts in
    transit must hand every tuple whose part under the strict split for
    ``theta`` differs to ``move`` once, from its current part to that one,
    and leave the parts strict. A ``theta`` that rounds up to no less than
    ``theta0`` checks only the light keys the watermark recorded.
    """
    quad = strict_quad({t: m for t, m in rows.items() if m}, theta0)

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

    quad.restrict(theta)
    moved = settle(quad, move)
    expected = {(t, where[t], want[t]) for t in union if where[t] != want[t]}
    assert moved == len(seen) == len(expected)
    assert set(seen) == expected
    assert not quad.violations(theta, strict=True)
    assert {t: m for rel in quad.parts.values() for t, m in rel.items()} == union


def test_partition_restrict_hands_moves_to_the_callback():
    part = strict({(1, 1): 1, (1, 2): 1, (2, 1): 1, (3, 1): 1, (3, 2): 1, (3, 3): 1}, 3)
    seen = []

    def move(src, dst, t, m):
        seen.append((src, dst, t))
        part.parts[src].upsert(t, -m)
        part.parts[dst].upsert(t, m)

    assert part.restrict(2) == 1 and part.moving == {(0, 1): HEAVY}
    assert seen == [] and settle(part, move) == 2
    assert sorted(seen) == [(LIGHT, HEAVY, (1, 1)), (LIGHT, HEAVY, (1, 2))]
    assert part.restrict(4) == 2 and settle(part, move) == 5
    assert not part.violations(4, strict=True)
    assert len(part.heavy) == 0 and len(part.light) == 6


def test_bump_drops_cancelled_keys():
    d = {}
    bump(d, "k", 2)
    bump(d, "k", -2)
    assert d == {}
    bump(d, "k", -1)
    assert d == {"k": -1}
