"""Ground-truth layer: brute-force counts, trackers, reduction harness."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from skewivm.oracle import (LWTracker, OuMvInstance, Path4Tracker,
                            SelfJoinTracker, TriangleTracker,
                            brute_force_enumerate, brute_force_lw,
                            brute_force_path4, brute_force_selfjoin,
                            brute_force_triangle, lw_schemas, oumv_direct,
                            solve_oumv_via_engine)
from skewivm.triangle import TriangleEngine

from helpers import lw_stream, mixed_stream, path4_stream


class TestBruteForce:
    def test_single_witness(self):
        assert brute_force_triangle({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}) == 1

    def test_missing_edge(self):
        assert brute_force_triangle({(1, 2): 1}, {(2, 3): 1}, {}) == 0

    def test_ring_product_of_multiplicities(self):
        assert brute_force_triangle({(1, 2): 2}, {(2, 3): 3}, {(3, 1): -1}) == -6

    def test_enumerate_matches_count(self):
        rng = random.Random(3)
        r = {(rng.randrange(6), rng.randrange(6)): rng.choice((-1, 1, 2)) for _ in range(25)}
        s = {(rng.randrange(6), rng.randrange(6)): rng.choice((-1, 1, 2)) for _ in range(25)}
        t = {(rng.randrange(6), rng.randrange(6)): rng.choice((-1, 1, 2)) for _ in range(25)}
        listing = brute_force_enumerate(r, s, t)
        assert sum(listing.values()) == brute_force_triangle(r, s, t)
        assert all(m != 0 for m in listing.values())

    def test_lw_degree_3_equals_triangle(self):
        r = {(1, 2): 2}
        s = {(2, 3): 1}
        t = {(3, 1): 4}
        assert brute_force_lw([r, s, t], 3) == brute_force_triangle(r, s, t)

    def test_lw_schemas_shape(self):
        assert lw_schemas(4) == [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]


class TestTrackersAgainstBruteForce:
    def test_triangle_tracker(self):
        trk = TriangleTracker()
        for rel, t, m in mixed_stream(21, 600, 9):
            trk.update(rel, t, m)
            if trk.count != brute_force_triangle(*(dict(r) for r in trk.rels)):
                raise AssertionError("tracker drifted from brute force")

    def test_selfjoin_tracker(self):
        trk = SelfJoinTracker()
        rng = random.Random(5)
        for step in range(500):
            t = (rng.randrange(7), rng.randrange(7))
            trk.update("R", t, rng.choice((-2, -1, 1, 2)))
            if step % 23 == 0:
                assert trk.count == brute_force_selfjoin(dict(trk.rel))
        assert trk.count == brute_force_selfjoin(dict(trk.rel))

    def test_path4_tracker(self):
        trk = Path4Tracker()
        for rel, t, m in path4_stream(31, 500, 7):
            trk.update(rel, t, m)
        assert trk.count == brute_force_path4(trk.r, trk.s, trk.t, trk.u)

    def test_lw_tracker(self):
        for n in (3, 4, 5):
            trk = LWTracker(n)
            for i, t, m in lw_stream(41, 300, 4, n):
                trk.update(i, t, m)
            assert trk.count == brute_force_lw([dict(r) for r in trk.rels], n)

    def test_lw_tracker_takes_names_or_positions(self):
        by_position, by_name = LWTracker(4), LWTracker(4)
        for i, t, m in lw_stream(43, 300, 4, 4):
            by_position.update(i, t, m)
            by_name.update(f"R{i + 1}", t, m)
        assert by_name.count == by_position.count != 0
        assert by_name.rels == by_position.rels


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 4),
                          st.sampled_from((-2, -1, 1, 2))), max_size=50))
def test_triangle_tracker_property(ops):
    trk = TriangleTracker()
    for rel, a, b, m in ops:
        trk.update(rel, (a, b), m)
    assert trk.count == brute_force_triangle(*(dict(r) for r in trk.rels))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.sampled_from((-2, -1, 1, 2))), max_size=50))
def test_selfjoin_tracker_property(ops):
    trk = SelfJoinTracker()
    for a, b, m in ops:
        trk.update("R", (a, b), m)
    assert trk.count == brute_force_selfjoin(dict(trk.rel))


class TestOuMvHarness:
    def test_identity_hit(self):
        inst = OuMvInstance(2, [[1, 0], [0, 1]], [([1, 0], [1, 0])])
        assert oumv_direct(inst) == [1]
        bits = solve_oumv_via_engine(inst, lambda: TriangleEngine(0.5))
        assert bits == [1]

    def test_identity_miss(self):
        inst = OuMvInstance(2, [[1, 0], [0, 1]], [([1, 0], [0, 1])])
        assert oumv_direct(inst) == [0]
        bits = solve_oumv_via_engine(inst, lambda: TriangleEngine(0.5))
        assert bits == [0]

    def test_random_instance_matches_direct(self):
        rng = random.Random(17)
        inst = OuMvInstance.random(16, rng)
        bits = solve_oumv_via_engine(inst, lambda: TriangleEngine(0.5))
        assert bits == oumv_direct(inst)

    def test_zero_deltas_are_skipped(self):
        # repeating the same vector pair must not emit zero-multiplicity updates
        inst = OuMvInstance(3, [[0, 1, 0]] * 3, [([1, 1, 0], [0, 1, 1])] * 3)
        bits = solve_oumv_via_engine(inst, lambda: TriangleEngine(0.0))
        assert bits == oumv_direct(inst)
