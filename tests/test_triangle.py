"""Base engine: construction, update procedures, rebalancing, recovery modes."""

import random

import pytest

from skewivm.metrics import OpCounters
from skewivm.oracle import TriangleTracker, brute_force_triangle
from skewivm.triangle import EpsConfig, TriangleEngine, static_count

from helpers import apply_routed, degree, fresh_views, has_key, mixed_stream


def state_fingerprint(eng: TriangleEngine):
    parts = tuple((dict(p.heavy.items()), dict(p.light.items())) for p in eng.parts)
    return (eng.q, parts, tuple(dict(w) for w in eng.wedges))


class TestEpsConfig:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            EpsConfig(1.5, 0.0, 0.0)


class TestPreprocess:
    def test_empty_database(self):
        eng = TriangleEngine.preprocess({}, 0.5)
        assert eng.N == 1 and eng.answer() == 0 and eng.db_size == 0
        assert all(p.total_size() == 0 for p in eng.parts)

    def test_single_triangle(self):
        db = {"R": {(1, 2): 1}, "S": {(2, 3): 1}, "T": {(3, 1): 1}}
        eng = TriangleEngine.preprocess(db, 0.5)
        assert eng.N == 7
        assert eng.answer() == brute_force_triangle(db["R"], db["S"], db["T"]) == 1

    def test_disjoint_relations_count_zero(self):
        db = {"R": {(1, 2): 1, (4, 5): 2}, "S": {(8, 9): 1}, "T": {(6, 7): 3}}
        eng = TriangleEngine.preprocess(db, 0.5)
        assert eng.answer() == 0
        assert fresh_views(eng, ("wedges",)) == {"wedges": eng.wedges}

    def test_matches_brute_force_on_random_databases(self):
        rng = random.Random(2)
        for trial in range(15):
            db = {name: {(rng.randrange(9), rng.randrange(9)): rng.choice((-2, -1, 1, 2))
                         for _ in range(rng.randrange(4, 40))}
                  for name in ("R", "S", "T")}
            for eps in (0.0, 0.3, 0.5, 1.0):
                eng = TriangleEngine.preprocess(db, eps)
                assert eng.answer() == brute_force_triangle(db["R"], db["S"], db["T"])
                assert not eng.check_invariants(loose=False)


class TestApplyUpdate:
    def test_closing_edge_counts_the_triangle(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        eng.on_update("S", (2, 3), 1)
        eng.on_update("T", (3, 1), 1)
        assert eng.delta(0, (1, 2), 1) == 1
        eng.on_update("R", (1, 2), 1)
        assert eng.answer() == 1

    def test_delta_with_empty_neighbors_is_zero(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        assert eng.delta(0, (1, 2), 5) == 0

    def test_apply_update_returns_the_stored_multiplicity(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        assert eng.apply_update(0, "l", (1, 2), 5) == 5  # a create returns m
        assert eng.apply_update(0, "l", (1, 2), -2) == 3
        assert eng.apply_update(0, "l", (1, 2), -3) == 0  # a delete returns 0
        assert eng.answer() == 0  # the answer is on_update's to keep

    def test_insert_then_delete_restores_state_exactly(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        for rel, t, m in mixed_stream(3, 120, 6):
            eng.on_update(rel, t, m)
        before = state_fingerprint(eng)
        apply_routed(eng, 0, "l", (1, 2), 1)
        apply_routed(eng, 0, "l", (1, 2), -1)
        assert state_fingerprint(eng) == before


class TestOnUpdateRebalancing:
    def test_first_insert_doubles_the_base(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        eng.on_update("R", (1, 2), 1)
        assert eng.N == 2
        assert eng.counters.rebalance_major == 1

    def test_db_is_half_the_base_after_doubling(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        seen = []
        for rel, t, m in mixed_stream(9, 400, 16, mults=(1,)):
            before = eng.counters.rebalance_major
            eng.on_update(rel, t, m)
            if eng.counters.rebalance_major > before and eng.N > 2:
                seen.append(eng.db_size * 2 == eng.N)
        assert seen and all(seen)

    def test_minor_rebalance_promotes_a_crowded_key(self):
        # reach threshold base 8 with a small database, then stack one key
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        for b in range(4):
            eng.on_update("S", (100 + b, 200 + b), 1)
        assert eng.N == 8 and eng.db_size == 4
        eng.on_update("S", (100, 200), -1)
        eng.on_update("S", (101, 201), -1)
        assert eng.N == 8 and eng.db_size == 2
        # theta = sqrt(8) ~ 2.83, light cap 4.24: the fifth tuple crosses it
        theta = 8 ** 0.5
        for b in range(1, 5):
            eng.on_update("R", (1, b), 1)
            assert degree(eng.parts[0].light, 0, 1) == b < 1.5 * theta
        assert eng.counters.rebalance_minor == 0
        eng.on_update("R", (1, 5), 1)
        assert eng.counters.rebalance_minor == 1
        # the key is queued, bound heavy; its tuples move two per update
        part = eng.parts[0]
        assert part.moving == {(0, 1): "h"} and eng.pending_moves() == 1
        assert degree(part.heavy, 0, 1) == 0 and degree(part.light, 0, 1) == 5
        eng.on_update("S", (102, 202), -1)
        assert degree(part.heavy, 0, 1) == 2 and degree(part.light, 0, 1) == 3
        # a new tuple of the key goes where the key is bound
        eng.on_update("R", (1, 6), 1)
        assert degree(part.heavy, 0, 1) == 5 and degree(part.light, 0, 1) == 1
        eng.on_update("S", (103, 203), 5)
        assert degree(part.heavy, 0, 1) == 6 and degree(part.light, 0, 1) == 0
        assert not part.moving and eng.pending_moves() == 0
        assert eng.counters.moves == 5

    def test_emptying_a_heavy_key_is_a_quiet_noop(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        for b in range(4):
            eng.on_update("S", (100 + b, 200 + b), 1)
        for b in range(1, 6):
            eng.on_update("R", (1, b), 1)
        eng.finish_moves()
        assert degree(eng.parts[0].heavy, 0, 1) == 5
        for b in range(1, 6):
            eng.on_update("R", (1, b), -1)
        # the key is gone from both sides, no stranded postings
        assert not has_key(eng.parts[0].heavy, 0, 1)
        assert not has_key(eng.parts[0].light, 0, 1)
        assert eng.answer() == 0

    def test_major_rebalance_preserves_count_and_strictness(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        trk = TriangleTracker()
        for rel, t, m in mixed_stream(13, 500, 8):
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
        q_before = eng.answer()
        eng.N *= 2
        eng.major_rebalance()
        assert eng.answer() == q_before == trk.count
        assert not eng.check_invariants(loose=False)
        assert fresh_views(eng, ("wedges",)) == {"wedges": eng.wedges}

    def test_minor_rebalance_moves_within_budget_and_keeps_count(self):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        trk = TriangleTracker()
        rng = random.Random(77)
        moved_events = 0
        for step in range(1400):
            rel = "RST"[rng.randrange(3)]
            t = (rng.randrange(3), rng.randrange(200))
            m = rng.choice((-1, 1, 1))
            before_minor = eng.counters.rebalance_minor
            before_moves = eng.counters.moves
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            if eng.counters.rebalance_minor > before_minor:
                moved_events += 1
                moved = eng.counters.moves - before_moves
                assert moved < 1.5 * (eng.N ** 0.5) + 1
            assert eng.answer() == trk.count
        assert moved_events > 0


class TestAnswerAndStatic:
    def test_answer_examples(self):
        assert TriangleEngine(EpsConfig.uniform(0.5)).answer() == 0
        db = {"R": {(1, 2): 2}, "S": {(2, 3): 3}, "T": {(3, 1): 1}}
        eng = TriangleEngine.preprocess(db, 0.5)
        assert eng.answer() == 6

    def test_static_empty(self):
        assert static_count({}) == 0

    def test_static_equals_preprocess_on_randoms(self):
        rng = random.Random(8)
        for _ in range(10):
            db = {name: {(rng.randrange(7), rng.randrange(7)): rng.choice((-1, 1, 2))
                         for _ in range(rng.randrange(3, 30))}
                  for name in ("R", "S", "T")}
            assert static_count(db) == TriangleEngine.preprocess(db, 0.5).answer()

    def test_static_on_complete_graph_edges(self):
        # all ordered edges of a 4-clique fed to every relation
        edges = {(a, b): 1 for a in range(4) for b in range(4) if a != b}
        db = {"R": edges, "S": edges, "T": edges}
        assert static_count(db) == brute_force_triangle(edges, edges, edges) == 24


class TestRecoveryModes:
    def test_all_light_mode_keeps_heavy_parts_and_wedges_empty(self):
        eng = TriangleEngine(EpsConfig.uniform(1.0))
        for rel, t, m in mixed_stream(15, 800, 10):
            eng.on_update(rel, t, m)
            assert all(p.heavy.size() == 0 for p in eng.parts)
            assert all(not w for w in eng.wedges)

    def test_all_heavy_mode_keeps_light_parts_and_wedges_empty(self):
        eng = TriangleEngine(EpsConfig.uniform(0.0))
        for rel, t, m in mixed_stream(16, 800, 10):
            eng.on_update(rel, t, m)
            assert all(p.light.size() == 0 for p in eng.parts)
            assert all(not w for w in eng.wedges)

    def test_factorized_mode_materializes_one_wedge_only(self):
        eng = TriangleEngine(EpsConfig(0.0, 0.0, 1.0))
        trk = TriangleTracker()
        saw_nonempty = False
        for rel, t, m in mixed_stream(17, 800, 8):
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            assert eng.answer() == trk.count
            assert not eng.wedges[0] and not eng.wedges[2]
            saw_nonempty = saw_nonempty or bool(eng.wedges[1])
        assert saw_nonempty


def test_oracle_equivalence_across_eps_and_views():
    for seed in range(6):
        stream = mixed_stream(100 + seed, 500, 14)
        trk = TriangleTracker()
        expected = []
        for rel, t, m in stream:
            trk.update(rel, t, m)
            expected.append(trk.count)
        assert expected[-1] == brute_force_triangle(*(dict(r) for r in trk.rels))
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            eng = TriangleEngine(EpsConfig.uniform(eps))
            for i, (rel, t, m) in enumerate(stream):
                eng.on_update(rel, t, m)
                assert eng.answer() == expected[i]
            assert not eng.check_invariants()
            assert fresh_views(eng, ("wedges",)) == {"wedges": eng.wedges}


def test_amortized_budget_is_stable_as_streams_grow():
    # insert-only random edges: total primitive steps within a stable
    # multiple of sum_i sqrt(N_i) + n, the balanced per-update budget
    import math
    ratios = []
    for n in (2000, 8000):
        eng = TriangleEngine(EpsConfig.uniform(0.5))
        rng = random.Random(55)
        nodes = max(8, math.isqrt(2 * n))
        budget = 0.0
        for i in range(n):
            rel = "RST"[i % 3]
            eng.on_update(rel, (rng.randrange(nodes), rng.randrange(nodes)), 1)
            budget += eng.N ** 0.5
        total = eng.counters.total_steps()
        ratios.append(total / (budget + n))
    assert ratios[1] <= 2 * ratios[0] + 0.5


def test_lookup_reads_through_both_parts():
    eng = TriangleEngine(EpsConfig.uniform(0.5))
    eng.on_update("R", (1, 2), 3)
    assert eng.lookup("R", (1, 2)) == 3
    assert eng.lookup("R", (9, 9)) == 0


def test_shared_counters_object_is_respected():
    c = OpCounters()
    eng = TriangleEngine(EpsConfig.uniform(0.5), counters=c)
    eng.on_update("R", (1, 2), 1)
    assert c.total_steps() > 0
