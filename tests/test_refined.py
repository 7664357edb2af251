"""Two-variable partitions: four-part routing, double minors, space profile."""

import random

from skewivm.oracle import TriangleTracker
from skewivm.refined import RefinedTriangleEngine
from skewivm.triangle import TriangleEngine

from helpers import degree, fresh_views, mixed_stream, refined_views, swing_stream


class TestDeltasAndViews:
    def test_single_triangle(self):
        eng = RefinedTriangleEngine(0.5)
        for rel, t in (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 1))):
            eng.on_update(rel, t, 1)
        assert eng.answer() == 1

    def test_corner_part_updates_leave_views_alone(self):
        # updates landing in the both-heavy or both-light part of a fresh
        # relation touch neither adjacent view
        eng = RefinedTriangleEngine(0.5)
        for rel, t, m in mixed_stream(21, 200, 6):
            eng.on_update(rel, t, m)
        before = [dict(w) for w in eng.views]
        eng.apply_update(0, "ll", (97, 98), 1)  # fresh values, both light
        assert [dict(w) for w in eng.views] == before
        eng.apply_update(0, "ll", (97, 98), -1)
        eng.apply_update(0, "hh", (97, 98), 1)
        assert [dict(w) for w in eng.views] == before
        eng.apply_update(0, "hh", (97, 98), -1)

    def test_stepwise_equality_with_base_engine(self):
        for seed in range(4):
            stream = mixed_stream(400 + seed, 400, 9)
            for eps in (0.0, 0.5, 1.0):
                refined = RefinedTriangleEngine(eps)
                base = TriangleEngine(eps)
                for rel, t, m in stream:
                    refined.on_update(rel, t, m)
                    base.on_update(rel, t, m)
                    assert refined.answer() == base.answer()

    def test_views_equal_an_independent_build_after_every_update(self):
        # hot first values of S and hot second values of T meet on light C
        # values, so views[0] fills. The rebuild runs the generated upkeep
        # walks; the reference joins the parts itself
        stream = swing_stream(6, 720, dict.fromkeys("RST", 2), 8, hot=[("S", 0, 0), ("T", 1, 1)])
        db: dict = {rel: {} for rel in "RST"}
        for rel, t, m in stream[:420]:
            db[rel][t] = db[rel].get(t, 0) + m
        db = {rel: {t: m for t, m in rows.items() if m} for rel, rows in db.items()}
        for eps in (0.25, 0.5):
            eng = RefinedTriangleEngine(eps)
            filled = 0
            for rel, t, m in stream:
                eng.on_update(rel, t, m)
                assert eng.views == refined_views(eng), (eps, rel, t, m)
                filled += any(eng.views)
            assert filled > 40
            assert fresh_views(eng, ("views",)) == {"views": eng.views}
            pre = RefinedTriangleEngine.preprocess(db, eps)
            assert pre.views == refined_views(pre)
            assert any(pre.views) or eps == 0.5

    def test_view_of_a_relation_is_keyed_by_its_tuples(self):
        # views[0][(x, y)]: S's hl part at (y, z) times T's lh part at (z, x)
        eng = RefinedTriangleEngine(0.5)
        eng.apply_update(1, "hl", (2, 3), 2)
        eng.apply_update(2, "lh", (3, 1), 5)
        assert eng.views[0] == {(1, 2): 10}
        assert not eng.views[1] and not eng.views[2]


class TestRoutingAndRebalancing:
    def test_eps_zero_forces_both_heavy(self):
        eng = RefinedTriangleEngine(0.0)
        for rel, t, m in mixed_stream(41, 300, 7):
            eng.on_update(rel, t, m)
            for quad in eng.parts:
                for lab in ("hl", "lh", "ll"):
                    assert quad.parts[lab].size() == 0

    def test_one_update_can_fire_two_minor_rebalances(self):
        eng = RefinedTriangleEngine(0.5)
        # reach base 16 with headroom: grow to 8 entries, then shed 4
        for k in range(8):
            eng.on_update("S", (50 + k, 60 + k), 1)
        for k in range(4):
            eng.on_update("S", (50 + k, 60 + k), -1)
        assert eng.N == 16 and eng.db_size == 4
        # threshold 4, light cap 6: five tuples sharing A=1, five sharing
        # B=2, then (1, 2) pushes both aggregates to the cap at once
        for b in range(5):
            eng.on_update("R", (1, 100 + b), 1)
        for a in range(5):
            eng.on_update("R", (200 + a, 2), 1)
        assert eng.counters.rebalance_minor == 0
        before = eng.counters.rebalance_minor
        eng.on_update("R", (1, 2), 1)
        assert eng.counters.rebalance_minor - before == 2
        quad = eng.parts[0]
        assert quad.moving == {(0, 1): "h", (1, 2): "h"}
        eng.finish_moves()
        assert degree(quad.parts["hl"], 0, 1) + degree(quad.parts["hh"], 0, 1) == 6
        assert degree(quad.parts["lh"], 1, 2) + degree(quad.parts["hh"], 1, 2) == 6
        assert not eng.check_invariants()

    def test_count_invariant_across_rebalances(self):
        eng = RefinedTriangleEngine(0.5)
        trk = TriangleTracker()
        rng = random.Random(51)
        for step in range(1400):
            rel = "RST"[rng.randrange(3)]
            t = (rng.randrange(3), rng.randrange(200))
            m = rng.choice((-1, 1, 1))
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            assert eng.answer() == trk.count
        assert eng.counters.rebalance_minor > 0
        assert eng.counters.rebalance_major > 0
        assert not eng.check_invariants()


class TestOracleEquivalence:
    def test_all_eps_all_prefixes(self):
        for seed in range(5):
            stream = mixed_stream(600 + seed, 350, 9)
            trk = TriangleTracker()
            expected = []
            for rel, t, m in stream:
                trk.update(rel, t, m)
                expected.append(trk.count)
            for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
                eng = RefinedTriangleEngine(eps)
                for i, (rel, t, m) in enumerate(stream):
                    eng.on_update(rel, t, m)
                    assert eng.answer() == expected[i]
