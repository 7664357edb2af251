"""Cyclic counts of configurable degree, including the degree-3 reduction."""

import pytest

from skewivm.cli import family_arities
from skewivm.loomis_whitney import LWEngine
from skewivm.metrics import fit_scaling
from skewivm.oracle import LWTracker, brute_force_lw, lw_schemas
from skewivm.triangle import EpsConfig, TriangleEngine

from helpers import fresh_views, grow_shrink_stream, lw_stream, mixed_stream


class TestShape:
    def test_degree_below_three_rejected(self):
        with pytest.raises(ValueError):
            LWEngine(2, 0.5)

    def test_schemas_are_cyclic(self):
        assert lw_schemas(5) == [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 0),
                                 (3, 4, 0, 1), (4, 0, 1, 2)]

    def test_arity_enforced(self):
        eng = LWEngine(4, 0.5)
        with pytest.raises(ValueError):
            eng.on_update(0, (1, 2), 1)


class TestDegree3IsTheTriangle:
    def test_stepwise_equality_with_triangle_engine(self):
        # the grow-and-shrink stream runs moves and majors; the two engines
        # scan the same parts, so their op counts agree as well
        streams = (mixed_stream(901, 500, 10),
                   grow_shrink_stream(11, 900, family_arities("triangle"), wide=60))
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            for stream in streams:
                lw = LWEngine(3, eps)
                tri = TriangleEngine(EpsConfig.uniform(eps))
                for rel, t, m in stream:
                    lw.on_update({"R": 0, "S": 1, "T": 2}[rel], t, m)
                    tri.on_update(rel, t, m)
                    assert lw.answer() == tri.answer()
                assert lw.counters.snapshot() == tri.counters.snapshot(), eps


class TestDegree4:
    def test_single_full_join(self):
        eng = LWEngine(4, 0.5)
        eng.on_update(0, (1, 2, 3), 1)
        eng.on_update(1, (2, 3, 4), 1)
        eng.on_update(2, (3, 4, 1), 1)
        eng.on_update(3, (4, 1, 2), 1)
        assert eng.answer() == 1

    def test_deleting_any_leg_breaks_the_join(self):
        base = [(0, (1, 2, 3)), (1, (2, 3, 4)), (2, (3, 4, 1)), (3, (4, 1, 2))]
        for drop, _ in base:
            eng = LWEngine(4, 0.5)
            for i, t in base:
                eng.on_update(i, t, 1)
            eng.on_update(drop, dict(base)[drop], -1)
            assert eng.answer() == 0


class TestOracleEquivalence:
    def test_all_prefixes_small_degrees(self):
        # 150 streams per degree, exponent rotating through {1/4, 1/2, 3/4}
        cases = {3: (10, 300), 4: (6, 200), 5: (4, 120)}
        for n, (domain, length) in cases.items():
            for sid in range(150):
                eps = (0.25, 0.5, 0.75)[sid % 3]
                eng = LWEngine(n, eps)
                trk = LWTracker(n)
                for i, t, m in lw_stream(700 * n + sid, length, domain, n):
                    eng.on_update(i, t, m)
                    trk.update(i, t, m)
                    assert eng.answer() == trk.count, (n, eps, sid)
                assert trk.count == brute_force_lw([dict(r) for r in trk.rels], n)
                assert not eng.check_invariants()

    def test_counts_survive_minor_rebalances(self):
        import random
        rng = random.Random(19)
        eng = LWEngine(4, 0.5)
        trk = LWTracker(4)
        for step in range(700):
            i = rng.randrange(4)
            t = (rng.randrange(2),) + tuple(rng.randrange(40) for _ in range(2))
            m = rng.choice((-1, 1, 1))
            eng.on_update(i, t, m)
            trk.update(i, t, m)
            assert eng.answer() == trk.count
        assert eng.counters.rebalance_minor > 0
        assert fresh_views(eng, ("views",)) == {"views": eng.views}

    def test_views_recompute_consistent(self):
        for n in (3, 4, 5):
            eng = LWEngine(n, 0.5)
            for i, t, m in lw_stream(50 + n, 200, 5, n):
                eng.on_update(i, t, m)
            assert fresh_views(eng, ("views",)) == {"views": eng.views}, n


class TestConstruction:
    def test_preprocess_opcount_envelope_at_degree_4(self):
        # build cost at the balanced exponent should scale no worse than
        # size^(3/2); measured as a log-log fit over growing databases
        import random
        sizes = (400, 1600, 6400)
        totals = []
        for size in sizes:
            rng = random.Random(size)
            n = 4
            dom = max(4, int(size ** (1 / 3)))
            rels = []
            for _ in range(n):
                rel = {}
                while len(rel) < size // n:
                    rel[tuple(rng.randrange(dom) for _ in range(3))] = 1
                rels.append(rel)
            from skewivm.metrics import OpCounters
            counters = OpCounters()
            LWEngine.preprocess(rels, n, 0.5, counters=counters)
            totals.append(max(1, counters.total_steps()))
        assert fit_scaling(sizes, totals) <= 1.7
