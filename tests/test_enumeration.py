"""Full-result maintenance: factorized families, liveness, constant delay."""

import random
import statistics

from skewivm.enumeration import EnumTriangleEngine
from skewivm.oracle import TriangleTracker, brute_force_enumerate

from helpers import degree, mixed_stream


def tracker_db(trk: TriangleTracker):
    return tuple(dict(r) for r in trk.rels)


class TestBasics:
    def test_piecewise_insert_yields_exactly_one_tuple(self):
        eng = EnumTriangleEngine(0.5)
        eng.on_update("R", (1, 2), 1)
        eng.on_update("S", (2, 3), 1)
        eng.on_update("T", (3, 1), 1)
        assert eng.result_multiset() == {(1, 2, 3): 1}

    def test_deleting_one_edge_empties_the_result(self):
        eng = EnumTriangleEngine(0.5)
        for rel, t in (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 1))):
            eng.on_update(rel, t, 1)
        eng.on_update("S", (2, 3), -1)
        assert eng.result_multiset() == {}

    def test_two_triangles_sharing_an_edge(self):
        eng = EnumTriangleEngine(0.5)
        for rel, t in (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 1)),
                       ("S", (2, 4)), ("T", (4, 1))):
            eng.on_update(rel, t, 1)
        assert eng.result_multiset() == {(1, 2, 3): 1, (1, 2, 4): 1}

    def test_third_relation_update_leaves_first_family_tree_alone(self):
        eng = EnumTriangleEngine(0.5)
        for rel, t, m in mixed_stream(71, 150, 6):
            eng.on_update(rel, t, m)
        tri0 = {pk: dict(ys) for pk, ys in eng.tri[0].items()}
        eng.on_update("T", (90, 91), 1)
        assert eng.tri[0] == tri0


class TestCancellationLiveness:
    def test_zero_sum_pair_still_enumerates_members(self):
        # two middle values whose contributions cancel in the pair's sum,
        # yet both result tuples exist
        eng = EnumTriangleEngine(0.5)
        for k in range(40):
            eng.on_update("S", (300 + k, 400 + k), 1)  # bulk: base reaches 64
        assert eng.N == 64  # threshold 8, light cap 12
        for b in range(10, 30):
            eng.on_update("R", (1, b), 1)  # 20 partners push A=1 heavy
        assert degree(eng.parts[0].heavy, 0, 1) == 20
        eng.on_update("R", (1, 10), 1)   # multiplicity 2
        eng.on_update("R", (1, 11), -3)  # multiplicity -2
        eng.on_update("S", (10, 77), 1)
        eng.on_update("S", (11, 77), 1)
        eng.on_update("T", (77, 1), 1)
        assert sum(eng.tri[0][1, 77].values()) == 0
        got = eng.result_multiset()
        assert got[(1, 10, 77)] == 2 and got[(1, 11, 77)] == -2
        want = brute_force_enumerate(
            {**dict(eng.parts[0].heavy.items()), **dict(eng.parts[0].light.items())},
            {**dict(eng.parts[1].heavy.items()), **dict(eng.parts[1].light.items())},
            {**dict(eng.parts[2].heavy.items()), **dict(eng.parts[2].light.items())})
        assert got == want


class TestOracleEquivalence:
    def test_multiset_matches_after_every_update(self):
        for seed in range(6):
            for eps in (0.0, 0.5, 1.0):
                eng = EnumTriangleEngine(eps)
                trk = TriangleTracker()
                for rel, t, m in mixed_stream(800 + seed, 200, 8):
                    eng.on_update(rel, t, m)
                    trk.update(rel, t, m)
                    got = eng.result_multiset()  # raises on duplicates
                    assert got == brute_force_enumerate(*tracker_db(trk))
                assert not eng.check_invariants()

    def test_multiset_survives_minor_rebalances(self):
        # skewed keys force key migrations; the result must never flicker
        eng = EnumTriangleEngine(0.5)
        trk = TriangleTracker()
        rng = random.Random(73)
        for step in range(900):
            rel = "RST"[rng.randrange(3)]
            t = (rng.randrange(3), rng.randrange(150))
            m = rng.choice((-1, 1, 1))
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            if step % 7 == 0:
                assert eng.result_multiset() == brute_force_enumerate(*tracker_db(trk))
        assert eng.counters.rebalance_minor > 0
        assert eng.counters.rebalance_major > 0
        assert eng.result_multiset() == brute_force_enumerate(*tracker_db(trk))

    def test_rebuild_matches_incremental_views(self):
        eng = EnumTriangleEngine(0.5)
        for rel, t, m in mixed_stream(91, 400, 8):
            eng.on_update(rel, t, m)
        listing, tri, live, tri_size = eng.recompute_views()
        assert listing == eng.listing
        assert tri == eng.tri
        assert live == eng.live
        assert tri_size == eng.tri_size


def skewed_insert_stream(n, seed, hubs=2, hub_prob=0.5):
    rng = random.Random(seed)
    wide = max(12, int((2 * n) ** 0.5))
    out = []
    for i in range(n):
        rel = ("R", "S", "T")[i % 3]
        def val():
            return rng.randrange(hubs) if rng.random() < hub_prob else hubs + rng.randrange(wide)
        out.append((rel, (val(), val()), 1))
    return out


def test_delay_stays_flat_as_the_database_grows():
    maxima = {}
    for n in (1000, 4000, 16000):
        eng = EnumTriangleEngine(0.5)
        for rel, t, m in skewed_insert_stream(n, 7):
            eng.on_update(rel, t, m)
        delays = [d for _, _, d in eng.enumerate_with_delays()]
        assert delays, "probe state must have results"
        med = statistics.median(delays)
        assert max(delays) < 4 * max(med, 1)
        maxima[n] = max(delays)
    # the per-yield bound must not scale with the database
    assert maxima[16000] <= maxima[1000] + 8
