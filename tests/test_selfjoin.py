"""Self-joined edge relation: reduced deltas, diagonal terms, copies check."""

import random

from skewivm.oracle import SelfJoinTracker, brute_force_selfjoin
from skewivm.selfjoin import SelfJoinEngine

from helpers import ThreeCopiesEngine, fresh_views, mixed_stream


def edge_stream(seed, length, domain, loop_bias=0.2, mults=(-2, -1, 1, 2)):
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        a = rng.randrange(domain)
        b = a if rng.random() < loop_bias else rng.randrange(domain)
        out.append((("R"), (a, b), rng.choice(mults)))
    return out


class TestDeltas:
    def test_directed_triangle_counts_three_rotations(self):
        eng = SelfJoinEngine(0.5)
        for t in ((1, 2), (2, 3), (3, 1)):
            eng.on_update("R", t, 1)
        assert eng.answer() == 3

    def test_single_self_loop_counts_once(self):
        eng = SelfJoinEngine(0.5)
        eng.on_update("R", (1, 1), 1)
        assert eng.answer() == 1

    def test_loop_insert_then_delete_cancels_cubic_terms(self):
        eng = SelfJoinEngine(0.5)
        trk = SelfJoinTracker()
        for rel, t, m in edge_stream(4, 60, 5):
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
        q = eng.answer()
        eng.on_update("R", (5, 5), 1)
        eng.on_update("R", (5, 5), -1)
        assert eng.answer() == q
        assert eng.answer() == trk.count

    def test_multiplicities_beyond_one_in_diagonal_terms(self):
        eng = SelfJoinEngine(0.5)
        eng.on_update("R", (2, 2), 3)
        # a single loop of multiplicity 3 closes 27 weighted triangles
        assert eng.answer() == 27
        assert eng.answer() == brute_force_selfjoin({(2, 2): 3})


class TestRebalancing:
    def test_first_insert_triggers_major(self):
        eng = SelfJoinEngine(0.5)
        eng.on_update("R", (1, 2), 1)
        assert eng.N == 2 and eng.counters.rebalance_major == 1

    def test_minor_rebalance_preserves_count(self):
        eng = SelfJoinEngine(0.5)
        trk = SelfJoinTracker()
        rng = random.Random(9)
        minors = 0
        for step in range(900):
            t = (rng.randrange(4), rng.randrange(25))
            m = rng.choice((-1, 1, 1))
            before = eng.counters.rebalance_minor
            eng.on_update("R", t, m)
            trk.update("R", t, m)
            minors += eng.counters.rebalance_minor - before
            assert eng.answer() == trk.count
        assert minors > 0

    def test_all_light_mode_never_builds_the_wedge(self):
        eng = SelfJoinEngine(1.0)
        for rel, t, m in edge_stream(10, 500, 8):
            eng.on_update(rel, t, m)
            assert not eng.views[0]
            assert eng.parts[0].heavy.size() == 0


class TestSharedView:
    def test_one_view_in_every_slot_counted_once(self):
        # two hub sources turn heavy, so the wedge view fills
        rng = random.Random(4)
        rows = {(rng.randrange(2), rng.randrange(40)): 1 for _ in range(60)}
        rows.update(((rng.randrange(40), rng.randrange(2)), 1) for _ in range(60))
        eng = SelfJoinEngine.preprocess(rows, 0.5)

        def check():
            views = eng.views
            assert views[0] is views[1] is views[2]
            assert views[0]
            assert eng.space_used() == eng.parts[0].total_size() + len(views[0])
        check()
        eng.rebuild_views()
        check()
        majors, fresh = eng.counters.rebalance_major, 100
        while eng.counters.rebalance_major == majors:
            eng.on_update("R", (fresh, rng.randrange(2)), 1)
            fresh += 1
        check()
        eng.finish_moves()
        check()
        assert eng.answer() == brute_force_selfjoin(dict(eng.parts[0].heavy.items())
                                                    | dict(eng.parts[0].light.items()))


class TestEquivalences:
    def test_oracle_equivalence_with_loops_and_negatives(self):
        for seed in range(8):
            for eps in (0.0, 0.5, 1.0):
                eng = SelfJoinEngine(eps)
                trk = SelfJoinTracker()
                for rel, t, m in edge_stream(200 + seed, 350, 7):
                    eng.on_update(rel, t, m)
                    trk.update(rel, t, m)
                    assert eng.answer() == trk.count
                assert trk.count == brute_force_selfjoin(dict(trk.rel))
                assert not eng.check_invariants()
                assert fresh_views(eng, ("views",)) == {"views": eng.views}

    def test_three_copies_encoding_agrees_stepwise(self):
        for eps in (0.0, 0.5, 1.0):
            eng = SelfJoinEngine(eps)
            copies = ThreeCopiesEngine(eps)
            for rel, t, m in edge_stream(300, 250, 6):
                eng.on_update(rel, t, m)
                copies.on_update(rel, t, m)
                assert eng.answer() == copies.answer()
