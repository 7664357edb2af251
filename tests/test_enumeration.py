"""Full-result maintenance: factorized families, liveness, constant delay."""

import random
import statistics
from collections import Counter
from itertools import product

from skewivm.enumeration import EnumTriangleEngine
from skewivm.oracle import TriangleTracker, brute_force_enumerate

from helpers import degree, enum_views, mixed_stream, views

# the engine's view state: the views, the families' live sets, their entry count
STATE = ("views", "live", "entries")


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
        # the family of R heavy and S light is keyed by T's tuples
        eng = EnumTriangleEngine(0.5)
        for rel, t, m in mixed_stream(71, 150, 6):
            eng.on_update(rel, t, m)
        fam = {key: dict(ys) for key, ys in eng.views[2].items()}
        eng.on_update("T", (90, 91), 1)
        assert eng.views[2] == fam


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
        assert sum(eng.views[2][77, 1].values()) == 0  # keyed by T's (c, a), keeping b
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
        maintained = views(eng, STATE)
        assert maintained == enum_views(eng)
        eng.rebuild_views()
        assert views(eng, STATE) == maintained
        # the rebuild gave the engine new live sets; it did not clear the old
        assert all(a is not b for a, b in zip(eng.live, maintained["live"]))


class TestPlan:
    """The plan's walks, read as data, against the eight part combinations of (R, S, T)."""

    @staticmethod
    def held():
        """Per view and writing part ``(relation, label)``, the combinations of its walks.

        A walk fixes the label of the updated relation, of the part it
        scans and of the parts it probes; a relation it does not name (a
        family's key relation) takes any label.
        """
        plan = EnumTriangleEngine.PLAN(3)
        out: dict = {}
        for v, walks in enumerate(plan.upkeep):
            for lab, group in walks.items():
                for u, src, side, probes, view in group:
                    named = [v, src] + [j for j, *_ in probes]
                    assert u == v and len(set(named)) == len(named), (v, lab, view)
                    fixed = {v: (lab,), src: (side,), **{j: sides for j, sides, *_ in probes}}
                    combos = frozenset(product(*(fixed.get(j, plan.labels) for j in range(3))))
                    out.setdefault(view, {}).setdefault((v, lab), []).append(combos)
        return plan, out

    def test_each_combination_is_held_by_exactly_one_view(self):
        plan, held = self.held()
        assert sorted(held) == list(range(len(plan.kinds)))
        owners = Counter(c for writers in held.values()
                         for c in set().union(*(w[0] for w in writers.values())))
        assert owners == Counter(product(plan.labels, repeat=3))

    def test_each_view_is_written_by_one_walk_of_each_member_part(self):
        plan, held = self.held()
        for view, writers in held.items():
            assert all(len(walks) == 1 for walks in writers.values()), view
            combos = set().union(*(walks[0] for walks in writers.values()))
            # every writing part's walk holds all the view's combinations
            # its label allows, and no other
            for (v, lab), (mine,) in writers.items():
                assert mine == {c for c in combos if c[v] == lab}, (view, v, lab)
            # the members: the parts of relations whose label the view fixes
            # per combination (a family's key relation takes any label)
            free = [j for j in range(3)
                    if all(c[:j] + (x,) + c[j + 1:] in combos for c in combos for x in plan.labels)]
            members = {(j, c[j]) for c in combos for j in range(3) if j not in free}
            assert set(writers) == members, view
            if plan.kinds[view] == "keep":
                assert free == [view], view  # a family is keyed by relation view's tuple


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
