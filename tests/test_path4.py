"""Four-relation path count: endpoint deltas, masked views, double minors."""

import itertools
import random

import pytest

from skewivm.cli import family_arities
from skewivm.loomis_whitney import WHOLE
from skewivm.oracle import Path4Tracker, brute_force_path4
from skewivm.path4 import MIRROR, Path4Engine
from skewivm.relation import IDX0, IDX1, SchemaError

from helpers import (apply_routed, degree, path4_named, path4_stream, path4_view,
                     path4_views, path4_views_exact, swing_stream)

view_fingerprint = path4_named


class TestDeltas:
    def test_single_path_in_any_insertion_order(self):
        base = [("R", (1,)), ("S", (1, 2)), ("T", (2, 3)), ("U", (3,))]
        for perm in itertools.permutations(base):
            eng = Path4Engine(0.5)
            for rel, t in perm:
                eng.on_update(rel, t, 1)
            assert eng.answer() == 1, perm

    def test_endpoint_update_with_empty_middle_is_zero(self):
        eng = Path4Engine(0.5)
        assert eng.delta(0, (1,), 5) == 0
        assert eng.apply_update(0, WHOLE, (1,), 5) == 5  # the stored multiplicity
        assert eng.answer() == 0

    def test_insert_then_delete_restores_count_and_every_view(self):
        eng = Path4Engine(0.5)
        for rel, t, m in path4_stream(11, 250, 7):
            eng.on_update(rel, t, m)
        before = (eng.answer(), view_fingerprint(eng))
        apply_routed(eng, 0, WHOLE, (3,), 2)
        apply_routed(eng, 0, WHOLE, (3,), -2)
        assert (eng.answer(), view_fingerprint(eng)) == before
        lab = eng.s.route((3, 4))
        apply_routed(eng, 1, lab, (3, 4), 1)
        apply_routed(eng, 1, lab, (3, 4), -1)
        assert (eng.answer(), view_fingerprint(eng)) == before


class TestLookup:
    def test_whole_relations_read_through_lookup(self):
        db = {"R": {(1,): 2, (2,): -3}, "S": {(1, 5): 1}, "T": {(5, 7): 4},
              "U": {(7,): 5, (8,): 1}}
        eng = Path4Engine.preprocess(db, 0.5)
        assert [eng.lookup("R", (a,)) for a in (1, 2, 3)] == [2, -3, 0]
        assert [eng.lookup("U", (c,)) for c in (7, 8, 9)] == [5, 1, 0]
        assert eng.lookup(0, (1,)) == 2 and eng.lookup(3, (7,)) == 5  # by position
        want = {rel: dict(rows) for rel, rows in db.items()}
        for rel, t, m in path4_stream(21, 300, 6):
            eng.on_update(rel, t, m)
            rows = want[rel]
            rows[t] = rows.get(t, 0) + m
            if not rows[t]:
                del rows[t]
        for rel in ("R", "U"):
            for v in range(10):
                assert eng.lookup(rel, (v,)) == want[rel].get((v,), 0), (rel, v)
        for rel in ("S", "T"):
            for t in itertools.product(range(8), repeat=2):
                assert eng.lookup(rel, t) == want[rel].get(t, 0), (rel, t)

    def test_a_wrong_tuple_is_refused_and_counts_nothing(self):
        eng = Path4Engine.preprocess({"R": {(1,): 2}, "U": {(7,): 5}}, 0.5)
        before = (eng.counters.snapshot(), eng.answer(), eng.db_size, eng.N)
        for rel, t in (("R", (1, 2)), ("U", ()), ("R", 1), (0, (1, 2)), (3, [7]),
                       ("S", (1,)), ("R", ([1],))):
            with pytest.raises(SchemaError):
                eng.lookup(rel, t)
        assert (eng.counters.snapshot(), eng.answer(), eng.db_size, eng.N) == before
        assert eng.lookup("R", (1,)) == 2 and eng.lookup("U", (7,)) == 5


def masked_views(eng: Path4Engine) -> tuple[dict, dict]:
    """Both masked views as ``helpers.path4_views`` builds them from the parts."""
    want = path4_views(eng)
    return want["r_s_hl_t_ind"], want["s_ind_t_lh_u"]


def masked(eng: Path4Engine) -> tuple[dict, dict]:
    """Both masked views as the engine keeps them."""
    return path4_view(eng, "r_s_hl_t_ind"), path4_view(eng, "s_ind_t_lh_u")


class TestMasks:
    def _engine_with_heavy_b(self):
        # b=2 heavy on S's second variable, so S's lh part holds it and
        # masks s_ind_t_lh_u there; T's (2, 9) sits in T's lh part (c=9 heavy)
        db = {"S": {(100 + a, 2): 1 for a in range(12)},
              "T": {**{(600 + j, 9): 1 for j in range(12)}, (2, 9): 1},
              "U": {(9,): 3}}
        eng = Path4Engine.preprocess(db, 0.5)
        assert degree(eng.s.parts["lh"], 1, 2) == 12
        assert eng.t.parts["lh"].get((2, 9)) == 1
        assert path4_view(eng, "s_ind_t_lh_u") == {2: 3}
        return eng

    def test_presence_not_count(self):
        eng = self._engine_with_heavy_b()
        eng.on_update("S", (100, 2), 1)
        eng.on_update("S", (1, 2), 1)
        eng.on_update("S", (1, 2), 1)  # same tuple twice: multiplicity 2
        assert eng.lookup("S", (1, 2)) == 2 and eng.lookup("S", (100, 2)) == 2
        assert 2 in eng.s.parts["lh"].indexes[IDX1]
        assert path4_view(eng, "s_ind_t_lh_u") == {2: 3}
        assert masked(eng) == masked_views(eng)
        path4_views_exact(eng)

    def test_entry_leaves_only_with_its_last_supporting_tuple(self):
        eng = self._engine_with_heavy_b()
        mask = eng.s.parts["lh"].indexes[IDX1]
        support = [t for t, _ in eng.s.parts["lh"].items() if t[1] == 2]
        for t in support[:-1]:
            eng.apply_update(1, "lh", t, -eng.s.parts["lh"].get(t))
            assert 2 in mask and path4_view(eng, "s_ind_t_lh_u") == {2: 3}
        last = support[-1]
        eng.apply_update(1, "lh", last, -eng.s.parts["lh"].get(last))
        assert 2 not in mask and not path4_view(eng, "s_ind_t_lh_u")
        assert masked(eng) == masked_views(eng)

    def test_masked_views_follow_the_flip(self):
        eng = Path4Engine(0.5)
        for k in range(40):
            eng.on_update("R", (500 + k,), 1)
        eng.on_update("R", (1,), 1)
        eng.on_update("U", (9,), 1)
        # a=1 heavy on S's first variable, so (1, 2) sits in S's hl part
        for j in range(12):
            eng.on_update("S", (1, 200 + j), 1)
        eng.on_update("S", (1, 2), 1)
        eng.finish_moves()
        assert eng.s.parts["hl"].get((1, 2)) == 1
        assert 2 not in eng.t.parts["hl"].indexes[IDX0] and 2 not in path4_view(eng, "r_s_hl_t_ind")
        # make b=2 heavy on T's first variable: T's hl part now masks it in
        for c in range(20):
            eng.on_update("T", (2, 700 + c), 1)
        eng.finish_moves()
        assert 2 in eng.t.parts["hl"].indexes[IDX0]
        assert path4_view(eng, "r_s_hl_t_ind") == {2: 1}
        assert masked(eng) == masked_views(eng)
        path4_views_exact(eng)
        # and back out once T's tuples at b=2 are gone
        for c in range(20):
            eng.on_update("T", (2, 700 + c), -1)
        eng.finish_moves()
        assert 2 not in eng.t.parts["hl"].indexes[IDX0] and 2 not in path4_view(eng, "r_s_hl_t_ind")
        assert masked(eng) == masked_views(eng)
        path4_views_exact(eng)


class TestPartBranches:
    def test_a_heavy_b_light_update_leaves_unrelated_views_alone(self):
        eng = Path4Engine(0.5)
        for rel, t, m in path4_stream(21, 300, 6):
            eng.on_update(rel, t, m)
        before = view_fingerprint(eng)
        eng.apply_update(1, "hl", (901, 902), 1)  # fresh values, no joins anywhere
        after = view_fingerprint(eng)
        assert after["s_hh_t_lh"] == before["s_hh_t_lh"]
        assert after["rs_lh"] == before["rs_lh"]
        eng.apply_update(1, "hl", (901, 902), -1)
        assert view_fingerprint(eng) == before

    def test_scripted_updates_match_brute_force(self):
        rng = random.Random(31)
        eng = Path4Engine(0.5)
        trk = Path4Tracker()
        script = path4_stream(31, 50, 5)
        for rel, t, m in script:
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            assert eng.answer() == trk.count == brute_force_path4(trk.r, trk.s, trk.t, trk.u)


class TestRebalancing:
    def test_two_minor_rebalances_can_fire_on_one_update(self):
        eng = Path4Engine(0.5)
        for k in range(8):
            eng.on_update("T", (50 + k, 60 + k), 1)
        for k in range(4):
            eng.on_update("T", (50 + k, 60 + k), -1)
        assert eng.N == 16 and eng.db_size == 4  # threshold 4, light cap 6
        for b in range(5):
            eng.on_update("S", (1, 100 + b), 1)
        for a in range(5):
            eng.on_update("S", (200 + a, 2), 1)
        assert eng.counters.rebalance_minor == 0
        eng.on_update("S", (1, 2), 1)
        assert eng.counters.rebalance_minor == 2
        assert eng.s.moving == {(0, 1): "h", (1, 2): "h"}
        eng.finish_moves()
        assert degree(eng.s.parts["hl"], 0, 1) + degree(eng.s.parts["hh"], 0, 1) == 6
        assert degree(eng.s.parts["lh"], 1, 2) + degree(eng.s.parts["hh"], 1, 2) == 6
        assert not eng.check_invariants()

    def test_counts_and_views_survive_rebalances(self):
        rng = random.Random(41)
        eng = Path4Engine(0.5)
        trk = Path4Tracker()
        for step in range(1400):
            rel = ("R", "S", "T", "U")[rng.randrange(4)]
            if rel in ("R", "U"):
                t = (rng.randrange(30),)
            else:
                t = (rng.randrange(3), rng.randrange(150))
            m = rng.choice((-1, 1, 1))
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            assert eng.answer() == trk.count
        assert eng.counters.rebalance_minor > 0
        assert eng.counters.rebalance_major > 0
        assert view_fingerprint(eng) == path4_views(eng)
        path4_views_exact(eng)


def skewed_churn(seed: int, length: int, wide: int) -> list:
    """Updates that fill every S-T join view and cancel its entries again.

    S's first values and T's second are mostly two hot values. The middle
    value is 0 (hot in S) or 2 (hot in T) for half of the tuples, so it
    is heavy in one relation and light in the other. Three updates in ten
    cancel a stored tuple; the others add one, with either sign.
    """
    rng = random.Random(seed)
    live: dict = {}
    out = []

    def pick(p, hot, q=0.0, other=None):
        r = rng.random()
        return hot if r < p else other if r < p + q else rng.randrange(10, 10 + wide)
    for _ in range(length):
        if live and rng.random() < 0.3:
            (rel, t), m = rng.choice(list(live.items()))
            m = -m
        else:
            rel = "RSTU"[rng.randrange(4)]
            t = {"S": lambda: (pick(0.7, rng.randrange(2)), pick(0.35, 0, 0.15, 2)),
                 "T": lambda: (pick(0.35, 2, 0.15, 0), pick(0.7, rng.randrange(2)))}.get(
                     rel, lambda: (pick(0.7, rng.randrange(2)),))()
            m = rng.choice((1, 1, 2, -1))
        out.append((rel, t, m))
        v = live.get((rel, t), 0) + m
        if v:
            live[rel, t] = v
        else:
            del live[rel, t]
    return out


class TestJoinViews:
    def test_entries_cancel_and_come_back_in_every_join_view(self):
        """Signed updates cancel join-view entries to zero and create them again.

        After every update each view equals the reference, no inner map is
        empty, a two-sided view's maps are exact transposes and the entry
        count is a recount (``helpers.path4_views_exact``).
        """
        eng = Path4Engine(0.25)
        joins = ("s_ll_t_lh", "s_hl_t_ll", "s_hl_t_lh", "s_hl_t_hh", "s_hh_t_lh")
        cancels, recreates, dead = dict.fromkeys(joins, 0), dict.fromkeys(joins, 0), set()
        before = path4_named(eng)
        for step, (rel, t, m) in enumerate(skewed_churn(1, 4000, 40)):
            eng.on_update(rel, t, m)
            path4_views_exact(eng, step)
            after = path4_named(eng)
            for name in joins:
                gone = before[name].keys() - after[name].keys()
                cancels[name] += len(gone)
                dead |= {(name, k) for k in gone}
                back = {(name, k) for k in after[name].keys() - before[name].keys()} & dead
                recreates[name] += len(back)
                dead -= back
            before = after
        assert min(cancels.values()) >= 20 and min(recreates.values()) >= 10, (cancels, recreates)

    def test_two_sided_views_with_shared_columns_stay_exact(self):
        # four heavy A values of S and four heavy C values of T meet over
        # light B values, so each column of s_hl_t_lh holds several A values
        rng = random.Random(7)
        eng = Path4Engine(0.5)
        seen = 0
        for step in range(700):
            rel = "RSTU"[rng.randrange(4)]
            if rel == "S":
                t = (rng.randrange(4), rng.randrange(40))
            elif rel == "T":
                t = (rng.randrange(40), rng.randrange(4))
            else:
                t = (rng.randrange(6),)
            eng.on_update(rel, t, rng.choice((1, 1, 2, -1)))
            path4_views_exact(eng, step)
            seen = max(seen, max(map(len, path4_view(eng, "s_hl_t_lh@c").values()), default=0))
        assert seen >= 3


class TestOracleEquivalence:
    def test_all_eps_all_prefixes(self):
        for seed in range(5):
            stream = path4_stream(600 + seed, 280, 9)
            trk = Path4Tracker()
            expected = []
            for rel, t, m in stream:
                trk.update(rel, t, m)
                expected.append(trk.count)
            assert expected[-1] == brute_force_path4(trk.r, trk.s, trk.t, trk.u)
            for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
                eng = Path4Engine(eps)
                for i, (rel, t, m) in enumerate(stream):
                    eng.on_update(rel, t, m)
                    assert eng.answer() == expected[i]
                assert not eng.check_invariants()


MIRROR_REL = {"R": "U", "S": "T", "T": "S", "U": "R"}


def _mirror_view(view: dict) -> dict:
    """A view as its mirror partner reads it: a join view transposed."""
    return {k[::-1] if isinstance(k, tuple) else k: m for k, m in view.items()}


class TestMirror:
    def test_a_reversed_stream_mirrors_answers_views_and_end_op_counts(self):
        """The path read backwards: R and U swap, S(a,b) becomes T(b,a).

        An engine fed the reversed stream keeps the same answer after every
        update, each view equal to its mirror partner's whenever neither
        engine has moves queued, and every R or U update that drains no move
        costs the same ops as its mirror, as the plan's mirrored walks assume.
        """
        arities = family_arities("path4")
        streams = [swing_stream(seed, 1500, arities, 12) for seed in (0, 1)]
        streams += [path4_stream(seed, 1500, 9) for seed in (0, 1)]
        compared = ends = 0
        for stream in streams:
            eng, mir = Path4Engine(0.5), Path4Engine(0.5)
            for step, (rel, t, m) in enumerate(stream):
                before = eng.counters.snapshot(), mir.counters.snapshot()
                eng.on_update(rel, t, m)
                mir.on_update(MIRROR_REL[rel], t[::-1], m)
                assert eng.answer() == mir.answer(), step
                spent = [{k: v - was[k] for k, v in e.counters.snapshot().items()}
                         for e, was in zip((eng, mir), before)]
                if rel in "RU" and not spent[0]["moves"] and not spent[1]["moves"]:
                    ends += 1
                    assert spent[0] == spent[1], step
                if not eng.pending_moves() and not mir.pending_moves():
                    compared += 1
                    kept, mirrored = path4_named(eng), path4_named(mir)
                    for name, partner in MIRROR.items():
                        name, partner = name.partition("@")[0], partner.partition("@")[0]
                        assert kept[name] == _mirror_view(mirrored[partner]), (step, name)
        assert compared > 5000 and ends > 1800, (compared, ends)
