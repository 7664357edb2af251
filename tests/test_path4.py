"""Four-relation path count: endpoint deltas, indicator views, double minors."""

import itertools
import random

from skewivm.cli import family_arities
from skewivm.oracle import Path4Tracker, brute_force_path4
from skewivm.path4 import VIEW_PAIRS, JoinView, Path4Engine, add_line
from skewivm.relation import IDX0, IDX1

from helpers import apply_routed, degree, path4_stream, path4_views_exact, swing_stream


def view_fingerprint(eng: Path4Engine):
    out = {}
    for name in eng.VIEW_NAMES:
        view = getattr(eng, name)
        out[name] = dict(view.items())
    return out


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
        assert eng.update_r(1, 5) == 5  # the stored multiplicity
        assert eng.answer() == 0

    def test_insert_then_delete_restores_count_and_every_view(self):
        eng = Path4Engine(0.5)
        for rel, t, m in path4_stream(11, 250, 7):
            eng.on_update(rel, t, m)
        before = (eng.answer(), view_fingerprint(eng))
        apply_routed(eng, 0, None, (3,), 2)
        apply_routed(eng, 0, None, (3,), -2)
        assert (eng.answer(), view_fingerprint(eng)) == before
        lab = eng.s.route((3, 4))
        apply_routed(eng, 1, lab, (3, 4), 1)
        apply_routed(eng, 1, lab, (3, 4), -1)
        assert (eng.answer(), view_fingerprint(eng)) == before


class TestIndicators:
    def _engine_with_heavy_b(self):
        # push b=2 heavy on the middle variable of S so its indicator flips
        eng = Path4Engine(0.5)
        for k in range(40):
            eng.on_update("T", (300 + k, 400 + k), 1)
        assert eng.N == 64
        for a in range(12):
            eng.on_update("S", (100 + a, 2), 1)
        eng.finish_moves()
        assert degree(eng.s.parts["lh"], 1, 2) + degree(eng.s.parts["hh"], 1, 2) == 12
        return eng

    def test_presence_not_count(self):
        eng = self._engine_with_heavy_b()
        assert eng.s_ind.get(2) == 1
        eng.on_update("S", (1, 2), 1)
        eng.on_update("S", (1, 2), 1)  # same tuple twice: multiplicity 2
        assert eng.s_ind.get(2) == 1
        assert eng.lookup("S", (1, 2)) == 2

    def test_flag_clears_only_when_the_last_support_dies(self):
        eng = self._engine_with_heavy_b()
        support = [t for t, _ in eng.s.parts["lh"].items() if t[1] == 2]
        for t in support[:-1]:
            eng.update_s("lh", t, -eng.s.parts["lh"].get(t))
            assert eng.s_ind.get(2) == 1
        last = support[-1]
        eng.update_s("lh", last, -eng.s.parts["lh"].get(last))
        assert 2 not in eng.s_ind

    def test_masked_views_follow_the_flip(self):
        eng = Path4Engine(0.5)
        for k in range(40):
            eng.on_update("R", (500 + k,), 1)
        eng.on_update("R", (1,), 1)
        eng.on_update("U", (9,), 1)
        # make b=2 heavy on T's first variable, flipping its indicator
        for c in range(12):
            eng.on_update("T", (2, 700 + c), 1)
        eng.finish_moves()
        assert eng.t_ind.get(2) == 1
        eng.on_update("S", (1, 2), 1)
        views = eng.recompute_views()
        assert view_fingerprint(eng)["r_s_hl_t_ind"] == views["r_s_hl_t_ind"]
        assert view_fingerprint(eng)["s_ind_t_lh_u"] == views["s_ind_t_lh_u"]


class TestPartBranches:
    def test_a_heavy_b_light_update_leaves_unrelated_views_alone(self):
        eng = Path4Engine(0.5)
        for rel, t, m in path4_stream(21, 300, 6):
            eng.on_update(rel, t, m)
        before = view_fingerprint(eng)
        eng.update_s("hl", (901, 902), 1)  # fresh values, no joins anywhere
        after = view_fingerprint(eng)
        assert after["s_hh_t_lh"] == before["s_hh_t_lh"]
        assert after["rs_lh"] == before["rs_lh"]
        assert after["s_ind"] == before["s_ind"]
        eng.update_s("hl", (901, 902), -1)
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
        recomputed = eng.recompute_views()
        fp = view_fingerprint(eng)
        for name in eng.VIEW_NAMES:
            view = recomputed[name]
            want = dict(view.items())
            assert fp[name] == want, name


def _lines(model: dict, var: int) -> dict:
    """``{(a, c): m}`` grouped by variable ``var`` into ``{key: {other: m}}``."""
    out: dict = {}
    for t, m in model.items():
        out.setdefault(t[var], {})[t[1 - var]] = m
    return out


class TestJoinViews:
    def test_line_adds_follow_a_plain_map(self):
        """Random line adds, with cancels to zero and re-creates, on every view shape."""
        rng = random.Random(3)
        for specs in ((IDX0,), (IDX1,), (IDX0, IDX1)):
            view = JoinView(specs)
            model: dict = {}
            cancels = recreates = 0
            dead: set = set()
            for _ in range(600):
                by_row = rng.random() < 0.5
                key, b, m = rng.randrange(4), rng.randrange(3), rng.choice((-2, -1, 1, 2))
                posts = {}
                for other in rng.sample(range(6), rng.randrange(1, 5)):
                    at = (key, other) if by_row else (other, key)
                    old = model.get(at)
                    # about a third of the stored entries a line meets cancel
                    cancel = old and old % m == 0 and rng.random() < 0.35
                    w = -old // m if cancel else rng.choice((-2, -1, 1, 2))
                    posts[(b, other) if by_row else (other, b)] = w
                    v = model.get(at, 0) + m * w
                    if v:
                        recreates += at in dead
                        dead.discard(at)
                        model[at] = v
                    else:
                        cancels += 1
                        dead.add(at)
                        del model[at]
                add_line(view, key, by_row, posts, m)
                assert dict(view.items()) == model
                assert len(view) == view.n == len(model)
                assert view.rows == (_lines(model, 0) if IDX0 in specs else None)
                assert view.cols == (_lines(model, 1) if IDX1 in specs else None)
            assert cancels > 50 and recreates > 20, (specs, cancels, recreates)

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
            seen = max(seen, max(map(len, eng.s_hl_t_lh.cols.values()), default=0))
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


def _mirror_view(view) -> dict:
    """A view as its mirror partner reads it: a join view transposed."""
    if isinstance(view, JoinView):
        return {(c, a): m for (a, c), m in view.items()}
    return view


class TestMirror:
    def test_a_reversed_stream_mirrors_answers_views_and_end_op_counts(self):
        """The path read backwards: R and U swap, S(a,b) becomes T(b,a).

        An engine fed the reversed stream keeps the same answer after every
        update, each view equal to its mirror partner's whenever neither
        engine has moves queued, and every R or U update that drains no move
        costs the same ops as its mirror, as the end descriptors assume.
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
                    for r_name, u_name in VIEW_PAIRS.values():
                        for name, partner in ((r_name, u_name), (u_name, r_name)):
                            assert (dict(getattr(eng, name).items())
                                    == _mirror_view(getattr(mir, partner))), (step, name)
        assert compared > 5000 and ends > 1800, (compared, ends)
