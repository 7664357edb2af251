"""Cyclic counts of configurable degree, including the degree-3 reduction."""

import hashlib
import io
import random
import re
import tokenize

import pytest

from skewivm.cli import family_arities
from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import LWEngine
from skewivm.metrics import fit_scaling
from skewivm.oracle import LWTracker, TriangleTracker, brute_force_lw, lw_schemas
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

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
        # both engines against the first-order tracker after every update;
        # the grow-and-shrink stream runs moves and majors. The op counts
        # are pinned by the triangle:* and lw:4 rows of test_golden_counts
        streams = (mixed_stream(901, 500, 10),
                   grow_shrink_stream(11, 900, family_arities("triangle"), wide=60))
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            for stream in streams:
                lw = LWEngine(3, eps)
                tri = TriangleEngine(eps)
                trk = TriangleTracker()
                for rel, t, m in stream:
                    lw.on_update({"R": 0, "S": 1, "T": 2}[rel], t, m)
                    tri.on_update(rel, t, m)
                    trk.update(rel, t, m)
                    assert lw.answer() == tri.answer() == trk.count


def _read_indexes(eng):
    """``(relation, part, spec)`` of every index the generated walks read."""
    body = eng.plan_source().split("\n", 1)[1]  # past the header that binds them all
    return {(int(j), side, tuple(map(int, spec.split("_"))))
            for j, side, spec in re.findall(r"\bI(\d+)([hl]+)_(\d+(?:_\d+)*)\b", body)}


def _sections(source):
    """The generated functions of a plan's source by name: each one's lines, as one string."""
    chunks = re.split(r"^    (?=\S)", source, flags=re.M)[1:]
    return {re.match(r"(?:def )?(\w+)", chunk)[1]: chunk for chunk in chunks}


def _without_deltas(step):
    """The source of ``step`` without its delta walks, each relation's ``if count:`` block."""
    kept, block = [], None
    for line in step.splitlines():
        depth = len(line) - len(line.lstrip())
        if block is not None and depth > block:
            continue
        block = depth if line.strip() == "if count:" else None
        if block is None:
            kept.append(line)
    return "\n".join(kept)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _held_indexes(eng):
    return {(j, side, spec) for j, part in enumerate(eng.parts)
            for side, rel in part.parts.items() for spec in rel.indexes}


class TestPlan:
    def test_parts_hold_only_the_indexes_the_walks_read(self):
        for eng in (TriangleEngine(0.5), TriangleEngine((0.0, 0.75, 1.0)), LWEngine(3, 0.25),
                    SelfJoinEngine(0.5)):
            for part in eng.parts:
                assert set(part.heavy.indexes) == {(0,), (1,)}
                assert set(part.light.indexes) == {(0,)}
        # every other index the full layout kept (32 at n = 4, 50 at n = 5) is gone
        for n, held in ((3, 9), (4, 20), (5, 30)):
            for eps in (0.25, 0.75):
                eng = LWEngine(n, eps)
                assert _held_indexes(eng) == _read_indexes(eng)
                assert len(_held_indexes(eng)) == held
        # a quad split indexes both variables of every part; the refined
        # walks read no other index
        eng = RefinedTriangleEngine(0.5)
        assert _read_indexes(eng) and _read_indexes(eng) <= _held_indexes(eng)

    def test_one_compiled_plan_per_plan_and_degree(self):
        degree3 = [TriangleEngine(0.5), TriangleEngine((0.25, 0.5, 0.75)), LWEngine(3, 0.0),
                   LWEngine(3, 1.0)]
        degree4 = [LWEngine(4, 0.25), LWEngine(4, 0.75)]
        for same in (degree3, degree4):
            for eng in same[1:]:
                assert eng.delta.__code__ is same[0].delta.__code__
                assert eng._step.__code__ is same[0]._step.__code__
                assert eng.apply_update.__code__ is same[0].apply_update.__code__
                assert eng.plan_source() is same[0].plan_source()
        assert degree3[0]._step.__code__ is not degree4[0]._step.__code__
        # the self-join binds the same plan to its one partition
        assert SelfJoinEngine(0.5).apply_update.__code__ is degree3[0].apply_update.__code__
        assert SelfJoinEngine(0.5)._step.__code__ is degree3[0]._step.__code__
        # the refined plan is compiled once, apart from LW's plan of degree 3
        refined = [RefinedTriangleEngine(0.25), RefinedTriangleEngine(1.0)]
        for name in ("delta", "_step", "apply_update", "_build"):
            assert getattr(refined[1], name).__code__ is getattr(refined[0], name).__code__
            assert getattr(refined[0], name).__code__ is not getattr(degree3[0], name).__code__
        assert refined[1].plan_source() is refined[0].plan_source()

    def test_each_delta_walk_is_emitted_once(self):
        # the delta walks sit in step alone, one acc per relation, and
        # delta is the step with no part
        for eng in (TriangleEngine(0.5), RefinedTriangleEngine(0.5), Path4Engine(0.5),
                    *(LWEngine(n, 0.5) for n in (4, 5, 6))):
            source = eng.plan_source()
            assert source.count("acc = ") == eng.n
            assert _sections(source)["delta"] == \
                "def delta(v, t, m):\n        return step(v, None, t, m)\n"
        assert _sections(EnumTriangleEngine(0.5).plan_source())["delta"] == "delta = None\n"

    def test_builds_upkeep_and_stores_keep_their_recorded_source(self):
        # digests of build, of step without its delta walks (the "if count:"
        # blocks), and of the whole enumeration plan, which keeps no count,
        # recorded before the delta walks were emitted in step alone
        recorded = {
            "triangle": ("d36f7540964bcc7d", "df47a17c1fe8f0f6"),
            "refined": ("a834dd5d9917ef66", "c95ab13a5094e0e0"),
            "path4": ("c0b0e5de9dddc8b1", "af4b1416ae520892"),
            "enum": ("5ab960d5539a3d19", "5fb64356395a5b0f", "66e27f28021ec4ff"),
            "lw:4": ("c5cd084e3df26dfb", "916279b5287af403"),
            "lw:5": ("aaed0933efeae5ad", "86bd6e9fd0eb8c66"),
            "lw:6": ("d8824a39aeb2ca77", "07301240b941b336"),
        }
        engines = {"triangle": TriangleEngine(0.5), "refined": RefinedTriangleEngine(0.5),
                   "path4": Path4Engine(0.5), "enum": EnumTriangleEngine(0.5),
                   **{f"lw:{n}": LWEngine(n, 0.5) for n in (4, 5, 6)}}
        for name, eng in engines.items():
            source = eng.plan_source()
            sections = _sections(source)
            got = (_digest(sections["build"]), _digest(_without_deltas(sections["step"])))
            assert got + ((_digest(source),) if name == "enum" else ()) == recorded[name], name

    def test_generated_source_names_no_relation(self):
        for eng in (TriangleEngine(0.5), LWEngine(4, 0.5), SelfJoinEngine(0.5),
                    RefinedTriangleEngine(0.5)):
            tokens = list(tokenize.generate_tokens(io.StringIO(eng.plan_source()).readline))
            assert not [tok for tok in tokens if tok.type == tokenize.STRING]
            assert not {tok.string for tok in tokens if tok.type == tokenize.NAME} & set(eng.names)


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


class TestPerRelationExponents:
    def test_every_update_matches_the_tracker(self):
        # six tuples per degree: three that keep one relation light and the
        # others heavy, which fills the views, rotated, and three drawn
        # from the grid; the grow-and-shrink stream runs moves and majors
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        rng = random.Random(13)
        for n, domain in ((3, 4), (4, 4), (5, 3)):
            names = [f"R{i + 1}" for i in range(n)]
            streams = (lw_stream(40 + n, 300, domain, n),
                       [(names.index(rel), t, m) for rel, t, m in grow_shrink_stream(
                           n, 300, dict.fromkeys(names, n - 1), wide=domain)])
            lean = [(0.25,) * (n - 1) + (1.0,), (0.0,) * (n - 1) + (0.75,),
                    (0.25, 0.0) + (0.25,) * (n - 3) + (1.0,)]
            tuples = [eps[k:] + eps[:k] for k, eps in enumerate(lean)]
            while len(tuples) < 6:
                eps = tuple(rng.choice(grid) for _ in range(n))
                if len(set(eps)) > 1:
                    tuples.append(eps)
            filled = 0
            for eps in tuples:
                for stream in streams:
                    eng = LWEngine(n, eps)
                    trk = LWTracker(n)
                    for i, t, m in stream:
                        eng.on_update(i, t, m)
                        trk.update(i, t, m)
                        assert eng.answer() == trk.count, (n, eps, i, t, m)
                        filled += any(eng.views)
                    assert eng.eps == eps
                    assert not eng.check_invariants()
                    assert fresh_views(eng, ("views",)) == {"views": eng.views}
            assert filled, n


class TestConstruction:
    def test_preprocess_opcount_envelope_at_degree_4(self):
        # build cost at the balanced exponent should scale no worse than
        # size^(3/2); measured as a log-log fit over growing databases
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
