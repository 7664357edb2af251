"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible under
``pytest -s`` or in the captured output) and then asserts. All checks are
exact unless the criterion itself is a fitted scaling bound, in which case
the bound is pinned here as a constant.

Shared heavy artifacts (the 500 mixed triangle streams and their oracle
count sequences, plus the five per-exponent engine replays) are built once
per module and reused by the criteria that reference the same streams.
"""

import random
import statistics

import pytest

from skewivm.cli import hub_insert_stream, space_probe_stream
from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import LWEngine
from skewivm.metrics import fit_scaling
from skewivm.oracle import (LWTracker, OuMvInstance, Path4Tracker,
                            SelfJoinTracker, TriangleTracker,
                            brute_force_enumerate, brute_force_lw,
                            brute_force_path4, brute_force_selfjoin,
                            brute_force_triangle, oumv_direct,
                            solve_oumv_via_engine)
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import EpsConfig, TriangleEngine, static_count

from helpers import (ThreeCopiesEngine, fresh_views, lw_stream, mixed_stream, path4_stream,
                     varied_length)

EPS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


@pytest.fixture(scope="module")
def triangle_streams():
    """500 seeded mixed streams with oracle count sequences, brute-anchored."""
    rng = random.Random(20240811)
    streams = []
    for k in range(500):
        stream = mixed_stream(1000 + k, varied_length(rng, 1500), 24)
        trk = TriangleTracker()
        expected = []
        for rel, t, m in stream:
            trk.update(rel, t, m)
            expected.append(trk.count)
        anchor = rng.randrange(len(stream))
        probe = TriangleTracker()
        for rel, t, m in stream[:anchor + 1]:
            probe.update(rel, t, m)
        assert probe.count == brute_force_triangle(*(dict(r) for r in probe.rels))
        assert trk.count == brute_force_triangle(*(dict(r) for r in trk.rels))
        streams.append((stream, expected))
    return streams


@pytest.fixture(scope="module")
def replayed(triangle_streams):
    """Engine replays of the shared streams at every exponent.

    Collects, in one pass per exponent: per-prefix answer mismatches, size
    invariant breaks (every update), loose partition breaks (every
    update), and wedge recomputation mismatches on a seeded 1% sample of
    the balanced-exponent steps.
    """
    rng = random.Random(77)
    mismatches = []
    size_breaks = []
    loose_breaks = []
    view_breaks = []
    for eps in EPS_GRID:
        cfg = EpsConfig.uniform(eps)
        for sid, (stream, expected) in enumerate(triangle_streams):
            eng = TriangleEngine(cfg)
            parts = eng.parts
            for i, (rel, t, m) in enumerate(stream):
                eng.on_update(rel, t, m)
                if eng.q != expected[i]:
                    mismatches.append((eps, sid, i))
                    break
                if not (eng.N // 4 <= eng.db_size < eng.N):
                    size_breaks.append((eps, sid, i))
                for j in range(3):
                    if parts[j].violations(eng.N ** eng.eps[j]):
                        loose_breaks.append((eps, sid, i))
                        break
                if eps == 0.5 and rng.random() < 0.01:
                    fresh = fresh_views(eng, ("wedges",))["wedges"]
                    for j in range(3):
                        if eng.wedges[j] != fresh[j]:
                            view_breaks.append((sid, i, j))
    return {
        "mismatches": mismatches,
        "size_breaks": size_breaks,
        "loose_breaks": loose_breaks,
        "view_breaks": view_breaks,
        "n_streams": len(triangle_streams),
    }


def test_c01_triangle_oracle_equivalence(replayed):
    ok = not replayed["mismatches"]
    verdict(1, "triangle answers equal brute force after every prefix",
            ok, f"{replayed['n_streams']} streams x {len(EPS_GRID)} exponents, exact")


def test_c02_cross_engine_equivalence(triangle_streams):
    bad = []
    static_bad = []
    for sid in range(100):
        stream, expected = triangle_streams[sid]
        core = TriangleEngine(EpsConfig.uniform(0.5))
        refined = RefinedTriangleEngine(0.5)
        lw3 = LWEngine(3, 0.5)
        db = {"R": {}, "S": {}, "T": {}}
        for i, (rel, t, m) in enumerate(stream):
            core.on_update(rel, t, m)
            refined.on_update(rel, t, m)
            lw3.on_update({"R": 0, "S": 1, "T": 2}[rel], t, m)
            nv = db[rel].get(t, 0) + m
            if nv:
                db[rel][t] = nv
            else:
                del db[rel][t]
            if not (core.answer() == refined.answer() == lw3.answer() == expected[i]):
                bad.append((sid, i))
                break
        if static_count(db) != expected[len(stream) - 1]:
            static_bad.append(sid)
    verdict(2, "base, refined, degree-3 cyclic and static counts agree",
            not bad and not static_bad, "100 shared streams, exact")


def test_c03_recovery_modes():
    bad = []
    for sid in range(30):
        stream = mixed_stream(3000 + sid, 400, 16)
        for eps in (0.0, 1.0):
            eng = TriangleEngine(EpsConfig.uniform(eps))
            for rel, t, m in stream:
                eng.on_update(rel, t, m)
                if any(eng.wedges):
                    bad.append(("uniform", eps, sid))
                    break
                empty_side = "l" if eps == 0.0 else "h"
                if any(p.parts[empty_side].size() for p in eng.parts):
                    bad.append(("parts", eps, sid))
                    break
        for triple in ((0.0, 0.0, 1.0), (1.0, 0.0, 1.0)):
            eng = TriangleEngine(EpsConfig(*triple))
            trk = TriangleTracker()
            for rel, t, m in stream:
                eng.on_update(rel, t, m)
                trk.update(rel, t, m)
                if eng.wedges[0] or eng.wedges[2] or eng.answer() != trk.count:
                    bad.append(("factorized", triple, sid))
                    break
    verdict(3, "extreme exponents keep views empty; factorized keeps one",
            not bad, "30 streams x 4 configurations, exact")


def test_c04_invariant_suite(replayed):
    ok = (not replayed["size_breaks"] and not replayed["loose_breaks"]
          and not replayed["view_breaks"])
    verdict(4, "size and loose partition invariants after every update, "
               "views recompute-exact on 1% sample", ok,
            f"breaks: size={len(replayed['size_breaks'])} "
            f"loose={len(replayed['loose_breaks'])} views={len(replayed['view_breaks'])}")


def test_c05_selfjoin():
    rng = random.Random(5050)
    bad = []
    for sid in range(300):
        length = varied_length(rng, 700, 60)
        gen = random.Random(9000 + sid)
        eng = SelfJoinEngine((0.0, 0.5, 1.0)[sid % 3])
        trk = SelfJoinTracker()
        copies = None
        if sid % 8 == 0:
            copies = ThreeCopiesEngine(0.5)
        for _ in range(length):
            a = gen.randrange(12)
            b = a if gen.random() < 0.15 else gen.randrange(12)
            m = gen.choice((-2, -1, 1, 2))
            eng.on_update("R", (a, b), m)
            trk.update((a, b), m)
            if copies is not None:
                copies.on_update("R", (a, b), m)
            if eng.answer() != trk.count or (copies and copies.answer() != trk.count):
                bad.append(sid)
                break
        if trk.count != brute_force_selfjoin(dict(trk.rel)):
            bad.append((sid, "anchor"))
    verdict(5, "self-join equals brute force and the three-copies encoding",
            not bad, "300 streams with loops, exact")


def test_c06_enumeration():
    bad = []
    for sid in range(200):
        eps = (0.0, 0.5, 1.0)[sid % 3]
        eng = EnumTriangleEngine(eps)
        trk = TriangleTracker()
        gen = random.Random(6000 + sid)
        for _ in range(60 + gen.randrange(190)):
            rel = "RST"[gen.randrange(3)]
            t = (gen.randrange(10), gen.randrange(10))
            m = gen.choice((-2, -1, 1, 2))
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            got = eng.result_multiset()  # raises on any duplicate yield
            if got != brute_force_enumerate(*(dict(r) for r in trk.rels)):
                bad.append(sid)
                break
    # constant-delay probe on growing skewed databases
    delay_ok = True
    detail = []
    maxima = {}
    for n in (1000, 4000, 16000):
        eng = EnumTriangleEngine(0.5)
        gen = random.Random(606)
        wide = max(12, int((2 * n) ** 0.5))
        for i in range(n):
            rel = "RST"[i % 3]
            v = lambda: gen.randrange(2) if gen.random() < 0.5 else 2 + gen.randrange(wide)
            eng.on_update(rel, (v(), v()), 1)
        delays = [d for _, _, d in eng.enumerate_with_delays()]
        med = statistics.median(delays) if delays else 1
        maxima[n] = max(delays) if delays else 0
        detail.append(f"n={n}: max/med={maxima[n]}/{med}")
        if delays and maxima[n] >= 4 * max(med, 1):
            delay_ok = False
    if maxima[16000] > maxima[1000] + 8:
        delay_ok = False
    verdict(6, "enumerated multiset equals the brute-force join; delay flat",
            not bad and delay_ok, "200 streams exact; " + "; ".join(detail))


def test_c07_path4_and_lw():
    bad = []
    for sid in range(300):
        eps = EPS_GRID[sid % 5]
        eng = Path4Engine(eps)
        trk = Path4Tracker()
        gen = random.Random(7000 + sid)
        for rel, t, m in path4_stream(7000 + sid, 60 + gen.randrange(240), 12):
            eng.on_update(rel, t, m)
            trk.update(rel, t, m)
            if eng.answer() != trk.count:
                bad.append(("path4", sid))
                break
        else:
            if trk.count != brute_force_path4(trk.r, trk.s, trk.t, trk.u):
                bad.append(("path4-anchor", sid))
    for sid in range(150):
        eps = (0.25, 0.5, 0.75)[sid % 3]
        eng = LWEngine(4, eps)
        trk = LWTracker(4)
        gen = random.Random(7500 + sid)
        for i, t, m in lw_stream(7500 + sid, 50 + gen.randrange(180), 7, 4):
            eng.on_update(i, t, m)
            trk.update(i, t, m)
            if eng.answer() != trk.count:
                bad.append(("lw4", sid))
                break
        else:
            if trk.count != brute_force_lw([dict(r) for r in trk.rels], 4):
                bad.append(("lw4-anchor", sid))
    for sid in range(30):
        lw3 = LWEngine(3, 0.5)
        tri = TriangleEngine(EpsConfig.uniform(0.5))
        for rel, t, m in mixed_stream(7800 + sid, 400, 14):
            lw3.on_update({"R": 0, "S": 1, "T": 2}[rel], t, m)
            tri.on_update(rel, t, m)
            if lw3.answer() != tri.answer():
                bad.append(("lw3", sid))
                break
    verdict(7, "path-of-four and degree-4 cyclic counts equal brute force; "
               "degree 3 tracks the triangle engine exactly",
            not bad, "300 + 150 + 30 streams, exact")


def test_c08_oumv_harness():
    rng = random.Random(808)
    bad = []
    for k in range(50):
        n = rng.randrange(4, 33)
        inst = OuMvInstance.random(n, rng, rounds=min(n, 12))
        want = oumv_direct(inst)
        for eps in (0.0, 0.5, 1.0):
            got = solve_oumv_via_engine(
                inst, lambda: TriangleEngine(EpsConfig.uniform(eps)))
            if got != want:
                bad.append((k, n, eps))
    verdict(8, "reduction harness bits equal direct vector-matrix-vector products",
            not bad, "50 instances up to n=32, three exponents, exact")


SCALE_SIZES = (4000, 16000, 64000)


def _total_ops(engine, stream) -> int:
    for rel, t, m in stream:
        engine.on_update(rel, t, m)
    c = engine.counters
    return c.lookups + c.iterations + c.moves


def test_c09_update_scaling_separation():
    slopes = {}
    for eps in (0.5, 0.0, 1.0):
        totals = [_total_ops(TriangleEngine(EpsConfig.uniform(eps)),
                             hub_insert_stream(n, seed=101)) for n in SCALE_SIZES]
        slopes[eps] = fit_scaling(SCALE_SIZES, totals)
    ok = slopes[0.5] <= 1.65 and slopes[0.0] >= 1.85 and slopes[1.0] >= 1.85
    verdict(9, "balanced exponent is sublinear per update, extremes are linear",
            ok, f"fitted exponents: eps=1/2: {slopes[0.5]:.2f} (<=1.65), "
                f"eps=0: {slopes[0.0]:.2f}, eps=1: {slopes[1.0]:.2f} (>=1.85)")


def test_c10_space_profiles():
    peaks = {}
    for name, factory in (("core", lambda: TriangleEngine(EpsConfig.uniform(0.5))),
                          ("refined", lambda: RefinedTriangleEngine(0.5))):
        per_size = []
        for n in SCALE_SIZES:
            eng = factory()
            peak = 0
            for rel, t, m in space_probe_stream(n, seed=202):
                eng.on_update(rel, t, m)
                s = eng.space_used()
                if s > peak:
                    peak = s
            per_size.append(peak)
        peaks[name] = fit_scaling(SCALE_SIZES, per_size)
    ok = peaks["core"] <= 1.6 and peaks["refined"] <= 1.15
    verdict(10, "state size exponents: one-variable split superlinear-bounded, "
                "two-variable split linear",
            ok, f"core {peaks['core']:.2f} (<=1.6), refined {peaks['refined']:.2f} (<=1.15)")
