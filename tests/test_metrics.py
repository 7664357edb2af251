"""Counter plumbing, scaling-fit calibration, and a library free of numpy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewivm.cli import _record
from skewivm.metrics import OpCounters, fit_scaling
from skewivm.triangle import TriangleEngine

from helpers import mixed_stream, replay_audit, synthetic_totals


def test_counters_monotone_under_use():
    eng = TriangleEngine(0.5)
    prev = eng.counters.snapshot()
    for rel, t, m in mixed_stream(1, 400, 10):
        eng.on_update(rel, t, m)
        cur = eng.counters.snapshot()
        assert all(cur[k] >= prev[k] for k in cur)
        prev = cur


def test_record_captures_rebalance_events():
    eng = TriangleEngine(0.5)
    eng.on_update("R", (1, 2), 1)  # first insert doubles the threshold base
    rec = _record(1, eng)
    assert rec["rebalances"] == {"major": 1, "minor": 0}
    assert rec["db_size"] == 1 and rec["N"] == 2
    assert rec["ops"]["lookups"] > 0


def test_zero_op_step_records_zeros():
    eng = TriangleEngine(0.5)
    rec = _record(0, eng)
    assert rec["ops"]["iterations"] == 0 and rec["db_size"] == 0 and rec["answer"] == 0
    assert rec["pending_moves"] == 0


def test_record_counts_the_keys_whose_moves_are_queued():
    # threshold base 8 holding two tuples: a fifth tuple at one key passes
    # the light cap 4.24, and its five moves take three later updates
    eng = TriangleEngine(0.5)
    for b in range(4):
        eng.on_update("S", (100 + b, 200 + b), 1)
    eng.on_update("S", (100, 200), -1)
    eng.on_update("S", (101, 201), -1)
    for b in range(1, 6):
        eng.on_update("R", (1, b), 1)
    assert eng.counters.rebalance_minor == 1
    assert _record(11, eng)["pending_moves"] == 1
    for step in (12, 13, 14):
        eng.on_update("S", (103, 203), 1)
        assert _record(step, eng)["pending_moves"] == (step < 14)


def test_fit_scaling_constant_per_step_cost():
    sizes = [1000, 4000, 16000]
    totals = [synthetic_totals(n, lambda i: 3) for n in sizes]
    assert abs(fit_scaling(sizes, totals) - 1.0) < 0.01


def test_fit_scaling_sqrt_per_step_cost():
    # sum of ceil(sqrt(i)) grows like (2/3) n^(3/2)
    sizes = [1000, 4000, 16000]
    totals = [synthetic_totals(n, lambda i: math.isqrt(i) + 1) for n in sizes]
    assert abs(fit_scaling(sizes, totals) - 1.5) < 0.05


@pytest.mark.parametrize("exponent", (0.5, 1.0, 1.5, 2.0))
def test_fit_scaling_recovers_an_exact_power_law(exponent):
    sizes = [1, 2, 4, 8]
    totals = [3 * s ** exponent for s in sizes]
    assert abs(fit_scaling(sizes, totals) - exponent) < 1e-12


def test_fit_scaling_matches_a_numpy_least_squares_fit():
    np = pytest.importorskip("numpy")
    sizes = [1000, 4000, 16000, 64000]
    totals = [0.5, 2 * 4000 ** 1.2, 7e6, 3.3e8]  # the first clamps to one
    want = np.polyfit(np.log(sizes), np.log(np.maximum(totals, 1.0)), 1)[0]
    assert abs(fit_scaling(sizes, totals) - want) < 1e-9


def test_library_and_cli_import_without_numpy():
    # numpy stays a benchmark dependency; the library must not import it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"),
                                                      env.get("PYTHONPATH"))))
    code = "import sys; sys.modules['numpy'] = None; import skewivm, skewivm.cli"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]


def test_fit_scaling_needs_three_sizes():
    with pytest.raises(ValueError):
        fit_scaling([10, 20], [1, 2])


def test_replay_audit_deterministic_counters():
    stream = mixed_stream(7, 700, 12)
    assert replay_audit(lambda: TriangleEngine(0.5), stream)
    assert replay_audit(lambda: TriangleEngine(0.25), stream)


def test_update_paths_account_their_work():
    # every update must tick at least the routing lookup; scans add more
    eng = TriangleEngine(0.5)
    before = eng.counters.total_steps()
    for rel, t, m in mixed_stream(11, 300, 8):
        prev = eng.counters.total_steps()
        eng.on_update(rel, t, m)
        assert eng.counters.total_steps() > prev
    assert eng.counters.total_steps() > before


def test_opcounters_snapshot_roundtrip():
    c = OpCounters()
    c.lookups += 5
    c.iterations += 7
    c.moves += 1
    snap = c.snapshot()
    assert snap["lookups"] == 5 and snap["iterations"] == 7
    assert c.total_steps() == 13
