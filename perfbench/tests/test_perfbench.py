"""Small-size self-test of the benchmark: exact counts repeat, answers match.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
from workloads import WORKLOADS, check_family, tri_hub_grow  # noqa: E402

SCALE = 0.02


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_runs_and_tracing(name):
    first = harness.run(name, seed=7, seconds=0, trace=False, scale=SCALE)
    second = harness.run(name, seed=7, seconds=0, trace=False, scale=SCALE)
    traced = harness.run(name, seed=7, seconds=0, trace=True, scale=SCALE)
    for result in (first, second, traced):
        assert result["failed"] == 0, result["info"]["failures"]
        assert result["attempted"] > harness.CHECKPOINTS
    assert first["info"]["counts"] == second["info"]["counts"] == traced["info"]["counts"]
    counts = first["info"]["counts"]
    assert set(counts["ops"]) == set(harness.OPS)
    assert counts["space_entries"] == first["end_to_end"]["space_entries"] > 0
    layer = traced["per_layer"]
    assert set(layer) == {metric for metric, _ in harness.PER_LAYER}
    assert layer["metrics.ops.iterations"] == counts["ops"]["iterations"]
    assert layer["relation.upsert.calls_per_update"] > 0


def test_stream_of_wrong_family_is_refused():
    db, updates = tri_hub_grow(1, SCALE)
    check_family("triangle", db, updates)
    with pytest.raises(ValueError):
        check_family("path4", db, updates)
    with pytest.raises(ValueError):
        check_family("triangle", db, [("R", (1, 2), 1.0)])
