"""Driving the count engine as an online vector-matrix-vector solver.

Encode a boolean matrix in the middle relation once; per round, overwrite
the outer relations with the round's vectors and ask whether the triangle
count is nonzero. The bit sequence equals the direct products, which makes
this a sharp end-to-end correctness harness: the update pattern (bulk
overwrites against a fixed shared endpoint) is nothing like a random
stream and leans hard on deletions and rebalancing.
"""

import random

from skewivm import TriangleEngine
from skewivm.oracle import OuMvInstance, oumv_direct, solve_oumv_via_engine

rng = random.Random(2024)
inst = OuMvInstance.random(24, rng, rounds=10)

direct = oumv_direct(inst)
print(f"24x24 boolean matrix, 10 query rounds")
print(f"direct products:   {direct}")

for eps in (0.0, 0.5, 1.0):
    bits = solve_oumv_via_engine(
        inst, lambda: TriangleEngine(eps))
    marker = "ok" if bits == direct else "MISMATCH"
    print(f"via engine eps={eps}: {bits}  {marker}")
    assert bits == direct

counters_engine = TriangleEngine(0.5)
solve_oumv_via_engine(inst, lambda: counters_engine)
ops = counters_engine.counters.snapshot()
print(f"\nwork at the balanced exponent: {ops['iterations']} scan steps, "
      f"{ops['rebalance_major']} majors, {ops['rebalance_minor']} minors")
