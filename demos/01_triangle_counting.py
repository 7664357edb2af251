"""Counting triangles under a live stream of edge inserts and deletes.

Walks through the basics: feed single-tuple updates into the maintenance
engine, read the count back in constant time, and watch the threshold
base double as the database grows.
"""

import random

from skewivm import TriangleEngine
from skewivm.oracle import brute_force_triangle

eng = TriangleEngine(0.5)

print("one triangle, one edge at a time:")
for rel, t in (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 1))):
    eng.on_update(rel, t, 1)
    print(f"  insert {rel}{t}: count={eng.answer()}  base N={eng.N}  |D|={eng.db_size}")

print("\ndeleting the closing edge takes it away again:")
eng.on_update("T", (3, 1), -1)
print(f"  count={eng.answer()}")

print("\nnow a fresh engine on a random stream; the count always matches a "
      "from-scratch recount:")
eng = TriangleEngine(0.5)
rng = random.Random(7)
shadow = {"R": {}, "S": {}, "T": {}}
for step in range(2000):
    rel = "RST"[rng.randrange(3)]
    t = (rng.randrange(20), rng.randrange(20))
    m = rng.choice((-1, 1, 1))
    eng.on_update(rel, t, m)
    nv = shadow[rel].get(t, 0) + m
    if nv:
        shadow[rel][t] = nv
    else:
        del shadow[rel][t]

expected = brute_force_triangle(shadow["R"], shadow["S"], shadow["T"])
print(f"  after 2000 updates: engine={eng.answer()}  brute force={expected}")
assert eng.answer() == expected

ops = eng.counters.snapshot()
print(f"\nwork done: {ops['iterations']} scan steps, {ops['lookups']} probes, "
      f"{ops['rebalance_major']} major and {ops['rebalance_minor']} minor rebalances")
print(f"state size (partitions + views): {eng.space_used()} entries")
