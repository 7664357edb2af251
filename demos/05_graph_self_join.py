"""Triangles of a single graph given as one evolving edge relation.

With one relation joined to itself three times, the three auxiliary views
collapse into one and each update's delta picks up a factor of three (the
updated edge can play any of the three roles) plus two loop-only
correction terms. Feeding an undirected graph means inserting each edge in
both directions; every undirected triangle then shows up six times.
"""

import itertools
import random

from skewivm import SelfJoinEngine, TriangleEngine

eng = SelfJoinEngine(0.5)

print("a 4-clique, undirected (both directions per edge):")
for a, b in itertools.combinations(range(4), 2):
    eng.on_update("R", (a, b), 1)
    eng.on_update("R", (b, a), 1)
print(f"  directed count={eng.answer()}  undirected={eng.answer() // 6} "
      f"(expected 4 = C(4,3))")

print("\nself-loops close degenerate triangles on their own:")
eng.on_update("R", (9, 9), 1)
before = eng.answer()
print(f"  after inserting loop (9,9): count={before} (loop adds 1)")
eng.on_update("R", (9, 9), -1)
print(f"  after deleting it again:    count={eng.answer()}")

print("\nthe reduced engine agrees with three synchronized copies of the graph:")
rng = random.Random(5)
reduced = SelfJoinEngine(0.5)
copies = TriangleEngine(0.5)
for _ in range(1500):
    t = (rng.randrange(15), rng.randrange(15))
    m = rng.choice((-1, 1, 1))
    reduced.on_update("R", t, m)
    for rel in ("R", "S", "T"):
        copies.on_update(rel, t, m)
assert reduced.answer() == copies.answer()
print(f"  both report {reduced.answer()} after 1500 mixed updates")
print(f"  reduced engine holds one view with {len(reduced.views[0])} entries "
      f"instead of three")
