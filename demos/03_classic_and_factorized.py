"""Recovering the classical and factorized maintenance schemes.

Pinning the exponent at 0 or 1 sends every tuple to one side of each
partition, so all auxiliary views stay empty and the engine degenerates to
plain first-order delta maintenance. Mixed 0/1 assignments per relation
keep exactly one view alive, which is the factorized scheme: constant-time
updates for the relation outside the view, linear-time for the others.
"""

import random

from skewivm import TriangleEngine

rng = random.Random(3)
stream = [("RST"[rng.randrange(3)], (rng.randrange(12), rng.randrange(12)),
           rng.choice((-1, 1, 1))) for _ in range(3000)]


def replay(cfg):
    eng = TriangleEngine(cfg)
    for rel, t, m in stream:
        eng.on_update(rel, t, m)
    return eng


for label, cfg in (("classical, everything heavy (eps=0)", 0.0),
                   ("classical, everything light (eps=1)", 1.0)):
    eng = replay(cfg)
    sizes = [len(view) for view in eng.views]
    print(f"{label}: count={eng.answer()}, view sizes={sizes}")
    assert sizes == [0, 0, 0]

print()
eng = replay((0.0, 0.0, 1.0))
print("factorized (eps_r=0, eps_s=0, eps_t=1):")
print(f"  count={eng.answer()}")
# the view of relation v joins the previous relation's light part with the
# next one's heavy part, and answers updates to v in constant time
print(f"  views: for R updates (T light, S heavy): {len(eng.views[0])} entries, "
      f"for S (R light, T heavy): {len(eng.views[1])}, "
      f"for T (S light, R heavy): {len(eng.views[2])}")
assert len(eng.views[1]) == 0 and len(eng.views[2]) == 0
print("  only the S-T view is materialized, so updates to R are constant time")
