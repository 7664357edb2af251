"""The tuning exponent trades state size against update work.

Replays the same skewed insert stream at several exponents and tabulates
total primitive operations against peak state size. Low exponents keep
everything heavy (big scans, small views), high exponents keep everything
light (same problem mirrored); the balanced middle pays a square-root
budget per update and materializes moderately sized views.
"""

from skewivm import TriangleEngine
from skewivm.cli import hub_insert_stream

STREAM = hub_insert_stream(20000, seed=11)

print(f"{'eps':>5} | {'total ops':>12} | {'peak state':>10} | {'majors':>6} | {'minors':>6}")
print("-" * 55)
for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
    eng = TriangleEngine(eps)
    peak = 0
    for rel, t, m in STREAM:
        eng.on_update(rel, t, m)
        peak = max(peak, eng.space_used())
    c = eng.counters
    total = c.lookups + c.iterations + c.moves
    print(f"{eps:>5} | {total:>12,} | {peak:>10,} | {c.rebalance_major:>6} | {c.rebalance_minor:>6}")

print("""
The extremes pay hub-length scans on every update touching a hub; the
balanced setting promotes each hub once and then answers in near-constant
work per update.""")
