"""The work of every single update, against the paper's per-update bound.

The balanced exponent bounds an update's cost by O(N^max(eps, 1 - eps)),
here O(sqrt N), once rebalancing is spread over the updates. The engines
count the work: ``total_steps()`` (lookups, posting iterations, tuple
moves) and ``checks``, the keys whose degree a rebalance decision reads
(``restrict``, ``minor_check`` and the sweep after a halving). The
triangle engine replays ``helpers.grow_shrink_stream`` at eps = 1/2 at
growing sizes, so the threshold base doubles up to the peak and halves on
the way down, and after every update its ``ops + checks`` must stay below
``c * sqrt(N) + C0``, N being the larger threshold base of before and
after the update (a halving reads the state of the old one).

``c`` is derived, not fitted. Write theta = sqrt(N). The base before a
halving is at most 2N + 3 <= 3N for the base N after it (N >= 3), so
every threshold the state still reflects is at most sqrt(3N). Fewer than
N tuples are stored. Then:

  * a light row, below one and a half times such a threshold, holds
    fewer than ``LIGHT_ROW`` = 1.5 sqrt(3) postings per sqrt(N);
  * a heavy part holds one posting per key at a fixed value: keys heavy
    now or bound heavy (degree at least theta / 2, so fewer than 2 sqrt(N)
    of them) and keys a halving demoted that are still in transit (heavy
    under the old base, fewer than 2 sqrt(3N)): ``HEAVY_KEYS`` = 2 + 2
    sqrt(3) per sqrt(N);
  * the watermark a major reads holds the keys recorded since the last
    one, at a mark of at least sqrt(N/4 - 1); on these streams, which
    grow and then shrink, that is the keys at or above it at the last
    major, or since, fewer than ``WATERMARK`` = 2 * 2 * sqrt(2) per
    sqrt(N) for N >= 8.

An update routes (1 lookup), reads the view (1 lookup), scans a heavy
part and a light row for its delta, runs one upkeep walk over at most a
heavy part, and makes at most ``B`` moves, each a delete and an insert
with one walk each. It checks at most two degrees (the update's key and
a key in transit) and sweeps ``SWEEP`` keys; a major reads the keys of
the heavy parts, the keys in transit (heavy-bound ones or ones a halving
demoted, at most ``HEAVY_KEYS`` again), the watermark and the key of
the tuple that triggered it. So ``c = LIGHT_ROW + (2 + 2B + 2)
HEAVY_KEYS + WATERMARK`` and ``C0 = 2 + 2 + SWEEP + 1``.

That bound is loose: a halving that read every key, as restricts did
before the watermark was set at the next halving's threshold, stays
under it up to these sizes. So the test also requires that, at the
largest size, no update reads a tenth of the keys such a full scan
reads at a halving. The path4 engine, whose quad partitions split on two
variables and the only benchmark workload that halves, replays the same
streams under its own key-check bound (``test_key_checks_stay_below_sqrt_n``).
"""

import math

import pytest

from skewivm.cli import family_arities
from skewivm.loomis_whitney import B, SWEEP
from skewivm.path4 import Path4Engine
from skewivm.triangle import TriangleEngine

from helpers import grow_shrink_stream

SIZES = (4000, 16000, 64000)

LIGHT_ROW = 1.5 * math.sqrt(3)
HEAVY_KEYS = 2 + 2 * math.sqrt(3)
WATERMARK = 4 * math.sqrt(2)
C = LIGHT_ROW + (2 + 2 * B + 2) * HEAVY_KEYS + WATERMARK
C0 = 2 + 2 + SWEEP + 1


def _replay(eng, stream):
    """Per update ``(ops + checks, checks, the larger base)``, and per halving the keys a full scan reads.

    Every major must find no key left to sweep.
    """
    c = eng.counters
    costs, scans = [], []
    inner = eng.major_rebalance

    def major(*args):
        # the sweep after a halving ends before the next major can fire
        assert not any(keys for part in eng.parts if part is not None for keys in part.unswept)
        if not args:  # a halving: every key of every partition variable
            scans.append(sum(len({*by[0], *by[1], *by[2], *by[3]})
                             for part in eng.parts if part is not None for by in part._by_status))
        inner(*args)

    eng.major_rebalance = major
    for rel, t, m in stream:
        ops, checks, base = c.total_steps(), c.checks, eng.N
        eng.on_update(rel, t, m)
        checks = c.checks - checks
        costs.append((c.total_steps() - ops + checks, checks, max(base, eng.N)))
    return costs, scans


@pytest.mark.parametrize("size", SIZES)
def test_every_update_stays_below_c_sqrt_n(size):
    stream = grow_shrink_stream(1, size, family_arities("triangle"), size // 4)
    costs, scans = _replay(TriangleEngine(0.5), stream)
    assert scans, "no halving"
    worst = max(costs, key=lambda x: x[0] - C * math.sqrt(x[2]))
    assert all(cost <= C * math.sqrt(n) + C0 for cost, _, n in costs), (worst, C)
    if size == SIZES[-1]:
        assert max(checks for _, checks, _ in costs) * 10 < min(scans), scans


# key checks per update on quad partitions, as above per variable of two:
# two degrees each for the update, and at a major the keys of two heavy
# parts (a key may sit in both), the keys in transit, the watermark and
# the key of the tuple that triggered it
QUAD_CHECKS = 2 * (3 * HEAVY_KEYS + WATERMARK)
QUAD_C0 = 2 * 2 + SWEEP + 2


@pytest.mark.parametrize("size", SIZES[:2])
def test_key_checks_stay_below_sqrt_n(size):
    stream = grow_shrink_stream(1, size, family_arities("path4"), size // 4)
    costs, scans = _replay(Path4Engine(0.5), stream)
    assert scans, "no halving"
    assert all(checks <= QUAD_CHECKS * math.sqrt(n) + QUAD_C0 for _, checks, n in costs)
