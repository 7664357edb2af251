"""Every engine against the oracle after every update, at the rebalancing edges.

Each engine of ``test_major_rebalance.ENGINES`` replays ``swing_stream``
streams across the exponent grid, from empty and from a preprocessed
start. The streams mix multiplicity-only changes, cancellations to zero,
negative multiplicities and loops with hot keys whose degrees swing past
one and a half times the threshold and back below half of it, on both
variables of a quad partition. After every update the loose bounds and
the size invariant must hold (``check_invariants() == []``), the size
the kernel keeps must equal the number of stored tuples of the oracle
database, and the answer must equal the oracle's: the first-order tracker
of the query family, or for enumeration the brute-force result.

The kernel checks only the bound an update can cross, and nothing after
an update that changed only a multiplicity; a key that crossed a bound
unchecked shows here as a loose-bound violation.
"""

import pytest

from skewivm import cli
from skewivm.cli import Update, family_arities
from skewivm.oracle import brute_force_enumerate

from helpers import swing_stream
from test_major_rebalance import ENGINES, EPS_GRID

# (seed, length, width of the other values, updates preprocessed first)
STREAMS = ((1, 540, 12, 0), (2, 540, 40, 120), (3, 720, 6, 0), (4, 720, 20, 300))


def _record_minors(eng, seen):
    """Record (variable, promote?) of every minor rebalance ``eng`` runs."""
    inner = eng.minor_rebalance

    def minor(i, key, moves, spec):
        # a move's source label is light on the key's variable for a promotion
        var = spec[0]
        seen.add((var, moves[0][0][var] == "l"))
        return inner(i, key, moves, spec)

    eng.minor_rebalance = minor


def _database(updates, arities):
    db = {name: {} for name in arities}
    for rel, t, m in updates:
        rows = db[rel]
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
    return db


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_update_keeps_the_bounds_and_the_oracle_answer(name, eps):
    family, make, _, load, _ = ENGINES[name]
    arities = family_arities(family)
    minors: set = set()
    unchanged = 0
    for seed, length, wide, preload in STREAMS:
        stream = swing_stream(seed, length, arities, wide)
        db = _database(stream[:preload], arities)
        eng = load(db, eps) if preload else make(eps)
        _record_minors(eng, minors)
        tracker = cli.build_tracker(family)
        for upd in stream[:preload]:
            cli._tracker_update(tracker, upd)
        for step, (rel, t, m) in enumerate(stream[preload:], preload):
            size = eng.db_size
            eng.on_update(rel, t, m)
            unchanged += eng.db_size == size
            where = (seed, step, eng.N, rel, t, m)
            assert eng.check_invariants() == [], where
            v = db[rel].get(t, 0) + m
            if v:
                db[rel][t] = v
            else:
                del db[rel][t]
            assert eng.db_size == sum(map(len, db.values())), where
            if name == "enum":
                assert eng.result_multiset() == brute_force_enumerate(
                    db["R"], db["S"], db["T"]), where
            else:
                cli._tracker_update(tracker, Update(rel, t, m))
                assert eng.answer() == tracker.count, where
    # a third of the updates or more leave the size alone: the early return
    assert unchanged * 3 >= sum(length - preload for _, length, _, preload in STREAMS)
    if eps == 0.5:
        # both bounds are crossed, on both variables of a quad partition
        quad = name in ("refined", "path4")
        want = {(var, up) for var in ((0, 1) if quad else (0,)) for up in (True, False)}
        assert want <= minors, minors
