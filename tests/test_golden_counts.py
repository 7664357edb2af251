"""Recorded op counts and answers, the guard for refactors of the engines.

Every engine replays a fixed seeded stream, once from an empty state and
once from a state preprocessed from the stream's first updates. The final
``OpCounters`` snapshot, the final answer and the sum of the answers over
all prefixes must equal the values recorded below, which were taken from
the engines before their shared maintenance code was factored out. A
refactor that changes the work done, or the order in which rebalancing
visits tuples, changes at least one of them.

Five engines (a one-variable partition, the self-join, the quad
partitions of path4 and of the refined triangle, and the enumeration
engine) also replay their
family's stream from empty with two multiplicity-only changes after every
update (``CHURN_STREAMS``). The first three rows were recorded before the
engines stopped checking anything after an update that changes no tuple's
existence: a check skipped wrongly, or a rebalance fired on a
multiplicity change, moves them.

Re-recorded since, ``iterations`` only: ``triangle:0.5`` and ``selfjoin``
walk the light postings at the join value once for both the light/heavy
and the light/light case, and ``selfjoin`` moves a key's tuples in
insertion order (posting maps) rather than set order, which changes the
walks made between the moves. Then, ``iterations`` only again:

  * a major rebalance that moves no tuple no longer rebuilds the views,
    whose build walked the joins behind them: ``enum``, ``path4``,
    ``selfjoin``, ``triangle:0.5``, ``triangle:0,0,1`` (it never moves a
    tuple, and its wedge of S's heavy part with T's light part is
    nonempty) and ``lw:4`` from empty (the preprocessed replay's majors
    all move tuples);
  * ``refined`` walks the next relation's light rows at the join value
    once, probing every part of the second relation, instead of once for
    its heavy parts and once for its light ones; its zero-move majors
    rebuilt empty wedges, so the skipped rebuilds change nothing there.

The triangle engines at 0 and 1 keep their counts: all their wedges are
empty, so their rebuilds walked nothing.

Then ``lookups`` and ``iterations``, with ``moves``, the answers and the
prefix sums unchanged: every tuple a rebalance moves, in a major as in a
minor, goes through the update step without computing the count, whose
delete and insert deltas cancel, and a major no longer rebuilds the views
after its moves. Every engine that moves tuples here does less work,
except ``enum``, which keeps no count: its moves now walk the listing
views that its majors used to rebuild (more ``lookups``; ``iterations``
down from empty, up from the preprocessed start). A quad partition's major
also moves its tuples in a different order.

Then, with ``iterations``, ``moves``, the answers and the prefix sums of
every other row unchanged, when every engine started loading through the
one shared loader:

  * ``enum`` (``lookups`` only, both starts): its summed pair views and
    the root views over them, which nothing read, are gone, and with them
    the lookup each update made into the pair sums;
  * ``selfjoin`` preprocessed (``lookups`` and ``iterations``): its
    loader no longer replays every edge through the update step; it
    builds the wedge from the strict parts and counts once, summing each
    edge's multiplicity times its one-hop sum, as the triangle engines
    do over R. The wedge build walks more pairs than the replay did
    (4358 -> 4756 iterations), and the count skips the replay's
    loop-correction lookups (1526 -> 1518).

Then ``moves`` and ``iterations``, with ``lookups``, the rebalance
counts, the answers and the prefix sums of every row unchanged, when
rebalances started queuing their key moves and every update made at most
two of them:

  * ``moves`` fall for ``triangle:0.5``, ``refined``, ``enum``,
    ``lw:4`` and ``selfjoin`` from empty: a tuple cancelled while its key
    is in transit, before its move came up, is never moved (10 of them
    from empty, 7 preprocessed, on the triangle stream), and
    ``selfjoin`` ends its stream with one key's moves still queued;
  * ``iterations`` change for those and for ``path4`` (both starts and
    the multiplicity-only rows of ``path4``, ``selfjoin`` and
    ``triangle:0.5``): each move's update step walks the other parts as
    they stand when the move is drained, updates or a later major, not
    when the rebalance fired; a quad key's tuples also leave its two
    parts in label order. ``refined`` keeps its iterations: on this
    stream its moves walk no posting, before and after.

Rows whose engine never moves a tuple (the triangle engines at 0, 1 and
0,0,1, and ``selfjoin`` preprocessed) are unchanged.

Then ``iterations`` of ``triangle:0,0,1`` only (both starts), with every
other count, the answers and the prefix sums of every row unchanged, when
the triangle engines kept one light walk at every exponent: an update
whose next relation has an exponent above 1/2 (T at 1 here) walked that
relation's light row and also the second relation's heavy column at
``x``; the one walk probes both sides of the second relation for each
light posting, so it no longer reads the heavy column (6698 -> 5892 from
empty, 6400 -> 5668 preprocessed). The self-join engine became the
triangle engine over one partition with its counts unchanged.

Then ``iterations`` of ``lw:4`` only (both starts), with every other count,
the answers and the prefix sums of every row unchanged, when the cyclic
engine planned its walks at construction: an update's delta scans each
part once for all the heavy/light combinations that scan it, probing every
part any of them probes, instead of once per combination (8339 -> 4555
from empty, 8148 -> 4418 preprocessed). Its view build now runs the chosen
member's upkeep walk over that member's part; that walk scans what the
build's own join loop scanned, so the build's count is unchanged.

Every row held, unchanged, when the walks became generated code and the
triangle and self-join engines became the compiled degree-3 plan: the
generated walks scan the parts the hand-written ones scanned and tick
the same counters.

The ``refined:0`` and ``refined:1`` rows and the multiplicity-only
``refined`` row were recorded from the hand-written refined engine, to
pin it at every exponent before it became a compiled plan.

The ``enum:0`` and ``enum:1`` rows and the multiplicity-only ``enum`` row
were recorded from the enumeration engine as it stood, to pin it at both
extremes and under churn before its move path changes.

The ``path4:0`` and ``path4:1`` rows were recorded from the hand-written
path4 engine, to pin it at both extremes before it became a compiled
plan. At 0 every tuple of S and T sits in its hh part and at 1 in its ll
part, and the two replays happen to do the same work.

Then ``iterations`` of the three preprocessed path4 rows only (6150 ->
6085 and 13059 -> 12994 twice), with every other count, the answers and
the prefix sums of every row unchanged, when the path4 engine became a
compiled plan. Every update costs what it cost; only the loader's view
build changed. The hand-written builder counted every posting map it
folded: each tuple of S's ll, lh and hh parts and of T's ll, hl and hh
parts for the weight views, and each entry of the two join views the
chains fold (133 here). The compiled build runs the upkeep walk of one
member per view, the one with fewer tuples. A weight view is built by a
write per tuple of its S or T part, or by R's or U's walk, which counts
the postings at R's or U's own values (68 here); a chain by a walk that
rides on its join view's scan and counts nothing. The join views and the
masked views are built by walks that count what the builder counted.

Then ``iterations`` only, with every other count, the answers and the
prefix sums of every row unchanged, when a major stopped making the moves
it found queued and began leaving them in the queue: the rows whose
stream meets a doubling with moves still queued, ``triangle:0.5``
(6020 -> 6039), ``refined`` (5633 -> 5655) and ``enum`` (4902 -> 4923)
preprocessed and ``lw:4`` from empty (4555 -> 4563) and preprocessed
(4418 -> 4414, where a halving also finds one). Each of those moves now
walks the other parts as they stand when it is drained, after the
major's own flips have started moving, not before the major. A
halving now promotes keys in the order the watermark recorded them, not
in the light index's order; no other row's count moved.
"""

import pytest

from skewivm.cli import family_arities
from skewivm.enumeration import EnumTriangleEngine, preprocess_enum
from skewivm.loomis_whitney import LWEngine
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

from helpers import grow_shrink_stream, multiplicity_churn

PRELOAD = 300

STREAMS = {
    "triangle": grow_shrink_stream(11, 900, family_arities("triangle"), wide=60),
    "triangle-selfjoin": grow_shrink_stream(12, 500, family_arities("triangle-selfjoin"),
                                            wide=60),
    "path4": grow_shrink_stream(13, 900, family_arities("path4"), wide=60),
    "lw:4": grow_shrink_stream(14, 900, family_arities("lw:4"), wide=10),
}

# two of every three updates only change the multiplicity of a stored
# tuple, after which the engine checks nothing
CHURN_STREAMS = {family: multiplicity_churn(STREAMS[family], 31)
                 for family in ("triangle", "triangle-selfjoin", "path4")}

# name -> (query family of the stream, empty engine, engine preprocessed from a database)
ENGINES = {
    "triangle:0": ("triangle", lambda: TriangleEngine(0.0),
                   lambda db: TriangleEngine.preprocess(db, 0.0)),
    "triangle:0.5": ("triangle", lambda: TriangleEngine(0.5),
                     lambda db: TriangleEngine.preprocess(db, 0.5)),
    "triangle:1": ("triangle", lambda: TriangleEngine(1.0),
                   lambda db: TriangleEngine.preprocess(db, 1.0)),
    "triangle:0,0,1": ("triangle", lambda: TriangleEngine((0.0, 0.0, 1.0)),
                       lambda db: TriangleEngine.preprocess(db, (0.0, 0.0, 1.0))),
    "selfjoin": ("triangle-selfjoin", lambda: SelfJoinEngine(0.5),
                 lambda db: SelfJoinEngine.preprocess(db["R"], 0.5)),
    "refined": ("triangle", lambda: RefinedTriangleEngine(0.5),
                lambda db: RefinedTriangleEngine.preprocess(db, 0.5)),
    "refined:0": ("triangle", lambda: RefinedTriangleEngine(0.0),
                  lambda db: RefinedTriangleEngine.preprocess(db, 0.0)),
    "refined:1": ("triangle", lambda: RefinedTriangleEngine(1.0),
                  lambda db: RefinedTriangleEngine.preprocess(db, 1.0)),
    "enum": ("triangle", lambda: EnumTriangleEngine(0.5),
             lambda db: preprocess_enum(db, 0.5)),
    "enum:0": ("triangle", lambda: EnumTriangleEngine(0.0),
               lambda db: preprocess_enum(db, 0.0)),
    "enum:1": ("triangle", lambda: EnumTriangleEngine(1.0),
               lambda db: preprocess_enum(db, 1.0)),
    "path4": ("path4", lambda: Path4Engine(0.5),
              lambda db: Path4Engine.preprocess(db, 0.5)),
    "path4:0": ("path4", lambda: Path4Engine(0.0),
                lambda db: Path4Engine.preprocess(db, 0.0)),
    "path4:1": ("path4", lambda: Path4Engine(1.0),
                lambda db: Path4Engine.preprocess(db, 1.0)),
    "lw:4": ("lw:4", lambda: LWEngine(4, 0.5),
             lambda db: LWEngine.preprocess(db, 4, 0.5)),
}

# (engine, start) -> (OpCounters snapshot, final answer, sum of prefix answers)
GOLDEN = {
    ('enum', 'empty'): (
        dict(lookups=1687, iterations=5068, moves=307,
             rebalance_major=12, rebalance_minor=6),
        0, 25768),
    ('enum', 'preprocessed'): (
        dict(lookups=1387, iterations=4923, moves=251,
             rebalance_major=3, rebalance_minor=6),
        0, 25418),
    ('enum:0', 'empty'): (
        dict(lookups=1687, iterations=3443, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 25768),
    ('enum:0', 'preprocessed'): (
        dict(lookups=1387, iterations=3298, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 25418),
    ('enum:1', 'empty'): (
        dict(lookups=1687, iterations=3899, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 25768),
    ('enum:1', 'preprocessed'): (
        dict(lookups=1387, iterations=3772, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 25418),
    ('lw:4', 'empty'): (
        dict(lookups=3374, iterations=4563, moves=395,
             rebalance_major=12, rebalance_minor=11),
        0, 15852),
    ('lw:4', 'preprocessed'): (
        dict(lookups=2842, iterations=4414, moves=248,
             rebalance_major=3, rebalance_minor=6),
        0, 15852),
    ('path4', 'empty'): (
        dict(lookups=2668, iterations=6651, moves=147,
             rebalance_major=10, rebalance_minor=5),
        0, 117436234),
    ('path4', 'preprocessed'): (
        dict(lookups=2309, iterations=6085, moves=113,
             rebalance_major=3, rebalance_minor=4),
        0, 117419782),
    ('path4:0', 'empty'): (
        dict(lookups=2664, iterations=13696, moves=0,
             rebalance_major=10, rebalance_minor=0),
        0, 117436234),
    ('path4:0', 'preprocessed'): (
        dict(lookups=2305, iterations=12994, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 117419782),
    ('path4:1', 'empty'): (
        dict(lookups=2664, iterations=13696, moves=0,
             rebalance_major=10, rebalance_minor=0),
        0, 117436234),
    ('path4:1', 'preprocessed'): (
        dict(lookups=2305, iterations=12994, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 117419782),
    ('refined', 'empty'): (
        dict(lookups=3374, iterations=5829, moves=307,
             rebalance_major=12, rebalance_minor=6),
        0, 198610),
    ('refined', 'preprocessed'): (
        dict(lookups=2855, iterations=5655, moves=251,
             rebalance_major=3, rebalance_minor=6),
        0, 197134),
    ('refined:0', 'empty'): (
        dict(lookups=3374, iterations=7342, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 198610),
    ('refined:0', 'preprocessed'): (
        dict(lookups=2855, iterations=7152, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 197134),
    ('refined:1', 'empty'): (
        dict(lookups=3374, iterations=7342, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 198610),
    ('refined:1', 'preprocessed'): (
        dict(lookups=2855, iterations=7152, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 197134),
    ('selfjoin', 'empty'): (
        dict(lookups=1902, iterations=4656, moves=29,
             rebalance_major=11, rebalance_minor=1),
        24, 833525),
    ('selfjoin', 'preprocessed'): (
        dict(lookups=1518, iterations=4756, moves=0,
             rebalance_major=1, rebalance_minor=0),
        24, 745625),
    ('triangle:0', 'empty'): (
        dict(lookups=3374, iterations=3443, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 198610),
    ('triangle:0', 'preprocessed'): (
        dict(lookups=2855, iterations=3380, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 197134),
    ('triangle:0,0,1', 'empty'): (
        dict(lookups=3374, iterations=5892, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 198610),
    ('triangle:0,0,1', 'preprocessed'): (
        dict(lookups=2855, iterations=5668, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 197134),
    ('triangle:0.5', 'empty'): (
        dict(lookups=3374, iterations=6127, moves=307,
             rebalance_major=12, rebalance_minor=6),
        0, 198610),
    ('triangle:0.5', 'preprocessed'): (
        dict(lookups=2855, iterations=6039, moves=251,
             rebalance_major=3, rebalance_minor=6),
        0, 197134),
    ('triangle:1', 'empty'): (
        dict(lookups=3374, iterations=3899, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 198610),
    ('triangle:1', 'preprocessed'): (
        dict(lookups=2855, iterations=3772, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 197134),
}


# engine -> (OpCounters snapshot, final answer, sum of prefix answers) over
# its family's CHURN_STREAMS stream, from empty
GOLDEN_CHURN = {
    'enum': (
        dict(lookups=5061, iterations=15071, moves=199,
             rebalance_major=10, rebalance_minor=5),
        24, 119520),
    'path4': (
        dict(lookups=9476, iterations=14482, moves=98,
             rebalance_major=9, rebalance_minor=3),
        -39101, 768775207),
    'refined': (
        dict(lookups=10122, iterations=21704, moves=199,
             rebalance_major=10, rebalance_minor=5),
        202, 2369702),
    'selfjoin': (
        dict(lookups=5706, iterations=16379, moves=25,
             rebalance_major=9, rebalance_minor=1),
        -2291, 2435579),
    'triangle:0.5': (
        dict(lookups=10122, iterations=21123, moves=199,
             rebalance_major=10, rebalance_minor=5),
        202, 2369702),
}


def _database(updates, family):
    db = {name: {} for name in family_arities(family)}
    for rel, t, m in updates:
        rows = db[rel]
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
    return db


def _replay(name, start, streams=STREAMS):
    """Final counters, answer, prefix-answer sum and the threshold bases seen."""
    family, empty, build = ENGINES[name]
    stream = streams[family]
    if start == "empty":
        eng = empty()
    else:
        eng = build(_database(stream[:PRELOAD], family))
        stream = stream[PRELOAD:]
    bases = [eng.N]
    total = 0
    for rel, t, m in stream:
        eng.on_update(rel, t, m)
        bases.append(eng.N)
        total += eng.answer()
    assert not eng.check_invariants()
    return eng.counters.snapshot(), eng.answer(), total, bases


@pytest.mark.parametrize("name", ["triangle:0.5", "selfjoin", "path4", "lw:4"])
def test_streams_exercise_every_rebalance_path(name):
    ops, _, _, bases = _replay(name, "empty")
    assert ops["moves"] > 0
    assert ops["rebalance_minor"] > 0
    assert ops["rebalance_major"] > 0
    assert any(b < a for a, b in zip(bases, bases[1:])), "no halving"


@pytest.mark.parametrize("start", ["empty", "preprocessed"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_counts_and_answers_match_the_recording(name, start):
    ops, answer, total, _ = _replay(name, start)
    assert (ops, answer, total) == GOLDEN[name, start]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHURN))
def test_mostly_multiplicity_only_stream_matches_the_recording(name):
    ops, answer, total, _ = _replay(name, "empty", CHURN_STREAMS)
    assert (ops, answer, total) == GOLDEN_CHURN[name]
