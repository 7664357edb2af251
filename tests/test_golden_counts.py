"""Recorded op counts and answers, the guard for refactors of the engines.

Every engine replays a fixed seeded stream, once from an empty state and
once from a state preprocessed from the stream's first updates. The final
``OpCounters`` snapshot, the final answer and the sum of the answers over
all prefixes must equal the values recorded below, which were taken from
the engines before their shared maintenance code was factored out. A
refactor that changes the work done, or the order in which rebalancing
visits tuples, changes at least one of them.
"""

import pytest

from skewivm.cli import family_arities
from skewivm.enumeration import EnumTriangleEngine, preprocess_enum
from skewivm.loomis_whitney import LWEngine
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import EpsConfig, TriangleEngine

from helpers import grow_shrink_stream

PRELOAD = 300

STREAMS = {
    "triangle": grow_shrink_stream(11, 900, family_arities("triangle"), wide=60),
    "triangle-selfjoin": grow_shrink_stream(12, 500, family_arities("triangle-selfjoin"),
                                            wide=60),
    "path4": grow_shrink_stream(13, 900, family_arities("path4"), wide=60),
    "lw:4": grow_shrink_stream(14, 900, family_arities("lw:4"), wide=10),
}

# name -> (query family of the stream, empty engine, engine preprocessed from a database)
ENGINES = {
    "triangle:0": ("triangle", lambda: TriangleEngine(0.0),
                   lambda db: TriangleEngine.preprocess(db, 0.0)),
    "triangle:0.5": ("triangle", lambda: TriangleEngine(0.5),
                     lambda db: TriangleEngine.preprocess(db, 0.5)),
    "triangle:1": ("triangle", lambda: TriangleEngine(1.0),
                   lambda db: TriangleEngine.preprocess(db, 1.0)),
    "triangle:0,0,1": ("triangle", lambda: TriangleEngine(EpsConfig(0.0, 0.0, 1.0)),
                       lambda db: TriangleEngine.preprocess(db, EpsConfig(0.0, 0.0, 1.0))),
    "selfjoin": ("triangle-selfjoin", lambda: SelfJoinEngine(0.5),
                 lambda db: SelfJoinEngine.preprocess(db["R"], 0.5)),
    "refined": ("triangle", lambda: RefinedTriangleEngine(0.5),
                lambda db: RefinedTriangleEngine.preprocess(db, 0.5)),
    "enum": ("triangle", lambda: EnumTriangleEngine(0.5),
             lambda db: preprocess_enum(db, 0.5)),
    "path4": ("path4", lambda: Path4Engine(0.5),
              lambda db: Path4Engine.preprocess(db, 0.5)),
    "lw:4": ("lw:4", lambda: LWEngine(4, 0.5),
             lambda db: LWEngine.preprocess(db, 4, 0.5)),
}

# (engine, start) -> (OpCounters snapshot, final answer, sum of prefix answers)
GOLDEN = {
    ('enum', 'empty'): (
        dict(lookups=3704, iterations=5393, moves=317,
             rebalance_major=12, rebalance_minor=6),
        0, 25768),
    ('enum', 'preprocessed'): (
        dict(lookups=3116, iterations=5415, moves=256,
             rebalance_major=3, rebalance_minor=6),
        0, 25418),
    ('lw:4', 'empty'): (
        dict(lookups=3970, iterations=11193, moves=402,
             rebalance_major=12, rebalance_minor=11),
        0, 15852),
    ('lw:4', 'preprocessed'): (
        dict(lookups=3144, iterations=10064, moves=250,
             rebalance_major=3, rebalance_minor=6),
        0, 15852),
    ('path4', 'empty'): (
        dict(lookups=2890, iterations=7233, moves=147,
             rebalance_major=10, rebalance_minor=5),
        0, 117436234),
    ('path4', 'preprocessed'): (
        dict(lookups=2469, iterations=6819, moves=113,
             rebalance_major=3, rebalance_minor=4),
        0, 117419782),
    ('refined', 'empty'): (
        dict(lookups=3704, iterations=9795, moves=317,
             rebalance_major=12, rebalance_minor=6),
        0, 198610),
    ('refined', 'preprocessed'): (
        dict(lookups=3197, iterations=9822, moves=256,
             rebalance_major=3, rebalance_minor=6),
        0, 197134),
    ('selfjoin', 'empty'): (
        dict(lookups=1940, iterations=7038, moves=35,
             rebalance_major=11, rebalance_minor=1),
        24, 833525),
    ('selfjoin', 'preprocessed'): (
        dict(lookups=1526, iterations=6021, moves=0,
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
        dict(lookups=3374, iterations=7444, moves=0,
             rebalance_major=12, rebalance_minor=0),
        0, 198610),
    ('triangle:0,0,1', 'preprocessed'): (
        dict(lookups=2855, iterations=7054, moves=0,
             rebalance_major=3, rebalance_minor=0),
        0, 197134),
    ('triangle:0.5', 'empty'): (
        dict(lookups=3704, iterations=9849, moves=317,
             rebalance_major=12, rebalance_minor=6),
        0, 198610),
    ('triangle:0.5', 'preprocessed'): (
        dict(lookups=3197, iterations=10012, moves=256,
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


def _replay(name, start):
    """Final counters, answer, prefix-answer sum and the threshold bases seen."""
    family, empty, build = ENGINES[name]
    stream = STREAMS[family]
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
