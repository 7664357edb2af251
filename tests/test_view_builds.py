"""Each member that can build a view builds the maintained view.

A view with two members (``Plan.builds``) that is not a listing is built
by one of them (``LWEngine._first_builds``), so a load, which picks one
member by the parts' sizes, leaves the other member's branch of the
generated ``build`` unrun. Here every engine replays its streams at
exponents 1/4, 1/2 and 3/4; at every 60th update each such view is built
once from each member into empty views, and both builds must equal the
maintained view, with its transposes, its live set and its entry count.
Each view must hold entries at some sampled point, so that both branches
run on a view that is not empty.

The streams are ``helpers.swing_stream`` at three seeds, one with the hot
keys of every relation swinging together, and one stream (``fill_stream``)
that fills every view: for each variable it makes a hot value for each set
of split positions the variable takes in the relations, inserts every
combination of those values and fresh light ones, and deletes it all again.
"""

import itertools
import random
from functools import partial

import pytest

from helpers import swing_stream
from skewivm.cli import Update
from skewivm.enumeration import EnumTriangleEngine
from skewivm.loomis_whitney import ALL, KEEP, LWEngine, compiled
from skewivm.path4 import Path4Engine
from skewivm.refined import RefinedTriangleEngine
from skewivm.relation import QuadPartition
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

ENGINES = {"triangle": TriangleEngine, "selfjoin": SelfJoinEngine,
           "refined": RefinedTriangleEngine, "enum": EnumTriangleEngine, "path4": Path4Engine,
           **{f"lw:{n}": partial(LWEngine, n) for n in range(3, 7)}}
EVERY = 60


def fill_stream(eng, seed: int, fill: int = 24, wide: int = 8) -> list[Update]:
    """Inserts that give each view of ``eng``'s plan entries, then their deletes, shuffled.

    A variable sits at split positions ``(relation, position)`` of some
    relations. For each nonempty set of them it gets one hot value, with
    ``fill`` tuples at each of those positions (the other values from
    ``range(wide)``), so at a low exponent it turns heavy there and stays
    light elsewhere. Every combination of hot values and a fresh value per
    variable, light everywhere, is then inserted into every relation, so
    each combination of statuses meets.
    """
    rng = random.Random(seed)
    plan, n = compiled(eng.PLAN, eng.n)[3], eng.n
    variables = plan.vars or [tuple((j + k) % n for k in range(n - 1)) for j in range(n)]
    arity = dict(zip(eng.names, eng.arities))
    slots = [(eng.names[j % len(eng.names)], variables[j],
              () if part is None else (0, 1) if isinstance(part, QuadPartition) else (0,))
             for j, part in enumerate(eng._ring)]
    splits = [sorted({(name, p) for name, xs, ps in slots for p in ps if xs[p] == x})
              for x in range(1 + max(map(max, variables)))]
    hot, fresh, out = {}, itertools.count(10 ** 6), []
    choices = []
    for x, occurs in enumerate(splits):
        sets = [s for k in range(1, len(occurs) + 1) for s in itertools.combinations(occurs, k)]
        choices.append([None] + sets)
        for s in sets:
            value = hot[x, s] = 1000 + len(hot)
            for name, p in s:
                for _ in range(fill):
                    t = [rng.randrange(wide) for _ in range(arity[name])]
                    t[p] = value
                    out.append(Update(name, tuple(t), 1))
    for combo in itertools.product(*choices):
        values = [next(fresh) if s is None else hot[x, s] for x, s in enumerate(combo)]
        out.extend(Update(name, tuple(values[x] for x in xs), 1) for name, xs, _ in slots)
    rng.shuffle(out)
    back = [Update(u.rel, u.values, -u.mult) for u in out]
    rng.shuffle(back)
    return out + back


def built(eng, i: int, first: bool) -> list:
    """Views, live sets and entry count after building view i alone, from one member."""
    kept = eng._views[:]
    eng._views[:] = eng._empty_views()
    eng._build(i, first)
    out = eng._views[:]
    eng._views[:] = kept
    return out


def streams(eng) -> list[list[Update]]:
    arities = dict(zip(eng.names, eng.arities))
    together = [(name, var, 0) for name in eng.names if arities[name] > 1 for var in (0, 1)]
    return [swing_stream(1, 720, arities, 8), swing_stream(2, 720, arities, 4),
            swing_stream(3, 720, arities, 6, hot=together), fill_stream(eng, 4)]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_each_member_builds_the_maintained_view(name):
    filled = set()
    for eps in (0.25, 0.5, 0.75):
        eng = ENGINES[name](eps)
        kinds = eng._kinds
        pairs = [i for i, members in enumerate(eng._builds)
                 if members and len(members) == 2 and kinds[i] != ALL]
        assert pairs
        for stream in streams(eng):
            eng = ENGINES[name](eps)
            for step, upd in enumerate(stream, 1):
                eng.on_update(upd.rel, upd.values, upd.mult)
                if step % EVERY:
                    continue
                for i in pairs:
                    nested = kinds[i] == KEEP or isinstance(kinds[i], tuple) and len(kinds[i]) == 2
                    for first in (True, False):
                        views, live, entries = built(eng, i, first)
                        where = (eps, i, first, step)
                        for j, view in enumerate(views):
                            if view or j == i:
                                assert view == eng.views[j], where
                        if kinds[i] == KEEP:
                            assert live[i] == eng.live[i], where
                        assert entries == (sum(map(len, eng.views[i].values())) if nested
                                           else 0), where
                    if eng.views[i]:
                        filled.add(i)
    assert filled == set(pairs), f"never filled: {sorted(set(pairs) - filled)}"
