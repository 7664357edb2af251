"""The compiled plans checked as data: every part combination counted once.

A plan's delta for an update to relation v is a case split over the part
labels of the other relations. It is exact only if the delta walks plus
the views it looks up cover every assignment of labels to those relations
exactly once. A walk covers the assignments that give the part it scans
and each part it probes their labels. A view covers the combinations it
holds, read from the upkeep walks that write it, not restated here; a
walk that scans a view, or probes a sum of views, covers what those views
hold. A relation kept whole has no label. A replay reaches only the
combinations its stream fills; these checks reach all of them.
"""

from collections import Counter
from itertools import product

import pytest

from skewivm import loomis_whitney, path4, refined
from skewivm.loomis_whitney import WHOLE

PLANS = {f"lw:{n}": (loomis_whitney._plan, n) for n in range(3, 7)}
PLANS["refined"] = (refined._plan, 3)
CYCLIC = sorted(PLANS)
PLANS["path4"] = (path4._plan, 4)


def named(v, lab, walk) -> dict:
    """The labels a walk gives each relation it names: ``{relation: labels}``.

    Each relation is named once: as the updated one, the scanned one or a
    probed one. A view it scans or probes is not named here.
    """
    u, src, side, probes, *_ = walk
    names = [v] + [src] * (src is not None) + [j for j, *_ in probes if j is not None]
    assert u == v and len(set(names)) == len(names), walk
    out = {j: sides for j, sides, *_ in probes if j is not None and sides != (WHOLE,)}
    if src is not None:
        out[src] = (side,)
    if lab not in (None, WHOLE):
        out[v] = (lab,)
    return out


def held(plan) -> dict:
    """Per view, per writing part ``(relation, label)``: the combinations its walks hold.

    A combination gives a label to each relation the view fixes; a view
    keyed by relation i's tuple leaves relation i free. A walk that scans
    a view holds that view's combinations, joined with its own.
    """
    masks = plan.masks or [{}] * len(plan.upkeep)
    writers = [(v, lab, w) for v, walks in enumerate(plan.upkeep)
               for lab, group in walks.items() for w in group]
    writers += [(v, lab, w) for v, held_by in enumerate(masks) for lab, w in held_by.items()]
    out: dict = {}

    def of(i):
        if i not in out:
            out[i] = {}
            for v, lab, w in writers:
                views = w[4] if isinstance(w[4], tuple) else (w[4],)
                if i not in views:
                    continue
                mine = {frozenset((j, s) for j, s in zip(given, c))
                        for given in [named(v, lab, w)] for c in product(*given.values())}
                if w[1] is None and w[2] is not None:  # a view's line or the whole view
                    mine = {a | b for a in mine for b in every(of(w[2]))}
                out[i].setdefault((v, lab), []).append(mine)
        return out[i]
    for i in range(len(plan.kinds)):
        of(i)
    return out


def every(writers: dict) -> set:
    """All the combinations a view's writers hold."""
    return set().union(*(c for walks in writers.values() for c in walks))


def holds(combos, a: dict) -> bool:
    """Whether the assignment ``a`` agrees with one of the combinations."""
    return any(all(a[j] == s for j, s in c) for c in combos)


def coverage(plan, n: int, v: int) -> Counter:
    """How many times relation v's delta walks and view lookups cover each assignment."""
    views = {i: every(by) for i, by in held(plan).items()}
    kept = [j for j in range(n) if j != v and WHOLE not in plan.upkeep[j]]
    lookups = plan.lookups or [(None, (u,)) for u in range(n)]
    count: Counter = Counter()
    for labels in product(plan.labels, repeat=len(kept)):
        a = dict(zip(kept, labels))
        hits = sum(holds(views[i], a) for i in lookups[v][1])
        for w in plan.deltas[v]:
            assert w[4] is None
            hit = all(a[j] in sides for j, sides in named(v, None, w).items())
            if w[1] is None:  # a view's line or the whole view
                hit = hit and holds(views[w[2]], a)
            for j, sides, *_ in w[3]:
                if j is None:  # a sum of views
                    hit *= sum(holds(views[i], a) for i in sides)
            hits += hit
        count[labels] = hits
    return count


@pytest.mark.parametrize("name", sorted(PLANS))
def test_each_assignment_is_counted_once_per_delta(name):
    plan_of, n = PLANS[name]
    plan = plan_of(n)
    for v in range(n):
        count = coverage(plan, n, v)
        assert set(count.values()) == {1}, (name, v, count)


def test_path4_deltas_cover_the_sixteen_middle_pairs_and_the_far_labels():
    plan = path4._plan()
    assert [len(coverage(plan, 4, v)) for v in range(4)] == [16, 4, 4, 16]


def test_each_path4_view_holds_one_combination_and_is_built_by_its_writers():
    """Every walk that writes a view, from either end, holds the same S and T labels."""
    plan = path4._plan()
    for view, writers in held(plan).items():
        combos = every(writers)
        assert len(combos) == 1, path4.VIEW_NAMES[view]
        assert all(walks == [combos] * len(walks) for walks in writers.values()), view
        assert set(plan.builds[view] or ()) <= set(writers), path4.VIEW_NAMES[view]


@pytest.mark.parametrize("name", CYCLIC)
def test_each_view_is_kept_by_one_walk_of_each_member(name):
    plan_of, n = PLANS[name]
    plan = plan_of(n)
    views = held(plan)
    assert sorted(views) == list(range(n))
    for view, writers in views.items():
        assert all(len(walks) == 1 for walks in writers.values()), (name, view)
        combos = every(writers)
        # each member's walk holds all the view's combinations its label
        # allows, and no other
        for (v, lab), (mine,) in writers.items():
            assert mine == {c for c in combos if (v, lab) in c}, (name, view, v, lab)
        # the members: each label a relation takes in the view's combinations
        members = {pair for c in combos for pair in c
                   if not all(c - {pair} | {(pair[0], x)} in combos for x in plan.labels)}
        assert set(writers) == members, (name, view)
        assert set(plan.builds[view]) <= members, (name, view)


def test_the_checker_catches_a_dropped_walk_and_a_narrowed_probe():
    """One mutation per plan kind; each leaves some assignment counted 0 or 2 times."""
    plan = refined._plan(3)
    plan.deltas[0].pop()
    assert set(coverage(plan, 3, 0).values()) != {1}
    plan = loomis_whitney._plan(4)
    u, src, side, probes, view = plan.deltas[0][-1]
    plan.deltas[0][-1] = (u, src, side, probes[:-1] + ((probes[-1][0], ("h",)),), view)
    assert set(coverage(plan, 4, 0).values()) != {1}
    # R's scan of S's ll part no longer weighs T's hl part by its view at b
    plan = path4._plan()
    u, src, side, ((_, sums),), view = plan.deltas[0][0]
    plan.deltas[0][0] = (u, src, side, ((None, sums[:1] + sums[2:]),), view)
    assert set(coverage(plan, 4, 0).values()) != {1}
