"""Posting-map storage: every index carries the tuples with their multiplicities.

A random sequence of upserts, major restricts and key moves runs on a
partition with each index layout the engines use, against a model made of
two plain dicts. After every step each index of each side must hold
exactly the model's tuples and multiplicities, keyed by its variables,
with no empty posting map, and ``len``, ``get`` and ``items`` must agree
with the model. Each create or delete goes through the split's minor
check, as the kernel's do, so the degree watermark that a doubling
restrict reads is fed as in an engine; a minor rebalance moves its key at
once, in the split and in the model. A key moves light only below the
watermark, as every rebalance that makes a key light leaves it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from skewivm.enumeration import EnumTriangleEngine, preprocess_enum
from skewivm.loomis_whitney import LWEngine
from skewivm.relation import HEAVY, IDX0, IDX1, LIGHT, Partition
from skewivm.selfjoin import SelfJoinEngine
from skewivm.triangle import TriangleEngine

from helpers import mixed_stream, settle

# (arity, index specs passed to Partition): the triangle engines' default
# layout, the full binary layout of quad parts and path4 views, and the
# multi-column layouts of the degree-4 and degree-5 cyclic engines
LAYOUTS = (
    (2, None),
    (2, (IDX0, IDX1)),
    (3, LWEngine(4)._index_specs()),
    (4, LWEngine(5)._index_specs()),
)
DOMAIN = 3


def _key(t, spec):
    return t[spec[0]] if len(spec) == 1 else tuple(t[p] for p in spec)


def _check_side(rel, model):
    assert len(rel) == rel.size() == len(model)
    assert dict(rel.items()) == model
    for t, m in model.items():
        assert rel.get(t) == m
    for spec, idx in rel.indexes.items():
        want = {}
        for t, m in model.items():
            want.setdefault(_key(t, spec), {})[t] = m
        assert all(idx.values()), f"empty posting map in index {spec}"
        assert idx == want, spec


def _ops(arity):
    values = st.integers(0, DOMAIN - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("upsert"), st.tuples(*[values] * arity),
                  st.sampled_from((-2, -1, 1, 2))),
        st.tuples(st.just("restrict"), st.sampled_from((0.5, 1.0, 2.0, 2.5, 4.0))),
        st.tuples(st.just("move"), values, st.sampled_from((HEAVY, LIGHT))),
    ), max_size=40)


def test_posting_maps_follow_a_plain_dict_model():
    changed = []

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def run(data):
        arity, specs = data.draw(st.sampled_from(LAYOUTS))
        part = Partition(arity, specs)
        model = {HEAVY: {}, LIGHT: {}}

        def move(src, dst, t, m):
            part.parts[src].upsert(t, -m)
            part.parts[dst].upsert(t, m)

        def move_key(key):
            """Move ``key``, in transit, at once in the split and in the model."""
            dst = part.moving[0, key]
            src = LIGHT if dst == HEAVY else HEAVY
            batch = {t: m for t, m in model[src].items() if t[0] == key}
            for t, m in batch.items():
                del model[src][t]
                model[dst][t] = m
            assert part.move_key((0, key), len(batch) + 1, move) == len(batch)
            assert not part.moving

        class Kernel:
            def minor_rebalance(self, i, key):
                move_key(key[1])

        for op in data.draw(_ops(arity)):
            if op[0] == "upsert":
                _, t, m = op
                side = part.route(t)
                want = HEAVY if any(u[0] == t[0] for u in model[HEAVY]) else LIGHT
                assert side == want
                rows = model[side]
                old = rows.get(t, 0)
                new = old + m
                if old and new:
                    changed.append(t)
                if new:
                    rows[t] = new
                else:
                    del rows[t]
                assert part.parts[side].upsert(t, m) == new
                if not (old and new):
                    part.minor_check(Kernel(), 0, t, side, not old, part.theta)
            elif op[0] == "restrict":
                theta = op[1]
                union = {**model[HEAVY], **model[LIGHT]}
                deg: dict = {}
                for t in union:
                    deg[t[0]] = deg.get(t[0], 0) + 1
                heavy = {t: m for t, m in union.items() if deg[t[0]] >= theta}
                moved = sum(1 for t in model[LIGHT] if t in heavy)
                moved += sum(1 for t in model[HEAVY] if t not in heavy)
                model = {HEAVY: heavy,
                         LIGHT: {t: m for t, m in union.items() if t not in heavy}}
                part.restrict(theta)
                assert settle(part, move) == moved
            else:
                _, key, src = op
                dst = LIGHT if src == HEAVY else HEAVY
                if dst == HEAVY or part.degree(0, key) < part.tall_at:
                    part.moving[0, key] = dst
                    move_key(key)
            _check_side(part.heavy, model[HEAVY])
            _check_side(part.light, model[LIGHT])
            # every light key at or above the watermark is recorded
            assert not [v for v in part.violations() if "watermark" in v]
            part.heavy.check_consistency()
            part.light.check_consistency()

    run()
    assert changed, "no upsert changed a multiplicity without creating or deleting"


def test_light_parts_index_only_the_partition_key():
    engines = [
        TriangleEngine(0.5),
        EnumTriangleEngine(0.5),
        SelfJoinEngine(0.5),
        TriangleEngine.preprocess({"R": {(1, 2): 1}, "S": {(2, 3): 1}}, 0.5),
        preprocess_enum({"T": {(3, 1): 2}}, 0.5),
        SelfJoinEngine.preprocess({(1, 2): 1, (2, 1): 1}, 0.5),
    ]
    for eng in engines:
        rels = ("R",) if isinstance(eng, SelfJoinEngine) else ("R", "S", "T")
        for u in mixed_stream(20, 300, 5, rels=rels):
            eng.on_update(*u)
        assert eng.counters.rebalance_major > 0
        for part in eng.parts:
            assert tuple(part.light.indexes) == (IDX0,)
            assert tuple(part.heavy.indexes) == (IDX0, IDX1)
