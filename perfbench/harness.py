"""Replays of one workload and the metrics they give.

A run replays the workload's stream on fresh engines, one after another
in one process, until ``seconds`` have passed (at least ``MIN_REPS``
times).

Each replay times the engine's ``preprocess`` (set-up) and every
``on_update`` call on its own. Every ``SEGMENT`` updates it samples
``space_used()`` outside the timed calls and, on read workloads, times a
full ``enumerate()`` tuple by tuple. The cyclic garbage collector is off
inside a replay: the engines build no reference cycles, and a full
collection over a million live containers would land on whichever update
happened to trigger it.

Times are taken at the reference speed. A shared host runs this process
at two speeds that differ by about 1.6 times, and switches between them
every few seconds to every few minutes. ``probe()`` times a fixed piece
of dict and tuple work before the set-up, after it and after every
``PROBE_EVERY`` updates, and each timing between two probes is multiplied
by ``REF_PROBE_NS`` over their mean. What a change to the engine costs
shows in full, while the host's speed state cancels out (see README.md).

After the first replay, which gives ``engine_rss_mb``, the run keeps the
small-object heap mapped (``_pin_small_object_heap``), so that later
replays measure the engine on warm memory rather than page faults.

Every replay of a stream does the same work, so the latency of update k
is taken as the median of its scaled timings over the run's replays.
Percentiles, the maximum and the throughput come from these per-update
latencies; ``setup_s`` is the median of the scaled set-up times.

After the timed replays one more replay checks the engine against the
oracle at ``CHECKPOINTS`` evenly spaced points (the last at the end of the
stream); every timed replay must also end with the same op counts, space
peak and answer as the checked one. With tracing on, one more replay runs
under ``Tracer`` and gives the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import gc
import os
import resource
import statistics
import time

import numpy as np

from skewivm.oracle import TriangleTracker

from tracing import Tracer
from workloads import WORKLOADS, check_family

SEGMENT = 500          # updates between samples of space_used() (and reads)
PROBE_EVERY = 50_000   # updates between speed probes; a multiple of SEGMENT
CHECKPOINTS = 8
MIN_REPS = 3
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters
REF_PROBE_NS = 175_000  # probe() on the reference machine in its fast state
_PROBE_KEYS = tuple((k % 3001, k * 7919 % 2999) for k in range(600))

END_TO_END = (("setup_s", "s"), ("throughput_ups", "1/s"), ("update_p50_us", "us"),
              ("update_p99_us", "us"), ("update_p9999_us", "us"), ("update_max_ms", "ms"),
              ("space_entries", "count"), ("engine_rss_mb", "MB"))
READS = (("read_tuple_p50_us", "us"), ("read_tuple_p9999_us", "us"),
         ("read_tuples_per_s", "1/s"))
OPS = ("lookups", "iterations", "moves", "rebalance_major", "rebalance_minor")
PER_LAYER = (
    ("relation.upsert.calls_per_update", "count"),
    ("relation.upsert.self_us_per_update", "us"),
    ("relation.route.self_us_per_update", "us"),
    ("relation.restrict.moved", "count"),
    ("relation.restrict.self_ms", "ms"),
    ("relation.move_key.moved", "count"),
    ("triangle.apply_update.calls_per_update", "count"),
    ("triangle.apply_update.self_us_per_update", "us"),
    ("triangle.ops.iterations_per_update", "count"),
    ("triangle.ops.lookups_per_update", "count"),
    ("triangle.ops.moves", "count"),
    ("triangle.major_rebalance.calls", "count"),
    ("triangle.major_rebalance.self_ms", "ms"),
    ("triangle.views.entries", "count"),
    ("enumeration.apply_update.self_us_per_update", "us"),
    ("enumeration.minor_rebalance.calls", "count"),
    ("enumeration.minor_rebalance.self_us", "us"),
    ("enumeration.minor_rebalance.total_us", "us"),
    ("enumeration.enumerate.tuples_per_read", "count"),
    ("enumeration.enumerate.self_ms_per_read", "ms"),
    ("enumeration.views.entries", "count"),
    ("path4.update_st.self_us_per_update", "us"),
    ("path4.update_ru.self_us_per_update", "us"),
    ("path4.minor_rebalance.calls", "count"),
    ("path4.major_rebalance.calls", "count"),
    ("path4.recompute_views.self_ms", "ms"),
    ("path4.views.entries", "count"),
    ("oracle.tracker.self_us_per_update", "us"),
    ("oracle.tracker_ratio", "ratio"),
    *READS,
    *((f"metrics.ops.{name}", "count") for name in OPS),
    ("trace.overhead_frac", "frac"),
)


def steady_allocator() -> None:
    """Pin glibc's mmap and trim thresholds for the rest of the process.

    By default glibc raises both thresholds as the process frees large
    blocks, so whether a dict resize gets fresh, faulting pages or resident
    heap pages depends on how many replays ran before it: the same resize
    took 0.3 ms in one replay and 0.8 ms in the next. Pinned thresholds
    keep large blocks on the heap and freed pages resident, which removes
    most of these swings. Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
        mallopt(param, 1 << 30)


def _release_free_memory() -> None:
    """Give the heap's free pages back to the system, so that RSS counts live memory."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _pin_small_object_heap(objects: int = 1_000_000) -> list:
    """Keep CPython's small-object arenas mapped from here on; returns the pins.

    When a replay's engine is freed, every arena it emptied goes back to
    the system, and the next replay faults the same pages in again: about
    2,500 page faults per replay on ``tri-uniform-churn``, each costing
    several microseconds in a virtual machine, which landed on whichever
    updates opened a new pool. Filling arenas with small objects and
    keeping one in every 997 keeps those arenas, and their free pools stay
    resident for later engines to reuse.
    """
    filler = [(i, -i) for i in range(objects)]
    return filler[::997]


def _probe_pass() -> int:
    d: dict = {}
    t0 = time.perf_counter_ns()
    for k in _PROBE_KEYS:
        d[k] = d.get(k, 0) + 1
    for k in _PROBE_KEYS:
        if d.get(k):
            d[(k[1], k[0])] = 1
    for k in _PROBE_KEYS:
        d.pop(k, None)
    return time.perf_counter_ns() - t0


def probe() -> int:
    """Time in ns of a fixed piece of dict and tuple work: the least of three passes."""
    return min(_probe_pass(), _probe_pass(), _probe_pass())


def _scale(p0: int, p1: int) -> float:
    """Factor that takes a time measured between probes p0 and p1 to the reference speed."""
    return 2 * REF_PROBE_NS / (p0 + p1)


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rank(sorted_values, q: float):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    k = max(0, int(np.ceil(q * len(sorted_values))) - 1)
    return sorted_values[k]


def _views(wl, engine) -> int:
    return engine.space_used() - wl.base_size(engine)


def _read(engine, delays: list) -> int:
    clock = time.perf_counter_ns
    start = t0 = clock()
    for _ in engine.enumerate():
        t1 = clock()
        delays.append(t1 - t0)
        t0 = t1
    return clock() - start


class Replay:
    """One timed pass over the stream on a freshly preprocessed engine."""

    def __init__(self, wl, db, updates, lat: list, tracer: Tracer | None = None):
        """Replay ``updates``, writing update k's measured latency in ns to ``lat[k]``.

        ``scales[j]`` is the reference-speed factor of the updates in block
        j (``PROBE_EVERY`` updates); ``setup_ns``, ``read_ns`` and the
        per-tuple read delays in ``delays`` are already scaled.
        """
        self.delays: list[float] = []
        self.read_ns = 0.0
        self.scales: list[float] = []
        space_peak = views_peak = tuples = 0
        clock = time.perf_counter_ns
        gc.disable()
        try:
            p0 = probe()
            t0 = clock()
            engine = wl.build(db)
            setup_ns = clock() - t0
            p1 = probe()
            self.setup_ns = setup_ns * _scale(p0, p1)
            if tracer is not None:
                tracer.install(wl.engine_cls, wl.layer)
                tracer.counters = engine.counters
            try:
                apply = engine.on_update
                space = engine.space_used
                n = len(updates)
                read_ns, delays = 0, []
                for start in range(0, n, SEGMENT):
                    stop = min(start + SEGMENT, n)
                    for k in range(start, stop):
                        rel, t, m = updates[k]
                        t0 = clock()
                        apply(rel, t, m)
                        lat[k] = clock() - t0
                    space_peak = max(space_peak, space())
                    views_peak = max(views_peak, _views(wl, engine))
                    if wl.reads:
                        before = len(delays)
                        read_ns += _read(engine, delays)
                        tuples += len(delays) - before
                    if stop % PROBE_EVERY == 0 or stop == n:
                        p0, p1 = p1, probe()
                        f = _scale(p0, p1)
                        self.scales.append(f)
                        self.read_ns += read_ns * f
                        self.delays += [d * f for d in delays]
                        read_ns, delays = 0, []
            finally:
                if tracer is not None:
                    tracer.uninstall()
        finally:
            gc.enable()
        self.signature = {"ops": engine.counters.snapshot(), "space_entries": space_peak,
                          "views_entries": views_peak, "tuples_read": tuples,
                          "answer": engine.answer()}
        gc.collect()

    def scale_into(self, lat: list, out: np.ndarray) -> np.ndarray:
        """Write the update latencies in ``lat`` to ``out`` at the reference speed, in ns."""
        out[:] = lat
        for j, f in enumerate(self.scales):
            out[j * PROBE_EVERY:(j + 1) * PROBE_EVERY] *= f
        return out


def checked_replay(wl, db, updates):
    """Untimed replay that compares the engine with the oracle at checkpoints.

    Returns ``(checkpoints, failures, signature)``. A checkpoint fails when
    the answer or the enumerated multiset differs from the oracle, when
    ``check_invariants()`` reports anything, or when an update since the
    previous checkpoint raised.
    """
    engine = wl.build(db)
    model = {rel: dict(rows) for rel, rows in db.items()}
    n = len(updates)
    marks = {max(1, n * j // CHECKPOINTS) for j in range(1, CHECKPOINTS + 1)}
    failures: list[str] = []
    raised = []
    space_peak = views_peak = tuples = 0
    for k, (rel, t, m) in enumerate(updates, 1):
        try:
            engine.on_update(rel, t, m)
        except Exception as exc:  # the checkpoint below reports it
            raised.append(f"update {k - 1} raised {exc!r}")
        rows = model.setdefault(rel, {})
        v = rows.get(t, 0) + m
        if v:
            rows[t] = v
        else:
            del rows[t]
        if k % SEGMENT == 0 or k == n:
            space_peak = max(space_peak, engine.space_used())
            views_peak = max(views_peak, _views(wl, engine))
            if wl.reads:
                tuples += sum(1 for _ in engine.enumerate())
        if k in marks:
            problems = raised + wl.check(engine, model) + engine.check_invariants()
            raised = []
            if problems:
                failures.append(f"checkpoint at update {k}: " + "; ".join(problems[:3]))
    signature = {"ops": engine.counters.snapshot(), "space_entries": space_peak,
                 "views_entries": views_peak, "tuples_read": tuples, "answer": engine.answer()}
    return len(marks), failures, signature


def _tracker_ns(db, updates) -> float:
    """Time the first-order tracker on the stream at the reference speed, preload untimed."""
    tracker = TriangleTracker()
    for rel, rows in db.items():
        for t, m in rows.items():
            tracker.update(rel, t, m)
    clock = time.perf_counter_ns
    total = 0.0
    gc.disable()
    try:
        p1 = probe()
        for start in range(0, len(updates), PROBE_EVERY):
            p0, segment = p1, 0
            for rel, t, m in updates[start:start + PROBE_EVERY]:
                t0 = clock()
                tracker.update(rel, t, m)
                segment += clock() - t0
            p1 = probe()
            total += segment * _scale(p0, p1)
    finally:
        gc.enable()
    return total


def _per_layer(wl, tracer: Tracer, n: int, reads: int, signature: dict) -> dict[str, float]:
    spans = tracer.totals()
    zero = dict.fromkeys(("calls", "total_ns", "self_ns", "value", "lookups", "iterations",
                          "upsert_calls", "upsert_ns", "route_ns"), 0)

    def span(name):
        return spans.get(name, zero)

    out = {name: 0.0 for name, _ in PER_LAYER}
    leaf = {col: sum(s[col] for s in spans.values())
            for col in ("upsert_calls", "upsert_ns", "route_ns")}
    out["relation.upsert.calls_per_update"] = leaf["upsert_calls"] / n
    out["relation.upsert.self_us_per_update"] = leaf["upsert_ns"] / n / 1e3
    out["relation.route.self_us_per_update"] = leaf["route_ns"] / n / 1e3
    out["relation.restrict.moved"] = span("relation.restrict")["value"]
    out["relation.restrict.self_ms"] = span("relation.restrict")["self_ns"] / 1e6
    out["relation.move_key.moved"] = span("relation.move_key")["value"]
    layer = wl.layer
    views = signature["views_entries"]
    ops = signature["ops"]
    if layer == "triangle":
        apply = span("triangle.apply_update")
        out["triangle.apply_update.calls_per_update"] = apply["calls"] / n
        out["triangle.apply_update.self_us_per_update"] = apply["self_ns"] / n / 1e3
        out["triangle.ops.iterations_per_update"] = apply["iterations"] / n
        out["triangle.ops.lookups_per_update"] = apply["lookups"] / n
        out["triangle.ops.moves"] = ops["moves"]
        out["triangle.major_rebalance.calls"] = span("triangle.major_rebalance")["calls"]
        out["triangle.major_rebalance.self_ms"] = span("triangle.major_rebalance")["self_ns"] / 1e6
        out["triangle.views.entries"] = views
    elif layer == "enumeration":
        out["enumeration.apply_update.self_us_per_update"] = \
            span("enumeration.apply_update")["self_ns"] / n / 1e3
        out["enumeration.minor_rebalance.calls"] = span("enumeration.minor_rebalance")["calls"]
        out["enumeration.minor_rebalance.self_us"] = \
            span("enumeration.minor_rebalance")["self_ns"] / 1e3
        out["enumeration.minor_rebalance.total_us"] = \
            span("enumeration.minor_rebalance")["total_ns"] / 1e3
        enum = span("enumeration.enumerate")
        out["enumeration.enumerate.tuples_per_read"] = enum["value"] / max(1, reads)
        out["enumeration.enumerate.self_ms_per_read"] = enum["self_ns"] / max(1, reads) / 1e6
        out["enumeration.views.entries"] = views
    elif layer == "path4":
        st = span("path4.update_s")["self_ns"] + span("path4.update_t")["self_ns"]
        ru = span("path4.update_r")["self_ns"] + span("path4.update_u")["self_ns"]
        out["path4.update_st.self_us_per_update"] = st / n / 1e3
        out["path4.update_ru.self_us_per_update"] = ru / n / 1e3
        out["path4.minor_rebalance.calls"] = span("path4.minor_rebalance")["calls"]
        out["path4.major_rebalance.calls"] = span("path4.major_rebalance")["calls"]
        out["path4.recompute_views.self_ms"] = span("path4.recompute_views")["self_ns"] / 1e6
        out["path4.views.entries"] = views
    for name in OPS:
        out[f"metrics.ops.{name}"] = ops[name]
    return out


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        dump_dir=None) -> dict:
    """Measure one workload; returns the result record printed by ``run.py``."""
    wl = WORKLOADS[name]
    db, updates = wl.generate(seed, scale)
    check_family(wl.family, db, updates)
    gc.freeze()  # the stream lives for the whole run; keep it out of every collection
    n = len(updates)

    lat = [0] * n
    pins = None
    times = []  # one row of scaled ns per replay
    delays_min = None
    setups, rep_ns, read_rates, signatures = [], [], [], []
    raised = []
    _release_free_memory()
    rss0 = _rss_bytes()
    begin = time.perf_counter()
    walls = []
    while len(walls) < MIN_REPS or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        try:
            rep = Replay(wl, db, updates, lat)
        except Exception as exc:  # reported as a failed check below
            gc.enable()
            raised.append(f"timed replay raised {exc!r}")
            break
        if not walls:
            peak_rss = _peak_rss_bytes()
            pins = _pin_small_object_heap()
        walls.append(time.perf_counter() - t0)
        setups.append(rep.setup_ns / 1e9)
        times.append(rep.scale_into(lat, np.empty(n, dtype=np.float32)))
        rep_ns.append(float(times[-1].sum(dtype=np.float64)))
        if wl.reads:
            d = np.asarray(rep.delays)
            if delays_min is None:
                delays_min = d
            elif len(d) == len(delays_min):
                np.minimum(delays_min, d, out=delays_min)
            read_rates.append(len(d) / (rep.read_ns / 1e9))
        signatures.append(rep.signature)

    checkpoints, failures, want = checked_replay(wl, db, updates)
    failures += raised
    failures += [f"timed replay {i} ended with {sig}, checked replay with {want}"
                 for i, sig in enumerate(signatures) if sig != want]
    attempted = checkpoints + len(signatures) + len(raised)
    if not signatures:
        raise RuntimeError("; ".join(failures))

    per_update = np.median(times, axis=0).astype(np.float64)
    ordered = np.sort(per_update)
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_ups": n / (ordered.sum() / 1e9),
        "update_p50_us": _rank(ordered, 0.50) / 1e3,
        "update_p99_us": _rank(ordered, 0.99) / 1e3,
        "update_p9999_us": _rank(ordered, 0.9999) / 1e3,
        "update_max_ms": ordered[-1] / 1e6,
        "space_entries": want["space_entries"],
        "engine_rss_mb": (peak_rss - rss0) / 2**20,
    }
    reads = {}
    if wl.reads:
        d = np.sort(delays_min)
        reads = {"read_tuple_p50_us": _rank(d, 0.50) / 1e3,
                 "read_tuple_p9999_us": _rank(d, 0.9999) / 1e3,
                 "read_tuples_per_s": statistics.median(read_rates)}
    info = {"workload": name, "seed": seed, "reps": len(signatures), "updates": n,
            "replay_s": statistics.median(walls),
            "update_samples": n, "read_samples": 0 if delays_min is None else len(delays_min),
            "worst_update": int(np.argmax(per_update)), "counts": want, "failures": failures}

    per_layer = None
    if trace:
        tracer = Tracer()
        traced = Replay(wl, db, updates, lat, tracer)
        if traced.signature != want:
            failures.append(f"traced replay ended with {traced.signature}")
        attempted += 1
        reads_per_rep = (n + SEGMENT - 1) // SEGMENT if wl.reads else 0
        per_layer = _per_layer(wl, tracer, n, reads_per_rep, traced.signature)
        per_layer.update(reads)
        traced_ns = traced.scale_into(lat, np.empty(n)).sum()
        per_layer["trace.overhead_frac"] = traced_ns / statistics.median(rep_ns) - 1
        if wl.tracker_prefix:
            prefix = min(wl.tracker_prefix, n)
            tracker = _tracker_ns(db, updates[:prefix])
            per_layer["oracle.tracker.self_us_per_update"] = tracker / prefix / 1e3
            per_layer["oracle.tracker_ratio"] = float(per_update[:prefix].sum()) / tracker
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            path = os.path.join(dump_dir, f"spans-{name}.csv.gz")
            info["span_dump"] = path
            info["spans"] = tracer.dump(path)
    del pins
    gc.unfreeze()
    return {"info": info, "end_to_end": e2e, "reads": reads, "per_layer": per_layer,
            "attempted": attempted, "failed": len(failures)}
