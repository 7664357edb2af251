"""Spans around the public methods of each skewivm layer.

``Tracer.install`` replaces methods on the library's classes with wrappers
and ``uninstall`` puts the originals back; nothing under ``src/`` changes.
Each span records its name, start, end and parent, plus its self time (the
duration minus the time of child spans and of leaf calls), the value its
method returned where that value is a count, and the ``OpCounters`` deltas
inside it. Leaf storage calls (``Relation.upsert`` and the partitions'
``route``) would be most of the spans, so they are aggregated per parent
span as a call count and a total time.

Spans live in typed arrays until the run ends, then ``dump`` writes them.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

import numpy as np

from skewivm import relation

COLUMNS = ("id", "parent", "name", "start_ns", "end_ns", "self_ns", "value",
           "lookups", "iterations", "moves",
           "upsert_calls", "upsert_ns", "route_calls", "route_ns")
_NO_COUNTERS = (0, 0, 0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[type, str, object]] = []
        self.counters = None

    # -- recording ------------------------------------------------------------

    def _ops(self):
        c = self.counters
        return _NO_COUNTERS if c is None else (c.lookups, c.iterations, c.moves)

    def _enter(self, name_id: int) -> None:
        # frame: name, id, parent id, child ns, upsert calls/ns, route calls/ns,
        # counters at entry, start ns
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name_id, self._next_id, parent, 0, 0, 0, 0, 0, self._ops(), 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[9] = time.perf_counter_ns()

    def _exit(self, value: int) -> None:
        end = time.perf_counter_ns()
        name_id, sid, parent, child_ns, up_n, up_ns, rt_n, rt_ns, ops0, start = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        ops1 = self._ops()
        cols = self.cols
        for col, v in (("id", sid), ("parent", parent), ("name", name_id),
                       ("start_ns", start), ("end_ns", end),
                       ("self_ns", dur - child_ns - up_ns - rt_ns), ("value", value),
                       ("lookups", ops1[0] - ops0[0]), ("iterations", ops1[1] - ops0[1]),
                       ("moves", ops1[2] - ops0[2]),
                       ("upsert_calls", up_n), ("upsert_ns", up_ns),
                       ("route_calls", rt_n), ("route_ns", rt_ns)):
            cols[col].append(v)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, count_result: bool):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._enter(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(result if count_result and isinstance(result, int) else 0)
        return wrapped

    def _span_generator(self, name: str, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._enter(nid)
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self._exit(n)
        return wrapped

    def _leaf(self, slot: int, fn):
        # slot 4/5 aggregate upserts, 6/7 routes, in the innermost open span
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    frame = stack[-1]
                    frame[slot] += 1
                    frame[slot + 1] += clock() - t0
        return wrapped

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, engine_cls: type, layer: str) -> None:
        """Wrap the relation layer and the public methods of ``engine_cls``."""
        for cls in (relation.Partition, relation.QuadPartition):
            self._patch(cls, "route", self._leaf(6, cls.route))
            self._patch(cls, "restrict", self._span("relation.restrict", cls.restrict, True))
        self._patch(relation.Relation, "upsert", self._leaf(4, relation.Relation.upsert))
        self._patch(relation.Partition, "move_key",
                    self._span("relation.move_key", relation.Partition.move_key, True))
        for attr in ("on_update", "apply_update", "update_r", "update_u", "update_s",
                     "update_t", "minor_rebalance", "major_rebalance", "recompute_views"):
            if attr in engine_cls.__dict__:
                fn = engine_cls.__dict__[attr]
                self._patch(engine_cls, attr, self._span(f"{layer}.{attr}", fn, False))
        if "enumerate" in engine_cls.__dict__:
            self._patch(engine_cls, "enumerate",
                        self._span_generator(f"{layer}.enumerate", engine_cls.enumerate))

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: the call count, the summed duration (``total_ns``) and
        the sum of every numeric column."""
        names = np.frombuffer(self.cols["name"], dtype=np.int64)
        k = len(self.names)
        sums = {col: np.bincount(names, weights=np.frombuffer(self.cols[col], dtype=np.int64),
                                 minlength=k)
                for col in COLUMNS[5:]}
        calls = np.bincount(names, minlength=k)
        sums["total_ns"] = np.bincount(
            names, minlength=k,
            weights=(np.frombuffer(self.cols["end_ns"], dtype=np.int64)
                     - np.frombuffer(self.cols["start_ns"], dtype=np.int64)))
        return {name: {"calls": int(calls[i]), **{c: int(v[i]) for c, v in sums.items()}}
                for i, name in enumerate(self.names)}

    def dump(self, path) -> int:
        """Write every span as one CSV row to a gzip file; returns the span count."""
        cols = [self.cols[c] for c in COLUMNS]
        name_col = COLUMNS.index("name")
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for row in zip(*cols):
                row = list(row)
                row[name_col] = self.names[row[name_col]]
                fh.write(",".join(map(str, row)) + "\n")
        return len(self.cols["id"])
