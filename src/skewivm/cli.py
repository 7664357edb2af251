"""Command-line front door: stream ingestion, verification, benchmarks.

Stream grammar, one update per line, ``#`` starts a comment::

    <relname> <+|-> <v1> [<v2> ...] [* <mult>]

Values are decimal integers, the default multiplicity is 1, and ``-``
negates it. Relation names and arities are those of the selected query
family's engine: triangle (R, S, T binary), triangle-selfjoin (R binary),
path4 (R unary, S, T binary, U unary), lw:<n> (R1..Rn of arity n-1).

``run`` replays a stream into the selected engine and prints JSON records
{step, answer, N, db_size, ops, rebalances, pending_moves}, one per
update or only the final one; ``static`` mode loads the stream's final
database instead and prints one. ``--epsilon`` takes one exponent in
[0, 1] or one per relation (``0,0,1``: classical and factorized
maintenance are exponents), and the engine checks it. ``--verify``
cross-checks every prefix against the oracle trackers and exits nonzero
on the first mismatch. ``bench`` generates insert streams seeded by
``--seed`` (a ``bench`` option only) at several sizes, replays them, and
emits a CSV of operation totals, peak state size, wall time, and the
fitted log-log exponent per configuration. The wall time sums the
``on_update`` calls alone; the state size is sampled between them,
untimed. ``mixed`` and ``er`` emit every family's relations and arities;
``hub`` and ``space`` emit triangle streams only and refuse other
families (exit 2) before any engine is built.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O error.

The seeded stream generators used by benchmarks and tests live here too;
engines never generate data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .enumeration import EnumTriangleEngine
from .loomis_whitney import LWEngine
from .metrics import fit_scaling
from .oracle import (LWTracker, Path4Tracker, SelfJoinTracker, TriangleTracker,
                     brute_force_enumerate)
from .path4 import Path4Engine
from .refined import RefinedTriangleEngine
from .selfjoin import SelfJoinEngine
from .triangle import TriangleEngine


class Update(NamedTuple):
    rel: str
    values: tuple
    mult: int


class StreamFormatError(ValueError):
    """Malformed update line."""


class ConfigError(ValueError):
    """Inconsistent run configuration."""


MODES = ("ivm-eps", "refined", "enum", "static")


# the triangle family's engine per mode; the others (and static mode's
# exponent check) take the base engine
TRIANGLE_ENGINES = {"refined": RefinedTriangleEngine, "enum": EnumTriangleEngine}

# query family -> (engine of (mode, eps), oracle tracker, schema); the
# schema gives the family's relation names and arities as its engine reads
# them, every tracker takes ``update(rel, t, m)``; lw:<n> gets its entry
# from ``_family`` at its degree
FAMILIES = {
    "triangle": (lambda mode, eps: TRIANGLE_ENGINES.get(mode, TriangleEngine)(eps),
                 TriangleTracker, TriangleEngine.schema),
    "triangle-selfjoin": (lambda mode, eps: SelfJoinEngine(eps), SelfJoinTracker,
                          SelfJoinEngine.schema),
    "path4": (lambda mode, eps: Path4Engine(eps), Path4Tracker, Path4Engine.schema),
}


def _family(query: str) -> tuple:
    """The ``FAMILIES`` entry of ``query``; ``ConfigError`` for an unknown family."""
    if query in FAMILIES:
        return FAMILIES[query]
    if query.startswith("lw:"):
        n = int(query.split(":", 1)[1])
        if n < 3:
            raise ConfigError("lw degree must be at least 3")
        return (lambda mode, eps: LWEngine(n, eps), lambda: LWTracker(n),
                lambda: LWEngine.schema(n))
    raise ConfigError(f"unknown query family {query!r}")


def family_arities(query: str) -> dict[str, int]:
    """Each relation of ``query``'s family by name, with its arity, as its engine reads them.

    Read from the engine class and its compiled plan; no engine is built.
    """
    return dict(zip(*_family(query)[2]()))


def parse_stream(lines: Iterable[str], arities: dict[str, int]) -> list[Update]:
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) < 3:
            raise StreamFormatError(f"line {lineno}: expected '<rel> <+|-> <values...>'")
        rel, sign = toks[0], toks[1]
        if rel not in arities:
            raise StreamFormatError(f"line {lineno}: unknown relation {rel!r}")
        if sign not in ("+", "-"):
            raise StreamFormatError(f"line {lineno}: sign must be + or -, got {sign!r}")
        rest = toks[2:]
        mult = 1
        if "*" in rest:
            star = rest.index("*")
            if star != len(rest) - 2:
                raise StreamFormatError(f"line {lineno}: '*' must precede a single multiplicity")
            try:
                mult = int(rest[star + 1])
            except ValueError:
                raise StreamFormatError(f"line {lineno}: bad multiplicity {rest[star+1]!r}") from None
            rest = rest[:star]
        try:
            values = tuple(int(v) for v in rest)
        except ValueError:
            raise StreamFormatError(f"line {lineno}: values must be decimal integers") from None
        if len(values) != arities[rel]:
            raise StreamFormatError(
                f"line {lineno}: {rel} takes {arities[rel]} values, got {len(values)}")
        if mult == 0:
            raise StreamFormatError(f"line {lineno}: zero multiplicity")
        out.append(Update(rel, values, mult if sign == "+" else -mult))
    return out


def format_stream(updates: Iterable[Update]) -> list[str]:
    lines = []
    for rel, values, m in updates:
        sign = "+" if m > 0 else "-"
        body = " ".join(str(v) for v in values)
        suffix = f" * {abs(m)}" if abs(m) != 1 else ""
        lines.append(f"{rel} {sign} {body}{suffix}")
    return lines


# ---------------------------------------------------------------------------
# seeded stream generators


def random_mixed_stream(query: str, length: int, domain: int, seed: int,
                        mults=(-2, -1, 1, 2)) -> list[Update]:
    """Uniform mixed inserts and deletes over a bounded value domain."""
    rng = random.Random(seed)
    arities = family_arities(query)
    names = list(arities)
    out = []
    for _ in range(length):
        rel = names[rng.randrange(len(names))]
        values = tuple(rng.randrange(domain) for _ in range(arities[rel]))
        out.append(Update(rel, values, rng.choice(mults)))
    return out


def er_insert_stream(length: int, nodes: int, seed: int,
                     query: str = "triangle") -> list[Update]:
    """Insert-only uniform random tuples, one relation per step, round robin.

    Each value is drawn uniformly from ``range(nodes)``, as many as the
    relation's arity in ``query``'s family; binary relations get random
    edges.
    """
    rng = random.Random(seed)
    arities = family_arities(query)
    names = list(arities)
    out = []
    for i in range(length):
        rel = names[i % len(names)]
        out.append(Update(rel, tuple(rng.randrange(nodes) for _ in range(arities[rel])), 1))
    return out


def hub_insert_stream(length: int, seed: int, hubs: int = 8) -> list[Update]:
    """Insert-only triangle stream with hub-concentrated A and B values.

    A and B are drawn from a handful of hubs while C ranges over a wide
    domain, so hub degrees grow linearly in the stream length and blow far
    past any square-root threshold. Degree-oblivious strategies then pay
    hub-sized scans on most updates while a balanced split promotes the
    hubs once and keeps every later scan short. Used by the scaling probes.
    """
    rng = random.Random(seed)
    wide = max(4 * length, 16)
    out = []
    for i in range(length):
        rel = ("R", "S", "T")[i % 3]
        a = rng.randrange(hubs)
        b = rng.randrange(hubs)
        cv = rng.randrange(wide)
        if rel == "R":
            values = (a, b)
        elif rel == "S":
            values = (b, cv)
        else:
            values = (cv, a)
        out.append(Update(rel, values, 1))
    return out


def space_probe_stream(length: int, seed: int) -> list[Update]:
    """Insert-only triangle stream that inflates one wedge view.

    A tiny pool of A values turns heavy in R while the B values, shared
    between R and S, stay light in S with square-root-sized neighbor
    lists. The heavy-light wedge between R and S then grows like the
    number of heavy tuples times the light budget, clearly superlinear,
    while refined two-variable splits keep every view empty (the C side
    never gets heavy).
    """
    rng = random.Random(seed)
    root = max(4, math.isqrt(length))
    heavy_pool = max(1, root // 68)
    mid_pool = 3 * root
    wide = max(4 * length, 16)
    out = []
    for i in range(length):
        rel = ("R", "S", "T")[i % 3]
        if rel == "R":
            a = rng.randrange(heavy_pool) if rng.random() < 0.12 else heavy_pool + rng.randrange(wide)
            values = (a, rng.randrange(mid_pool))
        elif rel == "S":
            values = (rng.randrange(mid_pool), rng.randrange(wide))
        else:
            values = (rng.randrange(wide), heavy_pool + rng.randrange(wide))
        out.append(Update(rel, values, 1))
    return out


def _triangle_only(name: str, make):
    """Generator ``(n, seed, query)`` over ``make(n, seed)``, which emits R, S, T pairs."""
    def generate(n: int, seed: int, query: str) -> list[Update]:
        if query != "triangle":
            raise ConfigError(f"generator {name!r} emits triangle streams only, "
                              f"not {query!r}; use 'mixed' or 'er'")
        return make(n, seed)
    return generate


# name -> generator(length, seed, query family); each one emits the family's
# relations and arities or refuses the family with ConfigError
GENERATORS = {
    "mixed": lambda n, seed, query: random_mixed_stream(query, n, max(8, math.isqrt(n)), seed),
    "er": lambda n, seed, query: er_insert_stream(n, max(8, math.isqrt(2 * n)), seed, query),
    "hub": _triangle_only("hub", hub_insert_stream),
    "space": _triangle_only("space", space_probe_stream),
}


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    query: str = "triangle"
    mode: str = "ivm-eps"
    # one exponent, or a tuple of one per relation; the engine checks it
    eps: float | tuple = 0.5
    stream: str = "-"
    verify: bool = False
    metrics: str | None = None
    seed: int = 0
    emit: str = "final"

    def validate(self) -> None:
        _family(self.query)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode != "ivm-eps" and self.query != "triangle":
            raise ConfigError(f"{self.mode} mode applies to the triangle family")
        if self.emit not in ("final", "per-step"):
            raise ConfigError("emit must be 'final' or 'per-step'")


def build_engine(cfg: RunConfig):
    return _family(cfg.query)[0](cfg.mode, cfg.eps)


def build_tracker(query: str):
    return _family(query)[1]()


def _record(step: int, engine) -> dict:
    ops = engine.counters.snapshot()
    return {
        "step": step,
        "answer": engine.answer(),
        "N": engine.N,
        "db_size": engine.db_size,
        "ops": {k: ops[k] for k in ("lookups", "iterations", "moves")},
        "rebalances": {"major": ops["rebalance_major"], "minor": ops["rebalance_minor"]},
        "pending_moves": engine.pending_moves(),
    }


def _read_stream(cfg: RunConfig, engine) -> list[Update]:
    arities = dict(zip(engine.names, engine.arities))
    if cfg.stream == "-":
        return parse_stream(sys.stdin, arities)
    with open(cfg.stream, "r", encoding="utf-8") as fh:
        return parse_stream(fh, arities)


def run(cfg: RunConfig, out=None) -> int:
    cfg.validate()
    out = out if out is not None else sys.stdout
    # built first, so a bad exponent is refused before any input is read
    engine = build_engine(cfg)
    updates = _read_stream(cfg, engine)

    metrics_fh = open(cfg.metrics, "w", encoding="utf-8") if cfg.metrics else None
    try:
        if cfg.mode == "static":
            tracker = TriangleTracker()
            for rel, values, m in updates:
                tracker.update(rel, values, m)
            engine = TriangleEngine.preprocess(tracker.db(), cfg.eps)
            if cfg.verify and engine.answer() != tracker.count:
                print(f"verification failed at step {len(updates)}", file=sys.stderr)
                return 1
            for fh in filter(None, (out, metrics_fh)):
                print(json.dumps(_record(len(updates), engine)), file=fh)
            return 0

        tracker = build_tracker(cfg.query) if cfg.verify else None
        for step, upd in enumerate(updates, 1):
            engine.on_update(upd.rel, upd.values, upd.mult)
            if tracker is not None:
                tracker.update(upd.rel, upd.values, upd.mult)
                if cfg.mode == "enum":
                    got = engine.result_multiset()
                    want = brute_force_enumerate(*(dict(r) for r in tracker.rels))
                    ok = got == want
                else:
                    ok = engine.answer() == tracker.count
                if not ok:
                    print(f"verification failed at step {step}", file=sys.stderr)
                    return 1
            if cfg.emit == "per-step" or metrics_fh:
                rec = _record(step, engine)
                if cfg.emit == "per-step":
                    print(json.dumps(rec), file=out)
                if metrics_fh:
                    print(json.dumps(rec), file=metrics_fh)
        if cfg.emit == "final":
            print(json.dumps(_record(len(updates), engine)), file=out)
        return 0
    finally:
        if metrics_fh:
            metrics_fh.close()


def bench(cfg: RunConfig, sizes: list[int], gen: str = "hub", out=None) -> int:
    cfg.validate()
    if cfg.mode == "static":
        # a static count keeps no state between updates: there is nothing to
        # time per update, and an engine run here would not be static
        raise ConfigError("static mode has no bench; use run")
    if not sizes or min(sizes) < 1:
        raise ConfigError("bench takes one or more stream lengths of at least 1")
    if gen not in GENERATORS:
        raise ConfigError(f"unknown generator {gen!r}")
    out = out if out is not None else sys.stdout
    rows = []
    totals = []
    for size in sizes:
        # a generator that refuses the family raises before any engine is
        # built, and a bad exponent is refused after one stream, not all
        stream = GENERATORS[gen](size, cfg.seed, cfg.query)
        engine = build_engine(cfg)
        peak_space = 0
        wall = 0.0
        for upd in stream:
            t0 = time.perf_counter()
            engine.on_update(upd.rel, upd.values, upd.mult)
            wall += time.perf_counter() - t0
            space = engine.space_used()
            if space > peak_space:
                peak_space = space
        ops = engine.counters.snapshot()
        total = engine.counters.total_steps()
        totals.append(total)
        rows.append({
            "query": cfg.query, "mode": cfg.mode,
            "eps": _spell_exponent(cfg.eps), "gen": gen,
            "size": size, "lookups": ops["lookups"], "iterations": ops["iterations"],
            "moves": ops["moves"], "majors": ops["rebalance_major"],
            "minors": ops["rebalance_minor"], "pending_moves": engine.pending_moves(),
            "total_ops": total,
            "peak_space": peak_space, "wall_s": round(wall, 4), "slope": "",
        })
    if len(sizes) >= 3:
        slope = round(fit_scaling(sizes, totals), 4)
        for row in rows:
            row["slope"] = slope
    metrics_fh = open(cfg.metrics, "w", encoding="utf-8", newline="") if cfg.metrics else None
    with metrics_fh or nullcontext():
        for fh in filter(None, (out, metrics_fh)):
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def exponent(text: str) -> float | tuple:
    """``--epsilon``'s value: ``0.5`` -> 0.5, ``0,0,1`` -> (0.0, 0.0, 1.0)."""
    values = tuple(float(v) for v in text.split(","))
    return values[0] if len(values) == 1 else values


def _spell_exponent(eps) -> str:
    """The exponent as ``--epsilon`` takes it (``0.5``, ``0,0,1``), exactly."""
    values = eps if isinstance(eps, tuple) else (eps,)
    return ",".join(repr(float(v)).removesuffix(".0") for v in values)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--query", default="triangle",
                   help="triangle | triangle-selfjoin | path4 | lw:<n>")
    p.add_argument("--mode", default="ivm-eps", choices=MODES)
    p.add_argument("--epsilon", type=exponent, default=0.5,
                   help="tuning exponent in [0, 1], or one per relation ('0,0,1')")
    p.add_argument("--metrics", default=None, help="write records to this path")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewivm",
                                     description="incremental count/enumeration maintenance")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="replay an update stream")
    _add_common(runp)
    runp.add_argument("--stream", default="-", help="update stream path, '-' for stdin")
    runp.add_argument("--verify", action="store_true",
                      help="cross-check every prefix against the oracle")
    runp.add_argument("--emit", default="final", choices=("final", "per-step"))
    benchp = sub.add_parser("bench", help="seeded scaling benchmark")
    _add_common(benchp)
    benchp.add_argument("--sizes", default="4000,16000,64000",
                        help="comma-separated stream lengths")
    benchp.add_argument("--gen", default="hub", choices=sorted(GENERATORS))
    benchp.add_argument("--seed", type=int, default=0, help="seed of the generated streams")
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        query=args.query, mode=args.mode, eps=args.epsilon,
        stream=getattr(args, "stream", "-"), verify=getattr(args, "verify", False),
        metrics=args.metrics, seed=getattr(args, "seed", 0), emit=getattr(args, "emit", "final"),
    )


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _config_from_args(args)
        if args.command == "run":
            return run(cfg)
        sizes = [int(s) for s in args.sizes.split(",") if s]
        return bench(cfg, sizes, gen=args.gen)
    except (ConfigError, StreamFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
