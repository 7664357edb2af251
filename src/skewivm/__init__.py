"""Skew-aware incremental maintenance of count and enumeration queries.

Engines maintain their query under single-tuple inserts and deletes with
sublinear amortized work, trading space for update time through a tuning
exponent: relations split into heavy and light parts by key degree, part
combinations are evaluated with combination-specific strategies, and a few
aggregated join views absorb the combinations that would otherwise need
linear scans. Doubling/halving of the size threshold and per-key
migrations keep the partitions honest as the data evolves. Every engine
is one class, ``skewivm.loomis_whitney.LWEngine``, which writes that loop
once and reads its schema from its plan; its deltas and view upkeep are
code generated from the plan by one generator in the same module.
"""

from .metrics import OpCounters, fit_scaling
from .relation import (HEAVY, LIGHT, Partition, QuadPartition, Relation,
                       SchemaError)
from .triangle import TriangleEngine, static_count
from .selfjoin import SelfJoinEngine
from .refined import RefinedTriangleEngine
from .enumeration import EnumTriangleEngine, preprocess_enum
from .loomis_whitney import LWEngine
from .path4 import Path4Engine
from . import cli, oracle

__all__ = [
    "OpCounters", "fit_scaling",
    "HEAVY", "LIGHT", "Partition", "QuadPartition", "Relation",
    "SchemaError",
    "TriangleEngine", "static_count",
    "SelfJoinEngine",
    "RefinedTriangleEngine",
    "EnumTriangleEngine", "preprocess_enum",
    "LWEngine", "Path4Engine",
    "cli", "oracle",
]

__version__ = "0.1.0"
