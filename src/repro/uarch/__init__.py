"""Out-of-order timing model (modified-SimpleScalar analogue)."""

from repro.uarch.bpred import GSharePredictor, PerfectPredictor, make_predictor
from repro.uarch.cache import Cache, build_hierarchy
from repro.uarch.config import (
    CacheConfig,
    MachineConfig,
    SVFConfig,
    baseline_16wide,
    table2_config,
)
from repro.uarch.pipeline import simulate
from repro.uarch.stats import SimStats

__all__ = [
    "Cache",
    "CacheConfig",
    "GSharePredictor",
    "MachineConfig",
    "PerfectPredictor",
    "SVFConfig",
    "SimStats",
    "baseline_16wide",
    "build_hierarchy",
    "make_predictor",
    "simulate",
    "table2_config",
]
