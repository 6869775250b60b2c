"""Hop-constrained connected facility location: solvers and benchmarks.

Facilities must be linked to a root by a tree whose paths use a bounded
number of edges; customers are assigned to open facilities.  The package
offers harmony-search heuristics, a greedy closing step, exhaustive
oracles for small instances, and a benchmark CLI.
"""

from .greedy_variants import GreedyParams, ghs_solve, greedy_close, hybrid_solve
from .harmony_core import (
    HarmonyMemory,
    HarmonyParams,
    RunStats,
    SolveResult,
    harmony_solve,
    hs_solve,
    improvise,
    init_bias,
    repair_vector,
    update_bias,
)
from .hcst_nrbi import NrbiState, SteinerTree, TreeInfeasibleError, nrbi
from .hop_paths import HopDistanceTable, HopTableCache, extract_path, hop_bellman_ford
from .instance_model import (
    Instance,
    MergeError,
    ParseError,
    StpGraph,
    UflpData,
    merge_instances,
    parse_stp,
    parse_tiny,
    parse_uflp,
    serialize_tiny,
)
from .objective import (
    CostBreakdown,
    Solution,
    Violation,
    as_open_set,
    evaluate,
    validate,
)
from .oracle import (
    HcstOracle,
    OracleLimitError,
    exact_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "GreedyParams",
    "HarmonyMemory",
    "HarmonyParams",
    "HcstOracle",
    "HopDistanceTable",
    "HopTableCache",
    "Instance",
    "MergeError",
    "NrbiState",
    "OracleLimitError",
    "ParseError",
    "RunStats",
    "SolveResult",
    "Solution",
    "SteinerTree",
    "StpGraph",
    "TreeInfeasibleError",
    "UflpData",
    "Violation",
    "as_open_set",
    "evaluate",
    "exact_solve",
    "extract_path",
    "ghs_solve",
    "greedy_close",
    "harmony_solve",
    "hop_bellman_ford",
    "hs_solve",
    "hybrid_solve",
    "improvise",
    "init_bias",
    "merge_instances",
    "nrbi",
    "parse_stp",
    "parse_tiny",
    "parse_uflp",
    "repair_vector",
    "serialize_tiny",
    "update_bias",
    "validate",
]
