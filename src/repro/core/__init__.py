"""ReMac core: automatic + adaptive redundancy elimination."""

from .chains import ChainSite, Operand, ProgramChains, build_chains
from .costgraph import CostGraph, build_cost_graph
from .crossblock import CrossBlockOption, CrossBlockResult, crossblock_search
from .enumerate import EnumResult, enumerate_combinations
from .normalize import expand_distributive, normalize, push_down_transposes
from .optimizer import ReMacOptimizer
from .plancache import (
    DataTokens,
    InputSketchMemo,
    PlanCache,
    PlanCacheStats,
    plan_fingerprint,
    settings_text,
)
from .options import (
    CSE,
    LSE,
    EliminationOption,
    Occurrence,
    conflict_free,
    count_contradictions,
    options_contradict,
)
from .probe import ProbeResult, probe
from .rewrite import rewrite_program
from .search import SearchResult, blockwise_search, explicit_cse_options
from .spores import SporesResult, mmchain_applicable, spores_search, supports_program
from .strategies import STRATEGIES, StrategyResult, choose_options
from .treewise import (
    TreewiseResult,
    catalan,
    plan_tree_count,
    program_plan_count,
    treewise_search,
)

__all__ = [
    "ChainSite", "Operand", "ProgramChains", "build_chains",
    "CostGraph", "build_cost_graph",
    "CrossBlockOption", "CrossBlockResult", "crossblock_search",
    "EnumResult", "enumerate_combinations",
    "normalize", "push_down_transposes", "expand_distributive",
    "ReMacOptimizer",
    "DataTokens", "InputSketchMemo", "PlanCache", "PlanCacheStats",
    "plan_fingerprint", "settings_text",
    "CSE", "LSE", "EliminationOption", "Occurrence",
    "options_contradict", "conflict_free", "count_contradictions",
    "ProbeResult", "probe",
    "rewrite_program",
    "SearchResult", "blockwise_search", "explicit_cse_options",
    "SporesResult", "spores_search", "mmchain_applicable", "supports_program",
    "STRATEGIES", "StrategyResult", "choose_options",
    "TreewiseResult", "treewise_search", "catalan", "plan_tree_count",
    "program_plan_count",
]
