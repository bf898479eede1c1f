"""Benchmark harness: experiment drivers for every table and figure."""

from .figures import (
    ablation_dp_quality,
    claims_counts,
    fig3_motivation,
    fig8a_search_compilation,
    fig8b_automatic_execution,
    fig9_strategies,
    fig10_dp_vs_enum,
    fig11_solutions,
    fig12_breakdown,
    fig13_balance,
    summarize_speedups,
    table2_datasets,
)
from .harness import BenchContext, percentile, speedup
from .report import render_table, save_report

__all__ = [
    "BenchContext", "percentile", "speedup",
    "render_table", "save_report",
    "table2_datasets", "fig3_motivation",
    "fig8a_search_compilation", "fig8b_automatic_execution",
    "fig9_strategies", "fig10_dp_vs_enum", "fig11_solutions",
    "fig12_breakdown", "fig13_balance",
    "claims_counts", "ablation_dp_quality", "summarize_speedups",
]
