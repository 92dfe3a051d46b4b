"""Evaluation tooling: distributions, figures, tables, sweeps."""

from repro.analysis.distributions import (
    WorkloadDistributions,
    gmm_spatial_fit,
    temporal_information_gain,
    workload_distributions,
)
from repro.analysis.figures import (
    bar_chart,
    grouped_bar_chart,
    histogram_figure,
)
from repro.analysis.mrc import (
    lru_stack_distances,
    miss_rate_curve,
    working_set_curve,
)
from repro.analysis.sweep import (
    SweepPoint,
    sweep_cache_capacity,
    sweep_n_components,
    sweep_threshold_quantile,
    sweep_windowing,
)
from repro.analysis.tables import render_dict_table, render_table

__all__ = [
    "SweepPoint",
    "WorkloadDistributions",
    "bar_chart",
    "gmm_spatial_fit",
    "grouped_bar_chart",
    "histogram_figure",
    "lru_stack_distances",
    "miss_rate_curve",
    "render_dict_table",
    "render_table",
    "working_set_curve",
    "sweep_cache_capacity",
    "sweep_n_components",
    "sweep_threshold_quantile",
    "sweep_windowing",
    "temporal_information_gain",
    "workload_distributions",
]
