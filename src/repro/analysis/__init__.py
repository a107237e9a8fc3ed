"""Evaluation drivers: the code behind every reconstructed table and figure.

:mod:`~repro.analysis.experiments` is the registry of the 17 tables (one
``repro experiment <id>`` each); :mod:`~repro.analysis.studies` holds the
parametric builders under it.  Each returns plain row dictionaries that
:func:`repro.graph500.report.render_table` prints and EXPERIMENTS.md quotes.
"""

from repro.analysis.attribution import PhaseAttribution
from repro.analysis.benchdiff import diff_documents, load_document, render_diff
from repro.analysis.memory import estimate_memory, max_feasible_scale
from repro.analysis.projection import ProjectionModel, fit_projection_model
from repro.analysis.studies import (
    ablation_study,
    delta_sweep,
    engine_comparison,
    fusion_cap_sweep,
    hub_threshold_sweep,
    strong_scaling,
    weak_scaling,
)

__all__ = [
    "PhaseAttribution",
    "ProjectionModel",
    "ablation_study",
    "delta_sweep",
    "diff_documents",
    "engine_comparison",
    "estimate_memory",
    "fit_projection_model",
    "load_document",
    "max_feasible_scale",
    "fusion_cap_sweep",
    "hub_threshold_sweep",
    "render_diff",
    "strong_scaling",
    "weak_scaling",
]
