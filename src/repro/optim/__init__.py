"""Optimization substrate: simplex projection and projected gradient ascent."""

from repro.optim.simplex import project_to_simplex, project_rows_to_simplex
from repro.optim.line_search import AdaptiveStepController
from repro.optim.projected_gradient import (
    ProjectedGradientResult,
    maximize_rowwise_simplex,
)

__all__ = [
    "project_to_simplex",
    "project_rows_to_simplex",
    "AdaptiveStepController",
    "ProjectedGradientResult",
    "maximize_rowwise_simplex",
]
