"""Full-history recursive multilevel Picard approximation of McKean-Vlasov
SDEs with additive noise and law-linear drift, plus the machinery needed to
verify it: keyed splittable randomness, grid Brownian paths, cost accounting
against a budget recursion, discrete Gronwall-type closed forms and bounds,
an interacting-particle reference solver, and a batch experiment harness.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import ConfigError, ResourceLimitError
from .hier_rng import derive_seed
from .mlp import CostLedger, realize_estimate
from .models import (
    DriftModel,
    Problem,
    builtin_problem,
    make_drift,
    pathwise_value,
)
from .particles import ensemble_stats, simulate_particles
from .recursions import (
    complexity_certificate,
    cost_bound,
    cost_budget,
    error_bound,
    gronwall_bound,
    gronwall_closed_form,
    moment_bound,
    two_step_closed_form,
)

__all__ = [
    "ConfigError",
    "CostLedger",
    "DriftModel",
    "Problem",
    "ResourceLimitError",
    "builtin_problem",
    "complexity_certificate",
    "cost_bound",
    "cost_budget",
    "derive_seed",
    "ensemble_stats",
    "error_bound",
    "gronwall_bound",
    "gronwall_closed_form",
    "make_drift",
    "moment_bound",
    "pathwise_value",
    "realize_estimate",
    "simulate_particles",
    "two_step_closed_form",
]
