"""Full-history recursive multilevel Picard estimator.

The estimator X[n, m] at hierarchical index theta is defined by structural
recursion over the Picard level n:

    X[0, m](t) = 0
    X[n, m](t) = xi + W_theta(snap(t, level n)) + t*mu(0, 0)
               + sum over levels l = 1..n-1 and samples k = 1..m**(n-l) of
                 (t / m**(n-l)) * [ mu(X_theta[l](s), X_eta[l](s))
                                  - mu(X_theta[l-1](s), X_eta[l-1](s)) ]

where eta = theta extended by (n, k, l), s = u*t with u the uniform draw
addressed by eta, X_theta[...] re-uses the caller's Brownian path, and both
X_eta[...] evaluations share one fresh path generated at level l.  Both drift
arguments are evaluated at the same random time s; sub-calls always strictly
decrease the Picard level, so every path query happens at a level at or below
the path's creation level.

Randomness is addressed, not stored: re-evaluating the same (theta, l)
process at a different time re-draws the identical underlying uniforms and
increments through :mod:`mlpicard.hier_rng`, which is what makes the
recursion a well-defined random function.

Memoization: the random inputs of a term, its sub-index eta, uniform u and
fresh path, depend on (theta, n, k, l) but not on the query time t.  Each
node therefore keeps them in a dict owned by its index theta: the same-index
calls X_theta[l] and X_theta[l-1] receive that dict unchanged, while the two
X_eta calls of one term share a new dict that is dropped with their subtree,
so memory stays bounded by the live part of the recursion.  Since every
memoized value is a pure function of its address, a hit returns exactly the
bits a recomputation would, and the estimator's output does not depend on
whether or where the memo hits.  Drift evaluations are not memoized: they
depend on t.

Instrumentation: the top-level path generation charges m**n * d draws, each
call with n >= 1 charges one drift evaluation for its cached mu(0, 0) read,
and each (l, k) term charges one uniform draw, m**l * d draws for the fresh
path, and two drift evaluations.  These are logical charges, made on every
term whether its inputs come from the memo or not, so the tallies do not
depend on the memo.  They are dominated by the budget recursion (which
re-charges path generation for same-index sub-calls) and are bounded below by
the m**n * d draws of the top path alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import GridPath, generate
from .errors import ResourceLimitError
from .hier_rng import IndexKey, child, derive_seed, uniform
from .ledger import CostLedger
from .models import Problem, pathwise_value
from .recursions import cost_budget

__all__ = [
    "L2ErrorResult",
    "MlpCall",
    "RealizeResult",
    "l2_error_estimate",
    "mlp_evaluate",
    "realize_estimate",
    "rep_seed",
    "summarize_squared_errors",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class MlpCall:
    """One estimator evaluation request.

    ``path`` is the Brownian path of ``key`` at its creation level and may be
    omitted only for picard_n = 0 (where the estimator is identically zero).
    """

    problem: Problem
    key: IndexKey
    picard_n: int
    branching_m: int
    t: float
    path: Optional[GridPath] = None

    def __post_init__(self) -> None:
        if self.picard_n < 0:
            raise ValueError(f"picard level must be non-negative, got {self.picard_n}")
        if self.branching_m < 1:
            raise ValueError(f"branching base must be at least 1, got {self.branching_m}")
        if not 0.0 <= self.t <= self.problem.horizon:
            raise ValueError(f"time {self.t} outside [0, {self.problem.horizon}]")
        if self.picard_n >= 1:
            if self.path is None:
                raise ValueError("picard level >= 1 requires the Brownian path of the key")
            if self.path.level < self.picard_n:
                raise ValueError(
                    f"path created at level {self.path.level} cannot serve level {self.picard_n}"
                )
            if (
                self.path.branching != self.branching_m
                or self.path.dim != self.problem.dim
                or self.path.horizon != self.problem.horizon
            ):
                raise ValueError("path grid does not match the problem/branching")


def _evaluate(
    problem: Problem,
    key: IndexKey,
    n: int,
    m: int,
    t: float,
    path: Optional[GridPath],
    ledger: CostLedger,
    terms: dict,
) -> np.ndarray:
    """``terms`` memoizes (sub key, u, fresh path) per (n, k, level) for ``key``."""
    d = problem.dim
    if n == 0:
        return np.zeros(d)
    drift = problem.drift
    ledger.add_evals(1)  # cached mu(0,0) read, the standalone drift charge
    value = problem.initial + path.value_at(t, n) + t * drift.value_at_origin
    for level in range(1, n):
        fan = m ** (n - level)
        weight = t / fan
        for k in range(1, fan + 1):
            # Logical charge, memo hit or not: one uniform plus the fresh path.
            ledger.add_draws(1 + m**level * d)
            term = terms.get((n, k, level))
            if term is None:
                sub = child(key, (n, k, level))
                # One fresh path per k, generated at the finer level l and
                # shared by the level-l and level-(l-1) independent copies.
                term = (sub, uniform(sub, "u"), generate(sub, level, m, problem.horizon, d))
                terms[n, k, level] = term
            sub, u, fresh = term
            s = u * t
            sub_terms: dict = {}
            x_hi = _evaluate(problem, key, level, m, s, path, ledger, terms)
            y_hi = _evaluate(problem, sub, level, m, s, fresh, ledger, sub_terms)
            if level >= 2:
                x_lo = _evaluate(problem, key, level - 1, m, s, path, ledger, terms)
                y_lo = _evaluate(problem, sub, level - 1, m, s, fresh, ledger, sub_terms)
            else:
                # Level-0 estimator is identically zero: no query, no charge.
                x_lo = y_lo = np.zeros(d)
            ledger.add_evals(2)
            value += weight * (drift.evaluate(x_hi, y_hi) - drift.evaluate(x_lo, y_lo))
    return value


def mlp_evaluate(call: MlpCall, ledger: CostLedger) -> np.ndarray:
    """Evaluate the estimator for a validated call, charging the ledger."""
    return _evaluate(
        call.problem, call.key, call.picard_n, call.branching_m, call.t, call.path, ledger, {}
    )


@dataclass(frozen=True)
class RealizeResult:
    value: np.ndarray  # estimator value at the horizon
    ledger: CostLedger
    w0_terminal: np.ndarray  # W0(T), for coupled-oracle error computation


def realize_estimate(
    problem: Problem,
    n: int,
    m: int,
    master_seed: int,
    *,
    ledger: Optional[CostLedger] = None,
    cost_ceiling: Optional[int] = None,
) -> RealizeResult:
    """Compute one realization of the root estimator at t = T.

    Deterministic in (problem, n, m, master_seed).  Refuses to start when the
    cost budget for (n, m) exceeds the configured ceiling.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if cost_ceiling is not None:
        budget = cost_budget(n, m, problem.dim, 1, 1)
        if budget > cost_ceiling:
            raise ResourceLimitError(
                f"cost budget {budget} for (n={n}, m={m}, d={problem.dim}) "
                f"exceeds the ceiling {cost_ceiling}"
            )
    if ledger is None:
        ledger = CostLedger()
    root = IndexKey(master_seed, (0,))
    path = generate(root, n, m, problem.horizon, problem.dim, ledger)
    value = _evaluate(problem, root, n, m, problem.horizon, path, ledger, {})
    return RealizeResult(value=value, ledger=ledger, w0_terminal=np.array(path.values[-1]))


def rep_seed(master_seed: int, rep: int) -> int:
    """Master seed of repetition ``rep``, independent across repetitions."""
    return derive_seed(master_seed, "rep", rep)


def summarize_squared_errors(squared: np.ndarray) -> tuple[float, float, float, float]:
    """(rmse, 95% CI half-width, mean square, se of mean square).

    The RMSE interval comes from the delta method applied to the sample mean
    of the squared errors; a zero mean square yields a degenerate interval.
    """
    squared = np.asarray(squared, dtype=float)
    reps = len(squared)
    if reps < 2:
        raise ValueError(f"need at least 2 repetitions, got {reps}")
    mean_sq = float(np.mean(squared))
    se_sq = float(math.sqrt(np.var(squared, ddof=1) / reps))
    rmse = math.sqrt(mean_sq)
    half = _Z95 * se_sq / (2.0 * rmse) if rmse > 0.0 else 0.0
    return rmse, half, mean_sq, se_sq


@dataclass(frozen=True)
class L2ErrorResult:
    rmse: float
    ci_half_width: float
    reps: int
    mean_sq: float
    se_sq: float
    draws_per_realization: int
    evals_per_realization: int

    @property
    def ci_upper(self) -> float:
        return self.rmse + self.ci_half_width


def l2_error_estimate(
    problem: Problem, n: int, m: int, repetitions: int, master_seed: int
) -> L2ErrorResult:
    """Root-mean-square error against the coupled pathwise oracle at t = T.

    Each repetition runs one realization under its own derived master seed
    and measures the squared distance to the exact solution driven by the
    same W0.  The per-realization operation counts do not depend on the seed,
    so the first repetition's tallies are reported for all.
    """
    if problem.oracle is None or problem.oracle.kind != "pathwise":
        raise ValueError(f"problem has no pathwise oracle (kind {problem.oracle_kind!r})")
    if repetitions < 2:
        raise ValueError(f"need at least 2 repetitions, got {repetitions}")
    squared = np.empty(repetitions)
    draws = evals = 0
    for rep in range(repetitions):
        result = realize_estimate(problem, n, m, rep_seed(master_seed, rep))
        exact = pathwise_value(problem, problem.horizon, result.w0_terminal)
        diff = result.value - exact
        squared[rep] = float(diff @ diff)
        if rep == 0:
            draws, evals = result.ledger.snapshot()
    rmse, half, mean_sq, se_sq = summarize_squared_errors(squared)
    return L2ErrorResult(rmse, half, repetitions, mean_sq, se_sq, draws, evals)
