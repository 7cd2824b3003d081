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

Level-synchronous evaluation: the random inputs of a term, its sub-index
eta, uniform u and fresh path, depend on (theta, n, k, l) but not on the
query time t; only s = u*t does.  The nodes (theta, j) of one index theta
form a key group.  Its query times are gathered top-down, j = n..1: each
node's times are the concatenation of those asked of it, and every term of
the node draws its uniform once and appends s = u*t, over all the node's
times, to the same-index nodes (theta, l) and (theta, l-1).  The group is
then evaluated bottom-up, j = 1..n, each node once with numpy over all its
times; a term's fresh path is generated once, right before the key group of
eta evaluates the two X_eta nodes at s, and dropped with it.  Per query time
the arithmetic is that of the scalar recursion, term by term in (l, k)
order, so every value is bit-identical to evaluating one time at a time.

Instrumentation: the top-level path generation charges m**n * d draws, each
node with n >= 1 charges, per query time, one drift evaluation for its
cached mu(0, 0) read, and each (l, k) term charges, per query time, one
uniform draw, m**l * d draws for the fresh path, and two drift evaluations.
These are logical charges: they count what the scalar recursion would draw
and evaluate, not the hashes actually computed, so the tallies do not depend
on how the evaluation is batched.  They are dominated by the budget
recursion (which re-charges path generation for same-index sub-calls) and
are bounded below by the m**n * d draws of the top path alone.
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
    path: GridPath,
    m: int,
    levels: tuple[int, ...],
    times: np.ndarray,
    ledger: CostLedger,
) -> list[np.ndarray]:
    """Values of the nodes (key, j) for j in ``levels``, each at ``times``.

    ``levels`` lists distinct levels >= 1, highest first; the highest is the
    top of the key group and must not exceed the creation level of ``path``.
    Each returned array has shape (len(times), d).
    """
    d = problem.dim
    top = levels[0]
    asked: list[list[np.ndarray]] = [[] for _ in range(top + 1)]
    rows = [0] * (top + 1)  # times asked of node j so far
    for j in levels:
        asked[j].append(times)
        rows[j] = len(times)

    # Top-down: gather every node's times; each term's uniform is drawn once.
    # A node's terms are kept per level l as (l, fan, [(eta, s, row of s in
    # node l, row of s in node l-1) for k = 1..fan]).
    node_times: list = [None] * (top + 1)
    node_terms: list = [None] * (top + 1)
    for j in range(top, 0, -1):
        t = asked[j][0] if len(asked[j]) == 1 else np.concatenate(asked[j])
        terms = []
        for level in range(1, j):
            fan = m ** (j - level)
            samples = []
            for k in range(1, fan + 1):
                sub = child(key, (j, k, level))
                s = uniform(sub, "u") * t
                samples.append((sub, s, rows[level], rows[level - 1]))
                asked[level].append(s)
                rows[level] += len(t)
                if level >= 2:
                    asked[level - 1].append(s)
                    rows[level - 1] += len(t)
            terms.append((level, fan, samples))
            # Per query time and term: one uniform, the fresh path and two
            # drift evaluations.
            ledger.add_draws(len(t) * fan * (1 + m**level * d))
            ledger.add_evals(len(t) * fan * 2)
        ledger.add_evals(len(t))  # per query time: the cached mu(0,0) read
        node_times[j] = t
        node_terms[j] = terms

    # Bottom-up: each node once over all its times.
    drift = problem.drift
    values: list = [None] * (top + 1)
    for j in range(1, top + 1):
        t = node_times[j]
        size = len(t)  # every term queries its sub-nodes at this many times
        value = problem.initial + path.value_at(t, j) + t[:, None] * drift.value_at_origin
        for level, fan, samples in node_terms[j]:
            weight = t[:, None] / fan
            if level == 1:
                zeros = np.zeros((size, d))
            for sub, s, at_hi, at_lo in samples:
                x_hi = values[level][at_hi : at_hi + size]
                # One fresh path per k, generated at the finer level l and
                # shared by the level-l and level-(l-1) independent copies.
                fresh = generate(sub, level, m, problem.horizon, d)
                if level >= 2:
                    y_hi, y_lo = _evaluate(problem, sub, fresh, m, (level, level - 1), s, ledger)
                    x_lo = values[level - 1][at_lo : at_lo + size]
                else:
                    # Level-0 estimator is identically zero: no query, no charge.
                    (y_hi,) = _evaluate(problem, sub, fresh, m, (level,), s, ledger)
                    x_lo = y_lo = zeros
                value += weight * (drift.evaluate(x_hi, y_hi) - drift.evaluate(x_lo, y_lo))
        values[j] = value
    # The requested times come first in each node's rows.
    return [values[j][: len(times)] for j in levels]


def mlp_evaluate(call: MlpCall, ledger: CostLedger) -> np.ndarray:
    """Evaluate the estimator for a validated call, charging the ledger."""
    if call.picard_n == 0:
        return np.zeros(call.problem.dim)
    (value,) = _evaluate(
        call.problem, call.key, call.path, call.branching_m, (call.picard_n,),
        np.array([call.t]), ledger,
    )
    return value[0]


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
    (value,) = _evaluate(problem, root, path, m, (n,), np.array([problem.horizon]), ledger)
    return RealizeResult(value=value[0], ledger=ledger, w0_terminal=np.array(path.values[-1]))


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
