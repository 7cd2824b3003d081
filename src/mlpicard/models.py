"""McKean-Vlasov problem instances: drifts, constants, and exact-solution oracles.

A drift mu maps a state point and a law sample to a velocity, with the
two-sided Lipschitz property

    ||mu(x1, y1) - mu(x2, y2)|| <= (L/2) ||x1 - x2|| + (L/2) ||y1 - y2||

in the Euclidean norm.  Built-in problems carry whatever exact solution is
available: a *pathwise* oracle expresses X(t) as a function of the driving
Brownian value (enabling per-realization error measurement), a *mean-only*
oracle provides E[X(t)] and per-coordinate variance, and the nonlinear sine
model has no closed form and is checked against the particle system instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteDriftError
from .hier_rng import IndexKey, normals, uniforms

__all__ = [
    "DriftModel",
    "LipschitzReport",
    "Oracle",
    "Problem",
    "builtin_problem",
    "lipschitz_selfcheck",
    "make_drift",
    "oracle_mean",
    "pathwise_value",
]

# Relative slack for the sampled Lipschitz ratio; exact-equality cases like
# linear drifts sit on the boundary up to roundoff.
_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class DriftModel:
    """Drift function with its declared Lipschitz constant.

    ``evaluate`` must be a pure function accepting broadcastable arrays of
    shape (..., d) in both arguments and returning their broadcast result,
    each (..., d) row computed from the same rows of the arguments alone:
    the estimator evaluates the rows of many keys in one call and refuses a
    result of another shape.  Purity is required for cost accounting and
    parallel use.
    ``value_at_origin`` caches mu(0, 0) so the estimator's constant term does
    not re-evaluate the drift.
    """

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_L: float
    value_at_origin: np.ndarray

    def __post_init__(self) -> None:
        if self.lipschitz_L < 0:
            raise ValueError(f"Lipschitz constant must be non-negative, got {self.lipschitz_L}")


def make_drift(
    name: str,
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lipschitz_L: float,
    dim: int,
) -> DriftModel:
    """Build a DriftModel, caching mu(0,0) from one evaluation at the origin,
    which must be finite."""
    zero = np.zeros(dim)
    origin = np.asarray(evaluate(zero, zero), dtype=float)
    if origin.shape != (dim,):
        raise ValueError(f"drift returned shape {origin.shape}, expected ({dim},)")
    if not np.isfinite(origin).all():
        raise NonFiniteDriftError(f"drift {name!r} is not finite at the origin")
    origin.setflags(write=False)
    return DriftModel(name, evaluate, float(lipschitz_L), origin)


@dataclass(frozen=True)
class Oracle:
    """Exact-solution descriptor attached to a Problem.

    kind 'pathwise': ``pathwise(t, w)`` returns X(t) driven by the Brownian
    value w = W0(t), coupled to the estimator's own path; ``w`` may stack
    several such values as (..., d) rows, each answered alone.  kind 'mean-only':
    only ``mean`` and ``coord_variance`` are available.
    """

    kind: str  # 'pathwise' | 'mean-only'
    mean: Callable[[float], np.ndarray]
    pathwise: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    coord_variance: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pathwise", "mean-only"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.kind == "pathwise" and self.pathwise is None:
            raise ValueError("pathwise oracle requires a pathwise function")


@dataclass(frozen=True)
class Problem:
    """One McKean-Vlasov instance: dimension, horizon, start point, drift."""

    dim: int
    horizon: float
    initial: np.ndarray
    drift: DriftModel
    oracle: Optional[Oracle] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (self.dim,):
            raise ValueError(f"initial point has shape {initial.shape}, expected ({self.dim},)")
        initial.setflags(write=False)
        object.__setattr__(self, "initial", initial)

    @property
    def oracle_kind(self) -> str:
        return self.oracle.kind if self.oracle is not None else "none"


def _as_initial(xi, dim: int) -> np.ndarray:
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    return arr


def builtin_problem(name: str, d: int = 1, T: float = 1.0, xi=1.0, **params) -> Problem:
    """Configure one of the built-in test problems.

    zero_drift            mu = 0, L = 0; pathwise X(t) = xi + W0(t).
    law_only_linear(b)    mu(x, y) = b*y, L = 2|b|; pathwise
                          X(t) = xi*exp(b*t) + W0(t), mean xi*exp(b*t).
    full_linear(a, b)     mu(x, y) = a*x + b*y, L = 2*max(|a|,|b|); mean-only
                          E[X(t)] = xi*exp((a+b)*t), per-coordinate variance
                          (exp(2*a*t) - 1)/(2*a), or t when a = 0.
    sine_meanfield(L)     mu(x, y) = (L/2)*(sin x + sin y) coordinatewise; no
                          closed form (checked against the particle oracle).
    """
    initial = _as_initial(xi, d)

    if name == "zero_drift":
        drift = make_drift("zero_drift", lambda x, y: np.zeros_like(x), 0.0, d)
        oracle = Oracle(
            kind="pathwise",
            mean=lambda t: initial.copy(),
            pathwise=lambda t, w: initial + w,
            coord_variance=lambda t: float(t),
        )
        return Problem(d, float(T), initial, drift, oracle)

    if name == "law_only_linear":
        b = float(params["b"])
        drift = make_drift("law_only_linear", lambda x, y: b * y + 0.0 * x, 2.0 * abs(b), d)
        oracle = Oracle(
            kind="pathwise",
            mean=lambda t: initial * np.exp(b * t),
            pathwise=lambda t, w: initial * np.exp(b * t) + w,
            coord_variance=lambda t: float(t),
        )
        return Problem(d, float(T), initial, drift, oracle)

    if name == "full_linear":
        a = float(params["a"])
        b = float(params["b"])
        drift = make_drift(
            "full_linear", lambda x, y: a * x + b * y, 2.0 * max(abs(a), abs(b)), d
        )

        def coord_variance(t: float) -> float:
            if a == 0.0:
                return float(t)
            return float(np.expm1(2.0 * a * t) / (2.0 * a))

        oracle = Oracle(
            kind="mean-only",
            mean=lambda t: initial * np.exp((a + b) * t),
            coord_variance=coord_variance,
        )
        return Problem(d, float(T), initial, drift, oracle)

    if name == "sine_meanfield":
        L = float(params["L"])
        if L < 0:
            raise ValueError(f"sine_meanfield requires L >= 0, got {L}")
        half = 0.5 * L
        drift = make_drift(
            "sine_meanfield", lambda x, y: half * (np.sin(x) + np.sin(y)), L, d
        )
        return Problem(d, float(T), initial, drift, None)

    raise ValueError(f"unknown built-in problem {name!r}")


@dataclass(frozen=True)
class LipschitzReport:
    passed: bool
    worst_ratio: float
    samples: int
    witness: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def lipschitz_selfcheck(
    model: DriftModel, d: int, samples: int, radius: float, key: IndexKey
) -> LipschitzReport:
    """Randomized check of the declared Lipschitz constant.

    Draws quadruples (x1, y1, x2, y2) uniformly in the ball of the given
    radius and reports the worst observed ratio

        ||mu(x1,y1) - mu(x2,y2)|| / ((L/2)||x1-x2|| + (L/2)||y1-y2||),

    with a zero denominator counting as ratio 0 when the numerator vanishes
    and as a failure witness otherwise.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    gauss = normals(key, "lipschitz-dirs", samples * 4 * d).reshape(samples, 4, d)
    radial = uniforms(key, "lipschitz-radii", samples * 4).reshape(samples, 4)
    norms = np.linalg.norm(gauss, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    points = gauss / norms * (radius * radial ** (1.0 / d))[..., None]
    x1, y1, x2, y2 = points[:, 0], points[:, 1], points[:, 2], points[:, 3]

    num = np.linalg.norm(model.evaluate(x1, y1) - model.evaluate(x2, y2), axis=1)
    den = 0.5 * model.lipschitz_L * (
        np.linalg.norm(x1 - x2, axis=1) + np.linalg.norm(y1 - y2, axis=1)
    )
    ratio = np.zeros(samples)
    positive = den > 0.0
    ratio[positive] = num[positive] / den[positive]
    ratio[~positive & (num > 0.0)] = np.inf

    worst = int(np.argmax(ratio))
    worst_ratio = float(ratio[worst])
    passed = worst_ratio <= 1.0 + _RATIO_TOL
    witness = None if passed else (x1[worst], y1[worst], x2[worst], y2[worst])
    return LipschitzReport(passed, worst_ratio, samples, witness)


def pathwise_value(problem: Problem, t: float, w_value: np.ndarray) -> np.ndarray:
    """Exact solution at time t driven by the Brownian value w_value = W0(t),
    row by row for a stack of (..., d) values."""
    if problem.oracle is None or problem.oracle.kind != "pathwise":
        raise ValueError(f"problem has no pathwise oracle (kind {problem.oracle_kind!r})")
    return problem.oracle.pathwise(t, w_value)


def oracle_mean(problem: Problem, t: float) -> np.ndarray:
    """Exact mean E[X(t)] for problems carrying a mean or pathwise oracle."""
    if problem.oracle is None:
        raise ValueError("problem has no oracle")
    return problem.oracle.mean(t)
