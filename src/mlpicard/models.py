"""McKean-Vlasov problem instances: drifts, constants, and exact solutions.

A drift mu maps a state point and a law sample to a velocity, with the
two-sided Lipschitz property

    ||mu(x1, y1) - mu(x2, y2)|| <= (L/2) ||x1 - x2|| + (L/2) ||y1 - y2||

in the Euclidean norm.  Built-in problems carry whatever exact solution is
available: ``pathwise`` expresses X(t) as a function of the driving Brownian
value (enabling per-realization error measurement), ``mean`` gives E[X(t)],
and the nonlinear sine model has neither and is checked against the particle
system instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "DriftModel",
    "PROBLEM_PARAMS",
    "Problem",
    "builtin_problem",
    "make_drift",
    "pathwise_value",
]

# The parameters each built-in problem takes, all of them required.
PROBLEM_PARAMS = {
    "zero_drift": (),
    "law_only_linear": ("b",),
    "full_linear": ("a", "b"),
    "sine_meanfield": ("L",),
}


@dataclass(frozen=True)
class _Split:
    """A drift declared by its halves: mu(x, y) = h(f(x), g(y)), where f sees
    only the state point and g only the law sample.

    ``h(fx, gy, out=None)`` takes an ``out`` array of the broadcast shape of
    ``fx`` and ``gy``: with it, h may write its result there and return it
    (the particle system reuses one buffer per thread for its row blocks);
    without it, h allocates.  Either way it runs the same ufuncs in the same
    operand order, so the bits do not depend on ``out``."""

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    h: Callable[..., np.ndarray]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.h(self.f(x), self.g(y))


def _same(x: np.ndarray) -> np.ndarray:
    return x


def _halves(evaluate: Callable) -> tuple[Callable, Callable, Callable]:
    """The split (f, g, h) of a drift's ``evaluate``; a plain function has the
    identity split (x -> x, y -> y, evaluate), with f and g one function and
    an h that ignores ``out``."""
    if isinstance(evaluate, _Split):
        return evaluate.f, evaluate.g, evaluate.h
    return _same, _same, lambda x, y, out=None: evaluate(x, y)


@dataclass(frozen=True)
class DriftModel:
    """Drift function with its declared Lipschitz constant.

    ``evaluate`` must be a pure function accepting broadcastable arrays of
    shape (..., d) in both arguments and returning their broadcast result,
    each (..., d) row computed from the same rows of the arguments alone:
    the estimator evaluates the rows of many keys in one call and refuses a
    result of another shape.  Purity is required for cost accounting and
    parallel use.

    The built-in drifts are declared by a split mu(x, y) = h(f(x), g(y)):
    their ``evaluate`` is a callable holding (f, g, h) whose call is
    h(f(x), g(y)), the same numpy operations in the same order as the formula
    written out, so bit for bit the same values.  The particle system
    evaluates f and g once per particle and step and only h per pair, with
    h's ``out`` argument a buffer it reuses for every row block a thread
    takes (see ``_Split``); ``evaluate`` itself passes no ``out``.  The split
    lives inside ``evaluate``: replacing ``evaluate`` (by
    ``dataclasses.replace`` or a wrapper) replaces it, and a plain function
    has the identity split, so the particle system evaluates it on every pair.
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
        raise ConfigError(f"drift {name!r} is not finite at the origin")
    origin.setflags(write=False)
    return DriftModel(name, evaluate, float(lipschitz_L), origin)


@dataclass(frozen=True)
class Problem:
    """One McKean-Vlasov instance: dimension, horizon, start point, drift,
    and its exact solutions where known.

    ``mean(t)`` returns E[X(t)].  ``pathwise(t, w)`` returns X(t) driven by
    the Brownian value w = W0(t), coupled to the estimator's own path; ``w``
    may stack several such values as (..., d) rows, each answered alone.
    Either is None when the problem has no such closed form.
    """

    dim: int
    horizon: float
    initial: np.ndarray
    drift: DriftModel
    mean: Optional[Callable[[float], np.ndarray]] = None
    pathwise: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

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


def builtin_problem(name: str, d: int = 1, T: float = 1.0, xi=1.0, **params) -> Problem:
    """Configure one of the built-in test problems; ``params`` must be
    exactly the problem's entry in ``PROBLEM_PARAMS``.

    zero_drift            mu = 0, L = 0; pathwise X(t) = xi + W0(t).
    law_only_linear(b)    mu(x, y) = b*y, L = 2|b|; pathwise
                          X(t) = xi*exp(b*t) + W0(t), mean xi*exp(b*t).
    full_linear(a, b)     mu(x, y) = a*x + b*y, L = 2*max(|a|,|b|); mean
                          E[X(t)] = xi*exp((a+b)*t), no pathwise form.
    sine_meanfield(L)     mu(x, y) = (L/2)*(sin x + sin y) coordinatewise; no
                          closed form (checked against the particle oracle).
    """
    if name not in PROBLEM_PARAMS:
        raise ValueError(
            f"unknown built-in problem {name!r}; choose one of {sorted(PROBLEM_PARAMS)}"
        )
    expected = PROBLEM_PARAMS[name]
    if sorted(params) != sorted(expected):
        raise ValueError(
            f"problem {name!r} takes parameters {list(expected)}, got {sorted(params)}"
        )
    initial = np.asarray(xi, dtype=float)
    if initial.ndim == 0:
        initial = np.full(d, float(initial))

    if name == "zero_drift":
        drift = make_drift("zero_drift", lambda x, y: np.zeros_like(x), 0.0, d)
        return Problem(d, float(T), initial, drift, lambda t: initial.copy(),
                       lambda t, w: initial + w)

    if name == "law_only_linear":
        b = float(params["b"])
        split = _Split(lambda x: 0.0 * x, lambda y: b * y,
                       lambda fx, gy, out=None: np.add(gy, fx, out=out))
        drift = make_drift("law_only_linear", split, 2.0 * abs(b), d)
        return Problem(d, float(T), initial, drift, lambda t: initial * np.exp(b * t),
                       lambda t, w: initial * np.exp(b * t) + w)

    if name == "full_linear":
        a = float(params["a"])
        b = float(params["b"])
        split = _Split(lambda x: a * x, lambda y: b * y,
                       lambda fx, gy, out=None: np.add(fx, gy, out=out))
        drift = make_drift("full_linear", split, 2.0 * max(abs(a), abs(b)), d)
        return Problem(d, float(T), initial, drift, lambda t: initial * np.exp((a + b) * t))

    # sine_meanfield, the one name left
    L = float(params["L"])
    if L < 0:
        raise ValueError(f"sine_meanfield requires L >= 0, got {L}")
    half = 0.5 * L
    split = _Split(np.sin, np.sin, lambda fx, gy, out=None:
                   np.multiply(half, np.add(fx, gy, out=out), out=out))
    drift = make_drift("sine_meanfield", split, L, d)
    return Problem(d, float(T), initial, drift)


def pathwise_value(problem: Problem, t: float, w_value: np.ndarray) -> np.ndarray:
    """Exact solution at time t driven by the Brownian value w_value = W0(t),
    row by row for a stack of (..., d) values."""
    if problem.pathwise is None:
        raise ValueError("problem has no pathwise oracle")
    return problem.pathwise(t, w_value)
