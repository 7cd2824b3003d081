"""Closed forms and bounds for discrete Gronwall-type recursions and the
estimator's cost/error model.

Solvers
-------
``two_step_closed_form`` solves a(k+2) = b(k+2) + kappa*a(k+1) + lambda*a(k)
with a(0) = b(0), a(1) = b(1) + kappa*b(0), through the characteristic roots
of x**2 = kappa*x + lambda.  ``gronwall_closed_form`` solves the full-history
variant a(n) = b(n) + sum_{k<n} [kappa*a(k) + lambda*a(k-1)]: differencing
consecutive indices turns it into the two-step recursion with 1+kappa in
place of kappa and forcing b(n) - b(n-1), which it hands to
``two_step_closed_form``.  Both accept complex parameters and reject
(near-)coincident roots rather than regularizing them.  For k = 0 the a(k-1)
term is switched off by its indicator, so no |k-1| index juggling is needed.

Bounds
------
``gronwall_bound`` is the explicit majorant for sequences satisfying the
inequality a(n) <= c1 + c2*n + c3*sum_{k=1..n} c4**k + sum_{k<n} [kappa*a(k)
+ lambda*a(k-1)], with growth base beta = ((1+kappa) + sqrt((1+kappa)**2 +
4*lambda))/2 > 1.  ``cost_budget`` canonicalizes the estimator's operation
count recursion as an equality (the defining relation is an inequality; a
single well-defined integer per (n, m) is what instrumentation can be checked
against) and refuses one beyond the 64-bit tally range, ``cost_bound`` is
its closed bound (v*d + f)*(4m)**n as an exact integer of any size, and
``error_bound`` / ``moment_bound`` are the L2 error and second-moment-root
majorants.  Log-space variants are provided because the complexity
certificate's supremand overflows doubles near its maximum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CertificateResult",
    "complexity_certificate",
    "cost_bound",
    "cost_budget",
    "error_bound",
    "gronwall_beta",
    "gronwall_bound",
    "gronwall_closed_form",
    "log_cost_bound",
    "log_error_bound",
    "moment_bound",
    "two_step_closed_form",
    "two_step_roots",
]

_ROOT_SEPARATION = 1e-8
_COST_LIMIT = (1 << 63) - 1  # refuse counts beyond a signed 64-bit tally


def two_step_roots(kappa: complex, lam: complex) -> tuple[complex, complex]:
    """Roots of x**2 = kappa*x + lambda, rejected when (nearly) coincident."""
    disc = cmath.sqrt(kappa * kappa + 4.0 * lam)
    x1 = (kappa - disc) / 2.0
    x2 = (kappa + disc) / 2.0
    scale = max(abs(x1), abs(x2))
    if x1 == x2 or abs(x2 - x1) < _ROOT_SEPARATION * scale:
        raise ValueError(
            f"characteristic roots coincide (kappa={kappa}, lambda={lam}); "
            "the closed form requires distinct roots"
        )
    return complex(x1), complex(x2)


def _maybe_real(values: np.ndarray, *params: complex) -> np.ndarray:
    # A recursion with real data has a real solution; the imaginary dust is
    # roundoff from the complex root arithmetic.
    if any(isinstance(p, complex) or np.iscomplexobj(p) for p in params):
        return values
    return values.real


def two_step_closed_form(kappa: complex, lam: complex, forcing: Sequence) -> np.ndarray:
    """Exact solution a(0..len(forcing)-1) of the two-step recursion."""
    b = np.asarray(forcing)
    if len(b) == 0:
        raise ValueError("forcing must hold at least one term")
    x1, x2 = two_step_roots(kappa, lam)
    # kernel[j] = (x2**(j+1) - x1**(j+1)) / (x2 - x1), j = 0..len(b)-1
    j = np.arange(1, len(b) + 1)
    kernel = (np.power(x2, j) - np.power(x1, j)) / (x2 - x1)
    out = np.convolve(b.astype(complex), kernel)[: len(b)]
    return _maybe_real(out, kappa, lam, b)


def gronwall_closed_form(kappa: complex, lam: complex, forcing: Sequence) -> np.ndarray:
    """Exact solution a(0..len(forcing)-1) of the full-history recursion
    a(n) = b(n) + sum_{k=0}^{n-1} [kappa*a(k) + lambda*a(k-1)]: the two-step
    recursion with kappa + 1 and the forcing differences b(n) - b(n-1)."""
    b = np.asarray(forcing)
    return two_step_closed_form(1.0 + kappa, lam, np.concatenate((b[:1], b[1:] - b[:-1])))


def gronwall_beta(kappa: float, lam: float) -> float:
    """Growth base beta = ((1+kappa) + sqrt((1+kappa)**2 + 4*lambda)) / 2."""
    if kappa < 0 or lam < 0:
        raise ValueError("kappa and lambda must be non-negative")
    return ((1.0 + kappa) + math.sqrt((1.0 + kappa) ** 2 + 4.0 * lam)) / 2.0


def gronwall_bound(
    kappa: float, lam: float, c1: float, c2: float, c3: float, c4: float, n: int
) -> float:
    """Majorant at index n for the full-history inequality with forcing
    c1 + c2*n + c3*sum_{k=1..n} c4**k; requires beta > 1."""
    if min(kappa, lam, c1, c2, c3, c4) < 0:
        raise ValueError("all parameters must be non-negative")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    beta = gronwall_beta(kappa, lam)
    if beta <= 1.0:
        raise ValueError(f"growth base beta={beta} must exceed 1 (kappa+lambda > 0)")
    total = 1.5 * beta**n * c1
    total += 3.0 * c2 * (beta**n - 1.0) / (2.0 * (beta - 1.0))
    if c4 == beta:
        total += 1.5 * c3 * n * beta**n
    else:
        total += 3.0 * c3 * (c4 ** (n + 1) - c4 * beta**n) / (2.0 * (c4 - beta))
    return total


def _check_cost_args(n: int, m: int, d: int, v: int, f: int) -> None:
    if n < 0:
        raise ValueError(f"picard index must be non-negative, got {n}")
    if m < 1:
        raise ValueError(f"branching base must be at least 1, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    if v not in (0, 1) or f not in (0, 1):
        raise ValueError(f"counting flags must be 0 or 1, got v={v}, f={f}")


def cost_budget(n: int, m: int, d: int, v: int, f: int) -> int:
    """Canonical operation budget for one realization of the level-n estimator.

    C(0) = 0 and, for n >= 1,

        C(n) = v*m**n*d + f
             + sum_{l=1}^{n-1} m**(n-l) * (v*(m**l*d + 1) + 2*f + 2*C(l) + 2*C(l-1)),

    evaluated in exact integer arithmetic with an overflow refusal.
    """
    _check_cost_args(n, m, d, v, f)
    costs = [0] * (n + 1)
    for nn in range(1, n + 1):
        total = v * m**nn * d + f
        for level in range(1, nn):
            total += m ** (nn - level) * (
                v * (m**level * d + 1) + 2 * f + 2 * costs[level] + 2 * costs[level - 1]
            )
        if total > _COST_LIMIT:
            raise OverflowError(f"cost budget for n={nn}, m={m} exceeds the 64-bit tally range")
        costs[nn] = total
    return costs[n]


def cost_bound(n: int, m: int, d: int, v: int, f: int) -> int:
    """Closed bound (v*d + f) * (4*m)**n dominating the budget recursion, as an
    exact integer of any size."""
    _check_cost_args(n, m, d, v, f)
    return (v * d + f) * (4 * m) ** n


def log_cost_bound(n: int, m: int, d: int, v: int, f: int) -> float:
    """Natural log of ``cost_bound``; -inf when v*d + f = 0."""
    _check_cost_args(n, m, d, v, f)
    base = v * d + f
    if base == 0:
        return -math.inf
    return math.log(base) + n * math.log(4 * m)


def moment_bound(t: float, L: float, norm_xi: float, norm_mu00: float, d: int) -> float:
    """Second-moment-root bound (||xi|| + ||mu(0,0)||*t + sqrt(t*d)) * exp(L*t)."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    return (norm_xi + norm_mu00 * t + math.sqrt(t * d)) * math.exp(L * t)


def log_error_bound(
    n: int, m: int, t: float, T: float, d: int, L: float, norm_xi: float, norm_mu00: float
) -> float:
    if n < 1 or m < 1:
        raise ValueError(f"indices must be at least 1, got n={n}, m={m}")
    if not 0.0 <= t <= T:
        raise ValueError(f"time {t} outside [0, {T}]")
    return (
        -0.5 * n * math.log(m)
        + 0.5 * m
        + math.log(norm_xi + norm_mu00 * t + math.sqrt(T * d))
        + L * t
        + n * math.log1p(2.0 * L * t)
    )


def error_bound(
    n: int, m: int, t: float, T: float, d: int, L: float, norm_xi: float, norm_mu00: float
) -> float:
    """L2-error bound m**(-n/2) * exp(m/2) * (||xi|| + ||mu(0,0)||*t + sqrt(T*d))
    * exp(L*t) * (1 + 2*L*t)**n for the level-(n, m) estimator."""
    return math.exp(log_error_bound(n, m, t, T, d, L, norm_xi, norm_mu00))


@dataclass(frozen=True)
class CertificateResult:
    """The cost-times-accuracy supremand over 1 <= k <= k_max and its
    maximum over all k >= 1, which may lie beyond k_max.

    ``attained`` is False only when the supremand still rises at k = 2**53,
    in which case ``argmax_k`` is 2**53 and ``log_sup`` only a lower bound.
    The ``n_eps`` selector maps a target accuracy to the smallest level whose
    error bound (and that of every deeper level up to k_max) is below it.
    """

    k_max: int
    log_supremand: np.ndarray  # index k-1 holds the value at k
    argmax_k: int
    log_sup: float
    attained: bool
    _log_error: np.ndarray

    def n_eps(self, eps: float) -> int:
        if not 0.0 < eps:
            raise ValueError(f"accuracy target must be positive, got {eps}")
        log_eps = math.log(eps)
        suffix = np.maximum.accumulate(self._log_error[::-1])[::-1]
        hits = np.nonzero(suffix < log_eps)[0]
        if len(hits) == 0:
            raise ValueError(
                f"error bound does not fall below {eps} for any level up to {self.k_max}"
            )
        return int(hits[0]) + 1


def complexity_certificate(
    delta: float,
    T: float,
    d: int,
    L: float,
    norm_xi: float,
    norm_mu00: float,
    k_max: int,
) -> CertificateResult:
    """Evaluate, in log-space, the supremand

        (4k+4)**(k+1) * [exp(k/2) * (1 + ||xi|| + ||mu(0,0)||*T + sqrt(T*d))
                          * exp(L*T) * (1 + 2*L*T)**k / k**(k/2)]**(2+delta)

    over 1 <= k <= k_max, its maximum over all k >= 1 and the accuracy-to-level
    selector.  The log-supremand f is strictly concave, f''(k) = 1/(k+1) -
    (2+delta)/(2k) < 0, so its argmax is the least k with f(k+1) - f(k) <= 0,
    found by doubling and bisection on that difference in closed form (the
    float difference cancels near k = 1e11)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    inner_const = math.log(1.0 + norm_xi + norm_mu00 * T + math.sqrt(T * d)) + L * T
    growth = math.log1p(2.0 * L * T)

    def rises(k: int) -> bool:  # f(k+1) - f(k) > 0
        return math.log(4 * k + 8) + (k + 1) * math.log1p(1 / (k + 1)) + (2.0 + delta) * (
            0.5 - 0.5 * math.log(k + 1) - 0.5 * k * math.log1p(1 / k) + growth
        ) > 0.0

    lo, hi = 0, 1  # f rises at lo (or lo = 0); once found, not at hi
    while hi < 2**53 and rises(hi):
        lo, hi = hi, 2 * hi
    attained = not rises(hi)
    while attained and hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if rises(mid) else (lo, mid)
    k = np.arange(1, k_max + 2, dtype=float)
    k[-1] = hi  # the table's k, then the argmax
    log_vals = (k + 1.0) * np.log(4.0 * k + 4.0) + (2.0 + delta) * (
        0.5 * k - 0.5 * k * np.log(k) + inner_const + k * growth
    )
    log_error = np.array(
        [log_error_bound(kk, kk, T, T, d, L, norm_xi, norm_mu00) for kk in range(1, k_max + 1)]
    )
    return CertificateResult(
        k_max=k_max,
        log_supremand=log_vals[:-1],
        argmax_k=hi,
        log_sup=float(log_vals[-1]),
        attained=attained,
        _log_error=log_error,
    )
