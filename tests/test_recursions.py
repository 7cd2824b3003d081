import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpicard.recursions import (
    complexity_certificate,
    cost_bound,
    cost_budget,
    error_bound,
    gronwall_beta,
    gronwall_bound,
    gronwall_closed_form,
    log_cost_bound,
    log_error_bound,
    moment_bound,
    two_step_closed_form,
    two_step_roots,
)


# direct-recursion oracles, kept deliberately naive
def direct_two_step(kappa, lam, forcing):
    a = [forcing[0]]
    if len(forcing) > 1:
        a.append(forcing[1] + kappa * forcing[0])
    for k in range(2, len(forcing)):
        a.append(forcing[k] + kappa * a[k - 1] + lam * a[k - 2])
    return np.array(a)


def direct_gronwall(kappa, lam, forcing):
    a = []
    for n in range(len(forcing)):
        total = forcing[n]
        for k in range(n):
            total += kappa * a[k]
            if k >= 1:
                total += lam * a[k - 1]
        a.append(total)
    return np.array(a)


def test_two_step_frozen_example():
    # kappa=1, lambda=2, b = 1: 1, 2, 5, 10, 21 by direct iteration
    got = two_step_closed_form(1.0, 2.0, np.ones(5))
    assert np.allclose(got, [1.0, 2.0, 5.0, 10.0, 21.0], rtol=1e-12)
    assert not np.iscomplexobj(got)


def test_two_step_zero_forcing():
    assert np.all(two_step_closed_form(1.0, 2.0, np.zeros(8)) == 0.0)


def test_two_step_geometric_case():
    # lambda=0, kappa=2, b = 1: a_k = 2^{k+1} - 1
    got = two_step_closed_form(2.0, 0.0, np.ones(10))
    want = 2.0 ** (np.arange(10) + 1) - 1.0
    assert np.allclose(got, want, rtol=1e-12)


def test_two_step_rejects_coincident_roots():
    with pytest.raises(ValueError):
        two_step_closed_form(2.0, -1.0, np.ones(4))  # (x-1)^2
    with pytest.raises(ValueError):
        two_step_roots(0.0, 0.0)


def test_two_step_complex_parameters():
    kappa = 0.5 + 0.25j
    lam = 1.0 - 0.5j
    forcing = np.array([1.0, -1.0j, 0.5 + 0.5j, 2.0, -0.25j, 1.0])
    got = two_step_closed_form(kappa, lam, forcing)
    want = direct_two_step(kappa, lam, forcing)
    assert np.allclose(got, want, rtol=1e-10)
    assert np.iscomplexobj(got)


def test_complex_forcing_term_keeps_the_solution_complex():
    # real parameters with one complex forcing term, anywhere in a list or
    # array, give the complex solution; real data gives the real part
    for at in (0, 3, 5):
        forcing = [1.0, -0.5, 2.0, 0.25, 1.0, -1.0]
        forcing[at] = complex(forcing[at], 0.5)
        got = two_step_closed_form(0.5, 1.0, forcing)
        assert np.iscomplexobj(got)
        assert np.allclose(got, direct_two_step(0.5, 1.0, forcing), rtol=1e-10)
        assert np.iscomplexobj(gronwall_closed_form(0.5, 1.0, np.array(forcing)))
    real = two_step_closed_form(0.5, 1.0, [1.0, -0.5, 2.0])
    assert not np.iscomplexobj(real)
    assert np.iscomplexobj(two_step_closed_form(0.5, 1.0 + 0.0j, [1.0, -0.5, 2.0]))


def test_gronwall_frozen_example():
    # kappa=2, lambda=2, b_n = n, horizons up to 30
    forcing = np.arange(31, dtype=float)
    got = gronwall_closed_form(2.0, 2.0, forcing)
    want = direct_gronwall(2.0, 2.0, forcing)
    assert np.allclose(got, want, rtol=1e-10)


def test_gronwall_classical_special_case():
    # lambda = 0 is the classical discrete Gronwall recursion
    forcing = np.array([1.0, 0.5, -0.25, 2.0, 1.0, 0.0, -1.0])
    got = gronwall_closed_form(1.5, 0.0, forcing)
    want = direct_gronwall(1.5, 0.0, forcing)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.all(gronwall_closed_form(1.5, 0.5, np.zeros(6)) == 0.0)


@settings(max_examples=150)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=31),
)
def test_closed_forms_match_direct(kappa, lam, forcing):
    forcing = np.array(forcing)
    scale = np.maximum(np.abs(direct_two_step(kappa, lam, forcing)), 1.0)
    got = two_step_closed_form(kappa, lam, forcing)
    assert np.max(np.abs(got - direct_two_step(kappa, lam, forcing)) / scale) < 1e-9
    got = gronwall_closed_form(kappa, lam, forcing)
    scale = np.maximum(np.abs(direct_gronwall(kappa, lam, forcing)), 1.0)
    assert np.max(np.abs(got - direct_gronwall(kappa, lam, forcing)) / scale) < 1e-9


def test_empty_forcing_rejected():
    for solver in (two_step_closed_form, gronwall_closed_form):
        with pytest.raises(ValueError, match="at least one term"):
            solver(1.0, 1.0, np.ones(0))


def test_beta_value_and_bound_basics():
    beta = gronwall_beta(2.0, 2.0)
    assert beta == (3.0 + math.sqrt(17.0)) / 2.0
    assert beta <= 4.0
    assert gronwall_bound(2.0, 2.0, 0.0, 0.0, 0.0, 1.0, 10) == 0.0
    with pytest.raises(ValueError):
        gronwall_bound(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 3)  # beta = 1
    with pytest.raises(ValueError):
        gronwall_bound(1.0, -0.5, 1.0, 0.0, 0.0, 1.0, 3)


def test_gronwall_bound_equal_base_branch():
    beta = gronwall_beta(1.0, 1.0)
    at_beta = gronwall_bound(1.0, 1.0, 0.5, 0.5, 0.5, beta, 6)
    near_beta = gronwall_bound(1.0, 1.0, 0.5, 0.5, 0.5, beta * (1.0 + 1e-9), 6)
    assert at_beta == pytest.approx(near_beta, rel=1e-6)


def equality_run(kappa, lam, c1, c2, c3, c4, horizon):
    # maximal sequence: run the majorized inequality with equality
    values = []
    for n in range(horizon + 1):
        geometric = sum(c4**k for k in range(1, n + 1))
        total = c1 + c2 * n + c3 * geometric
        for k in range(n):
            total += kappa * values[k]
            if k >= 1:
                total += lam * values[k - 1]
        values.append(total)
    return values


def test_gronwall_bound_dominates_equality_run():
    rng = np.random.default_rng(42)
    for _ in range(100):
        kappa, lam = rng.uniform(0.0, 3.0, size=2)
        if kappa + lam < 0.05:
            continue
        c1, c2, c3, c4 = rng.uniform(0.0, 5.0, size=4)
        values = equality_run(kappa, lam, c1, c2, c3, c4, 20)
        for n, value in enumerate(values):
            assert value <= gronwall_bound(kappa, lam, c1, c2, c3, c4, n) * (1 + 1e-12)


def test_cost_budget_values():
    assert cost_budget(0, 3, 1, 1, 1) == 0
    assert cost_budget(1, 3, 2, 1, 1) == 7
    assert cost_budget(2, 2, 1, 1, 1) == 27
    assert cost_budget(2, 2, 1, 0, 1) == 9
    assert cost_bound(2, 2, 1, 1, 1) == 128
    assert cost_bound(0, 2, 3, 1, 1) == 4
    assert cost_budget(3, 2, 1, 0, 0) == 0
    assert cost_bound(3, 2, 1, 0, 0) == 0


def test_cost_validation_and_overflow():
    with pytest.raises(ValueError):
        cost_budget(-1, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        cost_budget(2, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        cost_budget(2, 2, 1, 2, 1)
    assert cost_bound(40, 5, 10, 1, 1) == 11 * 20**40  # no tally, so no 64-bit range
    with pytest.raises(OverflowError):
        cost_budget(40, 5, 10, 1, 1)


def test_exact_and_log_cost_bound():
    # the bound is the exact integer, also past the 64-bit range, and its log
    # matches the log of that integer
    for n, m, d, v, f in ((0, 2, 3, 1, 1), (2, 2, 1, 1, 1), (40, 5, 10, 1, 1), (7, 3, 1, 0, 1)):
        want = math.log(cost_bound(n, m, d, v, f))
        assert math.isclose(log_cost_bound(n, m, d, v, f), want, rel_tol=1e-14)
    assert log_cost_bound(3, 2, 1, 0, 0) == -math.inf
    with pytest.raises(ValueError):
        cost_bound(2, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        log_cost_bound(-1, 2, 1, 1, 1)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
def test_budget_below_bound(n, m, d, v, f):
    assert cost_budget(n, m, d, v, f) <= cost_bound(n, m, d, v, f)


def test_error_bound_values():
    # L=0, ||xi||=1, mu00=0, t=T=d=1, n=m=4: 4^{-2} e^2 (1+0+1) = e^2/8
    assert error_bound(4, 4, 1.0, 1.0, 1, 0.0, 1.0, 0.0) == pytest.approx(
        math.e**2 / 8.0, rel=1e-14
    )
    # t = 0 keeps only the sqrt(T d) term
    assert error_bound(2, 3, 0.0, 1.0, 4, 2.0, 0.0, 5.0) == pytest.approx(
        3.0**-1 * math.exp(1.5) * 2.0, rel=1e-14
    )
    assert math.exp(log_error_bound(3, 3, 1.0, 1.0, 1, 1.0, 1.0, 0.0)) == pytest.approx(
        error_bound(3, 3, 1.0, 1.0, 1, 1.0, 1.0, 0.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        error_bound(0, 2, 0.5, 1.0, 1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        error_bound(1, 2, 2.0, 1.0, 1, 1.0, 1.0, 0.0)


def test_error_bound_monotone_in_n():
    # for m > (1+2Lt)^2 the bound decreases in n
    L, t = 0.5, 1.0
    m = 5  # (1+2*0.5)^2 = 4 < 5
    values = [error_bound(n, m, t, 1.0, 1, L, 1.0, 0.5) for n in range(1, 10)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_moment_bound_values():
    assert moment_bound(0.0, 3.0, 2.5, 1.0, 4) == 2.5
    assert moment_bound(1.0, 0.0, 0.0, 0.0, 4) == 2.0  # sqrt(t d)
    assert moment_bound(1.0, 1.0, 1.0, 0.0, 1) == pytest.approx(2.0 * math.e, rel=1e-14)
    # exact second-moment root of the b=-1 linear solution stays below it
    exact = math.sqrt(math.exp(-2.0) + 1.0)
    assert exact == pytest.approx(1.0655, abs=1e-4)
    assert exact <= moment_bound(1.0, 1.0, 1.0, 0.0, 1)
    assert exact <= moment_bound(1.0, 2.0, 1.0, 0.0, 1)


def test_bounds_nonnegative_continuous_grid():
    for L in (0.0, 0.5, 2.0):
        for t in (0.0, 0.25, 1.0):
            for xi in (0.0, 1.0):
                assert moment_bound(t, L, xi, 0.5, 2) >= 0.0
                if t > 0:
                    a = moment_bound(t, L, xi, 0.5, 2)
                    b = moment_bound(t * (1 + 1e-9), L, xi, 0.5, 2)
                    assert b == pytest.approx(a, rel=1e-6)


def test_certificate_trivial_problem():
    cert = complexity_certificate(0.95, 1.0, 1, 0.0, 0.0, 0.0, 200)
    assert cert.attained
    assert 1 < cert.argmax_k < 200
    # decreasing beyond the maximum
    tail = cert.log_supremand[cert.argmax_k :]
    assert np.all(np.diff(tail) < 0.0)
    # n_eps matches a direct scan of the error bounds
    for eps in (0.5, 0.2, 0.1):
        want = next(
            n
            for n in range(1, 201)
            if all(
                log_error_bound(k, k, 1.0, 1.0, 1, 0.0, 0.0, 0.0) < math.log(eps)
                for k in range(n, 201)
            )
        )
        assert cert.n_eps(eps) == want


def test_certificate_reports_non_attainment():
    # with delta = 0.5 the supremand still rises at k = 200, and its maximum
    # beyond the table is the one a 40000-term scan finds, to the bit
    cert = complexity_certificate(0.5, 1.0, 1, 0.0, 0.0, 0.0, 200)
    scan = complexity_certificate(0.5, 1.0, 1, 0.0, 0.0, 0.0, 40000).log_supremand
    assert np.all(np.diff(cert.log_supremand) > 0.0)
    assert cert.attained
    assert cert.argmax_k == int(np.argmax(scan)) + 1 == 13981
    assert cert.log_sup == scan.max()
    # the closed-form difference f(k+1) - f(k) finds the root near 1.4e11,
    # where the float difference cancels (it gives 136390319866)
    assert complexity_certificate(0.5, 1.0, 1, 2.0, 1.0, 0.0, 10).argmax_k == 136495375087
    # beyond k = 2**53 (delta = 0.05 puts the maximum near e**95) the search
    # stops: not attained, and log_sup is the lower bound at 2**53
    far = complexity_certificate(0.05, 1.0, 1, 0.0, 0.0, 0.0, 10)
    assert not far.attained
    assert far.argmax_k == 2**53


def test_certificate_validation():
    with pytest.raises(ValueError):
        complexity_certificate(0.0, 1.0, 1, 0.0, 0.0, 0.0, 10)
    with pytest.raises(ValueError):
        complexity_certificate(1.5, 1.0, 1, 0.0, 0.0, 0.0, 10)
    with pytest.raises(ValueError):
        complexity_certificate(0.5, 1.0, 1, 0.0, 0.0, 0.0, 0)
    cert = complexity_certificate(0.5, 1.0, 1, 0.0, 0.0, 0.0, 50)
    with pytest.raises(ValueError):
        cert.n_eps(1e-300)  # far below the best bound (e/50)^25 ~ 2e-32
