"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline; they
are also emitted unbuffered so they survive output capture.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    csv_without_wall, evaluate_one, generate, log_supremand, report_criterion, uniform,
)
from mlpicard.harness import MODES, build_config, run
from mlpicard.mlp import realize_estimate, rep_seed
from mlpicard.models import Problem, builtin_problem, make_drift
from mlpicard.particles import ensemble_stats, simulate_particles
from mlpicard.recursions import (
    complexity_certificate,
    cost_bound,
    cost_budget,
    error_bound,
    gronwall_beta,
    gronwall_bound,
    gronwall_closed_form,
    moment_bound,
    two_step_closed_form,
)

SEED = 7
Z_ONE_SIDED_95 = 1.6448536269514722
Z_TWO_SIDED_95 = 1.959963984540054


# ---------------------------------------------------------------------------
# independent oracles (direct iterations, no closed forms)


def oracle_two_step(kappa, lam, forcing):
    a = [forcing[0]]
    if len(forcing) > 1:
        a.append(forcing[1] + kappa * forcing[0])
    for k in range(2, len(forcing)):
        a.append(forcing[k] + kappa * a[k - 1] + lam * a[k - 2])
    return np.array(a)


def oracle_gronwall(kappa, lam, forcing):
    # direct iteration with running history sums (validated against the
    # naive quadratic loop in test_recursions.py)
    a = []
    sum_full = sum_lag = 0.0
    for n in range(len(forcing)):
        a.append(forcing[n] + kappa * sum_full + lam * sum_lag)
        if n >= 1:
            sum_lag += a[n - 1]
        sum_full += a[n]
    return np.array(a)


def oracle_equality_run(kappa, lam, c1, c2, c3, c4, horizon):
    values = []
    sum_full = sum_lag = geometric = 0.0
    for n in range(horizon + 1):
        if n >= 1:
            geometric += c4**n
        value = c1 + c2 * n + c3 * geometric + kappa * sum_full + lam * sum_lag
        if n >= 1:
            sum_lag += values[n - 1]
        sum_full += value
        values.append(value)
    return values


@pytest.fixture(scope="module")
def sine_problem():
    return builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)


@pytest.fixture(scope="module")
def sine_particles(sine_problem):
    started = time.perf_counter()
    samples = simulate_particles(sine_problem, 2000, 200, SEED)
    elapsed = time.perf_counter() - started
    return samples, ensemble_stats(samples), elapsed


def test_criterion_1_closed_forms_vs_direct_recursion():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        kappa = rng.uniform(0.05, 3.0)
        lam = rng.uniform(0.05, 3.0)
        horizon = int(rng.integers(1, 31))
        forcing = rng.uniform(-2.0, 2.0, size=horizon + 1)
        want = oracle_two_step(kappa, lam, forcing)
        got = two_step_closed_form(kappa, lam, forcing)
        worst = max(worst, np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
        want = oracle_gronwall(kappa, lam, forcing)
        got = gronwall_closed_form(kappa, lam, forcing)
        worst = max(worst, np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
    elapsed = time.perf_counter() - started
    passed = worst < 1e-9 and elapsed < 1.0
    report_criterion(1, f"closed forms vs direct recursion, worst rel err {worst:.2e}",
                     passed, elapsed)
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_gronwall_inequality_soundness():
    started = time.perf_counter()
    beta = gronwall_beta(2.0, 2.0)
    beta_exact = beta == (3.0 + math.sqrt(17.0)) / 2.0 and beta <= 4.0
    rng = np.random.default_rng(SEED + 1)
    worst = -math.inf
    draws = 0
    while draws < 500:
        kappa, lam = rng.uniform(0.0, 3.0, size=2)
        if kappa + lam < 0.05:
            continue
        draws += 1
        c1, c2, c3, c4 = rng.uniform(0.0, 5.0, size=4)
        for n, value in enumerate(oracle_equality_run(kappa, lam, c1, c2, c3, c4, 20)):
            worst = max(worst, value - gronwall_bound(kappa, lam, c1, c2, c3, c4, n))
    elapsed = time.perf_counter() - started
    passed = beta_exact and worst <= 0.0 and elapsed < 1.0
    report_criterion(2, f"Gronwall inequality sound over 500 draws, max overshoot {worst:.2e}",
                     passed, elapsed)
    assert beta_exact
    assert worst <= 0.0
    assert elapsed < 1.0


def test_criterion_3_cost_model(sine_problem):
    started = time.perf_counter()
    assert cost_budget(2, 2, 1, 1, 1) == 27
    for n in range(0, 9):
        for m in range(1, 6):
            for d in (1, 10):
                for v in (0, 1):
                    for f in (0, 1):
                        assert cost_budget(n, m, d, v, f) <= cost_bound(n, m, d, v, f)
    floor_ok = True
    for n in range(1, 5):
        for m in range(1, 5):
            res = realize_estimate(sine_problem, n, m, rep_seed(SEED, 100 + 4 * n + m))
            draws, evals = res.ledger.snapshot()
            assert draws <= cost_budget(n, m, 1, 1, 0), (n, m)
            assert evals <= cost_budget(n, m, 1, 0, 1), (n, m)
            floor_ok &= draws >= m**n
    elapsed = time.perf_counter() - started
    passed = floor_ok and elapsed < 10.0
    report_criterion(3, "cost budget 27 at (2,2); instrumented <= budget <= (vd+f)(4m)^n",
                     passed, elapsed)
    assert floor_ok
    assert elapsed < 10.0


def test_criterion_4_error_bound_desk_scale():
    started = time.perf_counter()
    # the RMSE rows of the convergence mode; the bound (with L = 1, tighter
    # than the harness's L = 2|b|) and the monotonicity are recomputed here
    sets = ["problem=law_only_linear", "b=-1.0", "d=1", "T=1.0", "xi=1.0", "k_min=1",
            "k_max=4", "reps=200", f"seed={SEED}"]
    res = run(build_config(None, [*sets, "mode=convergence", "jobs=2"]))
    rows = {row["k"]: row for row in (dict(zip(res.columns, r)) for r in res.rows)}
    rmse = {k: row["rmse"] for k, row in rows.items()}
    half = {k: row["rmse_ci_half"] for k, row in rows.items()}
    levels_ok = sorted(rows) == [1, 2, 3, 4] and all(row["reps"] == 200 for row in rows.values())
    bounds_ok = all(
        rmse[k] + half[k] <= error_bound(k, k, 1.0, 1.0, 1, 1.0, 1.0, 0.0) for k in rows
    )
    se = {k: half[k] / Z_TWO_SIDED_95 for k in rows}  # delta-method se of the RMSE
    gap = rmse[1] - rmse[4]
    gap_se = math.hypot(se[1], se[4])
    monotone = gap > Z_ONE_SIDED_95 * gap_se
    elapsed = time.perf_counter() - started
    passed = levels_ok and bounds_ok and monotone and elapsed < 120.0
    rmses = ", ".join(f"k={k}: {rmse[k]:.3f}" for k in sorted(rmse))
    report_criterion(4, f"CI upper <= error bound and RMSE(4) < RMSE(1) [{rmses}]",
                     passed, elapsed)
    assert levels_ok
    assert bounds_ok
    assert monotone
    assert elapsed < 120.0


def test_criterion_5_moment_bound_particles(sine_particles):
    _, stats, sim_elapsed = sine_particles
    started = time.perf_counter()
    bound = moment_bound(1.0, 1.0, 1.0, 0.0, 1)
    assert bound == pytest.approx(2.0 * math.e, rel=1e-15)
    within = stats.second_moment_root <= bound + 3.0 * stats.second_moment_root_se
    elapsed = time.perf_counter() - started + sim_elapsed
    passed = within and elapsed < 30.0
    report_criterion(
        5,
        f"particle second-moment root {stats.second_moment_root:.3f} <= {bound:.3f}",
        passed, elapsed,
    )
    assert within
    assert elapsed < 30.0


def test_criterion_6_cross_method_agreement(sine_problem, sine_particles):
    _, stats, sim_elapsed = sine_particles
    started = time.perf_counter()
    reps = 500
    values = np.empty((reps, 1))
    for r in range(reps):
        values[r] = realize_estimate(sine_problem, 4, 4, rep_seed(SEED, r)).value
    mlp_mean = values.mean(axis=0)
    mlp_se = np.sqrt(values.var(axis=0, ddof=1) / reps)
    distance = float(np.linalg.norm(mlp_mean - stats.mean))
    combined = float(np.sqrt(np.sum(mlp_se**2 + stats.mean_se**2)))
    agree = distance <= 3.0 * combined
    elapsed = time.perf_counter() - started + sim_elapsed
    passed = agree and elapsed < 180.0
    report_criterion(
        6,
        f"MLP mean {mlp_mean[0]:.4f} vs particle mean {stats.mean[0]:.4f} "
        f"({distance / combined if combined else 0:.2f} sigma)",
        passed, elapsed,
    )
    assert agree
    assert elapsed < 180.0


def test_criterion_7_certificate_algebra():
    started = time.perf_counter()
    # interior maximum within k <= 200 needs delta near 1; the ratio-test
    # turnover for the trivial problem sits at exp(2*(1+ln 4)/delta)
    near_one = complexity_certificate(0.95, 1.0, 1, 0.0, 0.0, 0.0, 200)
    interior = near_one.attained and 1 < near_one.argmax_k < 200
    table = log_supremand(0.95, 1.0, 1, 0.0, 0.0, 0.0, 200)
    decreasing = bool(np.all(np.diff(table[near_one.argmax_k:]) < 0.0))
    # the certificate evaluates the supremand at its argmax alone
    peak = near_one.log_sup == table.max() == table[near_one.argmax_k - 1]

    # at delta = 0.5 the maximum is finite but far beyond 200; scan past it
    delta = 0.5
    cert = complexity_certificate(delta, 1.0, 1, 0.0, 0.0, 0.0, 40000)
    attained = cert.attained and cert.argmax_k < 40000
    table_ok = True
    for eps in (0.5, 0.2, 0.1):
        n_eps = cert.n_eps(eps)
        lhs = math.log(cost_bound(n_eps, n_eps, 1, 1, 1)) + (2.0 + delta) * math.log(eps)
        rhs = math.log(1 + 1) + cert.log_sup
        table_ok &= lhs <= rhs
    elapsed = time.perf_counter() - started
    passed = interior and decreasing and peak and attained and table_ok and elapsed < 1.0
    report_criterion(
        7,
        f"supremand max at k={near_one.argmax_k} (delta 0.95) / k={cert.argmax_k} "
        f"(delta 0.5); eps-table holds",
        passed, elapsed,
    )
    assert interior
    assert decreasing
    assert peak
    assert attained
    assert table_ok
    assert elapsed < 1.0


def test_criterion_8_exactness_degeneracies():
    started = time.perf_counter()
    zero = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    exact = True
    for n in range(1, 5):
        for m in range(1, 5):
            res = realize_estimate(zero, n, m, rep_seed(SEED, 10 * n + m))
            exact &= bool(np.array_equal(res.value, zero.initial + res.w0_terminal))

    # level 0 enters the recursion as zero: at n = 2, m = 1 the lower half of
    # the one correction term is mu(0, 0), which an affine drift tells apart
    key = (SEED, (0,))
    affine = make_drift("affine", lambda x, y: 0.25 + 0.0 * x + 0.5 * y, 1.0, 1)
    tilted = Problem(1, 1.0, np.ones(1), affine)
    mu, origin = affine.evaluate, affine.value_at_origin
    path = generate(key, 2, 1, 1.0, 1)
    sub = (SEED, (0, 2, 1, 1))
    s = uniform(sub, "u") * 1.0
    fresh = generate(sub, 1, 1, 1.0, 1)
    own = tilted.initial + path.value_at(s, 1) + s * origin
    other = tilted.initial + fresh.value_at(s, 1) + s * origin
    want = tilted.initial + path.value_at(1.0, 2) + 1.0 * origin
    want += (1.0 / 1.0) * (mu(own, other) - mu(np.zeros(1), np.zeros(1)))
    zero_ok = bool(np.array_equal(evaluate_one(tilted, key, 2, 1, 1.0, path), want))

    drift = make_drift("constant", lambda x, y: np.full_like(x, 0.25), 0.0, 1)
    shifted = Problem(1, 1.0, np.ones(1), drift)
    path = generate(key, 1, 3, 1.0, 1)
    got = evaluate_one(shifted, key, 1, 3, 1.0, path)
    closed = shifted.initial + path.value_at(1.0, 1) + 1.0 * drift.value_at_origin
    level_one_ok = bool(np.array_equal(got, closed))

    elapsed = time.perf_counter() - started
    passed = exact and zero_ok and level_one_ok and elapsed < 1.0
    report_criterion(8, "zero-drift collapse bit-exact; levels 0 and 1 match closed forms",
                     passed, elapsed)
    assert exact
    assert zero_ok
    assert level_one_ok
    assert elapsed < 1.0


def test_criterion_9_harness_determinism(tmp_path):
    started = time.perf_counter()
    base = [
        "problem=law_only_linear", "b=-1.0", "k_min=1", "k_max=2", "reps=10",
        "seed=11", "particles_n=60", "particles_m=6", "rec_draws=40", "bound_draws=40",
        "mlp_n=2", "mlp_m=2", "delta=0.95", "cert_kmax=150",
    ]
    all_same = True
    for mode in MODES:
        sets = list(base)
        if mode == "certificate":
            sets += ["problem=zero_drift", "xi=0.0"]
        first = tmp_path / f"{mode}-1.csv"
        second = tmp_path / f"{mode}-2.csv"
        run(build_config(None, [*sets, f"mode={mode}", f"out={first}", "jobs=1"]))
        run(build_config(None, [*sets, f"mode={mode}", f"out={second}", "jobs=1"]))
        all_same &= csv_without_wall(first) == csv_without_wall(second)
        if mode in ("convergence", "oracle-compare"):
            pooled = tmp_path / f"{mode}-jobs2.csv"
            run(build_config(None, [*sets, f"mode={mode}", f"out={pooled}", "jobs=2"]))
            all_same &= csv_without_wall(first) == csv_without_wall(pooled)
    elapsed = time.perf_counter() - started
    report_criterion(9, "byte-identical CSV across reruns and --jobs settings",
                     all_same, elapsed)
    assert all_same
