import hashlib
import itertools
import os
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mlpicard.particles as particles_mod
from helpers import normals
from mlpicard.errors import ConfigError, ResourceLimitError
from mlpicard.models import builtin_problem
from mlpicard.particles import _interaction_mean, ensemble_stats, simulate_particles
from mlpicard.recursions import moment_bound

SEED = 314159


def test_validation(monkeypatch):
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=0.0)
    with pytest.raises(ValueError):
        simulate_particles(prob, 1, 10, SEED)
    with pytest.raises(ValueError):
        simulate_particles(prob, 4, 0, SEED)
    # N*N*M = 10**10 passes the 4*10**9 ceiling: refused before any noise
    # array is allocated or drawn
    monkeypatch.setattr(particles_mod, "np", None)
    monkeypatch.setattr(particles_mod, "batch_normals", None)
    with pytest.raises(ResourceLimitError, match="exceeds the ceiling 4000000000"):
        simulate_particles(prob, 10**5, 1, SEED)
    # the pairwise drift sum scales with d too: N*N*M*d = 6.4e9 at d = 8
    wide = builtin_problem("zero_drift", d=8, T=1.0, xi=0.0)
    with pytest.raises(ResourceLimitError, match=r"N\*N\*M\*d = 6400000000 exceeds"):
        simulate_particles(wide, 2000, 200, SEED)


def test_zero_drift_is_exact_euler():
    # without interaction each particle is xi plus the sum of its increments,
    # regardless of the step count
    prob = builtin_problem("zero_drift", d=2, T=1.0, xi=1.0)
    n, steps = 16, 5
    samples = simulate_particles(prob, n, steps, SEED)
    dt = 1.0 / steps
    for i in range(n):
        increments = normals((SEED, (1, i)), "dw", steps * 2, dt).reshape(steps, 2)
        assert np.allclose(samples[i], prob.initial + increments.sum(axis=0), atol=1e-12)


def test_zero_drift_terminal_variance():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    samples = simulate_particles(prob, 2000, 3, SEED)
    stats = ensemble_stats(samples)
    assert abs(stats.variance[0] - 1.0) < 0.15
    assert abs(stats.mean[0] - 1.0) < 4.0 * stats.mean_se[0]


def test_determinism():
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    a = simulate_particles(prob, 50, 10, SEED)
    b = simulate_particles(prob, 50, 10, SEED)
    assert np.array_equal(a, b)
    c = simulate_particles(prob, 50, 10, SEED + 1)
    assert not np.array_equal(a, c)


def test_interaction_symmetry_under_permutation():
    # relabelling the particles permutes their interaction means, up to
    # reduction-order roundoff in the sum over the others
    prob = builtin_problem("sine_meanfield", d=2, T=1.0, xi=0.5, L=1.0)
    rng = np.random.default_rng(SEED)
    for n in (7, 300):  # 300 spans five row blocks, the last one short
        state = rng.normal(size=(n, 2))
        perm = rng.permutation(n)
        got = _interaction_mean(prob, state[perm])
        assert np.allclose(got, _interaction_mean(prob, state)[perm], rtol=0.0, atol=1e-12)


def test_mean_matches_analytic_oracle():
    # law-linear drift: ensemble mean vs xi * exp(b t) at full desk scale
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    samples = simulate_particles(prob, 2000, 200, SEED)
    stats = ensemble_stats(samples)
    exact = prob.mean(1.0)[0]
    assert abs(stats.mean[0] - exact) <= 3.0 * stats.mean_se[0]


def test_second_moment_vs_bound_small_scale():
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    samples = simulate_particles(prob, 400, 40, SEED)
    stats = ensemble_stats(samples)
    bound = moment_bound(1.0, 1.0, 1.0, 0.0, 1)
    assert stats.second_moment_root <= bound + 3.0 * stats.second_moment_root_se


def test_ensemble_stats_basics():
    constant = np.full((5, 2), 3.0)
    stats = ensemble_stats(constant)
    assert np.all(stats.mean == 3.0)
    assert np.all(stats.variance == 0.0)

    two_point = np.array([[-1.0], [1.0]])
    stats = ensemble_stats(two_point)
    assert stats.mean[0] == 0.0
    assert stats.variance[0] == 2.0  # unbiased, divisor N-1

    with pytest.raises(ValueError):
        ensemble_stats(np.ones((1, 3)))


def test_ensemble_stats_chi_concentration():
    draws = normals((SEED, (9,)), "chi", 10**4).reshape(-1, 1)
    stats = ensemble_stats(draws)
    assert abs(stats.second_moment_root - 1.0) < 0.03


def test_particle_outputs_pinned_by_digest():
    # one SHA-256 over the ensembles of sine_meanfield at d = 1 and 3, 50
    # particles x 17 steps and 40 x 9
    digest = hashlib.sha256()
    for d in (1, 3):
        prob = builtin_problem("sine_meanfield", d=d, T=1.0, xi=1.0, L=1.0)
        digest.update(simulate_particles(prob, 50, 17, SEED).tobytes())
        digest.update(simulate_particles(prob, 40, 9, SEED).tobytes())
    assert digest.hexdigest() == (
        "45208349aa15389f3fa6a39993d502507933d65f2493cb24e1d9d1a24911e28e"
    )


def _pretend_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus", [None, 1, 3, 8])
def test_multi_block_outputs_pinned_by_digest(monkeypatch, cpus):
    # one SHA-256 over sine_meanfield ensembles of 300 particles at d = 1 and
    # 4 (five 64-row blocks, the last of 44 rows) and 130 at d = 9 (two full
    # blocks and one of 2 rows), 7 steps each; the same bytes on this
    # machine's CPUs, on one CPU (no pool), on three (three stripes) and on
    # eight (one thread per block), with threads switching every microsecond
    if cpus is not None:
        _pretend_cpus(monkeypatch, cpus)
    digest = hashlib.sha256()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for d, n in ((1, 300), (4, 300), (9, 130)):
            prob = builtin_problem("sine_meanfield", d=d, T=1.0, xi=1.0, L=1.0)
            digest.update(simulate_particles(prob, n, 7, SEED).tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert digest.hexdigest() == (
        "dec21096a5c388e2b071e68ab87285b7ff2b18ee828c3c53b8560a4f4bf00055"
    )


@pytest.mark.parametrize("cpus", [1, 3])
def test_non_finite_ensemble_fails_closed(monkeypatch, cpus):
    # the drift sum over 300 partners overflows in every row block: refused
    # once at the end, with no numpy warning from the caller's thread or from
    # a pool thread (a warning raised as an error would surface here instead)
    _pretend_cpus(monkeypatch, cpus)
    prob = builtin_problem("law_only_linear", d=2, T=1.0, xi=1e307, b=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="drove the particle ensemble"):
            simulate_particles(prob, 300, 2, SEED)
        # a finite ensemble near the top of the range is returned
        big = builtin_problem("law_only_linear", d=2, T=1.0, xi=1e305, b=1.0)
        assert np.isfinite(simulate_particles(big, 300, 2, SEED)).all()


@pytest.mark.parametrize("cpus", [1, 3])
def test_drift_error_fails_closed_without_leaking_threads(monkeypatch, cpus):
    # a drift that raises in the third of five row blocks of the third step
    # leaves with its own exception, and no pool thread outlives the call,
    # after a normal return or a raise
    _pretend_cpus(monkeypatch, cpus)
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    calls = itertools.count()

    def evaluate(x, y):
        if next(calls) == 12:
            raise FloatingPointError("drift failed")
        return prob.drift.evaluate(x, y)

    broken = replace(prob, drift=replace(prob.drift, evaluate=evaluate))
    before = threading.active_count()
    simulate_particles(prob, 300, 4, SEED)
    assert threading.active_count() == before
    with pytest.raises(FloatingPointError, match="drift failed"):
        simulate_particles(broken, 300, 4, SEED)
    assert threading.active_count() == before
