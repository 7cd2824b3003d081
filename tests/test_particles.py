import hashlib
import itertools
import os
import re
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mlpicard.particles as particles_mod
from helpers import normals
from mlpicard.errors import ConfigError, ResourceLimitError
from mlpicard.models import _halves, _Split, builtin_problem, make_drift
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


def test_memory_refused_before_allocation(monkeypatch):
    # within the pairwise ceiling, but the noise, one key batch's draw and one
    # pair buffer would pass 10**8 doubles: the noise of 2 particles x 5*10**8
    # steps (8 GB), the one 64 x 64 x d pair buffer of 64 particles at
    # d = 976562 (32 GB), or the draw of 32 particles x 10**6 steps (0.8 GB
    # beside 0.26 GB of noise); refused before any array is allocated or drawn
    long = builtin_problem("zero_drift", d=1, T=1.0, xi=0.0)
    wide = builtin_problem("zero_drift", d=976562, T=1.0, xi=0.0)
    monkeypatch.setattr(particles_mod, "np", None)
    monkeypatch.setattr(particles_mod, "batch_normals", None)
    with pytest.raises(ResourceLimitError, match=(
            r"particle arrays of 4000000004 elements \(noise N\*M\*d = 1000000000, "
            r"its draw 3\*min\(128, N\)\*M\*d = 3000000000, "
            r"one pair buffer min\(64, N\)\*N\*d = 4\) exceed the ceiling 100000000")):
        simulate_particles(long, 2, 5 * 10**8, SEED)
    with pytest.raises(ResourceLimitError, match=(
            r"of 4249997824 elements \(noise N\*M\*d = 62499968, its draw [^=]*= 187499904, "
            r"one pair buffer min\(64, N\)\*N\*d = 3999997952\)")):
        simulate_particles(wide, 64, 1, SEED)
    with pytest.raises(ResourceLimitError, match=(
            r"of 128001024 elements \(noise N\*M\*d = 32000000, its draw [^=]*= 96000000, ")):
        simulate_particles(long, 32, 10**6, SEED)
    # one pair buffer in the rule, whatever the CPU count: 3000 particles x 40
    # steps at d = 11 fit, and on 64 CPUs run 46 threads, the buffers of
    # 64 x 3000 x 11 doubles that fit beside the noise, not one for each of
    # the 47 row blocks
    _pretend_cpus(monkeypatch, 64)
    assert particles_mod._plan(3000, 40, 11) == 46


# (N, M, d) on both sides of the size rule, and the refusal each gets, if any
SIZE_CASES = [
    ((10**5, 1, 1), r"^pairwise work N\*N\*M\*d = 10000000000 exceeds the ceiling 4000000000$"),
    ((2000, 200, 8), r"^pairwise work N\*N\*M\*d = 6400000000 exceeds"),
    ((2, 5 * 10**8, 1), r"^particle arrays of 4000000004 elements "),
    ((64, 1, 976562), r"^particle arrays of 4249997824 elements "),
    ((32, 10**6, 1), r"^particle arrays of 128001024 elements "),
    ((3000, 40, 11), None),
    ((3000, 200, 1), None),
    ((2000, 200, 1), None),
    ((300, 7, 4), None),
    ((2, 1, 1), None),
]


@pytest.mark.parametrize("size, refusal", SIZE_CASES, ids=lambda v: "x".join(map(str, v))
                         if isinstance(v, tuple) else None)
def test_plan_verdict_is_machine_independent(monkeypatch, size, refusal):
    # whether an ensemble is refused, and the message, are the same on 1, 8
    # and 64 CPUs; an accepted one runs as many threads as the least of the
    # CPUs, its row blocks and the pair buffers that fit beside its noise
    N, M, d = size
    verdicts = set()
    for cpus in (1, 8, 64):
        _pretend_cpus(monkeypatch, cpus)
        try:
            threads = particles_mod._plan(N, M, d)
        except ResourceLimitError as exc:
            verdicts.add(str(exc))
            continue
        fit = (10**8 - N * M * d) // (min(64, N) * N * d)
        assert threads == min(cpus, -(-N // 64), fit) >= 1
        verdicts.add(None)
    assert len(verdicts) == 1
    (verdict,) = verdicts
    if refusal is None:
        assert verdict is None
    else:
        assert re.search(refusal, verdict), verdict


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
    halves = _halves(prob.drift.evaluate)
    rng = np.random.default_rng(SEED)
    for n in (7, 300):  # 300 spans five row blocks, the last one short
        state = rng.normal(size=(n, 2))
        perm = rng.permutation(n)
        buffers = np.empty((1, min(64, n), n, 2))
        got = _interaction_mean(halves, state[perm], None, buffers)
        want = _interaction_mean(halves, state, None, buffers)[perm]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


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

    # squares past the double range: the second-moment root and the standard
    # errors are those of samples / max |x|, scaled back, and finite
    draws = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 2.5]])
    small, huge = ensemble_stats(draws), ensemble_stats(draws * 1e200)
    assert huge.second_moment_root == pytest.approx(1e200 * small.second_moment_root, rel=1e-14)
    assert huge.second_moment_root_se == pytest.approx(1e200 * small.second_moment_root_se,
                                                       rel=1e-14)
    assert huge.mean_se == pytest.approx(1e200 * small.mean_se, rel=1e-14)
    assert np.all(np.isinf(huge.variance))


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


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("shared", [False, True], ids=["f-and-g", "g-is-f"])
def test_split_halves_run_once_per_step(monkeypatch, cpus, shared):
    # 300 particles make five row blocks: f and g run once per step on all
    # particles (once in all when g is f), h once per block on its rows,
    # writing into an out of its block's shape: one buffer per thread's task,
    # made once per call and reused by every block the task takes, every step
    _pretend_cpus(monkeypatch, cpus)
    calls = []  # list.append is atomic across the pool threads
    buffers = []  # (block rows, data address) of every out h was given

    def counted(label, fn):
        def wrapped(*args, **kwargs):
            calls.append((label, tuple(np.shape(a) for a in args)))
            if "out" in kwargs:
                out = kwargs["out"]
                assert out.shape == (args[0].shape[0], 300, 2)
                buffers.append((out.shape[0], out.__array_interface__["data"][0]))
            return fn(*args, **kwargs)
        return wrapped

    f = counted("f", np.sin)
    g = f if shared else counted("g", np.cos)
    split = _Split(f, g, counted(
        "h", lambda fx, gy, out=None: np.multiply(0.5, np.add(fx, gy, out=out), out=out)))
    prob = replace(builtin_problem("sine_meanfield", d=2, T=1.0, xi=1.0, L=1.0),
                   drift=make_drift("counted", split, 1.0, 2))
    calls.clear()  # make_drift evaluated mu(0, 0) once, with no out
    assert not buffers
    simulate_particles(prob, 300, 4, SEED)
    labels = [label for label, _ in calls]
    assert labels.count("f") == 4 and labels.count("g") == (0 if shared else 4)
    assert labels.count("h") == 4 * 5 == len(buffers)
    assert {shapes for label, shapes in calls if label != "h"} == {((300, 2),)}
    assert sorted({shapes for label, shapes in calls if label == "h"}) == [
        ((44, 1, 2), (1, 300, 2)), ((64, 1, 2), (1, 300, 2))]
    # min(cpus, 5) tasks share out the five blocks, each into its own buffer
    addresses = {address for _, address in buffers}
    assert 1 <= len(addresses) <= min(cpus, 5)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("name, params", [("sine_meanfield", {"L": 1.0}),
                                          ("full_linear", {"a": 0.5, "b": -0.75})])
def test_plain_evaluate_matches_split_twin(monkeypatch, cpus, d, name, params):
    # replacing evaluate by a plain function drops the split: the ensemble is
    # the same bytes, with evaluate called on the particles once per block
    # (300 particles: five blocks, the last of 44 rows) as a traced drift is
    _pretend_cpus(monkeypatch, cpus)
    prob = builtin_problem(name, d=d, T=1.0, xi=1.0, **params)
    calls = []

    def evaluate(x, y):
        calls.append(np.shape(x)[0])
        return prob.drift.evaluate(x, y)

    plain = replace(prob, drift=replace(prob.drift, evaluate=evaluate))
    split = simulate_particles(prob, 300, 3, SEED)
    assert not calls
    assert simulate_particles(plain, 300, 3, SEED).tobytes() == split.tobytes()
    assert sorted(calls) == sorted([64, 64, 64, 64, 44] * 3)
