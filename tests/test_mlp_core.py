import math

import numpy as np
import pytest

import mlpicard.mlp as mlp_mod
from mlpicard.brownian import generate
from mlpicard.errors import ResourceLimitError
from mlpicard.hier_rng import IndexKey
from mlpicard.ledger import CostLedger
from mlpicard.mlp import (
    MlpCall,
    l2_error_estimate,
    mlp_evaluate,
    realize_estimate,
    rep_seed,
)
from mlpicard.models import Problem, builtin_problem, make_drift
from mlpicard.recursions import cost_budget

SEED = 2024


def constant_drift_problem(c: float, d: int = 1, T: float = 1.0, xi: float = 1.0) -> Problem:
    drift = make_drift("constant", lambda x, y: np.full_like(x, c), 0.0, d)
    return Problem(d, T, np.full(d, xi), drift)


def brute_force_budget(n, m, d, v, f):
    # literal recursive transcription of the budget relation
    if n == 0:
        return 0
    total = v * m**n * d + f
    for level in range(1, n):
        total += m ** (n - level) * (
            v * (m**level * d + 1)
            + 2 * f
            + 2 * brute_force_budget(level, m, d, v, f)
            + 2 * brute_force_budget(level - 1, m, d, v, f)
        )
    return total


def test_level_zero_is_zero():
    prob = builtin_problem("sine_meanfield", d=3, T=1.0, xi=1.0, L=1.0)
    call = MlpCall(prob, IndexKey(SEED, (0,)), 0, 2, 0.5)
    ledger = CostLedger()
    assert np.all(mlp_evaluate(call, ledger) == 0.0)
    assert ledger.snapshot() == (0, 0)


def test_level_one_closed_form():
    # n = 1: xi + W(snap(t, m)) + t*mu(0,0), with the double sum empty
    prob = constant_drift_problem(0.375, d=2, T=1.0, xi=1.0)
    key = IndexKey(SEED, (0,))
    path = generate(key, 1, 3, 1.0, 2)
    for t in (0.0, 0.4, 1.0):
        got = mlp_evaluate(MlpCall(prob, key, 1, 3, t, path), CostLedger())
        want = prob.initial + path.value_at(t, 1) + t * 0.375
        assert np.array_equal(got, want)


def test_zero_drift_collapse_bit_exact():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    for n in range(1, 5):
        for m in range(1, 5):
            key = IndexKey(SEED + n * 10 + m, (0,))
            path = generate(key, n, m, 1.0, 1)
            for t in (0.0, 0.37, 1.0):
                got = mlp_evaluate(MlpCall(prob, key, n, m, t, path), CostLedger())
                want = prob.initial + path.value_at(t, n)
                assert np.array_equal(got, want), (n, m, t)


def test_realize_zero_drift_and_determinism():
    prob = builtin_problem("zero_drift", d=2, T=1.0, xi=1.0)
    first = realize_estimate(prob, 3, 2, SEED)
    again = realize_estimate(prob, 3, 2, SEED)
    assert np.array_equal(first.value, again.value)
    assert first.ledger.snapshot() == again.ledger.snapshot()
    assert np.array_equal(first.value, prob.initial + first.w0_terminal)


def test_realize_law_only_n1():
    # mu(0,0) = 0, so the n = m = 1 estimator is xi + W0(T) exactly
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    res = realize_estimate(prob, 1, 1, SEED)
    assert np.array_equal(res.value, prob.initial + res.w0_terminal)


def test_budget_domination_and_floor():
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    for n in range(1, 5):
        for m in range(1, 5):
            res = realize_estimate(prob, n, m, rep_seed(SEED, n * 10 + m))
            draws, evals = res.ledger.snapshot()
            assert draws <= cost_budget(n, m, 1, 1, 0), (n, m)
            assert evals <= cost_budget(n, m, 1, 0, 1), (n, m)
            assert draws >= m**n * 1, (n, m)
            assert evals >= 1


def test_budget_matches_brute_force():
    for n in range(0, 6):
        for m in (1, 2, 3):
            for d in (1, 3):
                for v in (0, 1):
                    for f in (0, 1):
                        assert cost_budget(n, m, d, v, f) == brute_force_budget(n, m, d, v, f)


def test_flags_silence_tallies():
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    ledger = CostLedger(count_draws=False, count_evals=False)
    realize_estimate(prob, 2, 2, SEED, ledger=ledger)
    assert ledger.snapshot() == (0, 0)


def test_process_consistency_addresses():
    # evaluating the same (theta, level) process at two times must draw the
    # same set of (key, tag) addresses
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    key = IndexKey(SEED, (0,))
    path = generate(key, 3, 2, 1.0, 1)

    real_uniform = mlp_mod.uniform
    real_generate = mlp_mod.generate

    def trace(t):
        addresses = set()

        def traced_uniform(k, tag):
            addresses.add(("u", k, tag))
            return real_uniform(k, tag)

        def traced_generate(k, level, m, horizon, dim, ledger=None):
            addresses.add(("w", k, level))
            return real_generate(k, level, m, horizon, dim, ledger)

        mlp_mod.uniform = traced_uniform
        mlp_mod.generate = traced_generate
        try:
            mlp_evaluate(MlpCall(prob, key, 3, 2, t, path), CostLedger())
        finally:
            mlp_mod.uniform = real_uniform
            mlp_mod.generate = real_generate
        return addresses

    assert trace(0.3) == trace(0.9)
    assert len(trace(0.5)) > 0


def reference_estimator(problem, key, n, m, t, path):
    """Independent re-implementation of the recursion with explicit keys."""
    if n == 0:
        return np.zeros(problem.dim)
    mu = problem.drift.evaluate
    value = problem.initial + path.value_at(t, n) + t * problem.drift.value_at_origin
    for level in range(1, n):
        fan = m ** (n - level)
        for k in range(1, fan + 1):
            sub = IndexKey(key.seed, key.path + (n, k, level))
            s = mlp_mod.uniform(sub, "u") * t
            fresh = generate(sub, level, m, problem.horizon, problem.dim)
            hi = mu(
                reference_estimator(problem, key, level, m, s, path),
                reference_estimator(problem, sub, level, m, s, fresh),
            )
            lo = mu(
                reference_estimator(problem, key, level - 1, m, s, path),
                reference_estimator(problem, sub, level - 1, m, s, fresh),
            )
            value += (t / fan) * (hi - lo)
    return value


def test_matches_independent_reimplementation():
    # includes d = 9, which crosses the eight-word digest block
    for d, n, m in ((2, 1, 3), (2, 2, 2), (2, 3, 2), (2, 3, 3), (2, 4, 2),
                    (1, 3, 3), (1, 4, 4), (9, 3, 2)):
        prob = builtin_problem("sine_meanfield", d=d, T=1.5, xi=0.75, L=1.0)
        key = IndexKey(SEED + n + 10 * m, (0,))
        path = generate(key, n, m, prob.horizon, prob.dim)
        got = mlp_evaluate(MlpCall(prob, key, n, m, prob.horizon, path), CostLedger())
        want = reference_estimator(prob, key, n, m, prob.horizon, path)
        assert got.tobytes() == want.tobytes(), (d, n, m)


def test_time_vector_matches_per_time_reference():
    # one evaluation over many query times (0, every grid point, T, random
    # times) equals the scalar reference at each time, byte for byte, which
    # also checks that vector and length-1 drift calls give the same bits;
    # the ledger is charged per query time, as by one call per time
    cases = [("sine_meanfield", d, {"L": 1.0}) for d in (1, 3, 9)]
    cases.append(("full_linear", 2, {"a": 0.5, "b": -1.0}))
    rng = np.random.default_rng(SEED)
    for name, d, params in cases:
        prob = builtin_problem(name, d=d, T=1.5, xi=0.75, **params)
        for n, m in ((1, 3), (2, 2), (3, 2), (3, 3)):
            key = IndexKey(SEED + 100 * d + 10 * n + m, (0,))
            path = generate(key, n, m, prob.horizon, d)
            grid = np.arange(m**n + 1) * prob.horizon / m**n
            times = np.concatenate([[0.0, prob.horizon], grid, rng.uniform(0.0, 1.5, 8)])
            ledger = CostLedger()
            (got,) = mlp_mod._evaluate(prob, key, path, m, (n,), times, ledger)
            assert got.shape == (len(times), d)
            want = np.array([reference_estimator(prob, key, n, m, t, path) for t in times])
            assert got.tobytes() == want.tobytes(), (name, d, n, m)
            scalar = CostLedger()
            for t in times:
                mlp_evaluate(MlpCall(prob, key, n, m, float(t), path), scalar)
            assert ledger.snapshot() == scalar.snapshot(), (name, d, n, m)


@pytest.mark.parametrize(
    "name, d, n, params, want, tallies",
    [
        ("law_only_linear", 1, 4, {"b": -1.0}, ["0x1.4757aa873a95fp-1"], (4372, 2745)),
        ("law_only_linear", 4, 4, {"b": -1.0},
         ["0x1.4757aa873a95fp-1", "-0x1.b4866341dcc32p-4",
          "0x1.34792cef477cap+0", "-0x1.22c9cbd323ed5p+0"], (15508, 2745)),
        ("sine_meanfield", 1, 3, {"L": 1.0}, ["0x1.30f6aa6838255p+1"], (165, 127)),
    ],
)
def test_realize_values_pinned(name, d, n, params, want, tallies):
    # bit patterns of the scalar-time recursion that preceded level-synchronous
    # evaluation, at n = m and master seed SEED
    prob = builtin_problem(name, d=d, T=1.0, xi=1.0, **params)
    res = realize_estimate(prob, n, n, SEED)
    assert [float(v).hex() for v in res.value] == want
    assert res.ledger.snapshot() == tallies


def test_term_memo_call_counts_and_scope():
    # each distinct key draws its uniform and its path exactly once: 348
    # uniforms and 349 paths (the root's included) at n = m = 4, while the
    # ledger keeps charging the logical draws per query time; a second
    # realization repeats the counts, so nothing outlives its call
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    real_uniform = mlp_mod.uniform
    real_generate = mlp_mod.generate
    calls = {"uniform": 0, "generate": 0}
    keys = {"uniform": set(), "generate": set()}

    def counted_uniform(*args):
        calls["uniform"] += 1
        keys["uniform"].add(args[0])
        return real_uniform(*args)

    def counted_generate(*args):
        calls["generate"] += 1
        keys["generate"].add(args[0])
        return real_generate(*args)

    mlp_mod.uniform = counted_uniform
    mlp_mod.generate = counted_generate
    try:
        results = []
        for _ in range(2):
            calls.update(uniform=0, generate=0)
            keys.update(uniform=set(), generate=set())
            results.append(realize_estimate(prob, 4, 4, SEED))
            assert calls == {"uniform": 348, "generate": 349}
            assert {name: len(seen) for name, seen in keys.items()} == calls
            assert results[-1].ledger.snapshot() == (4372, 2745)
    finally:
        mlp_mod.uniform = real_uniform
        mlp_mod.generate = real_generate
    assert results[0].value.tobytes() == results[1].value.tobytes()
    # the logical charge scales the path draws with d; evaluations do not
    prob4 = builtin_problem("law_only_linear", d=4, T=1.0, xi=1.0, b=-1.0)
    assert realize_estimate(prob4, 4, 4, SEED).ledger.snapshot() == (15508, 2745)


def test_level_two_hand_expansion():
    # n = 2, m = 2: two correction terms, each with its own uniform and its
    # own fresh level-1 path shared by the two drift arguments
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    mu = prob.drift.evaluate
    key = IndexKey(SEED, (0,))
    path = generate(key, 2, 2, 1.0, 1)
    zero = np.zeros(1)
    value = prob.initial + path.value_at(1.0, 2) + 1.0 * prob.drift.value_at_origin
    for k in (1, 2):
        sub = IndexKey(SEED, (0, 2, k, 1))
        s = mlp_mod.uniform(sub, "u") * 1.0
        fresh = generate(sub, 1, 2, 1.0, 1)
        own = prob.initial + path.value_at(s, 1) + s * prob.drift.value_at_origin
        other = prob.initial + fresh.value_at(s, 1) + s * prob.drift.value_at_origin
        value += (1.0 / 2.0) * (mu(own, other) - mu(zero, zero))
    got = mlp_evaluate(MlpCall(prob, key, 2, 2, 1.0, path), CostLedger())
    assert np.array_equal(got, value)


def test_unbiased_at_level_one():
    # X[1, m](T) = xi + W(T) + T*mu(0,0); the seed average must hit the mean
    prob = constant_drift_problem(0.3, d=1, T=1.0, xi=1.0)
    reps = 10**4
    values = np.empty(reps)
    for r in range(reps):
        values[r] = realize_estimate(prob, 1, 1, rep_seed(SEED, r)).value[0]
    target = 1.0 + 1.0 * 0.3
    se = math.sqrt(1.0 / reps)  # sd of W(1) over sqrt(reps)
    assert abs(values.mean() - target) < 4.0 * se


def test_cost_ceiling_refusal():
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    with pytest.raises(ResourceLimitError):
        realize_estimate(prob, 3, 3, SEED, cost_ceiling=100)
    # generous ceiling passes
    realize_estimate(prob, 2, 2, SEED, cost_ceiling=10**6)


def test_call_validation():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    key = IndexKey(SEED, (0,))
    path = generate(key, 1, 2, 1.0, 1)
    with pytest.raises(ValueError):
        MlpCall(prob, key, 2, 2, 0.5, path)  # path coarser than the level
    with pytest.raises(ValueError):
        MlpCall(prob, key, 1, 2, 1.5, path)  # t beyond the horizon
    with pytest.raises(ValueError):
        MlpCall(prob, key, 1, 2, 0.5, None)  # missing path
    with pytest.raises(ValueError):
        MlpCall(prob, key, 1, 3, 0.5, path)  # branching mismatch
    with pytest.raises(ValueError):
        realize_estimate(prob, 0, 2, SEED)


def test_l2_error_zero_drift_is_exact():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    res = l2_error_estimate(prob, 2, 2, 20, SEED)
    assert res.rmse == 0.0
    assert res.ci_half_width == 0.0


def test_l2_error_requires_pathwise_oracle_and_reps():
    sine = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    with pytest.raises(ValueError):
        l2_error_estimate(sine, 1, 1, 10, SEED)
    lin = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    with pytest.raises(ValueError):
        l2_error_estimate(lin, 1, 1, 1, SEED)


def test_l2_error_level_one_deterministic_gap():
    # at n = 1 the coupled error is |1 - e^{-1}| for every seed
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    res = l2_error_estimate(prob, 1, 1, 25, SEED)
    assert res.rmse == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert res.ci_half_width == pytest.approx(0.0, abs=1e-12)
    assert res.draws_per_realization == 1
    assert res.evals_per_realization == 1
