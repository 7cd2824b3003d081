import functools
import hashlib
import math

import numpy as np
import pytest

import mlpicard.mlp as mlp_mod
from helpers import evaluate_one, generate, uniform
import mlpicard.hier_rng as hier_rng
from mlpicard.brownian import PathBatch, _snap_indices, generate_batch
from mlpicard.errors import ConfigError
from mlpicard.harness import build_config, run
from mlpicard.hier_rng import pack
from mlpicard.mlp import CostLedger, realize_estimate, rep_seed
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


def test_level_one_closed_form():
    # n = 1: xi + W(snap(t, m)) + t*mu(0,0), with the double sum empty
    prob = constant_drift_problem(0.375, d=2, T=1.0, xi=1.0)
    key = (SEED, (0,))
    path = generate(key, 1, 3, 1.0, 2)
    for t in (0.0, 0.4, 1.0):
        got = evaluate_one(prob, key, 1, 3, t, path)
        want = prob.initial + path.value_at(t, 1) + t * 0.375
        assert np.array_equal(got, want)


def test_zero_drift_collapse_bit_exact():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    for n in range(1, 5):
        for m in range(1, 5):
            key = (SEED + n * 10 + m, (0,))
            path = generate(key, n, m, 1.0, 1)
            for t in (0.0, 0.37, 1.0):
                got = evaluate_one(prob, key, n, m, t, path)
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
    for n in range(0, 7):
        for m in (1, 2, 3):
            for d in (1, 3):
                for v in (0, 1):
                    for f in (0, 1):
                        assert cost_budget(n, m, d, v, f) == brute_force_budget(n, m, d, v, f)


def test_process_consistency_addresses():
    # evaluating the same (theta, level) process at two times must draw the
    # same set of (key, tag) addresses
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    key = (SEED, (0,))
    path = generate(key, 3, 2, 1.0, 1)

    real_uniform = mlp_mod.batch_uniforms
    real_generate = mlp_mod.generate_batch

    def trace(t):
        addresses = set()

        def traced_uniform(keys, tag, count):
            addresses.update(("u", k, tag, count) for k in zip(keys.seeds, keys.coords))
            return real_uniform(keys, tag, count)

        def traced_generate(keys, until, level, m, horizon, dim):
            addresses.update(("w", k, level) for k in zip(keys.seeds, keys.coords))
            return real_generate(keys, until, level, m, horizon, dim)

        mlp_mod.batch_uniforms = traced_uniform
        mlp_mod.generate_batch = traced_generate
        try:
            evaluate_one(prob, key, 3, 2, t, path)
        finally:
            mlp_mod.batch_uniforms = real_uniform
            mlp_mod.generate_batch = real_generate
        return addresses

    assert trace(0.3) == trace(0.9)
    assert len(trace(0.5)) > 0


# A key's uniform and whole path are pure functions of their arguments; the
# scalar reference re-reads them at every node and time, so it reads them
# through these memos.
cached_uniform = functools.cache(uniform)
cached_generate = functools.cache(generate)


def reference_estimator(problem, key, n, m, t, path):
    """Independent re-implementation of the recursion with explicit keys."""
    if n == 0:
        return np.zeros(problem.dim)
    mu = problem.drift.evaluate
    value = problem.initial + path.value_at(t, n) + t * problem.drift.value_at_origin
    for level in range(1, n):
        fan = m ** (n - level)
        for k in range(1, fan + 1):
            sub = (key[0], key[1] + (n, k, level))
            s = cached_uniform(sub, "u") * t
            fresh = cached_generate(sub, level, m, problem.horizon, problem.dim)
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
        key = (SEED + n + 10 * m, (0,))
        path = generate(key, n, m, prob.horizon, prob.dim)
        got = evaluate_one(prob, key, n, m, prob.horizon, path)
        want = reference_estimator(prob, key, n, m, prob.horizon, path)
        assert got.tobytes() == want.tobytes(), (d, n, m)


def test_time_vector_matches_per_time_reference():
    # one evaluator call over several keys, with the owners of the query
    # times interleaved, a vector of times (0, every grid point, T, random)
    # and both levels of an (n, n-1) group equals the scalar reference at
    # each (key, time, level) byte for byte, which also checks that batched
    # and length-1 drift calls give the same bits; the ledger is charged per
    # query time, as by one call per (key, time, level); m = 1 makes every
    # fan 1
    cases = [("sine_meanfield", d, {"L": 1.0}) for d in (1, 3, 9)]
    cases.append(("full_linear", 2, {"a": 0.5, "b": -1.0}))
    rng = np.random.default_rng(SEED)
    for name, d, params in cases:
        prob = builtin_problem(name, d=d, T=1.5, xi=0.75, **params)
        for n, m in ((1, 3), (2, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)):
            keys = [(SEED + 100 * d + 10 * n + m, (0, k)) for k in range(3)]
            paths = generate_batch(pack(keys), np.full(len(keys), prob.horizon), n, m,
                                   prob.horizon, d)
            grid = np.arange(m**n + 1) * prob.horizon / m**n
            times = np.concatenate([[0.0, prob.horizon], grid, rng.uniform(0.0, 1.5, 4)])
            owner = rng.integers(0, len(keys), len(times))
            levels = (n, n - 1) if n >= 2 else (n,)
            ledger = CostLedger()
            got = mlp_mod._evaluate(prob, paths, m, levels, times, owner, ledger)
            scalar = CostLedger()
            for level, values in zip(levels, got):
                assert values.shape == (len(times), d)
                want = []
                for t, o in zip(times, owner):
                    path = cached_generate(keys[o], n, m, prob.horizon, d)
                    want.append(reference_estimator(prob, keys[o], level, m, t, path))
                    evaluate_one(prob, keys[o], level, m, float(t), path, scalar)
                assert values.tobytes() == np.array(want).tobytes(), (name, d, n, m, level)
            assert ledger.snapshot() == scalar.snapshot(), (name, d, n, m)


def test_evaluator_calls_depend_on_n_only():
    # a call makes one sub-call per term level, over the sub keys of all its
    # nodes and keys, so a realization makes 2**(n-1) evaluator calls
    # whatever m is: 8 at n = 4 and 16 (at most 21) at n = 5
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    real = mlp_mod._evaluate
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    mlp_mod._evaluate = counted
    try:
        seen = {}
        for n, m in ((4, 2), (4, 4), (5, 2), (5, 3)):
            calls[0] = 0
            realize_estimate(prob, n, m, SEED)
            seen[n, m] = calls[0]
    finally:
        mlp_mod._evaluate = real
    assert seen[4, 2] == seen[4, 4] == 8
    assert seen[5, 2] == seen[5, 3] == 16 <= 21


def test_one_sub_key_batch_per_term_level(monkeypatch):
    # an evaluator call whose top level is L makes exactly L - 1 children
    # calls and L - 1 one-column uniform draws, one of each per term level,
    # over the sub keys of all its nodes and keys, and one drift pass per
    # half of each term level: 2L - 3 for L >= 2, as term level 1's lower
    # half is the cached mu(0, 0); its sub-calls count their own
    real_evaluate = mlp_mod._evaluate
    real_children = mlp_mod.children
    real_uniforms = mlp_mod.batch_uniforms
    real_drift = mlp_mod._drift
    stack, seen = [], []

    def evaluate(problem, paths, m, levels, *args):
        stack.append([levels[0], 0, 0, 0])
        try:
            return real_evaluate(problem, paths, m, levels, *args)
        finally:
            seen.append(tuple(stack.pop()))

    def children(*args):
        stack[-1][1] += 1
        return real_children(*args)

    def uniforms(keys, tag, count):
        assert count == 1
        stack[-1][2] += 1
        return real_uniforms(keys, tag, count)

    def drift(*args):
        stack[-1][3] += 1
        return real_drift(*args)

    monkeypatch.setattr(mlp_mod, "_evaluate", evaluate)
    monkeypatch.setattr(mlp_mod, "_drift", drift)
    monkeypatch.setattr(mlp_mod, "children", children)
    monkeypatch.setattr(mlp_mod, "batch_uniforms", uniforms)
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    for n, m in ((1, 3), (2, 2), (4, 1), (4, 3), (5, 2)):
        seen.clear()
        realize_estimate(prob, n, m, SEED)
        assert len(seen) == 2 ** (n - 1), (n, m)
        assert max(top for top, _, _, _ in seen) == n
        assert all(made == drawn == top - 1 for top, made, drawn, _ in seen), (n, m, seen)
        assert all(passes == max(0, 2 * top - 3) for top, _, _, passes in seen), (n, m, seen)


@pytest.mark.parametrize(
    "name, mu",
    [
        # both pass make_drift's origin check at d = 1, where x and y have
        # shape (1,), but reduce or index over the leading axis of a batch
        ("row_sum", lambda x, y: np.atleast_1d(-(x + y).sum(axis=0))),
        ("last_row", lambda x, y: -y[-1:]),
    ],
)
def test_drift_breaking_broadcast_contract_fails_closed(name, mu):
    drift = make_drift(name, mu, 2.0, 1)
    prob = Problem(1, 1.0, np.ones(1), drift)
    shapes = r"returned shape \(1,? ?1?\) .*\(\d+, 1\)"
    with pytest.raises(ValueError, match=rf"drift '{name}' {shapes}"):
        realize_estimate(prob, 3, 2, SEED)


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


def test_realizations_pinned_by_digest():
    # one SHA-256 over the values, W0(T) and ledger tallies of 180
    # realizations: three drifts, d = 1 and 4, a short and a unit horizon,
    # (n, m) up to (5, 3), master seeds 1-3
    digest = hashlib.sha256()
    for name, params in (("law_only_linear", {"b": -1.0}), ("sine_meanfield", {"L": 1.0}),
                         ("full_linear", {"a": 0.5, "b": -1.0})):
        for d in (1, 4):
            for T in (0.05, 1.0):
                prob = builtin_problem(name, d=d, T=T, xi=1.0, **params)
                for n, m in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 3)):
                    for seed in (1, 2, 3):
                        res = realize_estimate(prob, n, m, seed)
                        digest.update(res.value.tobytes())
                        digest.update(res.w0_terminal.tobytes())
                        digest.update(repr(res.ledger.snapshot()).encode())
    assert digest.hexdigest() == (
        "d1a97d72836a557bcd645fb158dd55495219d2fb4d93265f6d7a525925e3d70a"
    )


def test_term_memo_call_counts_and_scope():
    # each distinct key draws its uniform and its path exactly once: 348
    # uniforms and 349 paths (the root's included) at n = m = 4, while the
    # ledger keeps charging the logical draws per query time; a second
    # realization repeats the counts, so nothing outlives its call
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    real_uniform = mlp_mod.batch_uniforms
    real_generate = mlp_mod.generate_batch
    calls = {"uniform": 0, "generate": 0}
    keys = {"uniform": set(), "generate": set()}

    # the batched evaluator draws through these two, many keys per call; a
    # key is its seed and its encoded coordinates, which fix its depth
    def counted_uniform(batch, *args):
        calls["uniform"] += len(batch.coords)
        keys["uniform"].update(zip(batch.seeds, batch.coords))
        return real_uniform(batch, *args)

    def counted_generate(batch, *args):
        calls["generate"] += len(batch.coords)
        keys["generate"].update(zip(batch.seeds, batch.coords))
        return real_generate(batch, *args)

    mlp_mod.batch_uniforms = counted_uniform
    mlp_mod.generate_batch = counted_generate
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
        mlp_mod.batch_uniforms = real_uniform
        mlp_mod.generate_batch = real_generate
    assert results[0].value.tobytes() == results[1].value.tobytes()
    # the logical charge scales the path draws with d; evaluations do not
    prob4 = builtin_problem("law_only_linear", d=4, T=1.0, xi=1.0, b=-1.0)
    assert realize_estimate(prob4, 4, 4, SEED).ledger.snapshot() == (15508, 2745)


def test_each_path_is_generated_up_to_its_last_read(monkeypatch):
    # instrumented: every key's filled step count equals the largest
    # creation-level index actually read from its path (T = 1, where the
    # float grids of all levels agree); at T = 0.7 it never falls short
    real_generate = mlp_mod.generate_batch
    real_value_at = PathBatch.value_at
    filled, read = {}, {}

    def recording_generate(*args):
        batch = real_generate(*args)
        filled.update(zip(zip(batch.keys.seeds, batch.keys.coords), batch.filled.tolist()))
        return batch

    def recording_value_at(self, t, owner, query_level):
        out = real_value_at(self, t, owner, query_level)
        idx = _snap_indices(t, query_level, self.branching, self.horizon)
        most = np.full(len(self.keys.coords), -1)
        np.maximum.at(most, owner, idx * self.branching ** (self.level - query_level))
        for key, index in zip(zip(self.keys.seeds, self.keys.coords), most.tolist()):
            read[key] = max(read.get(key, -1), index)
        return out

    monkeypatch.setattr(mlp_mod, "generate_batch", recording_generate)
    monkeypatch.setattr(PathBatch, "value_at", recording_value_at)
    for name, d, T, n, m, params in (("law_only_linear", 1, 1.0, 4, 4, {"b": -1.0}),
                                     ("sine_meanfield", 3, 1.0, 3, 3, {"L": 1.0}),
                                     ("sine_meanfield", 2, 0.7, 4, 3, {"L": 1.0})):
        filled.clear()
        read.clear()
        realize_estimate(builtin_problem(name, d=d, T=T, xi=1.0, **params), n, m, SEED)
        assert filled.keys() == read.keys() and len(filled) > 20
        if T == 1.0:
            assert filled == read, (name, n, m)
        assert all(filled[key] >= read[key] for key in filled)


class CountingHasher:
    """A BLAKE2b hasher that counts each digest under ``kind[0]``."""

    def __init__(self, hasher, tally, kind):
        self.hasher, self.tally, self.kind = hasher, tally, kind

    def copy(self):
        return CountingHasher(self.hasher.copy(), self.tally, self.kind)

    def update(self, data):
        self.hasher.update(data)

    def digest(self):
        self.tally[self.kind[0]] += 1
        return self.hasher.digest()


def test_path_step_digests_pinned_at_k5(monkeypatch):
    # one k = 5 realization hashes 14275 path-step digests (58150 whole
    # paths) and 6745 uniform digests, and is still charged the logical
    # draws of whole paths; every digest is counted where it is computed,
    # under the estimator's entry point that asked for it
    tally = {"step": 0, "other": 0}
    kind = [None]
    blake2b = hashlib.blake2b
    monkeypatch.setattr(hier_rng, "hashlib", type(hashlib)("counting_hashlib"))
    hier_rng.hashlib.blake2b = lambda *args, **kwargs: CountingHasher(
        blake2b(*args, **kwargs), tally, kind)

    def under(name, fn):
        def counted(*args):
            kind[0] = name
            return fn(*args)
        return counted

    monkeypatch.setattr(mlp_mod, "generate_batch", under("step", mlp_mod.generate_batch))
    monkeypatch.setattr(mlp_mod, "batch_uniforms", under("other", mlp_mod.batch_uniforms))
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    res = realize_estimate(prob, 5, 5, SEED)
    assert tally == {"step": 14275, "other": 6745}
    assert res.ledger.snapshot() == (156505, 81031)


def test_level_two_hand_expansion():
    # n = 2, m = 2: two correction terms, each with its own uniform and its
    # own fresh level-1 path shared by the two drift arguments; the level-0
    # estimator enters each lower half as zero, through mu(0, 0)
    prob = builtin_problem("sine_meanfield", d=1, T=1.0, xi=1.0, L=1.0)
    mu = prob.drift.evaluate
    key = (SEED, (0,))
    path = generate(key, 2, 2, 1.0, 1)
    zero = np.zeros(1)
    value = prob.initial + path.value_at(1.0, 2) + 1.0 * prob.drift.value_at_origin
    for k in (1, 2):
        sub = (SEED, (0, 2, k, 1))
        s = uniform(sub, "u") * 1.0
        fresh = generate(sub, 1, 2, 1.0, 1)
        own = prob.initial + path.value_at(s, 1) + s * prob.drift.value_at_origin
        other = prob.initial + fresh.value_at(s, 1) + s * prob.drift.value_at_origin
        value += (1.0 / 2.0) * (mu(own, other) - mu(zero, zero))
    got = evaluate_one(prob, key, 2, 2, 1.0, path)
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


@pytest.mark.parametrize("n, m, reps", [(2, 2, 4000), (3, 3, 4000), (3, 1, 4000), (4, 2, 4000),
                                        (4, 4, 1000)])
@pytest.mark.parametrize("name, params", [("law_only_linear", {"b": 1.0}),
                                          ("full_linear", {"a": 0.5, "b": 0.5})])
def test_mean_is_the_picard_iterate(name, params, n, m, reps):
    # for an affine drift mu(x, y) = a*x + b*y, E W(snap) = 0 and
    # E_u[t*f(u*t)] is the integral of f over [0, t], so the level-n mean
    # solves E U_n(t) = xi + (a + b) * integral of E U_{n-1} over [0, t] with
    # U_0 = 0, for every m: the n-th Picard iterate of the mean ODE,
    # xi * sum_{k<n} ((a + b) t)**k / k!, here with a + b = 1, not the exact
    # mean xi * e**t.  The seed mean is checked against it within |z| <= 4.5,
    # a nominal two-sided false-alarm rate of about 7e-6 per case (the
    # standard error is the sample's own, over thousands of seeds).
    prob = builtin_problem(name, d=1, T=1.0, xi=1.0, **params)
    seeds = [rep_seed(SEED, r) for r in range(reps)]
    values = mlp_mod._realize_batch(prob, n, m, seeds)[0][:, 0]
    picard = sum(1.0 / math.factorial(k) for k in range(n))
    z = (values.mean() - picard) / (values.std(ddof=1) / math.sqrt(reps))
    assert abs(z) <= 4.5, (name, n, m, z)


# Master seeds of a batch: unrelated, unordered and not all derived alike.
BATCH_SEEDS = (SEED, rep_seed(SEED, 3), 17, rep_seed(99, 0), 2**63 + 5, 1, rep_seed(SEED, 0), 404)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (4, 4)])
@pytest.mark.parametrize("name, d, params", [
    ("sine_meanfield", 1, {"L": 1.0}), ("law_only_linear", 4, {"b": -1.0}),
    ("sine_meanfield", 4, {"L": 1.0}), ("law_only_linear", 1, {"b": -1.0}),
])
@pytest.mark.parametrize("size", [1, 3, 8])
def test_realize_batch_matches_single_realizations(n, m, name, d, params, size):
    # one batch of roots gives each seed's realization bit for bit, whatever
    # else shares the batch, and the tally of one realization
    prob = builtin_problem(name, d=d, T=1.0, xi=1.0, **params)
    seeds = BATCH_SEEDS[-size:]
    values, w0, tally = mlp_mod._realize_batch(prob, n, m, seeds)
    assert values.shape == w0.shape == (size, d)
    singles = [realize_estimate(prob, n, m, seed) for seed in seeds]
    for row, single in enumerate(singles):
        assert values[row].tobytes() == single.value.tobytes(), (seeds[row], row)
        assert w0[row].tobytes() == single.w0_terminal.tobytes(), (seeds[row], row)
        assert tally == single.ledger.snapshot(), (seeds[row], row)
    if n == 1:
        assert tally == (m * d, 1)  # the root path's draws and mu(0, 0) alone


@pytest.mark.parametrize("n, d, tally", [(5, 1, (156505, 81031)), (4, 1, (4372, 2745)),
                                         (4, 4, (15508, 2745))])
def test_realize_batch_returns_each_seeds_tally(n, d, tally):
    # a batch of several roots returns the pinned one-realization tally at
    # n = m, which is each seed's own realize_estimate ledger
    prob = builtin_problem("law_only_linear", d=d, T=1.0, xi=1.0, b=-1.0)
    seeds = BATCH_SEEDS[:3] if n == 5 else BATCH_SEEDS[:5]
    assert mlp_mod._realize_batch(prob, n, n, seeds)[2] == tally
    for seed in seeds:
        assert realize_estimate(prob, n, n, seed).ledger.snapshot() == tally, seed


def tally_closed_form(n, m, d):
    # one realization's (draws, evaluations): the root path's m**n * d draws
    # plus c_n, where c_0 = e_0 = 0 and, over term levels 1 <= l < j,
    #   c_j = sum m**(j-l) * (1 + m**l * d + 2 c_l + 2 c_(l-1)),
    #   e_j = 1 + sum m**(j-l) * (2 + 2 e_l + 2 e_(l-1))
    c, e = [0], [0]
    for j in range(1, n + 1):
        terms = [(m ** (j - level), level) for level in range(1, j)]
        c.append(sum(fan * (1 + m**level * d + 2 * c[level] + 2 * c[level - 1])
                     for fan, level in terms))
        e.append(1 + sum(fan * (2 + 2 * e[level] + 2 * e[level - 1]) for fan, level in terms))
    return m**n * d + c[n], e[n]


def test_ledger_tally_closed_form():
    # the tally the budget relation bounds, in closed form for every small
    # (n, m, d), and its evaluation count is the budget's own
    assert tally_closed_form(4, 4, 1) == (4372, 2745)
    assert tally_closed_form(4, 4, 4) == (15508, 2745)
    assert tally_closed_form(5, 5, 1) == (156505, 81031)
    for n in range(1, 5):
        for m in range(1, 5):
            for d in (1, 3):
                prob = builtin_problem("law_only_linear", d=d, T=1.0, xi=1.0, b=-1.0)
                want = tally_closed_form(n, m, d)
                for seed in BATCH_SEEDS[:2]:
                    assert mlp_mod._realize_batch(prob, n, m, (seed,))[2] == want, (n, m, d)
                assert want[1] == cost_budget(n, m, d, 0, 1), (n, m, d)


def distinct_keys(n, m):
    # K(1) = 1 and K(L) = 1 + sum_{j=2..L} sum_{l<j} m**(j-l) K(l): a node's
    # own key, and per term level l of each node j its m**(j-l) sub keys,
    # each the root of a level-l tree
    K = [None, 1]
    for top in range(2, n + 1):
        K.append(1 + sum(m ** (j - level) * K[level]
                         for j in range(2, top + 1) for level in range(1, j)))
    return K[n]


@pytest.mark.parametrize("n, m, want", [(2, 5, 6), (3, 2, 13), (4, 3, 163), (4, 4, 349),
                                        (5, 5, 6746)])
def test_distinct_keys_closed_form(monkeypatch, n, m, want):
    # every key a realization makes comes from one children call and is
    # made once: the root plus the keys of all children calls number K(n)
    real_children = mlp_mod.children
    made = []

    def children(keys, extensions):
        batch = real_children(keys, extensions)
        made.extend(zip(batch.seeds, batch.coords))
        return batch

    monkeypatch.setattr(mlp_mod, "children", children)
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    realize_estimate(prob, n, m, SEED)
    assert len(set(made)) == len(made)
    assert 1 + len(made) == distinct_keys(n, m) == want


def test_non_finite_drift_fails_closed():
    # mu is finite at the origin and inf elsewhere: the first drift call of
    # the recursion off the origin is refused, instead of a nan estimate
    def blowup(x, y):
        return np.where((x == 0.0) & (y == 0.0), 0.0, np.inf)

    prob = Problem(2, 1.0, np.ones(2), make_drift("blowup", blowup, 1.0, 2))
    assert np.isfinite(realize_estimate(prob, 1, 2, SEED).value).all()  # no drift call
    with pytest.raises(ConfigError, match="drift 'blowup' returned a non-finite"):
        realize_estimate(prob, 2, 2, SEED)
    # mu(0, 0) is read from the cache at n = 1, so it is refused when cached
    with pytest.raises(ConfigError, match="not finite at the origin"):
        make_drift("infinite", lambda x, y: np.full_like(x, np.inf), 1.0, 1)


def test_call_validation():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=1.0)
    with pytest.raises(ValueError):
        realize_estimate(prob, 0, 2, SEED)
    with pytest.raises(ValueError):
        realize_estimate(prob, 2, 0, SEED)


# The L2 error against the coupled pathwise oracle is measured by the
# convergence mode: one row per k = n = m over the configured levels.


def l2_error_rows(problem, k_max, reps, *extra):
    cfg = build_config(
        None,
        [f"problem={problem}", "d=1", "T=1.0", "xi=1.0", "k_min=1", f"k_max={k_max}",
         f"reps={reps}", f"seed={SEED}", *extra, "mode=convergence"],
    )
    res = run(cfg)
    return [dict(zip(res.columns, row)) for row in res.rows]


def test_l2_error_zero_drift_is_exact():
    row = l2_error_rows("zero_drift", 2, 20)[1]
    assert (row["n"], row["m"], row["reps"]) == (2, 2, 20)
    assert row["rmse"] == 0.0
    assert row["rmse_ci_half"] == 0.0


def test_l2_error_requires_pathwise_oracle_and_reps():
    with pytest.raises(ConfigError):
        l2_error_rows("sine_meanfield", 1, 10, "L=1.0")
    with pytest.raises(ConfigError):
        l2_error_rows("law_only_linear", 1, 1, "b=-1.0")


def test_l2_error_level_one_deterministic_gap():
    # at n = 1 the coupled error is |1 - e^{-1}| for every seed
    (row,) = l2_error_rows("law_only_linear", 1, 25, "b=-1.0")
    assert row["rmse"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert row["rmse_ci_half"] == pytest.approx(0.0, abs=1e-12)
    assert row["draws"] == 1
    assert row["evals"] == 1
