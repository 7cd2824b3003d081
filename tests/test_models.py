import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import LIPSCHITZ_TOL, generate, lipschitz_selfcheck
from mlpicard.models import _halves, builtin_problem, make_drift, pathwise_value

SEED = 77


def test_unknown_problem():
    with pytest.raises(ValueError):
        builtin_problem("surprise")


@pytest.mark.parametrize("name, params, needle", [
    ("law_only_linear", {}, "['b']"),
    ("full_linear", {"a": 0.5}, "['a', 'b']"),
    ("zero_drift", {"b": 5.0, "bogus": 1}, "[]"),
    ("sine_meanfield", {"L": 1.0, "b": 3.0}, "['L']"),
    ("surprise", {"b": 1.0}, "choose one of"),
], ids=["missing", "partial", "unexpected", "extra", "unknown-name"])
def test_builtin_problem_refuses_other_parameters(name, params, needle):
    # a missing, unexpected or unknown parameter set is refused with the
    # expected names, never a bare KeyError or a silent default
    with pytest.raises(ValueError) as info:
        builtin_problem(name, **params)
    assert needle in str(info.value)


def test_zero_drift_problem():
    prob = builtin_problem("zero_drift", d=2, T=1.0, xi=1.5)
    assert prob.pathwise is not None
    assert np.array_equal(prob.mean(0.7), prob.initial)
    assert prob.drift.lipschitz_L == 0.0
    assert np.all(prob.drift.value_at_origin == 0.0)
    assert np.array_equal(pathwise_value(prob, 0.0, np.zeros(2)), prob.initial)
    w = np.array([0.25, -0.5])
    assert np.array_equal(pathwise_value(prob, 0.7, w), prob.initial + w)


def test_law_only_linear_oracle_values():
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    assert prob.pathwise is not None
    # m'(t) = b m(t), m(0) = xi  =>  m(1) = e^{-1}
    assert prob.mean(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert pathwise_value(prob, 1.0, np.array([0.3]))[0] == pytest.approx(
        math.exp(-1.0) + 0.3, abs=1e-15
    )
    # b = 0 reduces to zero drift
    flat = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=0.0)
    w = np.array([0.125])
    assert np.array_equal(pathwise_value(flat, 0.5, w), flat.initial + w)


def test_law_only_linear_fixed_point_property():
    # xi + int_0^t b m(s) ds + w must reproduce m(t) + w on a fine quadrature
    b, xi, t = -1.0, 1.0, 1.0
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=xi, b=b)
    integral, err = quad(lambda s: b * prob.mean(s)[0], 0.0, t, epsabs=1e-13)
    lhs = xi + integral
    rhs = prob.mean(t)[0]
    assert abs(lhs - rhs) < 1e-12
    assert err < 1e-12


def test_full_linear_oracle():
    prob = builtin_problem("full_linear", d=1, T=1.0, xi=1.0, a=0.0, b=1.0)
    assert prob.pathwise is None
    assert prob.mean(1.0)[0] == pytest.approx(math.e, abs=1e-14)
    with pytest.raises(ValueError):
        pathwise_value(prob, 1.0, np.zeros(1))


def test_sine_meanfield_problem():
    prob = builtin_problem("sine_meanfield", d=3, T=1.0, xi=1.0, L=1.0)
    assert prob.mean is None
    assert prob.pathwise is None
    assert np.all(prob.drift.value_at_origin == 0.0)
    with pytest.raises(ValueError):
        pathwise_value(prob, 1.0, generate((SEED, (0,)), 1, 2, 1.0, 3).values[-1])


def test_value_at_origin_cached_exactly():
    for prob in _builtin_suite():
        zero = np.zeros(prob.dim)
        assert np.array_equal(prob.drift.value_at_origin, prob.drift.evaluate(zero, zero))


# each built-in drift as the one formula that defined it before its split
_WRITTEN_OUT = [
    ("zero_drift", {}, lambda p: lambda x, y: np.zeros_like(x)),
    ("law_only_linear", {"b": -1.5}, lambda p: lambda x, y: p["b"] * y + 0.0 * x),
    ("law_only_linear", {"b": 0.0}, lambda p: lambda x, y: p["b"] * y + 0.0 * x),
    ("full_linear", {"a": 0.7, "b": -1.3}, lambda p: lambda x, y: p["a"] * x + p["b"] * y),
    ("full_linear", {"a": -0.0, "b": 2.0}, lambda p: lambda x, y: p["a"] * x + p["b"] * y),
    ("sine_meanfield", {"L": 1.0},
     lambda p: lambda x, y: 0.5 * p["L"] * (np.sin(x) + np.sin(y))),
    ("sine_meanfield", {"L": 3.0},
     lambda p: lambda x, y: 0.5 * p["L"] * (np.sin(x) + np.sin(y))),
]
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -5e-324, 1.5])


@pytest.mark.parametrize("name, params, formula", _WRITTEN_OUT,
                         ids=[f"{n}-{sorted(p.items())}" for n, p, _ in _WRITTEN_OUT])
@pytest.mark.parametrize("d", [1, 3])
def test_split_drift_equals_written_out_formula_bit_for_bit(name, params, formula, d):
    # the split evaluate h(f(x), g(y)) does the formula's numpy operations in
    # its order: the same bits on random and special values (signed zeros,
    # infinities, nan, the largest and a subnormal double) in the shapes the
    # estimator and the particle blocks use, and the same cached mu(0, 0)
    prob = builtin_problem(name, d=d, T=1.0, xi=1.0, **params)
    want = formula(params)
    zero = np.zeros(d)
    assert prob.drift.value_at_origin.tobytes() == np.asarray(want(zero, zero), float).tobytes()
    rng = np.random.default_rng(SEED)

    def sample(*shape):
        values = rng.normal(scale=4.0, size=shape)
        special = rng.random(shape) < 0.3
        values[special] = rng.choice(_SPECIALS, size=int(special.sum()))
        return values

    shapes = [((d,), (d,)), ((9, d), (9, d)), ((5, 1, d), (1, 7, d)), ((4, 6, d), (6, d)),
              ((1, d), (8, d))]
    with np.errstate(all="ignore"):
        for x_shape, y_shape in shapes:
            x, y = sample(*x_shape), sample(*y_shape)
            got, expected = prob.drift.evaluate(x, y), want(x, y)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (x_shape, y_shape)



_SPLITS = [(n, p) for n, p, _ in _WRITTEN_OUT if n != "zero_drift"]


@pytest.mark.parametrize("name, params", _SPLITS,
                         ids=[f"{n}-{sorted(p.items())}" for n, p in _SPLITS])
@pytest.mark.parametrize("d", [1, 3])
def test_split_h_into_out_is_bit_equal(name, params, d):
    # each built-in split's h(fx, gy, out=buf) writes into buf and returns it, with the bits of
    # h(fx, gy): on arguments up to the top of the double range (whose sums
    # overflow) and special values, in a particle block's broadcast shapes
    # and in full ones, into a fresh buffer and one holding a prior result
    _, _, h = _halves(builtin_problem(name, d=d, T=1.0, xi=1.0, **params).drift.evaluate)
    rng = np.random.default_rng(SEED)

    def sample(*shape):
        values = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(0, 309, size=shape)
        special = rng.random(shape) < 0.2
        values[special] = rng.choice(_SPECIALS, size=int(special.sum()))
        return values

    buf = np.empty((64, 300, d))
    with np.errstate(all="ignore"):
        for fx_shape, gy_shape in [((64, 1, d), (1, 300, d)), ((44, 1, d), (1, 300, d)),
                                   ((64, 300, d), (64, 300, d))]:
            fx, gy = sample(*fx_shape), sample(*gy_shape)
            out = buf[: fx_shape[0]]
            got = h(fx, gy, out=out)
            assert got is out
            assert got.tobytes() == h(fx, gy).tobytes(), (fx_shape, gy_shape)


def _builtin_suite():
    return [
        builtin_problem("zero_drift", d=2, T=1.0, xi=1.0),
        builtin_problem("law_only_linear", d=2, T=1.0, xi=1.0, b=-1.0),
        builtin_problem("full_linear", d=2, T=1.0, xi=1.0, a=0.5, b=-0.25),
        builtin_problem("sine_meanfield", d=2, T=1.0, xi=1.0, L=1.0),
    ]


def test_declared_lipschitz_constants_pass_selfcheck():
    key = (SEED, (1,))
    for prob in _builtin_suite():
        worst, witness = lipschitz_selfcheck(prob.drift, prob.dim, 10**5, 5.0, key)
        assert worst <= 1.0 + LIPSCHITZ_TOL, (prob.drift.name, worst)
        assert witness is None


def test_selfcheck_zero_drift_worst_ratio():
    prob = builtin_problem("zero_drift", d=1, T=1.0, xi=0.0)
    worst, witness = lipschitz_selfcheck(prob.drift, 1, 1000, 2.0, (SEED, (2,)))
    assert worst <= 1.0 + LIPSCHITZ_TOL and witness is None
    assert worst == 0.0


def test_selfcheck_sine_explicit_constant():
    # mu(x, y) = (sin x + sin y)/2 satisfies the split with L = 1
    drift = make_drift("half_sines", lambda x, y: 0.5 * (np.sin(x) + np.sin(y)), 1.0, 1)
    worst, witness = lipschitz_selfcheck(drift, 1, 10**4, 4.0, (SEED, (3,)))
    assert worst <= 1.0 + LIPSCHITZ_TOL and witness is None, worst


def test_selfcheck_catches_understated_constant():
    # slope 2 in the first argument cannot hide under a declared L = 1
    drift = make_drift("too_steep", lambda x, y: 2.0 * x + 0.0 * y, 1.0, 1)
    worst, witness = lipschitz_selfcheck(drift, 1, 2000, 1.0, (SEED, (4,)))
    assert witness is not None
    assert worst > 1.0
    x1, y1, x2, y2 = witness
    lhs = abs(2.0 * x1[0] - 2.0 * x2[0])
    rhs = 0.5 * (abs(x1[0] - x2[0]) + abs(y1[0] - y2[0]))
    assert lhs > rhs


def test_oracle_pathwise_uses_coupled_path():
    # driven by W0 at a grid time of the estimator's own path
    prob = builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)
    path = generate((SEED, (5,)), 2, 2, 1.0, 1)
    for t, i in ((0.5, 2), (1.0, 4)):
        got = pathwise_value(prob, t, path.value_at(t, 2))
        assert got[0] == pytest.approx(math.exp(-t) + path.values[i, 0], abs=1e-15)
    # a stack of W0 rows is answered row by row, bit for bit
    rows = np.random.default_rng(SEED).normal(size=(5, 3))
    for prob in (builtin_problem("zero_drift", d=3, xi=0.5),
                 builtin_problem("law_only_linear", d=3, xi=0.5, b=-0.7)):
        one_by_one = np.array([pathwise_value(prob, 0.8, w) for w in rows])
        assert pathwise_value(prob, 0.8, rows).tobytes() == one_by_one.tobytes()


def test_problem_validation():
    with pytest.raises(ValueError):
        builtin_problem("zero_drift", d=0)
    with pytest.raises(ValueError):
        builtin_problem("zero_drift", d=1, T=0.0)
    with pytest.raises(ValueError):
        builtin_problem("zero_drift", d=2, xi=np.zeros(3))
