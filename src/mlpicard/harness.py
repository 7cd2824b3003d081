"""Batch experiment runner: configuration, orchestration, CSV reporting.

Configuration is a flat key=value text file plus ``--set key=value``
overrides; no nesting.  Every mode is deterministic given its configuration:
all randomness flows through the keyed generator from the single master
seed, repetition fan-out across a worker pool preserves ordering before any
aggregation, and CSV numbers are printed with 17 significant digits.  Wall
times are reported but are the only non-reproducible columns.

Modes
-----
convergence        RMSE vs the coupled pathwise oracle for k = n = m over the
                   configured range; asserts CI upper bound <= error bound and
                   fits the slope of log RMSE against k.
cost-table         one realization per (n, m) cell; asserts instrumented
                   tallies <= budget <= closed bound, draws >= top-path draws.
verify-bounds      particle-oracle moment check plus recursion/budget/Gronwall
                   property suites.
oracle-compare     estimator mean over repeated seeds vs the interacting
                   particle ensemble mean.
recursion-selftest closed forms vs direct recursions, budget vs a brute-force
                   recursive counter.
certificate        cost-times-accuracy supremand evaluation and the
                   accuracy-to-level table.

Repetitions run in chunks of seeds, one estimator batch per chunk, across
one pool of ``jobs`` worker processes per run.

The exit-code contract lives in :mod:`mlpicard.cli`: 0 all assertions pass,
1 statistical assertion failure, 2 configuration error, 3 resource refusal or
a dead worker process.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, ResourceLimitError, WorkerCrashError
from .hier_rng import IndexKey, child, derive_seed, uniforms
from .ledger import CostLedger
from .mlp import _realize_batch, realize_estimate, rep_seed, summarize_squared_errors
from .models import Problem, builtin_problem, pathwise_value
from .particles import ensemble_stats, simulate_particles
from .recursions import (
    complexity_certificate,
    cost_bound,
    cost_budget,
    error_bound,
    exact_cost_bound,
    gronwall_bound,
    gronwall_closed_form,
    log_cost_bound,
    moment_bound,
    two_step_closed_form,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "MODES",
    "ProblemSpec",
    "build_config",
    "direct_gronwall",
    "direct_two_step",
    "run",
    "write_csv",
]

_Z95_ONE_SIDED = 1.6448536269514722
# A batch of realizations peaks at a few bytes of memory per unit of its
# roots' total cost budget (measured 1.2 to 3.4 at n = m = 4 or 5, d = 1 to
# 64), so a chunk of repetition seeds stays under this many units, about ten
# megabytes; batching saves per-call overhead, which matters only at small
# budgets.
_CHUNK_BUDGET = 1 << 22
_HARNESS_BRANCH = 2  # root path coordinate reserved for harness parameter draws
# Longest exact integer a CSV cell holds: CPython's default int-to-str limit,
# fixed here so the output does not depend on interpreter settings.
_MAX_INT_DIGITS = 4300
_PROBLEM_PARAMS = {
    "zero_drift": (),
    "law_only_linear": ("b",),
    "full_linear": ("a", "b"),
    "sine_meanfield": ("L",),
}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "convergence"
    problem: str = "law_only_linear"
    a: float = 0.0
    b: float = -1.0
    L: float = 1.0
    d: int = 1
    T: float = 1.0
    xi: float = 1.0
    k_min: int = 1
    k_max: int = 4
    reps: int = 200
    seed: int = 7
    cost_ceiling: int = 10**9
    out: str = ""
    delta: float = 0.5
    cert_kmax: int = 200
    eps_list: str = "0.5,0.2,0.1"
    particles_n: int = 2000
    particles_m: int = 200
    mlp_n: int = 4
    mlp_m: int = 4
    jobs: int = 1
    extended: bool = False
    rec_draws: int = 1000
    bound_draws: int = 500

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose one of {sorted(MODES)}")
        if self.problem not in _PROBLEM_PARAMS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose one of {sorted(_PROBLEM_PARAMS)}"
            )
        if self.d < 1:
            raise ConfigError(f"d must be at least 1, got {self.d}")
        if self.T <= 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if not 1 <= self.k_min <= self.k_max:
            raise ConfigError(f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        cap = 5 if self.extended else 4
        if self.k_max > cap:
            raise ConfigError(
                f"k_max={self.k_max} beyond the desk-scale cap {cap}"
                + ("" if self.extended else " (pass --extended for k=5)")
            )
        if self.mode in ("convergence", "oracle-compare") and self.reps < 2:
            raise ConfigError(f"mode {self.mode} needs reps >= 2, got {self.reps}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if self.rec_draws < 1 or self.bound_draws < 1:
            raise ConfigError(
                f"need rec_draws >= 1 and bound_draws >= 1, got {self.rec_draws}, "
                f"{self.bound_draws}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.cert_kmax < 1:
            raise ConfigError(f"cert_kmax must be at least 1, got {self.cert_kmax}")
        if self.particles_n < 2 or self.particles_m < 1:
            raise ConfigError("need particles_n >= 2 and particles_m >= 1")
        if self.mlp_n < 1 or self.mlp_m < 1:
            raise ConfigError("need mlp_n >= 1 and mlp_m >= 1")
        try:
            eps = self.eps_values()
        except ValueError as exc:
            raise ConfigError(f"bad eps_list {self.eps_list!r}: {exc}") from None
        if not eps or any(e <= 0 for e in eps):
            raise ConfigError(f"eps_list must hold positive values, got {self.eps_list!r}")

    def eps_values(self) -> list[float]:
        return [float(tok) for tok in self.eps_list.split(",") if tok.strip()]

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def echo(self) -> str:
        """Sorted key=value string of the experiment definition.

        ``out`` and ``jobs`` are execution details, not part of the
        experiment, and are excluded so output bytes do not depend on them.
        """
        skip = {"out", "jobs"}
        parts = []
        for f in fields(self):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            parts.append(f"{f.name}={value}")
        return " ".join(sorted(parts))


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _convert(name: str, text: str, kind: type):
    try:
        if kind is bool:
            return _BOOL_VALUES[text.strip().lower()]
        return kind(text)
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {name}={text!r} as {kind.__name__}") from None


def _field_types() -> dict[str, type]:
    return {"mode": str, "problem": str, "out": str, "eps_list": str} | {
        f.name: type(getattr(ExperimentConfig(), f.name)) for f in fields(ExperimentConfig)
    }


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def build_config(
    config_path: Optional[str] = None,
    sets: Sequence[str] = (),
    **overrides,
) -> ExperimentConfig:
    """Assemble a validated config from file, --set pairs, and CLI overrides."""
    types = _field_types()
    cfg = ExperimentConfig()
    pending: dict[str, str] = {}
    if config_path:
        pending.update(parse_config_file(config_path))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pending[key.strip()] = value.strip()
    for key, text in pending.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        cfg = replace(cfg, **{key: _convert(key, text, types[key])})
    clean = {k: v for k, v in overrides.items() if v is not None}
    for key in clean:
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = replace(cfg, **clean)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# problems and worker-pool plumbing


@dataclass(frozen=True)
class ProblemSpec:
    """Picklable problem descriptor; workers rebuild the Problem from it."""

    name: str
    d: int
    T: float
    xi: float
    params: tuple[tuple[str, float], ...]

    def build(self) -> Problem:
        return builtin_problem(self.name, self.d, self.T, self.xi, **dict(self.params))


def problem_spec(cfg: ExperimentConfig) -> ProblemSpec:
    names = _PROBLEM_PARAMS[cfg.problem]
    params = tuple((name, float(getattr(cfg, name))) for name in names)
    return ProblemSpec(cfg.problem, cfg.d, cfg.T, cfg.xi, params)


@lru_cache(maxsize=8)
def _cached_problem(spec: ProblemSpec) -> Problem:
    return spec.build()


def _worker(task: tuple[ProblemSpec, int, int, tuple[int, ...]]) -> list[tuple]:
    """Realizations of (n, m) under each seed, evaluated as one batch: per
    seed its value at T, W0(T), draws and evaluations, as plain Python
    numbers, which cross a process boundary cheaply."""
    spec, n, m, seeds = task
    ledger = CostLedger()
    values, w0 = _realize_batch(_cached_problem(spec), n, m, seeds, ledger)
    draws, evals = ledger.snapshot()
    # Charges are per query time and every root's tree has the same shape,
    # so the batch tally is exactly len(seeds) single tallies.
    count = len(seeds)
    assert draws % count == 0 and evals % count == 0, (draws, evals, count)
    tally = (draws // count, evals // count)
    return [(value, w, *tally) for value, w in zip(values.tolist(), w0.tolist())]


@contextmanager
def _worker_pool(jobs: int) -> Iterator[Optional[ProcessPoolExecutor]]:
    """One pool of ``jobs`` worker processes for a whole run, or None to run
    in process; a worker that dies fails the run with WorkerCrashError."""
    if jobs <= 1:
        yield None
        return
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            f"a worker process died before returning its results: {exc}"
        ) from exc


def _repetitions(
    cfg: ExperimentConfig, spec: ProblemSpec, n: int, m: int, pool: Optional[ProcessPoolExecutor]
) -> list[tuple]:
    """``cfg.reps`` realizations of (n, m) under the repetition seeds, in
    order, as returned by ``_worker``.

    The seeds go to the worker in chunks of ``reps // (4 * jobs)``, in process
    too, and fewer where the chunk's total cost budget would pass
    ``_CHUNK_BUDGET``; the results, bit-identical to one realization per
    call, do not depend on the chunking, and their order is kept so that
    aggregation bytes never depend on the worker count.
    """
    seeds = [rep_seed(cfg.seed, r) for r in range(cfg.reps)]
    per_chunk = (cfg.reps // (4 * cfg.jobs), _CHUNK_BUDGET // cost_budget(n, m, cfg.d, 1, 1))
    size = max(1, min(per_chunk))
    tasks = [(spec, n, m, tuple(seeds[i : i + size])) for i in range(0, cfg.reps, size)]
    chunks = map(_worker, tasks) if pool is None else pool.map(_worker, tasks)
    return [result for chunk in chunks for result in chunk]


# ---------------------------------------------------------------------------
# direct-recursion oracles (the slow, obviously-correct route)


def direct_two_step(kappa: complex, lam: complex, forcing: Sequence) -> np.ndarray:
    """Iterate a(k+2) = b(k+2) + kappa*a(k+1) + lambda*a(k) directly."""
    b = np.asarray(forcing, dtype=complex)
    a = np.empty_like(b)
    if len(b) > 0:
        a[0] = b[0]
    if len(b) > 1:
        a[1] = b[1] + kappa * b[0]
    for k in range(2, len(b)):
        a[k] = b[k] + kappa * a[k - 1] + lam * a[k - 2]
    return a


def direct_gronwall(kappa: complex, lam: complex, forcing: Sequence) -> np.ndarray:
    """Iterate a(n) = b(n) + sum_{k<n} [kappa*a(k) + lambda*a(k-1)] directly.

    The two history sums are carried as running accumulators; sum_full covers
    a(0..n-1) and sum_lag covers a(0..n-2), matching the indicator that
    switches the lagged term off at k = 0.
    """
    b = np.asarray(forcing, dtype=complex)
    a = np.empty_like(b)
    sum_full = sum_lag = 0.0 + 0.0j
    for n in range(len(b)):
        a[n] = b[n] + kappa * sum_full + lam * sum_lag
        if n >= 1:
            sum_lag += a[n - 1]
        sum_full += a[n]
    return a


# (closed form, direct recursion, complex parameters): the suites shared by
# verify-bounds and recursion-selftest, each mode naming its rows.
_CLOSED_FORMS = (
    (two_step_closed_form, direct_two_step, False),
    (two_step_closed_form, direct_two_step, True),
    (gronwall_closed_form, direct_gronwall, False),
    (gronwall_closed_form, direct_gronwall, True),
)
_CLOSED_FORM_TOL = 1e-9


def _brute_force_budget(n: int, m: int, d: int, v: int, f: int) -> int:
    # Literal recursive transcription of the budget relation; used as the
    # independent cross-check for the iterative solver.
    if n == 0:
        return 0
    total = v * m**n * d + f
    for level in range(1, n):
        total += m ** (n - level) * (
            v * (m**level * d + 1)
            + 2 * f
            + 2 * _brute_force_budget(level, m, d, v, f)
            + 2 * _brute_force_budget(level - 1, m, d, v, f)
        )
    return total


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.abs(want), 1.0)
    return float(np.max(np.abs(got - want) / scale))


def _closed_form_suites(cfg: ExperimentConfig):
    """Per suite of ``_CLOSED_FORMS``, in order: (cases, worst relative gap of
    the closed form against its direct recursion, start time)."""
    for solver, direct, complex_params in _CLOSED_FORMS:
        started = time.perf_counter()
        draws = _recursion_parameter_draws(cfg.seed, cfg.rec_draws, 30, complex_params)
        worst = max(0.0, *(_relative_error(solver(*draw), direct(*draw)) for draw in draws))
        yield len(draws), worst, started


def _recursion_parameter_draws(
    seed: int, count: int, horizon: int, complex_params: bool
) -> list[tuple[complex, complex, np.ndarray]]:
    """Randomized (kappa, lambda, forcing) with well-separated roots."""
    key = IndexKey(seed, (_HARNESS_BRANCH,))
    draws = []
    i = 0
    while len(draws) < count:
        u = uniforms(child(key, (i,)), "params", 4 + horizon + 1)
        i += 1
        kappa = 0.2 + 2.8 * u[0]
        lam = 0.2 + 2.8 * u[1]
        if complex_params:
            kappa = complex(kappa, 2.0 * u[2] - 1.0)
            lam = complex(lam, 2.0 * u[3] - 1.0)
        forcing = 2.0 * u[4:] - 1.0
        # keep both characteristic discriminants away from zero
        if abs(kappa * kappa + 4.0 * lam) < 0.05:
            continue
        if abs((1.0 + kappa) ** 2 + 4.0 * lam) < 0.05:
            continue
        draws.append((kappa, lam, forcing))
    return draws


# ---------------------------------------------------------------------------
# result container and CSV output


@dataclass
class ExperimentResult:
    mode: str
    columns: tuple[str, ...]
    rows: list[tuple]
    footer: list[str]
    ok: bool
    config_echo: str

    def failures(self) -> list[tuple]:
        status = self.columns.index("status")
        return [row for row in self.rows if row[status] != "ok"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(result: ExperimentResult, path: str) -> None:
    lines = [
        f"# mlpicard csv v{__version__}",
        f"# mode={result.mode}",
        f"# config: {result.config_echo}",
        ",".join(result.columns),
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in result.rows)
    lines.extend(f"# {entry}" for entry in result.footer)
    Path(path).write_text("\n".join(lines) + "\n")


def _status(ok: bool) -> str:
    return "ok" if ok else "FAIL"


# ---------------------------------------------------------------------------
# modes


def _require_budget(cfg: ExperimentConfig, n: int, m: int) -> int:
    budget = cost_budget(n, m, cfg.d, 1, 1)
    if budget > cfg.cost_ceiling:
        raise ResourceLimitError(
            f"cost budget {budget} for (n={n}, m={m}, d={cfg.d}) exceeds "
            f"the ceiling {cfg.cost_ceiling}"
        )
    return budget


def _mode_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    spec = problem_spec(cfg)
    problem = _cached_problem(spec)
    if problem.oracle_kind != "pathwise":
        raise ConfigError(
            f"convergence mode needs a pathwise oracle; problem {cfg.problem!r} "
            f"has {problem.oracle_kind!r}"
        )
    norm_xi = float(np.linalg.norm(problem.initial))
    norm_mu = float(np.linalg.norm(problem.drift.value_at_origin))
    L = problem.drift.lipschitz_L

    columns = (
        "k", "n", "m", "reps", "rmse", "rmse_ci_half", "rmse_ci_upper", "error_bound",
        "bound_ok", "draws", "evals", "cost_budget", "cost_bound", "status", "wall_s",
    )
    rows = []
    rmses, rmse_ses = [], []
    all_ok = True
    budgets = [_require_budget(cfg, k, k) for k in cfg.levels()]
    with _worker_pool(cfg.jobs) as pool:
        for k, budget in zip(cfg.levels(), budgets):
            started = time.perf_counter()
            results = _repetitions(cfg, spec, k, k, pool)
            w0 = np.array([r[1] for r in results])
            diffs = np.array([r[0] for r in results]) - pathwise_value(problem, problem.horizon, w0)
            squared = np.array([float(diff @ diff) for diff in diffs])
            draws, evals = results[0][2:]
            rmse, half, se_sq = summarize_squared_errors(squared)
            bound = error_bound(k, k, cfg.T, cfg.T, cfg.d, L, norm_xi, norm_mu)
            ok = rmse + half <= bound
            all_ok &= ok
            rmses.append(rmse)
            rmse_ses.append(se_sq / (2.0 * rmse) if rmse > 0 else 0.0)
            rows.append((
                k, k, k, cfg.reps, rmse, half, rmse + half, bound, ok, draws, evals,
                budget, cost_bound(k, k, cfg.d, 1, 1), _status(ok),
                time.perf_counter() - started,
            ))

    footer = _slope_footer(list(cfg.levels()), rmses, rmse_ses)
    return ExperimentResult("convergence", columns, rows, footer, all_ok, cfg.echo())


def _slope_footer(ks: list[int], rmses: list[float], ses: list[float]) -> list[str]:
    """Weighted log-RMSE trend: OLS slope with error propagated from the
    per-level delta-method standard errors, plus the endpoint comparison."""
    footer = []
    usable = [(k, r, s) for k, r, s in zip(ks, rmses, ses) if r > 0.0]
    if len(usable) >= 2:
        xs = np.array([u[0] for u in usable], dtype=float)
        ys = np.log([u[1] for u in usable])
        var_y = np.array([(u[2] / u[1]) ** 2 for u in usable])
        centered = xs - xs.mean()
        coeff = centered / float(centered @ centered)
        slope = float(coeff @ ys)
        slope_se = float(math.sqrt(coeff**2 @ var_y))
        negative = slope + _Z95_ONE_SIDED * slope_se < 0.0
        footer.append(f"slope={_fmt(slope)}")
        footer.append(f"slope_se={_fmt(slope_se)}")
        footer.append(f"slope_negative_95={'1' if negative else '0'}")
    else:
        # errors vanished identically (e.g. zero drift): trivially converged
        footer.append("slope=nan")
        footer.append("slope_se=nan")
        footer.append("slope_negative_95=1")
    gap = rmses[0] - rmses[-1]
    gap_se = math.sqrt(ses[0] ** 2 + ses[-1] ** 2)
    footer.append(
        f"monotone_95={'1' if gap > _Z95_ONE_SIDED * gap_se else '0'}"
    )
    return footer


def _mode_cost_table(cfg: ExperimentConfig) -> ExperimentResult:
    spec = problem_spec(cfg)
    problem = _cached_problem(spec)
    columns = (
        "n", "m", "d", "draws", "evals", "draws_budget", "evals_budget", "cost_budget",
        "cost_bound", "draws_ok", "evals_ok", "budget_le_bound", "draws_ge_top_path",
        "status", "wall_s",
    )
    rows = []
    all_ok = True
    for n in cfg.levels():
        for m in cfg.levels():
            _require_budget(cfg, n, m)
            started = time.perf_counter()
            result = realize_estimate(
                problem, n, m, derive_seed(cfg.seed, "cell", n, m)
            )
            draws, evals = result.ledger.snapshot()
            draws_budget = cost_budget(n, m, cfg.d, 1, 0)
            evals_budget = cost_budget(n, m, cfg.d, 0, 1)
            total_budget = cost_budget(n, m, cfg.d, 1, 1)
            bound = cost_bound(n, m, cfg.d, 1, 1)
            draws_ok = draws <= draws_budget
            evals_ok = evals <= evals_budget
            budget_le_bound = total_budget <= bound
            top_path_ok = draws >= m**n * cfg.d
            ok = draws_ok and evals_ok and budget_le_bound and top_path_ok
            all_ok &= ok
            rows.append((
                n, m, cfg.d, draws, evals, draws_budget, evals_budget, total_budget,
                bound, draws_ok, evals_ok, budget_le_bound, top_path_ok, _status(ok),
                time.perf_counter() - started,
            ))
    return ExperimentResult("cost-table", columns, rows, [], all_ok, cfg.echo())


def _mode_verify_bounds(cfg: ExperimentConfig) -> ExperimentResult:
    spec = problem_spec(cfg)
    problem = _cached_problem(spec)
    columns = ("check", "observed", "limit", "margin", "status", "wall_s")
    rows = []
    all_ok = True

    def record(check: str, observed: float, limit: float, started: float, ok: bool) -> None:
        nonlocal all_ok
        all_ok &= ok
        rows.append((
            check, observed, limit, limit - observed, _status(ok),
            time.perf_counter() - started,
        ))

    started = time.perf_counter()
    samples = simulate_particles(problem, cfg.particles_n, cfg.particles_m, cfg.seed)
    stats = ensemble_stats(samples)
    bound = moment_bound(
        cfg.T,
        problem.drift.lipschitz_L,
        float(np.linalg.norm(problem.initial)),
        float(np.linalg.norm(problem.drift.value_at_origin)),
        cfg.d,
    )
    limit = bound + 3.0 * stats.second_moment_root_se
    record("particle_second_moment_root", stats.second_moment_root, limit, started,
           stats.second_moment_root <= limit)

    names = ("two_step_agreement", "two_step_agreement_complex", "gronwall_agreement",
             "gronwall_agreement_complex")
    for name, (_, worst, started) in zip(names, _closed_form_suites(cfg)):
        record(name, worst, _CLOSED_FORM_TOL, started, worst < _CLOSED_FORM_TOL)

    started = time.perf_counter()
    worst_gap = -math.inf
    for n in range(0, 9):
        for m in range(1, 6):
            for d in (1, 10):
                for v in (0, 1):
                    for f in (0, 1):
                        worst_gap = max(
                            worst_gap,
                            cost_budget(n, m, d, v, f) - cost_bound(n, m, d, v, f),
                        )
    record("budget_minus_bound_max", float(worst_gap), 0.0, started, worst_gap <= 0)

    started = time.perf_counter()
    worst = -math.inf
    for kappa, lam, cs in _majorant_parameter_draws(cfg.seed, cfg.bound_draws):
        overshoot = _gronwall_majorant_overshoot(kappa, lam, *cs, horizon=20)
        worst = max(worst, overshoot)
    record("gronwall_majorant_overshoot_max", float(worst), 0.0, started, worst <= 0.0)

    return ExperimentResult("verify-bounds", columns, rows, [], all_ok, cfg.echo())


def _majorant_parameter_draws(
    seed: int, count: int
) -> list[tuple[float, float, tuple[float, float, float, float]]]:
    key = IndexKey(seed, (_HARNESS_BRANCH,))
    draws = []
    i = 0
    while len(draws) < count:
        u = uniforms(child(key, (i,)), "majorant-params", 6)
        i += 1
        kappa, lam = 3.0 * u[0], 3.0 * u[1]
        if kappa + lam < 0.05:  # need growth base beta > 1
            continue
        draws.append((kappa, lam, (5.0 * u[2], 5.0 * u[3], 5.0 * u[4], 5.0 * u[5])))
    return draws


def _gronwall_majorant_overshoot(
    kappa: float, lam: float, c1: float, c2: float, c3: float, c4: float, horizon: int
) -> float:
    """Run the majorized inequality with equality (its maximal solution) and
    return the largest amount by which it exceeds the closed bound."""
    worst = -math.inf
    geometric = 0.0  # sum_{k=1..n} c4**k
    sum_full = sum_lag = 0.0
    history: list[float] = []
    for n in range(horizon + 1):
        if n >= 1:
            geometric += c4**n
        a_n = c1 + c2 * n + c3 * geometric + kappa * sum_full + lam * sum_lag
        if n >= 1:
            sum_lag += history[n - 1]
        sum_full += a_n
        history.append(a_n)
        worst = max(worst, a_n - gronwall_bound(kappa, lam, c1, c2, c3, c4, n))
    return worst


def _mode_oracle_compare(cfg: ExperimentConfig) -> ExperimentResult:
    spec = problem_spec(cfg)
    problem = _cached_problem(spec)
    _require_budget(cfg, cfg.mlp_n, cfg.mlp_m)
    started = time.perf_counter()
    with _worker_pool(cfg.jobs) as pool:
        values = np.array([r[0] for r in _repetitions(cfg, spec, cfg.mlp_n, cfg.mlp_m, pool)])
    mlp_mean = values.mean(axis=0)
    mlp_se = np.sqrt(values.var(axis=0, ddof=1) / cfg.reps)

    samples = simulate_particles(problem, cfg.particles_n, cfg.particles_m, cfg.seed)
    stats = ensemble_stats(samples)

    distance = float(np.linalg.norm(mlp_mean - stats.mean))
    combined = float(math.sqrt(float(np.sum(mlp_se**2 + stats.mean_se**2))))
    agree = distance <= 3.0 * combined
    wall = time.perf_counter() - started

    columns = ("coord", "mlp_mean", "mlp_se", "particle_mean", "particle_se",
               "status", "wall_s")
    rows = [
        (i, mlp_mean[i], mlp_se[i], stats.mean[i], stats.mean_se[i], _status(agree), wall)
        for i in range(cfg.d)
    ]
    footer = [
        f"distance={_fmt(distance)}",
        f"combined_se={_fmt(combined)}",
        f"sigmas={_fmt(distance / combined if combined > 0 else 0.0)}",
        f"agree_3se={'1' if agree else '0'}",
    ]
    return ExperimentResult("oracle-compare", columns, rows, footer, agree, cfg.echo())


def _mode_recursion_selftest(cfg: ExperimentConfig) -> ExperimentResult:
    columns = ("suite", "cases", "max_abs_gap", "tol", "status", "wall_s")
    rows = []
    all_ok = True

    names = ("two_step_real", "two_step_complex", "gronwall_real", "gronwall_complex")
    for name, (cases, worst, started) in zip(names, _closed_form_suites(cfg)):
        ok = worst < _CLOSED_FORM_TOL
        all_ok &= ok
        rows.append((name, cases, worst, _CLOSED_FORM_TOL, _status(ok),
                     time.perf_counter() - started))

    started = time.perf_counter()
    worst_int = 0
    cases = 0
    for n in range(0, 7):
        for m in (1, 2, 3):
            for d in (1, 3):
                for v in (0, 1):
                    for f in (0, 1):
                        gap = abs(cost_budget(n, m, d, v, f) - _brute_force_budget(n, m, d, v, f))
                        worst_int = max(worst_int, gap)
                        cases += 1
    ok = worst_int == 0
    all_ok &= ok
    rows.append(("budget_vs_bruteforce", cases, float(worst_int), 0.0, _status(ok),
                 time.perf_counter() - started))
    return ExperimentResult("recursion-selftest", columns, rows, [], all_ok, cfg.echo())


def _mode_certificate(cfg: ExperimentConfig) -> ExperimentResult:
    spec = problem_spec(cfg)
    problem = _cached_problem(spec)
    norm_xi = float(np.linalg.norm(problem.initial))
    norm_mu = float(np.linalg.norm(problem.drift.value_at_origin))
    cert = complexity_certificate(
        cfg.delta, cfg.T, cfg.d, problem.drift.lipschitz_L, norm_xi, norm_mu, cfg.cert_kmax
    )
    columns = ("eps", "n_eps", "cost_bound", "log_lhs", "log_rhs", "status", "wall_s")
    rows = []
    all_ok = cert.attained
    log_rhs = math.log(cfg.d + 1) + cert.log_sup
    for eps in cfg.eps_values():
        started = time.perf_counter()
        try:
            n_eps = cert.n_eps(eps)
        except ValueError:
            all_ok = False
            rows.append((eps, -1, 0, math.nan, log_rhs, _status(False),
                         time.perf_counter() - started))
            continue
        # Checked in log space and written exactly: no tally is involved, so the
        # 64-bit range of cost_bound does not apply.
        log_bound = log_cost_bound(n_eps, n_eps, cfg.d, 1, 1)
        if log_bound >= _MAX_INT_DIGITS * math.log(10):
            raise ResourceLimitError(
                f"certificate at eps={eps}: cost bound for n={n_eps} has more than "
                f"{_MAX_INT_DIGITS} digits"
            )
        bound = exact_cost_bound(n_eps, n_eps, cfg.d, 1, 1)
        log_lhs = log_bound + (2.0 + cfg.delta) * math.log(eps)
        ok = log_lhs <= log_rhs
        all_ok &= ok
        rows.append((eps, n_eps, bound, log_lhs, log_rhs, _status(ok),
                     time.perf_counter() - started))
    footer = [
        f"argmax_k={cert.argmax_k}",
        f"log_sup={_fmt(cert.log_sup)}",
        f"sup_attained={'1' if cert.attained else '0'}",
    ]
    return ExperimentResult("certificate", columns, rows, footer, all_ok, cfg.echo())


MODES: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "convergence": _mode_convergence,
    "cost-table": _mode_cost_table,
    "verify-bounds": _mode_verify_bounds,
    "oracle-compare": _mode_oracle_compare,
    "recursion-selftest": _mode_recursion_selftest,
    "certificate": _mode_certificate,
}


def run(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute one mode; raises ConfigError / ResourceLimitError, returns
    the result (with ``ok`` False on statistical assertion failure)."""
    cfg.validate()
    result = MODES[cfg.mode](cfg)
    if cfg.out:
        write_csv(result, cfg.out)
    return result
