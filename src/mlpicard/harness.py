"""Batch experiment runner: configuration, orchestration, CSV reporting.

Configuration is flat ``key=value`` text, typed once by :func:`build_config`
and checked by :meth:`ExperimentConfig.validate`.  Every mode is
deterministic given its configuration: all randomness flows through the keyed
generator from the single master seed, repetition fan-out across a worker
pool preserves ordering before any aggregation, and CSV numbers are printed
with 17 significant digits.  A mode's result ends every row with ``status``
and ``wall_s``, the seconds of the row's own work (the rows of oracle-compare
share one span); wall times are the only non-reproducible columns.

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
certificate        cost-times-accuracy supremand evaluation and the
                   accuracy-to-level table.

Repetitions run in chunks of seeds, one estimator batch per chunk: each
(n, m) cell of a run is cut into one chunk per worker, and every chunk of the
run goes into one queue, costliest cell first, which one ``map`` runs in
process or on one pool of ``jobs`` worker processes, so no cell waits for the
one before it.  The run ends at the first chunk in queue order that raises,
and the chunks not yet handed to a worker are cancelled.  A convergence row's
``wall_s`` is the summed seconds of its level's chunks, timed where they run.

The exit-code contract lives in :mod:`mlpicard.cli`: 0 all assertions pass,
1 statistical assertion failure, 2 configuration error, 3 resource refusal,
a dead worker process included.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, ResourceLimitError
from .hier_rng import batch_uniforms, children, derive_seed, pack
from .mlp import _realize_batch, rep_seed
from .models import PROBLEM_PARAMS, Problem, builtin_problem, pathwise_value
from .particles import _require_size, ensemble_stats, simulate_particles
from .recursions import (
    complexity_certificate,
    cost_bound,
    cost_budget,
    error_bound,
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
    "build_config",
    "direct_gronwall",
    "direct_two_step",
    "run",
    "write_csv",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_Z95_ONE_SIDED = 1.6448536269514722
# A batch of realizations peaks at a few bytes of memory per unit of its
# roots' total cost budget (measured 1.2 to 3.4 at n = m = 4 or 5, d = 1 to
# 64), so a chunk of repetition seeds stays under this many units, about ten
# megabytes.  Larger batches save per-call overhead at every budget: 64
# realizations at n = m = d = 4 took 142 ms in 8-seed batches and 124 ms in
# 32-seed ones.
_CHUNK_BUDGET = 1 << 22
_HARNESS_BRANCH = 2  # root path coordinate reserved for harness parameter draws
# Longest exact integer a CSV cell holds: CPython's default int-to-str limit,
# fixed here so the output does not depend on interpreter settings.
_MAX_INT_DIGITS = 4300
# The least value of each count, and the most levels the certificate tables
# hold (a Python list of error bounds among them: 10**6 levels take about 2 s
# and 120 MB).
_COUNT_MINIMUMS = {"d": 1, "jobs": 1, "cert_kmax": 1, "mlp_n": 1, "mlp_m": 1, "particles_m": 1,
                   "particles_n": 2, "rec_draws": 1, "bound_draws": 1}
_CERT_KMAX_CAP = 10**6


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose one of {sorted(MODES)}")
        if self.problem not in PROBLEM_PARAMS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose one of {sorted(PROBLEM_PARAMS)}"
            )
        for name, low in _COUNT_MINIMUMS.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.cert_kmax > _CERT_KMAX_CAP:
            raise ConfigError(f"cert_kmax={self.cert_kmax} beyond the cap {_CERT_KMAX_CAP}")
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
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        try:
            eps = self.eps_values()
        except ValueError as exc:
            raise ConfigError(f"bad eps_list {self.eps_list!r}: {exc}") from None
        if not eps or any(e <= 0 for e in eps):
            raise ConfigError(f"eps_list must hold positive values, got {self.eps_list!r}")
        if self.out and (Path(self.out).is_dir() or not Path(self.out).parent.is_dir()):
            raise ConfigError(f"cannot write out={self.out}: not a file in an existing directory")

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
            return _BOOL_VALUES[text.lower()]
        return kind(text)
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {name}={text!r} as {kind.__name__}") from None


def _split(item: str, where: str) -> tuple[str, str]:
    """The stripped key and value of one ``key=value`` item."""
    key, sep, value = item.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    return key.strip(), value.strip()


def build_config(config_path: Optional[str] = None, sets: Sequence[str] = ()) -> ExperimentConfig:
    """A validated config from the ``key=value`` lines of the file at
    ``config_path`` ('#' starts a comment, blank lines are skipped), then the
    ``sets`` items; the last item of a key wins, and its value alone is typed.
    A caller holding typed values uses ``replace`` and ``validate`` instead."""
    items = []
    if config_path:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from None
        lines = enumerate((raw.split("#", 1)[0].strip() for raw in text.splitlines()), 1)
        items = [(f"{config_path}:{lineno}", line) for lineno, line in lines if line]
    items += [("--set", item) for item in sets]
    pending = dict(_split(item, where) for where, item in items)
    types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    for key in pending:
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = replace(ExperimentConfig(), **{k: _convert(k, v, types[k]) for k, v in pending.items()})
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# problems and worker-pool plumbing


@lru_cache(maxsize=8)
def _problem(cfg: ExperimentConfig) -> Problem:
    """The configured built-in problem, built once per process and config; a
    parameter it rejects is a ConfigError."""
    params = {name: getattr(cfg, name) for name in PROBLEM_PARAMS[cfg.problem]}
    try:
        return builtin_problem(cfg.problem, cfg.d, cfg.T, cfg.xi, **params)
    except ValueError as exc:
        raise ConfigError(f"problem {cfg.problem!r}: {exc}") from None


def _worker(task: tuple[ExperimentConfig, int, int, tuple[int, ...]]) -> tuple:
    """Realizations of (n, m) under each seed, evaluated as one batch: the
    values at T and W0(T), one row per seed, and the (draws, evaluations) of
    one realization, as ``mlp._realize_batch`` returns them, then the
    seconds the batch took."""
    cfg, n, m, seeds = task
    started = time.perf_counter()
    return (*_realize_batch(_problem(cfg), n, m, seeds), time.perf_counter() - started)


def _repetitions(
    cfg: ExperimentConfig, cells: Sequence[tuple[int, int]]
) -> list[tuple[np.ndarray, np.ndarray, tuple[int, int], float]]:
    """Per (n, m) cell, in cell order: ``cfg.reps`` realizations under the
    repetition seeds, their values at T and W0(T), one row per seed in seed
    order, the (draws, evaluations) of one realization, which all of them
    share, and the summed seconds of the cell's chunks.

    Each cell's seeds are cut into one chunk per worker, ``ceil(reps /
    jobs)`` seeds, fewer where the chunk's total cost budget would pass
    ``_CHUNK_BUDGET``.  One queue, costliest cell first, holds every chunk;
    one ``map`` runs it in process or on a pool of ``min(jobs, reps)``
    workers, and a worker that dies is a ResourceLimitError.  The results,
    bit-identical to one realization per call, do not depend on the
    chunking, and each cell's chunks are joined in seed order, so
    aggregation bytes never depend on the worker count.
    """
    seeds = [rep_seed(cfg.seed, r) for r in range(cfg.reps)]
    budgets = [cost_budget(n, m, cfg.d, 1, 1) for n, m in cells]
    queue = {}  # cell index -> its chunks, costliest cell first
    for i in sorted(range(len(cells)), key=lambda i: -budgets[i]):
        size = max(1, min(-(-cfg.reps // cfg.jobs), _CHUNK_BUDGET // budgets[i]))
        queue[i] = [(cfg, *cells[i], tuple(seeds[s : s + size])) for s in range(0, cfg.reps, size)]
    workers = min(cfg.jobs, cfg.reps)
    try:
        with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
            results = (pool.map if pool else map)(_worker, itertools.chain(*queue.values()))
            chunks = {i: list(itertools.islice(results, len(tasks))) for i, tasks in queue.items()}
    except BrokenProcessPool as exc:
        raise ResourceLimitError(
            f"a worker process died before returning its results: {exc}"
        ) from exc
    joined = []
    for i in range(len(cells)):
        values, w0, tallies, seconds = zip(*chunks[i])
        joined.append((np.concatenate(values), np.concatenate(w0), tallies[0], sum(seconds)))
    return joined


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


# (verify-bounds row, closed form, direct recursion, complex parameters)
_CLOSED_FORMS = (
    ("two_step_agreement", two_step_closed_form, direct_two_step, False),
    ("two_step_agreement_complex", two_step_closed_form, direct_two_step, True),
    ("gronwall_agreement", gronwall_closed_form, direct_gronwall, False),
    ("gronwall_agreement_complex", gronwall_closed_form, direct_gronwall, True),
)
_CLOSED_FORM_TOL = 1e-9
_CLOSED_FORM_HORIZON = 30  # forcing terms b(0..30) per case


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.abs(want), 1.0)
    return float(np.max(np.abs(got - want) / scale))


def _harness_draws(seed: int, count: int, tag: str, words: int, draw: Callable) -> list:
    """The first ``count`` accepted draws of the harness branch: child i of
    ``(seed, (_HARNESS_BRANCH,))`` gives ``draw`` its ``words`` uniforms under
    ``tag``, for i = 0, 1, ..., and ``draw`` rejects them by returning None.
    The children are drawn in batches of ``count`` keys."""
    root = pack([(seed, (_HARNESS_BRANCH,))])
    accepted: list = []
    for start in itertools.count(0, count):
        keys = children(root, [(i,) for i in range(start, start + count)])
        accepted += (d for d in map(draw, batch_uniforms(keys, tag, words)) if d is not None)
        if len(accepted) >= count:
            return accepted[:count]


def _recursion_parameters(
    u: np.ndarray, complex_params: bool
) -> Optional[tuple[complex, complex, np.ndarray]]:
    """Randomized (kappa, lambda, forcing) with well-separated roots."""
    kappa = 0.2 + 2.8 * u[0]
    lam = 0.2 + 2.8 * u[1]
    if complex_params:
        kappa = complex(kappa, 2.0 * u[2] - 1.0)
        lam = complex(lam, 2.0 * u[3] - 1.0)
    forcing = 2.0 * u[4:] - 1.0
    # keep both characteristic discriminants away from zero
    if abs(kappa * kappa + 4.0 * lam) < 0.05:
        return None
    if abs((1.0 + kappa) ** 2 + 4.0 * lam) < 0.05:
        return None
    return kappa, lam, forcing


# ---------------------------------------------------------------------------
# result container and CSV output


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
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write out={path}: {exc.strerror or exc}") from exc


class ExperimentResult:
    """The rows of one mode run: the mode's columns, then ``status`` and
    ``wall_s``, and the footer lines.  Each :meth:`add` closes one span of
    work, timed from the result's creation or the previous ``add`` unless
    ``wall`` gives the seconds of work done elsewhere; its rows share the
    span's status and wall time, and its ``ok`` folds into the run's."""

    def __init__(self, cfg: ExperimentConfig, *columns: str) -> None:
        self.mode = cfg.mode
        self.config_echo = cfg.echo()
        self.columns = (*columns, "status", "wall_s")
        self.rows: list[tuple] = []
        self.footer: list[str] = []
        self.ok = True
        self._started = time.perf_counter()

    def add(self, ok: bool, *rows: tuple, wall: Optional[float] = None) -> None:
        now = time.perf_counter()
        wall = now - self._started if wall is None else wall
        self.ok &= ok
        self.rows += [(*row, "ok" if ok else "FAIL", wall) for row in rows]
        self._started = now

    def failures(self) -> list[tuple]:
        status = self.columns.index("status")
        return [row for row in self.rows if row[status] != "ok"]


# ---------------------------------------------------------------------------
# modes


def _require_budget(cfg: ExperimentConfig, n: int, m: int) -> int:
    try:
        budget = cost_budget(n, m, cfg.d, 1, 1)
    except OverflowError as exc:
        raise ResourceLimitError(f"(n={n}, m={m}, d={cfg.d}): {exc}") from None
    if budget > cfg.cost_ceiling:
        raise ResourceLimitError(
            f"cost budget {budget} for (n={n}, m={m}, d={cfg.d}) exceeds "
            f"the ceiling {cfg.cost_ceiling}"
        )
    return budget


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of ``x``, also where its square passes the double
    range: then it is ``s * ||x / s||`` with ``s = max |x_i|``, and inf only
    if the norm itself is."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
        if math.isinf(norm) and np.isfinite(x).all():
            scale = float(np.max(np.abs(x)))
            norm = scale * float(np.linalg.norm(x / scale))
    return norm


def _bound_constants(problem: Problem) -> tuple[float, float, float]:
    """(L, ||xi||, ||mu(0, 0)||), the problem's constants in the error,
    moment and cost-times-accuracy bounds; one that is not finite, a norm
    past the double range included, is a ConfigError."""
    constants = (
        problem.drift.lipschitz_L,
        _norm(problem.initial),
        _norm(problem.drift.value_at_origin),
    )
    if not all(map(math.isfinite, constants)):
        raise ConfigError("bound constants must be finite, got L={}, ||xi||={}, "
                          "||mu(0,0)||={}".format(*constants))
    return constants


def _finite_bound(bound: str, cfg: ExperimentConfig, constants: tuple, fn: Callable,
                  *args) -> float:
    """``fn(*args)``, the value of ``bound``; one that passes the double
    range, by an OverflowError or as inf, is a ConfigError naming the
    constants it grows with."""
    try:
        value = fn(*args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        L, norm_xi, norm_mu00 = constants
        raise ConfigError(f"{bound} passes the double range at L={L}, ||xi||={norm_xi}, "
                          f"||mu(0,0)||={norm_mu00}, T={cfg.T}, d={cfg.d}")
    return value


def _summarize_squared_errors(squared: np.ndarray) -> tuple[float, float, float]:
    """(rmse, 95% CI half-width, se of the mean square).

    The RMSE interval comes from the delta method applied to the sample mean
    of the squared errors; a zero mean square yields a degenerate interval.
    """
    reps = len(squared)
    mean_sq = float(np.mean(squared))
    se_sq = float(math.sqrt(np.var(squared, ddof=1) / reps))
    rmse = math.sqrt(mean_sq)
    half = _Z95 * se_sq / (2.0 * rmse) if rmse > 0.0 else 0.0
    return rmse, half, se_sq


def _mode_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    budgets = [_require_budget(cfg, k, k) for k in cfg.levels()]
    problem = _problem(cfg)
    if problem.pathwise is None:
        raise ConfigError(
            f"convergence mode needs a pathwise oracle; problem {cfg.problem!r} has none"
        )
    constants = _bound_constants(problem)
    rmses, rmse_ses = [], []
    bounds = [
        _finite_bound("error_bound", cfg, constants, error_bound, k, k, cfg.T, cfg.T, cfg.d,
                      *constants)
        for k in cfg.levels()
    ]
    rec = ExperimentResult(
        cfg, "k", "n", "m", "reps", "rmse", "rmse_ci_half", "rmse_ci_upper", "error_bound",
        "bound_ok", "draws", "evals", "cost_budget", "cost_bound",
    )
    cells = _repetitions(cfg, [(k, k) for k in cfg.levels()])
    for k, budget, bound, cell in zip(cfg.levels(), budgets, bounds, cells):
        values, w0, (draws, evals), seconds = cell
        diffs = values - pathwise_value(problem, problem.horizon, w0)
        squared = np.array([float(diff @ diff) for diff in diffs])
        rmse, half, se_sq = _summarize_squared_errors(squared)
        ok = rmse + half <= bound
        rmses.append(rmse)
        rmse_ses.append(se_sq / (2.0 * rmse) if rmse > 0 else 0.0)
        # the level's own estimator seconds, wherever its chunks ran
        rec.add(ok, (
            k, k, k, cfg.reps, rmse, half, rmse + half, bound, ok, draws, evals,
            budget, cost_bound(k, k, cfg.d, 1, 1),
        ), wall=seconds)

    rec.footer = _slope_footer(list(cfg.levels()), rmses, rmse_ses)
    return rec


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
        # errors vanished identically over two or more levels (e.g. zero
        # drift): trivially converged; one level shows no trend at all
        vanished = len(ks) >= 2 and not any(rmses)
        footer.append("slope=nan")
        footer.append("slope_se=nan")
        footer.append(f"slope_negative_95={'1' if vanished else '0'}")
    gap = rmses[0] - rmses[-1]
    gap_se = math.sqrt(ses[0] ** 2 + ses[-1] ** 2)
    footer.append(
        f"monotone_95={'1' if gap > _Z95_ONE_SIDED * gap_se else '0'}"
    )
    return footer


def _mode_cost_table(cfg: ExperimentConfig) -> ExperimentResult:
    cells = [(n, m, _require_budget(cfg, n, m)) for n in cfg.levels() for m in cfg.levels()]
    problem = _problem(cfg)
    rec = ExperimentResult(
        cfg, "n", "m", "d", "draws", "evals", "draws_budget", "evals_budget", "cost_budget",
        "cost_bound", "draws_ok", "evals_ok", "budget_le_bound", "draws_ge_top_path",
    )
    for n, m, total_budget in cells:
        seed = derive_seed(cfg.seed, "cell", n, m)
        _, _, (draws, evals) = _realize_batch(problem, n, m, (seed,))
        draws_budget = cost_budget(n, m, cfg.d, 1, 0)
        evals_budget = cost_budget(n, m, cfg.d, 0, 1)
        bound = cost_bound(n, m, cfg.d, 1, 1)
        draws_ok = draws <= draws_budget
        evals_ok = evals <= evals_budget
        budget_le_bound = total_budget <= bound
        top_path_ok = draws >= m**n * cfg.d
        ok = draws_ok and evals_ok and budget_le_bound and top_path_ok
        rec.add(ok, (
            n, m, cfg.d, draws, evals, draws_budget, evals_budget, total_budget,
            bound, draws_ok, evals_ok, budget_le_bound, top_path_ok,
        ))
    return rec


def _mode_verify_bounds(cfg: ExperimentConfig) -> ExperimentResult:
    problem = _problem(cfg)
    _require_size(cfg.particles_n, cfg.particles_m, cfg.d)
    constants = _bound_constants(problem)
    bound = _finite_bound("moment_bound", cfg, constants, moment_bound, cfg.T, *constants, cfg.d)
    rec = ExperimentResult(cfg, "check", "observed", "limit", "margin")
    samples = simulate_particles(problem, cfg.particles_n, cfg.particles_m, cfg.seed)
    stats = ensemble_stats(samples)
    observed = stats.second_moment_root
    limit = bound + 3.0 * stats.second_moment_root_se
    rec.add(observed <= limit, _check("particle_second_moment_root", observed, limit))

    # the suites of one parameter kind (real or complex) share its draws
    words = 4 + _CLOSED_FORM_HORIZON + 1
    draws_of = {kind: _harness_draws(cfg.seed, cfg.rec_draws, "params", words,
                                     lambda u, kind=kind: _recursion_parameters(u, kind))
                for kind in (False, True)}
    for name, solver, direct, complex_params in _CLOSED_FORMS:
        draws = draws_of[complex_params]
        worst = max(0.0, *(_relative_error(solver(*draw), direct(*draw)) for draw in draws))
        rec.add(worst < _CLOSED_FORM_TOL, _check(name, worst, _CLOSED_FORM_TOL))

    grid = itertools.product(range(9), range(1, 6), (1, 10), (0, 1), (0, 1))  # (n, m, d, v, f)
    worst_gap = max(cost_budget(*case) - cost_bound(*case) for case in grid)
    rec.add(worst_gap <= 0, _check("budget_minus_bound_max", float(worst_gap), 0.0))

    worst = -math.inf
    draws = _harness_draws(cfg.seed, cfg.bound_draws, "majorant-params", 6, _majorant_parameters)
    for kappa, lam, cs in draws:
        overshoot = _gronwall_majorant_overshoot(kappa, lam, *cs, horizon=20)
        worst = max(worst, overshoot)
    rec.add(worst <= 0.0, _check("gronwall_majorant_overshoot_max", float(worst), 0.0))
    return rec


def _check(name: str, observed: float, limit: float) -> tuple:
    """A verify-bounds row: check, observed, limit and margin."""
    return name, observed, limit, limit - observed


def _majorant_parameters(
    u: np.ndarray,
) -> Optional[tuple[float, float, tuple[float, float, float, float]]]:
    kappa, lam = 3.0 * u[0], 3.0 * u[1]
    if kappa + lam < 0.05:  # need growth base beta > 1
        return None
    return kappa, lam, (5.0 * u[2], 5.0 * u[3], 5.0 * u[4], 5.0 * u[5])


def _gronwall_majorant_overshoot(
    kappa: float, lam: float, c1: float, c2: float, c3: float, c4: float, horizon: int
) -> float:
    """Run the majorized inequality with equality (its maximal solution) and
    return the largest amount by which it exceeds the closed bound."""
    forcing = []
    geometric = 0.0  # sum_{k=1..n} c4**k
    for n in range(horizon + 1):
        if n >= 1:
            geometric += c4**n
        forcing.append(c1 + c2 * n + c3 * geometric)
    maximal = direct_gronwall(kappa, lam, forcing).real
    bounds = [gronwall_bound(kappa, lam, c1, c2, c3, c4, n) for n in range(horizon + 1)]
    return max(a_n - bound for a_n, bound in zip(maximal, bounds))


def _mode_oracle_compare(cfg: ExperimentConfig) -> ExperimentResult:
    _require_budget(cfg, cfg.mlp_n, cfg.mlp_m)
    problem = _problem(cfg)
    _require_size(cfg.particles_n, cfg.particles_m, cfg.d)  # before the estimator's work
    rec = ExperimentResult(cfg, "coord", "mlp_mean", "mlp_se", "particle_mean", "particle_se")
    values = _repetitions(cfg, [(cfg.mlp_n, cfg.mlp_m)])[0][0]
    mlp = ensemble_stats(values)

    samples = simulate_particles(problem, cfg.particles_n, cfg.particles_m, cfg.seed)
    stats = ensemble_stats(samples)

    distance = _norm(mlp.mean - stats.mean)
    with np.errstate(over="ignore"):
        combined = float(math.sqrt(float(np.sum(mlp.mean_se**2 + stats.mean_se**2))))
    if math.isinf(combined):  # the squares passed the double range
        combined = _norm(np.concatenate([mlp.mean_se, stats.mean_se]))
    # A mean of N doubles near x, summed in any order, is off by at most
    # (N - 1) u |x| for the sum plus u |x| for the division (Higham, Accuracy
    # and Stability of Numerical Algorithms, section 4.2), u = 2**-53 and
    # u |x| < np.spacing(x): by rounding alone the means differ by up to
    # (reps + particles_n) spacings a coordinate, sqrt(d) times that in norm.
    spacing = float(np.spacing(np.max(np.abs(np.concatenate([mlp.mean, stats.mean])))))
    combined = max(combined, math.sqrt(cfg.d) * (cfg.reps + cfg.particles_n) * spacing)
    agree = distance <= 3.0 * combined
    # one span for every coordinate: the rows share its status and wall time
    rec.add(agree, *[
        (i, mlp.mean[i], mlp.mean_se[i], stats.mean[i], stats.mean_se[i]) for i in range(cfg.d)
    ])
    rec.footer = [
        f"distance={_fmt(distance)}",
        f"combined_se={_fmt(combined)}",
        f"sigmas={_fmt(distance / combined)}",
        f"agree_3se={'1' if agree else '0'}",
    ]
    return rec


def _mode_certificate(cfg: ExperimentConfig) -> ExperimentResult:
    problem = _problem(cfg)
    cert = complexity_certificate(
        cfg.delta, cfg.T, cfg.d, *_bound_constants(problem), cfg.cert_kmax
    )
    log_rhs = math.log(cfg.d + 1) + cert.log_sup
    rec = ExperimentResult(cfg, "eps", "n_eps", "cost_bound", "log_lhs", "log_rhs")
    rec.ok = cert.attained
    for eps in cfg.eps_values():
        try:
            n_eps = cert.n_eps(eps)
        except ValueError:
            rec.add(False, (eps, -1, 0, math.nan, log_rhs))
            continue
        # Checked in log space and written exactly: no tally is involved, so no
        # 64-bit range applies.
        log_bound = log_cost_bound(n_eps, n_eps, cfg.d, 1, 1)
        if log_bound >= _MAX_INT_DIGITS * math.log(10):
            raise ResourceLimitError(
                f"certificate at eps={eps}: cost bound for n={n_eps} has more than "
                f"{_MAX_INT_DIGITS} digits"
            )
        bound = cost_bound(n_eps, n_eps, cfg.d, 1, 1)
        log_lhs = log_bound + (2.0 + cfg.delta) * math.log(eps)
        rec.add(log_lhs <= log_rhs, (eps, n_eps, bound, log_lhs, log_rhs))
    rec.footer = [
        f"argmax_k={cert.argmax_k}",
        f"log_sup={_fmt(cert.log_sup)}",
        f"sup_attained={'1' if cert.attained else '0'}",
    ]
    return rec


MODES: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "convergence": _mode_convergence,
    "cost-table": _mode_cost_table,
    "verify-bounds": _mode_verify_bounds,
    "oracle-compare": _mode_oracle_compare,
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
