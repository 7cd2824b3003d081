"""Shared test utilities: one-key draw, path, estimator and particle
references, a Lipschitz sampler, the certificate's supremand table, CSV
normalization and acceptance reporting.  A key is a ``(seed, path)`` pair."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mlpicard.brownian import PathBatch, _check_query_level, _snap_indices, generate_batch
from mlpicard.hier_rng import batch_normals, batch_uniforms, pack
from mlpicard.mlp import CostLedger, _evaluate
from mlpicard.models import _halves
from mlpicard.particles import _interaction_mean


def uniform(key, tag) -> float:
    """The uniform draw of one key under ``tag``: its batch of one."""
    return float(batch_uniforms(pack([key]), tag, 1)[0, 0])


def normals(key, tag, count, variance=1.0) -> np.ndarray:
    """The ``count`` normal draws of one key under ``tag``: its batch of one."""
    return batch_normals(pack([key]), tag, count, variance)[0]


def snap(t: float, level: int, branching: int, horizon: float) -> tuple[int, float]:
    """(index, time) of the largest grid point of {k*horizon/branching**level}
    not exceeding t, by the snapping rule of the path batches."""
    k = int(_snap_indices(t, level, branching, horizon))
    return k, k * horizon / branching**level


@dataclass(frozen=True)
class GridPath:
    """One whole Brownian path on the creation-level grid."""

    key: tuple[int, tuple[int, ...]]
    level: int
    branching: int
    horizon: float
    dim: int
    values: np.ndarray  # shape (branching**level + 1, dim), values[0] == 0

    def value_at(self, t, query_level: int) -> np.ndarray:
        """Path value at the level-``query_level`` grid point snapped from t;
        ``t`` is a time or an array of times."""
        _check_query_level(query_level, self.level)
        idx = _snap_indices(t, query_level, self.branching, self.horizon)
        return self.values[:: self.branching ** (self.level - query_level)][idx]


def generate(key, level, branching, horizon, dim) -> GridPath:
    """The whole path of ``key``: the batch of one key, generated up to the
    horizon."""
    batch = generate_batch(pack([key]), [horizon], level, branching, horizon, dim)
    return GridPath(key, level, branching, horizon, dim, batch.values[0])


def evaluate_one(problem, key, n, m, t, path, ledger=None) -> np.ndarray:
    """X[n, m](t) of one key, n >= 1, through the batched evaluator; ``path``
    is the key's GridPath, created at a level >= n."""
    steps = np.array([len(path.values) - 1])
    batch = PathBatch(pack([key]), path.level, path.branching, path.horizon, steps,
                      path.values[None])
    (value,) = _evaluate(problem, batch, m, (n,), np.array([t]), np.zeros(1, dtype=np.intp),
                         CostLedger() if ledger is None else ledger)
    return value[0]


def particles_reference(problem, N: int, M: int, seed: int) -> np.ndarray:
    """The ensemble of ``simulate_particles`` with the whole noise, N*M*d
    doubles, drawn up front in one ``batch_normals`` call over the keys
    (seed, (1, i)), and the pairwise sums on the calling thread."""
    d, dt = problem.dim, problem.horizon / M
    keys = pack([(seed, (1, i)) for i in range(N)])
    increments = batch_normals(keys, "dw", M * d, dt).reshape(N, M, d)
    halves = _halves(problem.drift.evaluate)
    buffers = np.empty((1, min(64, N), N, d))
    state = np.tile(problem.initial, (N, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(M):
            mean = _interaction_mean(halves, state, None, buffers)
            state = state + dt * mean + increments[:, step, :]
    return state


# Relative slack for the sampled Lipschitz ratio; exact-equality cases like
# linear drifts sit on the boundary up to roundoff.
LIPSCHITZ_TOL = 1e-9


def lipschitz_selfcheck(model, d, samples, radius, key):
    """Randomized check of a drift's declared Lipschitz constant: (worst
    ratio, witness).

    Draws quadruples (x1, y1, x2, y2) under the key, uniformly in the ball of
    the given radius, and returns the worst observed ratio

        ||mu(x1,y1) - mu(x2,y2)|| / ((L/2)||x1-x2|| + (L/2)||y1-y2||),

    with a zero denominator counting as ratio 0 when the numerator vanishes
    and as inf otherwise.  The witness is the worst quadruple when its ratio
    passes 1 + LIPSCHITZ_TOL, else None.
    """
    keys = pack([key])
    gauss = batch_normals(keys, "lipschitz-dirs", samples * 4 * d).reshape(samples, 4, d)
    radial = batch_uniforms(keys, "lipschitz-radii", samples * 4).reshape(samples, 4)
    norms = np.linalg.norm(gauss, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    points = gauss / norms * (radius * radial ** (1.0 / d))[..., None]
    x1, y1, x2, y2 = points[:, 0], points[:, 1], points[:, 2], points[:, 3]

    num = np.linalg.norm(model.evaluate(x1, y1) - model.evaluate(x2, y2), axis=1)
    den = 0.5 * model.lipschitz_L * (
        np.linalg.norm(x1 - x2, axis=1) + np.linalg.norm(y1 - y2, axis=1)
    )
    ratio = np.zeros(samples)
    positive = den > 0.0
    ratio[positive] = num[positive] / den[positive]
    ratio[~positive & (num > 0.0)] = np.inf

    worst = int(np.argmax(ratio))
    if ratio[worst] <= 1.0 + LIPSCHITZ_TOL:
        return float(ratio[worst]), None
    return float(ratio[worst]), (x1[worst], y1[worst], x2[worst], y2[worst])


def log_supremand(delta, T, d, L, norm_xi, norm_mu00, k_max) -> np.ndarray:
    """The log-supremand of ``complexity_certificate`` at k = 1..k_max (index
    k-1 holds k), by its expression in its operation order, so that the
    table's maximum compares to the certificate's ``log_sup`` bit for bit."""
    inner_const = math.log(1.0 + norm_xi + norm_mu00 * T + math.sqrt(T * d)) + L * T
    growth = math.log1p(2.0 * L * T)
    k = np.arange(1, k_max + 1, dtype=float)
    return (k + 1.0) * np.log(4.0 * k + 4.0) + (2.0 + delta) * (
        0.5 * k - 0.5 * k * np.log(k) + inner_const + k * growth
    )


def csv_without_wall(path: str | Path) -> str:
    """File contents with every wall-time column value masked out.

    Comment lines pass through untouched; data lines have the columns whose
    header ends in ``_s`` replaced by 'X'.
    """
    lines = Path(path).read_text().splitlines()
    out = []
    wall_idx: list[int] = []
    header_seen = False
    for line in lines:
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        if not header_seen:
            header_seen = True
            wall_idx = [i for i, name in enumerate(cells) if name.endswith("_s")]
            out.append(line)
            continue
        for i in wall_idx:
            cells[i] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


CRITERION_LINES: list[str] = []


def report_criterion(num: int, description: str, passed: bool, elapsed: float) -> None:
    """One pass/fail line per acceptance criterion.

    Lines are written immediately (visible under ``pytest -s``) and collected
    for the terminal summary, which survives pytest's output capture.
    """
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] criterion {num}: {description} ({elapsed:.2f}s)"
    CRITERION_LINES.append(line)
    sys.stdout.write(line + "\n")
    sys.stdout.flush()
