"""Shared test utilities: one-key estimator calls, CSV normalization and
acceptance reporting."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from mlpicard.brownian import PathBatch
from mlpicard.ledger import CostLedger
from mlpicard.mlp import _evaluate


def evaluate_one(problem, key, n, m, t, path, ledger=None) -> np.ndarray:
    """X[n, m](t) of one key, n >= 1, through the batched evaluator; ``path``
    is the key's GridPath, created at a level >= n."""
    batch = PathBatch((key,), path.level, path.branching, path.horizon, path.dim,
                      path.values[None])
    (value,) = _evaluate(problem, batch, m, (n,), np.array([t]), np.zeros(1, dtype=np.intp),
                         CostLedger() if ledger is None else ledger)
    return value[0]


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
