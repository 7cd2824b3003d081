"""Brownian paths materialized on nested time grids.

A path for key theta is generated eagerly on the grid {k*T/m**n : 0 <= k <= m**n}
at the level n where theta is created.  Every later query happens at some
level j <= n, whose grid points are a subset of the creation grid, so lookups
are exact index arithmetic and introduce no new randomness.  This matches the
draw-count convention charged to the ledger: m**n * d scalar draws per path,
once, at creation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .hier_rng import IndexKey, step_normals
from .ledger import CostLedger

__all__ = ["GridPath", "GridTime", "generate", "snap"]

_MAX_GRID = 1 << 31  # refuse grids that cannot be indexed sanely


class GridTime(NamedTuple):
    index: int
    time: float


_GRIDS = 64  # float grids kept; a run queries a handful of (steps, horizon) pairs


@lru_cache(maxsize=_GRIDS)
def _grid(steps: int, horizon: float) -> np.ndarray:
    """The float grid times k*horizon/steps for k = 1..steps, read-only."""
    grid = np.arange(1, steps + 1) * horizon / steps
    grid.setflags(write=False)
    return grid


def _snap_indices(t, level: int, branching: int, horizon: float):
    """Index of the largest level-``level`` grid time not exceeding each t.

    One rule for scalars and arrays: the index is the number of grid times
    k*horizon/steps, k >= 1, that do not exceed t, compared as floats, so a
    query equal to a grid point never rounds down to the previous cell.
    """
    if level < 1:
        raise ValueError(f"grid level must be at least 1, got {level}")
    if branching < 1:
        raise ValueError(f"branching must be at least 1, got {branching}")
    times = np.asarray(t)
    # min/max propagate NaN, so a NaN query fails the range check too
    if not (times.min(initial=np.inf) >= 0.0 and times.max(initial=-np.inf) <= horizon):
        raise ValueError(f"time {t} outside [0, {horizon}]")
    return _grid(branching**level, horizon).searchsorted(times, side="right")


def snap(t: float, level: int, branching: int, horizon: float) -> GridTime:
    """Largest grid point of {k*horizon/branching**level} not exceeding t."""
    k = int(_snap_indices(t, level, branching, horizon))
    return GridTime(k, k * horizon / branching**level)


@dataclass(frozen=True)
class GridPath:
    """One Brownian path on the creation-level grid; immutable after generation."""

    key: IndexKey
    level: int
    branching: int
    horizon: float
    dim: int
    values: np.ndarray  # shape (branching**level + 1, dim), values[0] == 0

    def value_at(self, t, query_level: int) -> np.ndarray:
        """Path value at the level-``query_level`` grid point snapped from t.

        ``t`` is a time or an array of times; the result has shape (dim,) or
        t's shape followed by (dim,).  Queries finer than the creation level
        are rejected: the recursion never needs them, so such a call signals
        an indexing bug.
        """
        if query_level > self.level:
            raise ValueError(
                f"query level {query_level} exceeds creation level {self.level}"
            )
        idx = _snap_indices(t, query_level, self.branching, self.horizon)
        return self.values[:: self.branching ** (self.level - query_level)][idx]


def generate(
    key: IndexKey,
    level: int,
    branching: int,
    horizon: float,
    dim: int,
    ledger: Optional[CostLedger] = None,
) -> GridPath:
    """Materialize the full path for ``key`` at the given level.

    The increment of grid step k is the keyed Gaussian vector of ``key`` with
    purpose tag k.  All steps are drawn in one bulk call that hashes a shared
    message prefix once and maps every digest in a single vector pass, so
    regenerating from the same key is bit-identical and the ledger charge is
    exactly branching**level * dim scalar draws.
    """
    if level < 1:
        raise ValueError(f"grid level must be at least 1, got {level}")
    if branching < 1:
        raise ValueError(f"branching must be at least 1, got {branching}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    steps = branching**level
    if steps > _MAX_GRID:
        raise OverflowError(f"grid with {steps} steps exceeds the index range")
    values = np.empty((steps + 1, dim))
    values[0] = 0.0
    np.cumsum(step_normals(key, steps, dim, horizon / steps), axis=0, out=values[1:])
    values.setflags(write=False)
    if ledger is not None:
        ledger.add_draws(steps * dim)
    return GridPath(key, level, branching, horizon, dim, values)
