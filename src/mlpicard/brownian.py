"""Brownian paths materialized on nested time grids.

A path for key theta is generated eagerly on the grid {k*T/m**n : 0 <= k <= m**n}
at the level n where theta is created.  Every later query happens at some
level j <= n, whose grid points are a subset of the creation grid, so lookups
are exact index arithmetic and introduce no new randomness.  This matches the
draw-count convention charged to the ledger: m**n * d scalar draws per path,
once, at creation.

A :class:`PathBatch` stacks the paths of many keys created at one level, so
that the estimator generates and queries all sibling paths with one bulk
hash loop, one cumulative sum and one snapping pass per batch.  A
:class:`GridPath` is one such path; both snap through the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .hier_rng import IndexKey, batch_step_normals
from .ledger import CostLedger

__all__ = ["GridPath", "GridTime", "PathBatch", "generate", "generate_batch", "snap"]

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


def _check_query_level(query_level: int, level: int) -> None:
    # The recursion never queries finer than a path's creation level, so such
    # a call signals an indexing bug.
    if query_level > level:
        raise ValueError(f"query level {query_level} exceeds creation level {level}")


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
        are rejected.
        """
        _check_query_level(query_level, self.level)
        idx = _snap_indices(t, query_level, self.branching, self.horizon)
        return self.values[:: self.branching ** (self.level - query_level)][idx]


class PathBatch(NamedTuple):
    """The paths of ``keys``, all created at one level, stacked; immutable."""

    keys: tuple[IndexKey, ...]
    level: int
    branching: int
    horizon: float
    dim: int
    values: np.ndarray  # shape (len(keys), branching**level + 1, dim), values[:, 0] == 0

    def value_at(self, t: np.ndarray, owner: np.ndarray, query_level: int) -> np.ndarray:
        """Values of the paths ``owner[i]`` at the level-``query_level`` grid
        points snapped from the times ``t[i]``, shape (len(t), dim).

        All times are range-checked and snapped in one pass.
        """
        _check_query_level(query_level, self.level)
        idx = _snap_indices(t, query_level, self.branching, self.horizon)
        if query_level < self.level:
            idx *= self.branching ** (self.level - query_level)
        return self.values[owner, idx]


def generate_batch(
    keys: Sequence[IndexKey],
    level: int,
    branching: int,
    horizon: float,
    dim: int,
    ledger: Optional[CostLedger] = None,
) -> PathBatch:
    """Materialize the full paths of ``keys`` at the given level.

    The increment of grid step k of a key's path is the key's keyed Gaussian
    vector with purpose tag k.  The steps of all keys are drawn in one bulk
    call (each key's message prefix is hashed once, every digest is mapped in
    a single vector pass) and summed along the step axis, so every path is
    bit-identical to generating its key alone, and the ledger charge is
    exactly branching**level * dim scalar draws per key.
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
    keys = tuple(keys)
    values = np.zeros((len(keys), steps + 1, dim))
    np.cumsum(batch_step_normals(keys, steps, dim, horizon / steps), axis=1, out=values[:, 1:])
    values.setflags(write=False)
    if ledger is not None:
        ledger.add_draws(len(keys) * steps * dim)
    return PathBatch(keys, level, branching, horizon, dim, values)


def generate(
    key: IndexKey,
    level: int,
    branching: int,
    horizon: float,
    dim: int,
    ledger: Optional[CostLedger] = None,
) -> GridPath:
    """Materialize the full path for ``key`` at the given level: the batch of
    one key, so regenerating from the same key is bit-identical."""
    batch = generate_batch((key,), level, branching, horizon, dim, ledger)
    return GridPath(key, level, branching, horizon, dim, batch.values[0])
