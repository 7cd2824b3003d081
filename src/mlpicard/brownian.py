"""Brownian paths materialized on nested time grids, up to their last read.

A path for key theta lives on the grid {k*T/m**n : 0 <= k <= m**n} of the
level n where theta is created.  Every later query happens at some level
j <= n, whose grid points are a subset of the creation grid, so lookups are
exact index arithmetic and introduce no new randomness.  A path is not
generated whole: the caller names each key's largest query time, and only
the steps up to the last grid index any query at or before that time can
read are hashed (its *reach*).  The increments are summed sequentially along
the step axis, so every value of that prefix is bit-identical to the one of
the whole path, and a read past it is refused.

A :class:`PathBatch` stacks the paths of many keys created at one level, so
that the estimator generates and queries all sibling paths with one bulk
hash loop, one cumulative sum and one snapping pass per batch; its keys
are a key batch of :mod:`mlpicard.hier_rng`, which this module passes on
without reading: the key count is that of the query times.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .hier_rng import KeyBatch, batch_step_normals

__all__ = ["PathBatch", "generate_batch"]

_MAX_GRID = 1 << 31  # refuse grids that cannot be indexed sanely
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


def _reach(until: np.ndarray, level: int, branching: int, horizon: float) -> np.ndarray:
    """Largest level-``level`` grid index read by a query at any level q <=
    ``level`` at a time up to each ``until``.

    A level-q read at t takes index snap_q(t) * branching**(level - q).  The
    float grids of two levels can disagree by one ulp when the horizon is not
    1 (at T = 0.05, m = 3 the level-1 point 0.016666666666666666 lies below
    the level-2 point 0.01666666666666667), so a coarser level may reach one
    step further than the creation level, and every level is taken.
    """
    reach = _snap_indices(until, level, branching, horizon)
    for q in range(1, level):
        np.maximum(reach, _snap_indices(until, q, branching, horizon) * branching ** (level - q),
                   out=reach)
    return reach


def _check_query_level(query_level: int, level: int) -> None:
    # The recursion never queries finer than a path's creation level, so such
    # a call signals an indexing bug.
    if query_level > level:
        raise ValueError(f"query level {query_level} exceeds creation level {level}")


class PathBatch(NamedTuple):
    """The paths of key batch ``keys``, all created at one level, stacked."""

    keys: KeyBatch
    level: int
    branching: int
    horizon: float
    filled: np.ndarray  # steps generated per key: values[i, :filled[i] + 1] are its path
    values: np.ndarray  # shape (number of keys, filled.max() + 1, dim), values[:, 0] == 0

    def value_at(self, t: np.ndarray, owner: np.ndarray, query_level: int) -> np.ndarray:
        """Values of the paths ``owner[i]`` at the level-``query_level`` grid
        points snapped from the times ``t[i]``, shape (len(t), dim).

        All times are range-checked and snapped in one pass; a read past the
        generated prefix of its path is refused.
        """
        _check_query_level(query_level, self.level)
        idx = _snap_indices(t, query_level, self.branching, self.horizon)
        if query_level < self.level:
            idx *= self.branching ** (self.level - query_level)
        if np.any(idx > self.filled[owner]):
            raise ValueError(
                f"level-{query_level} read past the generated prefix of a level-"
                f"{self.level} path"
            )
        return self.values[owner, idx]


def generate_batch(
    keys: KeyBatch,
    until: Sequence[float],
    level: int,
    branching: int,
    horizon: float,
    dim: int,
) -> PathBatch:
    """Materialize the paths of key batch ``keys`` at the given level, each
    up to the last grid step a query at a time up to its ``until`` can read.

    ``until`` holds each key's largest query time (the horizon for a whole
    path), one per key, in key order.  The increment of grid step k of a
    key's path is the key's keyed Gaussian vector with purpose tag k.  The
    steps of all keys are drawn in one bulk call (each key's message prefix
    is hashed once, every digest is mapped in a single vector pass) and
    summed along the step axis, so every generated value is bit-identical to
    the whole path of its key generated alone.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    steps = branching**level
    if steps > _MAX_GRID:
        raise OverflowError(f"grid with {steps} steps exceeds the index range")
    until = np.asarray(until, dtype=float)
    size = len(until)  # one query time per key, checked by batch_step_normals
    filled = _reach(until, level, branching, horizon)
    width = int(filled.max(initial=0))
    values = np.zeros((size, width + 1, dim))
    increments = batch_step_normals(keys, width, dim, horizon / steps, filled)
    np.cumsum(increments, axis=1, out=values[:, 1:])
    values.setflags(write=False)
    filled.setflags(write=False)
    return PathBatch(keys, level, branching, horizon, filled, values)
