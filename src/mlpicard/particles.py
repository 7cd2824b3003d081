"""Interacting-particle Euler reference solution.

N particles start at xi and evolve by the Euler scheme

    X_i <- X_i + (dt/N) * sum_j mu(X_i, X_j) + dW_i,

with the empirical mean taken over all N particles including self.  The
pairwise drift sum is O(N**2) per step by design (oracle clarity over speed).
With the drift's split mu(x, y) = h(f(x), g(y)) (see ``DriftModel``), each
step first evaluates f and g on all N particles, once each (once in all when
g is f), on the calling thread.  The pairs then run in 64-row blocks, one
task per thread taking the next block until none is left; a block evaluates
only h, on its rows of f(X) against all of g(X), into its task's 64 x N x d
pair buffer.  The buffers are allocated once per call, one per task, so no
block allocates its pair array.  A drift without a declared split has the
identity one, so its ``evaluate`` runs once per block on the particles
themselves and allocates its result.  Row i's sum over j is the same numpy
reduction in any block and has one writer, so the bits depend on neither the
block size, the thread count nor which thread takes a block.  ``_plan``
decides an ensemble once, before anything is allocated: it refuses pairwise
work max(N, 64)*N*M*d past 4*10**9, or a noise window, its draw and one pair
buffer past 10**8 doubles, by a rule that reads nothing of the machine;
otherwise it sets the thread count, capped by the CPUs, the row blocks and
the pair buffers that fit beside the noise.  Particle noise keys live on a
reserved root branch disjoint from the estimator's keys, so oracle and
estimator stay independent under one master seed: the children
(seed, (1, i)) of the branch root, one key batch per call.  The step loop
draws their noise 8 steps at a time: 8*d words of each key's stream are
exactly d hash blocks, and word k*d + c is step k's increment in coordinate
c, so an ensemble's memory grows with N*d, not with M.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .hier_rng import batch_normals, children, pack
from .models import Problem, _halves

__all__ = ["EnsembleStats", "ensemble_stats", "simulate_particles"]

_PARTICLE_BRANCH = 1  # root path coordinate reserved for particle noise
_CEILING = 4 * 10**9  # limit on max(N, 64)*N*M*d pairwise work
_ELEMENTS = 10**8  # limit on the doubles of a noise window, its draw and a pair buffer (800 MB)
_ROWS = 64  # row block of the pairwise drift sum
_WINDOW = 8  # steps per noise draw: 8*d words of a key's stream are d whole hash blocks


def _plan(N: int, M: int, d: int) -> int:
    """Threads, one pair buffer each, for N particles, M steps, dimension d:
    the least of the CPUs, the row blocks and the buffers that fit beside the
    noise.  ``ResourceLimitError`` refuses pairwise work past ``_CEILING``,
    each step counted as at least one full row block (a step of a few
    particles costs as much), or a noise window 8*N*d, the draw of the next
    (4 windows, by tracemalloc) and one buffer past ``_ELEMENTS``."""
    rows = max(N, _ROWS)
    if rows * N * M * d > _CEILING:
        raise ResourceLimitError(f"pairwise work {'N' if rows == N else rows}*N*M*d = "
                                 f"{rows * N * M * d} exceeds the ceiling {_CEILING}")
    window, buffer = _WINDOW * N * d, min(_ROWS, N) * N * d
    if 5 * window + buffer > _ELEMENTS:
        raise ResourceLimitError(
            f"particle arrays of {5 * window + buffer} elements (noise window {_WINDOW}*N*d = "
            f"{window}, its draw 4*{_WINDOW}*N*d = {4 * window}, one pair buffer "
            f"min({_ROWS}, N)*N*d = {buffer}) exceed the ceiling {_ELEMENTS}"
        )
    affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    return min(len(affinity(0)), -(-N // _ROWS), (_ELEMENTS - 5 * window) // buffer)


def _interaction_mean(halves: tuple, state: np.ndarray, pool, buffers: np.ndarray) -> np.ndarray:
    n, d = state.shape
    f, g, h = halves
    fx = f(state)
    gy = fx if g is f else g(state)
    sums = np.empty_like(state)
    starts, lock = iter(range(0, n, _ROWS)), threading.Lock()

    def rows(buffer: np.ndarray) -> None:
        # one task per pair buffer; each takes the next row block until none
        # is left, so a thread slowed by the machine takes fewer blocks
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            hi = min(lo + _ROWS, n)
            # broadcastable views: h sees every (i, j) pair, numpy just
            # avoids re-evaluating elementwise terms along degenerate axes
            pairs = h(fx[lo:hi, None, :], gy[None, :, :], out=buffer[: hi - lo])
            sums[lo:hi] = np.broadcast_to(pairs, (hi - lo, n, d)).sum(axis=1)

    list((pool.map if pool else map)(rows, buffers))
    return sums / n


def simulate_particles(problem: Problem, N: int, M: int, master_seed: int) -> np.ndarray:
    """N samples of X(T) from the M-step interacting Euler scheme; particle i
    is driven by the noise key (master_seed, (1, i)).  An ensemble that
    overflows (inf and nan stay non-finite) is refused once, at the end."""
    if N < 2:
        raise ValueError(f"need at least 2 particles, got {N}")
    if M < 1:
        raise ValueError(f"need at least 1 time step, got {M}")
    d = problem.dim
    threads = _plan(N, M, d)
    dt = problem.horizon / M
    keys = children(pack([(master_seed, (_PARTICLE_BRANCH,))]), [(i,) for i in range(N)])
    state = np.tile(problem.initial, (N, 1))
    # leaving the pool's block joins every thread, also when a drift raises.
    # numpy's error state is per thread, so each pool thread sets its own.
    halves = _halves(problem.drift.evaluate)
    buffers = np.empty((threads, min(_ROWS, N), N, d))
    quiet = {"over": "ignore", "invalid": "ignore"}
    pool = (ThreadPoolExecutor(threads, initializer=lambda: np.seterr(**quiet))
            if threads > 1 else nullcontext())
    with pool as pool, np.errstate(**quiet):
        for lo in range(0, M, _WINDOW):
            noise = batch_normals(keys, "dw", min(_WINDOW, M - lo) * d, dt, start=lo * d)
            for increment in noise.reshape(N, -1, d).transpose(1, 0, 2):
                state = state + dt * _interaction_mean(halves, state, pool, buffers) + increment
    if not np.isfinite(state).all():
        raise ConfigError(
            f"drift {problem.drift.name!r} drove the particle ensemble to a non-finite value"
        )
    return state


@dataclass(frozen=True)
class EnsembleStats:
    mean: np.ndarray
    variance: np.ndarray  # per coordinate, unbiased
    second_moment_root: float
    mean_se: np.ndarray
    second_moment_root_se: float


def ensemble_stats(samples: np.ndarray) -> EnsembleStats:
    """Unbiased mean/variance and the second-moment root with delta-method SE.

    Where a variance or squared norm of finite samples passes the double
    range, the standard errors and the second-moment root are computed from
    ``samples / s`` with ``s = max |x|`` and scaled back by ``s``, so they
    stay finite; the variance is then ``s * s`` times the scaled one, which
    may be inf."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = samples.mean(axis=0)
    scale = 1.0
    with np.errstate(over="ignore"):
        variance = samples.var(axis=0, ddof=1)
        sq_norm = np.einsum("ij,ij->i", samples, samples)
        squares_finite = np.isfinite(variance).all() and np.isfinite(sq_norm).all()
        if not squares_finite and np.isfinite(samples).all():
            scale = float(np.max(np.abs(samples)))
            scaled = samples / scale
            variance = scaled.var(axis=0, ddof=1)
            sq_norm = np.einsum("ij,ij->i", scaled, scaled)
        mean_se = scale * np.sqrt(variance / n)
        mean_sq = float(sq_norm.mean())
        se_sq = float(np.sqrt(sq_norm.var(ddof=1) / n))
        root = float(np.sqrt(mean_sq))
        root_se = se_sq / (2.0 * root) if root > 0.0 else 0.0
        return EnsembleStats(mean, variance * scale * scale, scale * root, mean_se,
                             scale * root_se)
