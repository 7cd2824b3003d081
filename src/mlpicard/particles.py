"""Interacting-particle Euler reference solution.

N particles start at xi and evolve by the Euler scheme

    X_i <- X_i + (dt/N) * sum_j mu(X_i, X_j) + dW_i,

with the empirical mean taken over all N particles including self.  The
pairwise drift sum is O(N**2) per step by design (oracle clarity over speed).
It runs in 64-row blocks, whose 64 x N x d pair array (1.5 MB at N = 3000,
d = 1) fits a 2 MB L2 cache, and each step splits the blocks into one stripe
per thread.  Row i's sum over j is the same numpy reduction in any block and
has one writer, so the bits depend on neither the block size nor the thread
count.  Particle noise keys live on a reserved root branch disjoint from the
estimator's keys, so oracle and estimator stay independent under one master
seed; the noise of each block of 128 particles is drawn as one key batch, the
children (seed, (1, i)) of the branch root.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError, ResourceLimitError
from .hier_rng import batch_normals, children, pack
from .models import Problem

__all__ = ["EnsembleStats", "ensemble_stats", "simulate_particles"]

_PARTICLE_BRANCH = 1  # root path coordinate reserved for particle noise
_CEILING = 4 * 10**9  # limit on N*N*M*d pairwise work
_ROWS = 64  # row block of the pairwise drift sum
_KEYS = 128  # particles per noise key batch


def _interaction_mean(problem: Problem, state: np.ndarray, pool=None, workers=1) -> np.ndarray:
    n, d = state.shape
    out = np.empty_like(state)

    def rows(starts: np.ndarray) -> None:
        for lo in starts:
            hi = min(lo + _ROWS, n)
            # broadcastable views: the drift sees every (i, j) pair, numpy just
            # avoids re-evaluating elementwise terms along degenerate axes
            pairs = problem.drift.evaluate(state[lo:hi, None, :], state[None, :, :])
            out[lo:hi] = np.broadcast_to(pairs, (hi - lo, n, d)).sum(axis=1)

    stripes = np.array_split(np.arange(0, n, _ROWS), workers)
    list((pool.map if pool else map)(rows, stripes))
    return out / n


def simulate_particles(problem: Problem, N: int, M: int, master_seed: int) -> np.ndarray:
    """N samples of X(T) from the M-step interacting Euler scheme; particle i
    is driven by the noise key (master_seed, (1, i)).  An ensemble that
    overflows (inf and nan stay non-finite) is refused once, at the end."""
    if N < 2:
        raise ValueError(f"need at least 2 particles, got {N}")
    if M < 1:
        raise ValueError(f"need at least 1 time step, got {M}")
    d = problem.dim
    if N * N * M * d > _CEILING:
        raise ResourceLimitError(
            f"pairwise work N*N*M*d = {N * N * M * d} exceeds the ceiling {_CEILING}"
        )
    dt = problem.horizon / M
    root = pack([(master_seed, (_PARTICLE_BRANCH,))])
    increments = np.empty((N, M, d))
    for lo in range(0, N, _KEYS):
        keys = children(root, [(i,) for i in range(lo, min(lo + _KEYS, N))])
        increments[lo : lo + _KEYS] = batch_normals(keys, "dw", M * d, dt).reshape(-1, M, d)
    state = np.tile(problem.initial, (N, 1))
    # a thread per CPU this process may run on, at most one per row block;
    # leaving the block joins every thread, also when a drift raises.  numpy's
    # error state is per thread, so each pool thread sets its own.
    affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    workers = min(len(affinity(0)), -(-N // _ROWS))
    quiet = {"over": "ignore", "invalid": "ignore"}
    pool = (ThreadPoolExecutor(workers, initializer=lambda: np.seterr(**quiet))
            if workers > 1 else nullcontext())
    with pool as pool, np.errstate(**quiet):
        for step in range(M):
            mean = _interaction_mean(problem, state, pool, workers)
            state = state + dt * mean + increments[:, step, :]
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
    """Unbiased mean/variance and the second-moment root with delta-method SE."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = samples.mean(axis=0)
    variance = samples.var(axis=0, ddof=1)
    mean_se = np.sqrt(variance / n)
    sq_norm = np.einsum("ij,ij->i", samples, samples)
    mean_sq = float(sq_norm.mean())
    se_sq = float(np.sqrt(sq_norm.var(ddof=1) / n))
    root = float(np.sqrt(mean_sq))
    root_se = se_sq / (2.0 * root) if root > 0.0 else 0.0
    return EnsembleStats(mean, variance, root, mean_se, root_se)
