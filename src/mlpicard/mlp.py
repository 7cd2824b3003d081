"""Full-history recursive multilevel Picard estimator.

The estimator X[n, m] at hierarchical index theta is defined by structural
recursion over the Picard level n:

    X[0, m](t) = 0
    X[n, m](t) = xi + W_theta(snap(t, level n)) + t*mu(0, 0)
               + sum over levels l = 1..n-1 and samples k = 1..m**(n-l) of
                 (t / m**(n-l)) * [ mu(X_theta[l](s), X_eta[l](s))
                                  - mu(X_theta[l-1](s), X_eta[l-1](s)) ]

where eta = theta extended by (n, k, l), s = u*t with u the uniform draw
addressed by eta, X_theta[...] re-uses the caller's Brownian path, and both
X_eta[...] evaluations share one fresh path generated at level l.  Both drift
arguments are evaluated at the same random time s; sub-calls always strictly
decrease the Picard level, so every path query happens at a level at or below
the path's creation level.

Randomness is addressed, not stored: re-evaluating the same (theta, l)
process at a different time re-draws the identical underlying uniforms and
increments through :mod:`mlpicard.hier_rng`, which is what makes the
recursion a well-defined random function.

Batched evaluation: the random inputs of a term, its sub-index eta,
uniform u and fresh path, depend on (theta, n, k, l) but not on the query
time t; only s = u*t does.  The nodes (theta, j) of one index theta form a
key group, and one evaluator call serves a batch of key groups whose tops
share a level: their keys, as one key batch of :mod:`mlpicard.hier_rng`
(whose layout only that module reads), their paths stacked along a leading
batch axis, and one flat vector of query times, each with the index of the
key it belongs to.  The unit of work is the term level l: the terms
(j, k, l) of every node j > l and key.  It makes its sub keys in one
``children`` call and draws their uniforms in one ``batch_uniforms`` call.
Node j's rows are three contiguous blocks: the requested times, term level
j's s (node j the upper half) and term level j+1's s (the lower half).  A
top-down pass only gathers them, node j appending its s = u*t to each level
below it.  A bottom-up pass evaluates node j once, then term level j: its
fresh paths, generated together at level j, live during one recursive call
for the X_eta nodes j and j-1 at all its rows, and one drift pass per half
differences all of them (level 1's lower half is the cached mu(0, 0)).  A
sub key's path, and those of its same-key nodes below, is read only at
times up to its largest s, so it is generated only up to the last grid step
such a read can touch.  A call whose top is L makes L-1 sub-calls, and a
realization 2**(n-1) calls, whatever m is.

A batch may hold many roots: ``_realize_batch`` evaluates the root keys
(seed, (_ESTIMATOR_BRANCH,)) of many master seeds in one call, each at
t = T, and ``realize_estimate`` is its batch of one.  Rows never mix and every key is
hashed under its own seed, so each root's value is bit-identical to its
realization alone, and the roots' trees share one shape, so the batch's
charge is the number of roots times one realization's tally, which it
returns.

Per (key, time) the arithmetic is that of the scalar recursion:
xi + W(snap) + t*mu(0, 0), then (t / fan) * (mu(x_hi, y_hi) - mu(x_lo,
y_lo)) added term by term in (l, k) order, by a cumulative sum along the
term axis, which adds sequentially.  A drift acts on each row alone, so
every value is bit-identical to evaluating one key at one time, whatever
the order of a node's rows; a drift whose result does not have the shape of
its inputs would mix the rows of sibling keys and is refused with
ValueError.  The lower half of every level-1 term is the drift's cached
mu(0, 0), ``value_at_origin``.

Instrumentation: a :class:`CostLedger` tallies scalar random draws and
drift evaluations as plain non-decreasing integers; this module alone
creates, charges and reads one, and path generation charges nothing.  The
binary cost switches v and f of the budget recursion in
:mod:`mlpicard.recursions` select its components: a budget with v = 1, f = 0
bounds the draws, one with v = 0, f = 1 the evaluations.  ``_realize_batch``
charges m**n * d draws per root for the top-level path, each node with
n >= 1 charges, per query time, one drift evaluation for its cached mu(0, 0)
read, and each term level l charges once, per row, one uniform draw,
m**l * d draws for the fresh path, and two drift evaluations.  These are
logical charges: they count what the scalar recursion would draw and
evaluate, not the hashes actually computed, so the tallies do not depend on
how the evaluation is batched.  They are dominated by the budget recursion
(which re-charges path generation for same-index sub-calls) and are bounded
below by the m**n * d draws of the top path alone.  The digests actually
hashed are far fewer: each distinct key draws its uniform once and its path
once, and only up to the last step read, so one k = n = m = 5, d = 1
realization charges 156505 draws but hashes about 6745 uniform and 14.9k
path-step digests (58150 for whole paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .brownian import PathBatch, generate_batch
from .errors import ConfigError
from .hier_rng import batch_uniforms, children, derive_seed, pack
from .models import DriftModel, Problem

__all__ = ["CostLedger", "RealizeResult", "realize_estimate", "rep_seed"]

_ESTIMATOR_BRANCH = 0  # root path coordinate reserved for the estimator's keys


@dataclass
class CostLedger:
    scalar_draws: int = 0
    drift_evals: int = 0

    def snapshot(self) -> tuple[int, int]:
        """(scalar draws, drift evaluations) at this point."""
        return self.scalar_draws, self.drift_evals


def _drift(drift: DriftModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mu(x, y) over rows of one shape, refused unless it is finite and has
    that shape.

    A drift that reduces or indexes over a leading axis would mix the rows of
    sibling keys evaluated together; changing the shape is how most do it.
    A non-finite value would turn the estimate into inf or nan.
    """
    out = drift.evaluate(x, y)
    if np.shape(out) != x.shape:
        raise ValueError(
            f"drift {drift.name!r} returned shape {np.shape(out)} for inputs of "
            f"shape {x.shape}; a drift must act on each (..., d) row alone"
        )
    if not np.isfinite(out).all():
        raise ConfigError(
            f"drift {drift.name!r} returned a non-finite value mid-recursion"
        )
    return out


def _evaluate(
    problem: Problem,
    paths: PathBatch,
    m: int,
    levels: tuple[int, ...],
    times: np.ndarray,
    owner: np.ndarray,
    ledger: CostLedger,
) -> list[np.ndarray]:
    """Values of the nodes (key, j) for j in ``levels``, over a batch of keys.

    The keys are the key batch ``paths.keys``; query i asks for its key
    ``owner[i]`` at time ``times[i]``.  ``levels`` lists distinct levels >= 1,
    highest first; the highest is the top of every key group and must not
    exceed the creation level of ``paths``.  Each returned array has shape
    (len(times), d), row i answering query i.
    """
    d = problem.dim
    top = levels[0]
    # Per term level l: the sub keys (j, k, l) of every key, j = top..l+1 and
    # k = 1..m**(j-l), key-major, as one key batch; their uniforms, one row
    # of columns per key, node j's columns right after node j+1's; the next
    # node's first column and row; and the (s, owners in nodes l and l-1,
    # owners in the sub keys) chunks of its nodes, joined once complete.
    subs, uniforms, cols, filled = [None] * top, [None] * top, [0] * top, [0] * top
    chunks: list = [[] for _ in range(top)]
    for level in range(1, top):
        extensions = [(j, k, level) for j in range(top, level, -1)
                      for k in range(1, m ** (j - level) + 1)]
        subs[level] = children(paths.keys, extensions)
        uniforms[level] = batch_uniforms(subs[level], "u", 1).reshape(-1, len(extensions))

    # Top-down: node j's rows are the requested times, if j is requested,
    # term level j's s (node j the upper half) and term level j+1's s (the
    # lower half).  Level j is complete once nodes top..j+1 are gathered, and
    # charged per row one uniform, the fresh path and two drift evaluations.
    # Node j then adds a term (l, fan, first row in level l) to each level
    # l < j, k-major: row k*size + i holds s = u_k * t_i.
    nodes: list = []  # top-down, so the bottom-up pass pops node 1 first
    for j in range(top, 0, -1):
        if j < top:
            chunks[j] = [np.concatenate(c) for c in zip(*chunks[j])]
            ledger.scalar_draws += filled[j] * (1 + m**j * d)
            ledger.drift_evals += filled[j] * 2
        blocks = [(times, owner)] if j in levels else []
        blocks += [chunks[level][:2] for level in (j, j + 1) if level < top]
        t, o = (np.concatenate(block) for block in zip(*blocks))
        size = len(t)
        terms = []
        for level in range(1, j):
            fan = m ** (j - level)
            width = uniforms[level].shape[1]
            first = cols[level]  # sub key (g, k) sits at g*width + first + k
            cols[level] += fan
            chunks[level].append((
                (uniforms[level][o, first : first + fan].T * t).ravel(),
                np.broadcast_to(o, (fan, size)).ravel(),
                (np.arange(fan)[:, None] + (o * width + first)).ravel(),
            ))
            terms.append((level, fan, filled[level]))
            filled[level] += fan * size
        ledger.drift_evals += size  # per query time: the cached mu(0,0) read
        nodes.append((t, o, terms))

    # Bottom-up: node j once over all its rows, then term level j: its fresh
    # paths, one per sub key, generated at the finer level j, live only
    # during one sub-call for the sub-nodes j and j-1; one drift pass per
    # half then differences all its rows.
    drift = problem.drift
    values: list = [None] * (top + 1)
    diffs: list = [None] * top
    for j in range(1, top + 1):
        t, o, terms = nodes.pop()
        size = len(t)
        value = problem.initial + paths.value_at(t, o, j) + t[:, None] * drift.value_at_origin
        if terms:
            # Sequential sums along the term axis: value + term (1, 1) + ...,
            # in (l, k) order, as with one += per term.
            sums = np.concatenate([value[None]] + [
                (t[:, None] / fan) * diffs[level][at : at + fan * size].reshape(fan, size, d)
                for level, fan, at in terms])
            np.add.accumulate(sums, axis=0, out=sums)
            value = sums[-1].copy()
            del sums  # the terms, before the next sub-call
        values[j] = value
        if j < top:
            s, _, o = chunks[j]
            chunks[j] = None
            # each sub key's path is read at its s and at the u*s below them
            until = np.zeros(uniforms[j].size)
            np.maximum.at(until, o, s)
            fresh = generate_batch(subs[j], until, j, m, problem.horizon, d)
            sub_values = _evaluate(problem, fresh, m, (j, j - 1) if j >= 2 else (j,), s, o,
                                   ledger)
            subs[j] = fresh = None
            upper = len(times) if j in levels else 0
            hi = _drift(drift, values[j][upper : upper + len(s)], sub_values[0])
            # the level-0 estimator is identically zero: no query, no charge
            lo = (_drift(drift, values[j - 1][len(values[j - 1]) - len(s) :], sub_values[1])
                  if j >= 2 else drift.value_at_origin)
            diffs[j] = hi - lo
            del sub_values, hi, lo
        # Term levels j-1 and j have read node j-1's two halves (node top-1
        # has no lower half, node top only requested rows): a copy of its
        # requested rows, which come first, frees the rest, and a node not
        # requested is freed whole.
        values[j - 1] = values[j - 1][: len(times)].copy() if j - 1 in levels else None
    return [values[j] for j in levels]


@dataclass(frozen=True)
class RealizeResult:
    value: np.ndarray  # estimator value at the horizon
    ledger: CostLedger
    w0_terminal: np.ndarray  # W0(T), for coupled-oracle error computation


def _realize_batch(
    problem: Problem, n: int, m: int, master_seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Realizations of the root estimator at t = T, one per master seed,
    evaluated as one batch of root keys.

    Returns (values, W0(T), tally): values and W0(T) of shape
    (len(master_seeds), d), row r bit-identical to the realization under
    ``master_seeds[r]`` alone, and the (draws, evaluations) of one
    realization.  Charges are per query time and every root's tree has the
    same shape, so the batch's charge is exactly len(master_seeds) times
    that tally.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    roots = pack([(seed, (_ESTIMATOR_BRANCH,)) for seed in master_seeds])
    count = len(master_seeds)
    ledger = CostLedger()
    paths = generate_batch(roots, np.full(count, problem.horizon), n, m, problem.horizon,
                           problem.dim)
    ledger.scalar_draws += count * m**n * problem.dim
    with np.errstate(over="ignore", invalid="ignore"):  # _drift refuses overflows
        (values,) = _evaluate(problem, paths, m, (n,), np.full(count, problem.horizon),
                              np.arange(count), ledger)
    draws, evals = ledger.snapshot()
    assert draws % count == 0 and evals % count == 0, (draws, evals, count)
    return values, paths.values[:, -1], (draws // count, evals // count)


def realize_estimate(problem: Problem, n: int, m: int, master_seed: int) -> RealizeResult:
    """Compute one realization of the root estimator at t = T: the batch of
    one seed, with its own ledger.

    Deterministic in (problem, n, m, master_seed).
    """
    values, w0, tally = _realize_batch(problem, n, m, (master_seed,))
    return RealizeResult(value=values[0], ledger=CostLedger(*tally), w0_terminal=w0[0].copy())


def rep_seed(master_seed: int, rep: int) -> int:
    """Master seed of repetition ``rep``, independent across repetitions."""
    return derive_seed(master_seed, "rep", rep)

