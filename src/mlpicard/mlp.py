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
key it belongs to.  Per term level l, one ``children`` call makes the sub
keys (j, k, l) of every node j > l and key of the batch as one sub-batch,
and one ``batch_uniforms`` call draws their uniforms, so a call whose top is
L makes L-1 of each.  The times are then gathered top-down, j = top..1:
term (j, l) reads node j's columns of the level-l uniforms and appends
s = u*t to the same-key nodes (theta, l) and (theta, l-1) and to its sub
keys.  Sub-batch l's fresh paths are generated together at level l right
before one recursive call evaluates the X_eta nodes l and l-1 at all their
times, and are dropped when it returns.  A sub key's path, and those of its
same-key nodes below, is read only at times up to its largest s, so it is
generated only up to the last grid step such a read can touch.  A call whose
top is L makes L-1 sub-calls, and a realization 2**(n-1) calls, whatever m
is.  Each node is then evaluated once, bottom-up, over the rows of all keys.

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
every value is bit-identical to evaluating one key at one time; a drift
whose result does not have the broadcast shape of its inputs would mix the
rows of sibling keys and is refused with ValueError.  The lower half of
every level-1 term is the drift's cached mu(0, 0), ``value_at_origin``.

Instrumentation: this module alone creates, charges and reads cost ledgers;
path generation charges nothing.  ``_realize_batch`` charges m**n * d draws
per root for the top-level path, each node with n >= 1 charges, per query
time, one drift evaluation for its cached mu(0, 0) read, and each (l, k)
term charges, per query time, one uniform draw, m**l * d draws for the
fresh path, and two drift evaluations.  These are logical charges: they
count what the scalar recursion would draw and evaluate, not the hashes
actually computed, so the tallies do not depend on how the evaluation is
batched.  They are dominated by the budget recursion (which re-charges
path generation for same-index sub-calls) and are bounded below by the
m**n * d draws of the top path alone.  The digests actually hashed are far
fewer: each distinct key draws its uniform once and its path once, and only
up to the last step read, so one k = n = m = 5, d = 1 realization charges
156505 draws but hashes about 6745 uniform and 14.9k path-step digests
(58150 for whole paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .brownian import PathBatch, generate_batch
from .errors import NonFiniteDriftError
from .hier_rng import batch_uniforms, children, derive_seed, pack
from .ledger import CostLedger
from .models import DriftModel, Problem

__all__ = ["RealizeResult", "realize_estimate", "rep_seed"]

_ESTIMATOR_BRANCH = 0  # root path coordinate reserved for the estimator's keys


def _joined(chunks: list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated (times, owners) of a node's or a sub-batch's chunks."""
    if len(chunks) == 1:
        return chunks[0]
    times, owners = zip(*chunks)
    return np.concatenate(times), np.concatenate(owners)


def _drift(drift: DriftModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mu(x, y), refused unless it is finite and has the broadcast shape of
    its inputs.

    A drift that reduces or indexes over a leading axis would mix the rows of
    sibling keys evaluated together; changing the shape is how most do it.
    A non-finite value would turn the estimate into inf or nan.
    """
    out = drift.evaluate(x, y)
    want = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
    if np.shape(out) != want:
        raise ValueError(
            f"drift {drift.name!r} returned shape {np.shape(out)} for inputs of "
            f"broadcast shape {want}; a drift must act on each (..., d) row alone"
        )
    if not np.isfinite(out).all():
        raise NonFiniteDriftError(
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
    # Chunks of (times, owners) asked of each node, and its rows so far.
    asked: list[list] = [[] for _ in range(top + 1)]
    rows = [0] * (top + 1)
    for j in levels:
        asked[j].append((times, owner))
        rows[j] = len(times)
    # Per term level l: the sub keys (j, k, l) of every key, j = top..l+1 and
    # k = 1..m**(j-l), key-major, as one key batch; their uniforms, one row
    # of columns per key, node j's columns right after node j+1's; the next
    # node's first column; and the chunks of (times, owners) they are asked
    # at.
    subs: list = [None] * top
    uniforms: list = [None] * top
    cols = [0] * top
    sub_asked: list = [[] for _ in range(top)]
    sub_rows = [0] * top
    for level in range(1, top):
        extensions = [(j, k, level) for j in range(top, level, -1)
                      for k in range(1, m ** (j - level) + 1)]
        subs[level] = children(paths.keys, extensions)
        uniforms[level] = batch_uniforms(subs[level], "u", 1).reshape(-1, len(extensions))

    # Top-down: gather every node's times.  A node keeps its terms as (l,
    # fan, row of its s in node l, in node l-1, in sub-batch l); the s of a
    # term are laid out k-major, so row k*size + i holds s = u_k * t_i.
    nodes: list = [None] * (top + 1)
    for j in range(top, 0, -1):
        t, o = _joined(asked[j])
        asked[j] = None
        size = len(t)
        terms = []
        for level in range(1, j):
            fan = m ** (j - level)
            width = uniforms[level].shape[1]
            first = cols[level]  # sub key (g, k) sits at g*width + first + k
            cols[level] += fan
            s = (uniforms[level][o, first : first + fan].T * t).ravel()
            same = np.broadcast_to(o, (fan, size)).ravel()  # owners in nodes l, l-1
            sub_owner = (np.arange(fan)[:, None] + (o * width + first)).ravel()
            terms.append((level, fan, rows[level], rows[level - 1], sub_rows[level]))
            sub_asked[level].append((s, sub_owner))
            sub_rows[level] += len(s)
            asked[level].append((s, same))
            rows[level] += len(s)
            if level >= 2:
                asked[level - 1].append((s, same))
                rows[level - 1] += len(s)
            # Per query time and term: one uniform, the fresh path and two
            # drift evaluations.
            ledger.add_draws(size * fan * (1 + m**level * d))
            ledger.add_evals(size * fan * 2)
        ledger.add_evals(size)  # per query time: the cached mu(0,0) read
        nodes[j] = (t, o, terms)

    # Bottom-up: each node once over all its times.  Sub-batch l is evaluated
    # when node l+1 first needs it; its fresh paths, one per sub key,
    # generated at the finer level l and shared by the level-l and
    # level-(l-1) copies, live only during that call.
    drift = problem.drift
    values: list = [None] * (top + 1)
    sub_values: list = [None] * top
    for j in range(1, top + 1):
        if j >= 2:
            level = j - 1
            s, o = _joined(sub_asked[level])
            # each sub key's path is read at its s and at the u*s below them
            until = np.zeros(uniforms[level].size)
            np.maximum.at(until, o, s)
            fresh = generate_batch(subs[level], until, level, m, problem.horizon, d)
            subs[level] = sub_asked[level] = None
            sub_levels = (level, level - 1) if level >= 2 else (level,)
            sub_values[level] = _evaluate(problem, fresh, m, sub_levels, s, o, ledger)
            del fresh, s
        t, o, terms = nodes[j]
        nodes[j] = None
        size = len(t)
        value = problem.initial + paths.value_at(t, o, j) + t[:, None] * drift.value_at_origin
        if terms:
            parts = [value[None]]
            for level, fan, at_hi, at_lo, at_sub in terms:
                end = fan * size
                y = sub_values[level]
                hi = _drift(drift, values[level][at_hi : at_hi + end], y[0][at_sub : at_sub + end])
                if level >= 2:
                    lo = _drift(drift, values[level - 1][at_lo : at_lo + end],
                                y[1][at_sub : at_sub + end])
                else:
                    # Level-0 estimator is identically zero: no query, no charge.
                    lo = drift.value_at_origin
                parts.append((t[:, None] / fan) * (hi - lo).reshape(fan, size, d))
            # Sequential sums along the term axis: value + term (1, 1) + ...,
            # in (l, k) order, as with one += per term.
            sums = np.concatenate(parts)
            np.add.accumulate(sums, axis=0, out=sums)
            value = sums[-1].copy()
        values[j] = value
    # The requested times come first in each node's rows; a copy releases
    # the rest.
    size = len(times)
    return [values[j] if len(values[j]) == size else values[j][:size].copy() for j in levels]


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
    ledger.add_draws(count * m**n * problem.dim)
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

