"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of each layer module *as the calling
modules reference them*: ``mlpicard.mlp.generate`` is wrapped, but the name
``generate`` inside ``mlpicard.brownian`` is not.  Calls a layer makes into
itself therefore stay unwrapped, and a call that enters a layer already on
top of the span stack is not counted again, so each call is counted once, at
its outermost boundary within a layer.  The drift is wrapped through a
``DriftModel`` built with the public constructor.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over its
spans.  Counting work (words drawn, paths seen) happens after a span closes,
so its cost lands in the calling layer's self time.

trace.overhead_s estimates what tracing added to a unit's wall time: the
number of spans times the bookkeeping cost of one span, timed on a wrapped
no-op by ``calibrate``, plus the measured time of the counting hooks.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("hier_rng", "brownian", "mlp", "models", "particles", "recursions", "harness")
# Modules whose references to other layers' functions get wrapped.
CALLERS = ("brownian", "mlp", "models", "particles", "recursions", "harness", "cli")
# hier_rng functions that hash; key construction (child, IndexKey) is charged
# to the caller.
HASHING = {"uniform", "uniforms", "normals", "gaussian_vector", "derive_seed"}
WORDS_PER_BLOCK = 8  # one 64-byte BLAKE2b digest
MAX_LEVEL = 5


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _word_count(name: str, args: tuple, kwargs: dict) -> int:
    if name in ("uniform", "derive_seed"):
        return 1
    return int(_arg(args, kwargs, 2, "dim" if name == "gaussian_vector" else "count"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: list[tuple[int, str]] = []
        self._hook_s = [0.0]  # seconds spent in the counting hooks
        self.span_cost = 0.0  # seconds of bookkeeping per span, see calibrate()
        self.counts: dict[str, float] = defaultdict(float)
        self.paths: set = set()
        self._unit_first = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, after=None):
        """``fn`` recording one span per outermost call; ``after(args,
        kwargs, result)`` adds the call's work counts."""
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of_name.append(LAYERS.index(layer))
        stack, start, end, name_id, parent, hook_s = (
            self._stack, self.start, self.end, self.name_id, self.parent, self._hook_s)

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1][0] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            stack.append((idx, layer))
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                mark = perf_counter()
                after(args, kwargs, result)
                hook_s[0] += perf_counter() - mark
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, layer: str, name: str):
        counts = self.counts
        if layer == "hier_rng":
            def after(args, kwargs, result):
                words = _word_count(name, args, kwargs)
                counts["hier_rng.calls"] += 1
                counts["hier_rng.words"] += words
                counts["hier_rng.hash_blocks"] += -(-words // WORDS_PER_BLOCK)
            return after
        if (layer, name) == ("brownian", "generate"):
            paths = self.paths

            def after(args, kwargs, result):
                key = _arg(args, kwargs, 0, "key")
                level = _arg(args, kwargs, 1, "level")
                branching = _arg(args, kwargs, 2, "branching")
                counts["brownian.generate_calls"] += 1
                counts[f"brownian.generate_calls.l{level}"] += 1
                counts["brownian.steps"] += branching**level
                paths.add((key.seed, key.path, level))
            return after
        if (layer, name) == ("mlp", "realize_estimate"):
            cost_budget = importlib.import_module("mlpicard.recursions").cost_budget

            def after(args, kwargs, result):
                problem = _arg(args, kwargs, 0, "problem")
                n, m = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "m")
                draws, evals = result.ledger.snapshot()
                counts["mlp.realize_calls"] += 1
                counts["mlp.ledger_draws"] += draws
                counts["mlp.ledger_evals"] += evals
                counts["mlp.draws_budget"] += cost_budget(n, m, problem.dim, 1, 0)
                counts["mlp.evals_budget"] += cost_budget(n, m, problem.dim, 0, 1)
            return after
        if (layer, name) == ("particles", "simulate_particles"):
            def after(args, kwargs, result):
                n, steps = _arg(args, kwargs, 1, "N"), _arg(args, kwargs, 2, "M")
                counts["particles.particle_steps"] += n * steps
                counts["particles.pair_evals"] += n * n * steps
            return after
        if layer == "recursions":
            def after(args, kwargs, result):
                counts["recursions.calls"] += 1
            return after
        return None

    def traced_drift(self, drift):
        """A DriftModel identical to ``drift`` whose evaluations are spans."""
        counts = self.counts

        def after(args, kwargs, result):
            counts["models.drift_calls"] += 1
            shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
            counts["models.drift_pairs"] += math.prod(shape[:-1])

        evaluate = self.wrap("models", "drift.evaluate", drift.evaluate, after)
        models = importlib.import_module("mlpicard.models")
        return models.DriftModel(drift.name, evaluate, drift.lipschitz_L, drift.value_at_origin)

    def traced_problem(self, problem):
        return dataclasses.replace(problem, drift=self.traced_drift(problem.drift))

    def install(self, api) -> None:
        """Wrap every layer's public functions in the caller modules, and the
        functions the benchmark calls through ``api``."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mlpicard.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if layer == "hier_rng" and name not in HASHING:
                    continue
                traced = self.wrap(layer, name, fn, self._after(layer, name))
                if (layer, name) == ("models", "builtin_problem"):
                    traced = self._problem_wrapper(traced)
                wrapped[id(fn)] = traced
        for caller in CALLERS:
            module = importlib.import_module(f"mlpicard.{caller}")
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and value.__module__ != module.__name__:
                    setattr(module, attr, wrapped[id(value)])
        # cost_budget stays unwrapped: the benchmark's own budget checks are
        # not work of the program.
        for attr, value in list(vars(api).items()):
            if id(value) in wrapped and attr != "cost_budget":
                setattr(api, attr, wrapped[id(value)])

    def _problem_wrapper(self, build):
        def builtin_problem(*args, **kwargs):
            return self.traced_problem(build(*args, **kwargs))
        return builtin_problem

    def calibrate(self) -> None:
        """Set ``span_cost`` from a wrapped no-op timed against the bare one,
        as the median of five rounds of 20000 calls."""
        def noop():
            return None

        traced = Tracer().wrap("hier_rng", "noop", noop, lambda args, kwargs, result: None)
        calls = 20000
        costs = []
        for _ in range(5):
            mark = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - mark
            mark = perf_counter()
            for _ in range(calls):
                traced()
            costs.append((perf_counter() - mark - bare) / calls)
        self.span_cost = max(0.0, statistics.median(costs))

    # -- per-unit metrics ---------------------------------------------------

    def begin_unit(self) -> None:
        self.counts.clear()
        self.paths.clear()
        self._hook_s[0] = 0.0
        self._unit_first = len(self.start)

    def end_unit(self) -> dict[str, float]:
        first, last = self._unit_first, len(self.start)
        start = np.frombuffer(self.start, dtype=float)[first:last]
        end = np.frombuffer(self.end, dtype=float)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested] - first, weights=duration[nested],
                               minlength=len(duration))
        layer = np.asarray(self.layer_of_name, dtype=np.int64)[name_id]
        self_time = np.bincount(layer, weights=duration - children, minlength=len(LAYERS))

        c = self.counts
        out = {f"{name}.self_s": float(self_time[i]) for i, name in enumerate(LAYERS)}
        for key in ("hier_rng.calls", "hier_rng.words", "hier_rng.hash_blocks",
                    "brownian.generate_calls", "brownian.steps", "mlp.realize_calls",
                    "mlp.ledger_draws", "mlp.ledger_evals", "models.drift_calls",
                    "models.drift_pairs", "particles.particle_steps", "particles.pair_evals",
                    "recursions.calls"):
            out[key] = c[key]
        for level in range(1, MAX_LEVEL + 1):
            out[f"brownian.generate_calls.l{level}"] = c[f"brownian.generate_calls.l{level}"]
        out["brownian.distinct_paths"] = len(self.paths)
        out["brownian.unique_ratio"] = _ratio(len(self.paths), c["brownian.generate_calls"])
        out["hier_rng.words_per_s"] = _ratio(c["hier_rng.words"], out["hier_rng.self_s"])
        out["mlp.draws_budget_ratio"] = _ratio(c["mlp.ledger_draws"], c["mlp.draws_budget"])
        out["mlp.evals_budget_ratio"] = _ratio(c["mlp.ledger_evals"], c["mlp.evals_budget"])
        out["trace.overhead_s"] = (last - first) * self.span_cost + self._hook_s[0]
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
