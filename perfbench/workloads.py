"""The three benchmark workloads: their inputs, one timed unit each, and the
outputs that are compared against the goldens.

A *unit* is one workload run: two ``realize_estimate`` calls for
``mlp-deep``, one ``mlpicard convergence`` run for ``convergence-wide`` and
one ``mlpicard verify-bounds`` run for ``particles-dense``.  Each workload
owns a pool of ``POOL`` fixed inputs whose outputs are stored in
``goldens.json``; the ``--seed`` of a benchmark run only chooses the order in
which the pool is visited, so every timed unit can be checked bit for bit.

Every call into the program goes through ``self.api``, a plain namespace of
the public functions used, so the tracer can substitute wrapped versions
without touching the program's own modules for the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

POOL = 16  # fixed inputs per workload; goldens.json holds one output set each


@dataclass
class UnitResult:
    wall: float  # seconds for the whole unit
    items: int  # work items completed (realizations or particle steps)
    items_wall: float  # seconds the work items took
    observed: dict  # outputs compared key by key against the unit's golden
    ledger: dict = field(default_factory=dict)  # "n,m,d" -> [draws, evals]
    invariants: list = field(default_factory=list)  # (description, ok) needing no golden
    csv_bytes: int = 0


def public_api(mlpicard) -> SimpleNamespace:
    """The program's public functions that the benchmark calls directly."""
    import mlpicard.cli
    import mlpicard.recursions

    return SimpleNamespace(
        builtin_problem=mlpicard.models.builtin_problem,
        realize_estimate=mlpicard.mlp.realize_estimate,
        pathwise_value=mlpicard.models.pathwise_value,
        cost_budget=mlpicard.recursions.cost_budget,
        cli_main=mlpicard.cli.main,
    )


def visit_order(seed: int) -> list[int]:
    """Pool entries in the order a run with this seed visits them."""
    return random.Random(seed).sample(range(POOL), POOL)


def mask_wall_columns(text: str) -> str:
    """CSV text with every column whose header ends in ``_s`` replaced by 'X'.

    Same rule as ``tests/helpers.csv_without_wall``; kept here so the
    benchmark does not depend on the test tree.
    """
    out = []
    wall_idx = None
    for line in text.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        if wall_idx is None:
            wall_idx = [i for i, name in enumerate(cells) if name.endswith("_s")]
        else:
            for i in wall_idx:
                cells[i] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


def csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class MlpDeep:
    """Two k = n = m = 5 realizations of law_only_linear (b = -1, d = 1), in process."""

    name = "mlp-deep"
    n = m = 5
    per_unit = 2

    def __init__(self, api, out_dir: Path) -> None:
        self.api = api
        self.problem = api.builtin_problem("law_only_linear", d=1, T=1.0, xi=1.0, b=-1.0)

    def traced_config(self) -> "MlpDeep":
        return self

    def seeds(self, entry: int) -> list[int]:
        return [1000 + self.per_unit * entry + j for j in range(self.per_unit)]

    def run_unit(self, entry: int) -> UnitResult:
        api, problem, n, m = self.api, self.problem, self.n, self.m
        started = time.perf_counter()
        results = [api.realize_estimate(problem, n, m, s) for s in self.seeds(entry)]
        exact = [api.pathwise_value(problem, problem.horizon, r.w0_terminal) for r in results]
        wall = time.perf_counter() - started

        squared = [float((r.value - x) @ (r.value - x)) for r, x in zip(results, exact)]
        rmse = math.sqrt(math.fsum(squared) / len(squared))
        budget = (api.cost_budget(n, m, problem.dim, 1, 0), api.cost_budget(n, m, problem.dim, 0, 1))
        tallies = [r.ledger.snapshot() for r in results]
        invariants = [
            (f"ledger {t} within budget {budget}", t[0] <= budget[0] and t[1] <= budget[1])
            for t in tallies
        ]
        invariants += [(f"ledger {t} equals the first realization's {tallies[0]}", t == tallies[0])
                       for t in tallies[1:]]
        observed = {
            "values": [[float(v).hex() for v in r.value] for r in results],
            "w0_terminal": [[float(v).hex() for v in r.w0_terminal] for r in results],
            "rmse": rmse.hex(),
        }
        return UnitResult(
            wall=wall,
            items=len(results),
            items_wall=wall,
            observed=observed,
            ledger={f"{n},{m},{problem.dim}": list(tallies[0])},
            invariants=invariants,
        )


class HarnessWorkload:
    """One ``mlpicard <mode>`` run through the command-line entry point."""

    name = ""
    mode = ""
    config: dict = {}  # --set key=value pairs
    jobs = 1

    def __init__(self, api, out_dir: Path) -> None:
        self.api = api
        self.out = out_dir / f"{self.name}.csv"

    def traced_config(self):
        """The same workload with every repetition in this process (jobs=1),
        so that a traced run sees every span."""
        clone = type(self)(self.api, self.out.parent)
        clone.jobs = 1
        return clone

    def argv(self, entry: int) -> list[str]:
        argv = [self.mode, "--seed", str(100 + entry), "--jobs", str(self.jobs), "--out", str(self.out)]
        for key, value in self.config.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def run_unit(self, entry: int) -> UnitResult:
        argv = self.argv(entry)
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.api.cli_main(argv)
        wall = time.perf_counter() - started

        raw = self.out.read_bytes()
        text = raw.decode()
        rows = csv_rows(text)
        observed = {
            "exit_code": code,
            "csv_sha256": hashlib.sha256(mask_wall_columns(text).encode()).hexdigest(),
        }
        invariants = [(f"{self.mode} row {i} status={row['status']}", row["status"] == "ok")
                      for i, row in enumerate(rows)]
        result = UnitResult(wall, 0, wall, observed, invariants=invariants, csv_bytes=len(raw))
        self.finish(rows, result)
        return result

    def finish(self, rows: list[dict], result: UnitResult) -> None:
        raise NotImplementedError


class ConvergenceWide(HarnessWorkload):
    """law_only_linear at d = 4, k = 1..4, through the two-process pool."""

    name = "convergence-wide"
    mode = "convergence"
    config = {"problem": "law_only_linear", "b": -1.0, "d": 4, "T": 1.0, "xi": 1.0,
              "k_min": 1, "k_max": 4, "reps": 64}
    jobs = 2

    def finish(self, rows: list[dict], result: UnitResult) -> None:
        d = self.config["d"]
        result.items = self.config["reps"] * len(rows)
        for row in rows:
            n, m = int(row["n"]), int(row["m"])
            draws, evals = int(row["draws"]), int(row["evals"])
            result.ledger[f"{n},{m},{d}"] = [draws, evals]
            budget = (self.api.cost_budget(n, m, d, 1, 0), self.api.cost_budget(n, m, d, 0, 1))
            result.invariants.append((
                f"k={n} ledger {(draws, evals)} within budget {budget}",
                draws <= budget[0] and evals <= budget[1],
            ))


class ParticlesDense(HarnessWorkload):
    """verify-bounds for sine_meanfield (L = 1, d = 1) with 3000 particles x 200 steps."""

    name = "particles-dense"
    mode = "verify-bounds"
    config = {"problem": "sine_meanfield", "L": 1.0, "d": 1, "T": 1.0, "xi": 1.0,
              "particles_n": 3000, "particles_m": 200}

    def finish(self, rows: list[dict], result: UnitResult) -> None:
        (row,) = [r for r in rows if r["check"] == "particle_second_moment_root"]
        result.items = self.config["particles_n"] * self.config["particles_m"]
        result.items_wall = float(row["wall_s"])


WORKLOADS = {cls.name: cls for cls in (MlpDeep, ConvergenceWide, ParticlesDense)}
