"""mlpicard benchmark launcher.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Each measurement runs in a child process (``worker.py``) started
with BLAS/OpenMP pinned to one thread; see NOTES.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
WORKLOADS = ("mlp-deep", "convergence-wide", "particles-dense")
# Set-up probes per run, half before and half after the measuring process,
# so that the median spans the whole run rather than one moment of it.
SETUP_PROBES = 12
DEADLINE_S = 170.0  # one workload run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORK_ITEM = {
    "mlp-deep": "estimator realizations per wall second (realizations_per_s)",
    "convergence-wide": "estimator realizations per wall second (realizations_per_s)",
    "particles-dense": "particle steps N*M per second of the particle row (particle_steps_per_s)",
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, mode: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns its JSON result and the
    monotonic time it was started.  The whole process group is killed if it
    outlives the deadline."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", str(seconds)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} {mode} worker exceeded the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited with code {proc.returncode}")
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if mode == "probe":
        return {"ready": float(last.split()[1])}, spawned
    return json.loads(last), spawned


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe, spawned = run_worker(workload, "probe", seed, seconds, deadline)
            setups.append(probe["ready"] - spawned)

    probe_setup(SETUP_PROBES // 2)
    result, _ = run_worker(workload, "measure", seed, seconds, deadline)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    if not result["walls"]:
        raise WorkerError(f"{workload}: no unit completed")
    values = {
        "wall_s": statistics.median(result["walls"]),
        "work_per_s": statistics.median(result["rates"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["metrics"] = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    result["setups"] = setups
    return result


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    traced, _ = run_worker(workload, "traced", seed, seconds, deadline)
    if not traced["layers"]:
        raise WorkerError(f"{workload}: no unit completed")
    values = {name: statistics.median(unit[name] for unit in traced["layers"])
              for name in traced["layers"][0]}
    traced["metrics"] = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
    return traced


def report(workload: str, args, result: dict) -> None:
    env = result["env"]
    print(f"workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"units={len(result['walls'])}")
    print(f"env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    for name, (value, unit) in result["metrics"].items():
        note = f"  # {WORK_ITEM[workload]}" if name == "work_per_s" else ""
        print(f"  {name} {value!r} {unit}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_ratio {failed / attempted if attempted else 1.0!r} "
          f"({failed} of {attempted} checks failed)")
    for message in result["messages"]:
        print(f"  FAIL {message}")
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace, **result},
                                 indent=1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    run = trace if args.trace else measure
    attempted = failed = 0
    metrics = {}
    for workload in names:
        try:
            result = run(workload, args.seed, args.seconds, deadline)
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(workload, args, result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{workload}/"
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
