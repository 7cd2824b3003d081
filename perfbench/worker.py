"""One benchmark process: set up a workload, run timed units, check them.

Started by ``run.py``; not meant to be run by hand.  Modes:

  probe     set up, print ``ready <monotonic seconds>`` and exit (for setup_s)
  measure   untraced units of the workload as defined
  traced    traced units of the workload with every repetition in this
            process (jobs=1), with per-unit layer metrics

The last stdout line is one JSON object with the unit samples, the checks
and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
MAX_MESSAGES = 20
MIN_UNITS = 3  # timed units per run, however short --seconds is


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(what)


def import_program():
    """Import mlpicard from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "mlpicard" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mlpicard sources under {src}")
    sys.path.insert(0, str(src))
    import mlpicard

    if Path(mlpicard.__file__).resolve().parent != (src / "mlpicard").resolve():
        raise SystemExit(f"perfbench: imported mlpicard from {mlpicard.__file__}, not {src}")
    return mlpicard


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def check_unit(result, golden: dict, entry: int, checks: Checks) -> None:
    want = golden["units"][entry]
    for key, value in want.items():
        checks.record(result.observed.get(key) == value,
                      f"entry {entry}: {key} {result.observed.get(key)!r} != golden {value!r}")
    for key, tally in result.ledger.items():
        checks.record(golden["ledger"].get(key) == tally,
                      f"entry {entry}: ledger (n,m,d)=({key}) {tally} != golden "
                      f"{golden['ledger'].get(key)}")
    for what, ok in result.invariants:
        checks.record(ok, f"entry {entry}: {what}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "traced"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    mlpicard = import_program()
    from tracer import Tracer
    from workloads import POOL, WORKLOADS, public_api, visit_order

    golden = json.loads((Path(__file__).parent / "goldens.json").read_text())[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    api = public_api(mlpicard)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(api)
    workload = WORKLOADS[args.workload](api, OUT_DIR)
    if tracer is not None:
        workload = workload.traced_config()
    if args.mode == "probe":
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    checks = Checks()
    if tracer is not None:
        tracer.calibrate()

    def run_checked(entry: int):
        try:
            result = workload.run_unit(entry)
        except Exception as exc:  # a broken program must still yield a verdict
            traceback.print_exc(file=sys.stderr)
            checks.record(False, f"entry {entry}: raised {exc!r}")
            return None
        check_unit(result, golden, entry, checks)
        return result

    order = visit_order(args.seed)
    # One checked but untimed unit first: the first run in a process pays
    # one-off costs (lazy imports, first-touch pages of large temporaries).
    run_checked(order[-1])
    walls, rates, layers = [], [], []
    hard_cap = 2.5 * args.seconds
    started = time.perf_counter()
    for visit in range(10**9):
        if tracer is not None:
            tracer.begin_unit()
        result = run_checked(order[visit % POOL])
        if result is not None:
            walls.append(result.wall)
            rates.append(result.items / result.items_wall)
            if tracer is not None:
                layers.append(tracer.end_unit() | {"harness.csv_bytes": result.csv_bytes})
        elapsed = time.perf_counter() - started
        typical = statistics.median(walls) if walls else 0.0
        # Stop where the run ends closest to --seconds: before a unit that
        # would end more than half a unit past it.
        if elapsed >= hard_cap or (visit + 1 >= MIN_UNITS
                                   and elapsed + typical / 2 > args.seconds):
            break
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "walls": walls,
        "rates": rates,
        "layers": layers,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "peak_rss_mb": peak_kb / 1024.0,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
