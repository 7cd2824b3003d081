"""Regenerate perfbench/goldens.json from the program as it stands.

    OMP_NUM_THREADS=1 python3 perfbench/make_goldens.py

Runs every pool entry of every workload once, untimed, and stores its
outputs (masked-CSV digests, value bit patterns, ledger tallies).  Only a
change that deliberately alters the random stream or the CSV bytes should
rerun this, and it must say so; any other change must reproduce the goldens.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from worker import OUT_DIR, environment, import_program

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def main() -> int:
    mlpicard = import_program()
    from workloads import POOL, WORKLOADS, public_api

    goldens = {}
    OUT_DIR.mkdir(exist_ok=True)
    api = public_api(mlpicard)
    for name in WORKLOADS:
        workload = WORKLOADS[name](api, OUT_DIR)
        units, ledger = [], {}
        for entry in range(POOL):
            result = workload.run_unit(entry)
            failed = [what for what, ok in result.invariants if not ok]
            if failed:
                raise SystemExit(f"{name} entry {entry}: {failed}")
            for key, tally in result.ledger.items():
                if ledger.setdefault(key, tally) != tally:
                    raise SystemExit(f"{name} entry {entry}: ledger {key} varies with the seed")
            units.append(result.observed)
            print(f"{name} entry {entry}: {result.wall:.2f} s", file=sys.stderr)
        goldens[name] = {"ledger": ledger, "units": units}
    goldens["generated_with"] = environment()
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
