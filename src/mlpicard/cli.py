"""Command-line entry point: one subcommand per harness mode.

Exit codes: 0 all assertions pass, 1 statistical assertion failure,
2 configuration error (including a non-finite parameter and a drift that
turns non-finite mid-recursion), 3 resource refusal (including a worker
process that died).  Exit codes 2 and 3 print one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .errors import ConfigError, ResourceLimitError
from .harness import MODES, build_config, run

_DEFAULT_OUT = "mlpicard_{mode}.csv"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpicard",
        description="Multilevel Picard experiment harness for McKean-Vlasov SDEs",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} experiment")
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="K=V",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", metavar="PATH", help="CSV output path")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--reps", type=int, help="statistical repetitions")
        p.add_argument("--jobs", type=int, help="worker processes for repetitions")
        p.add_argument(
            "--extended", action="store_true", default=None, help="allow the k=5 grid"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(
            args.config,
            args.sets,
            mode=args.mode,
            out=args.out,
            seed=args.seed,
            reps=args.reps,
            jobs=args.jobs,
            extended=args.extended,
        )
        if not cfg.out:
            cfg = replace(cfg, out=_DEFAULT_OUT.format(mode=args.mode.replace("-", "_")))
        result = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 3
    failures = result.failures()
    print(f"mode={result.mode} rows={len(result.rows)} "
          f"failures={len(failures)} out={cfg.out}")
    for line in result.footer:
        print(f"  {line}")
    if not result.ok:
        for row in failures:
            print(f"  FAIL: {','.join(str(v) for v in row)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
