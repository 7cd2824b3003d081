"""Command-line entry point: one subcommand per harness mode.

Every value is ``key=value`` text for :func:`mlpicard.harness.build_config`:
the config file's lines, ``--set`` items, shorthands (``--seed 5`` is
``seed=5``) and the subcommand as ``mode``, a later source winning.

Exit codes: 0 all assertions pass, 1 statistical assertion failure,
2 configuration error (including a value that does not parse, a non-finite
parameter and a drift that turns non-finite mid-recursion), 3 resource
refusal (including a worker process that died and running out of memory).
Exit codes 2 and 3 print one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .errors import ConfigError, ResourceLimitError
from .harness import MODES, build_config, run

_DEFAULT_OUT = "mlpicard_{mode}.csv"
_SHORTHANDS = {"out": "CSV output path", "seed": "master seed", "reps": "statistical repetitions",
               "jobs": "worker processes for repetitions"}


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
        for name, text in _SHORTHANDS.items():
            p.add_argument(f"--{name}", help=text)
        p.add_argument("--extended", action="store_true", help="allow the k=5 grid")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    shorthands = [f"{name}={getattr(args, name)}" for name in _SHORTHANDS
                  if getattr(args, name) is not None]
    if args.extended:
        shorthands.append("extended=true")
    try:
        cfg = build_config(args.config, [*args.sets, *shorthands, f"mode={args.mode}"])
        if not cfg.out:
            cfg = replace(cfg, out=_DEFAULT_OUT.format(mode=args.mode.replace("-", "_")))
        result = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource refusal: out of memory: {exc}", file=sys.stderr)
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
