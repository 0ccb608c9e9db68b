"""Command-line interface for the sweep and acceptance runners.

Exit codes: 0 on success, 1 when an acceptance criterion fails or output
cannot be written, 2 on a bad configuration or bad arguments.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    ConfigError,
    parse_config_text,
    run_acceptance,
    run_fig2,
    run_fig3,
    run_sweep,
    run_xy_comparison,
)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--kappa", type=_positive_float, default=1.0, help="bath coupling prefactor"
    )
    sub.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sub.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep points (default: number of processors)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinheat",
        description="Steady-state heat transport through thermally driven spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="current vs left temperature, three couplings")
    _add_common(fig2)

    fig3 = sub.add_parser("fig3", help="current vs coupling and the diode curve")
    _add_common(fig3)

    xy = sub.add_parser("xy-compare", help="global vs local currents on the XY chain")
    _add_common(xy)
    xy.add_argument("--spins", type=int, default=4, help="chain length (2 to 6)")

    acceptance = sub.add_parser("acceptance", help="run the acceptance criteria table")
    _add_common(acceptance)

    sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    _add_common(sweep)
    sweep.add_argument("--config", type=Path, required=True, help="flat key=value file")
    sweep.add_argument(
        "--style",
        choices=("global", "local", "both"),
        default=None,
        help="override the dissipator style from the config",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fig2":
            path = run_fig2(args.kappa, args.out, jobs=args.jobs)
            print(f"wrote {path}")
        elif args.command == "fig3":
            for path in run_fig3(args.kappa, args.out, jobs=args.jobs):
                print(f"wrote {path}")
        elif args.command == "xy-compare":
            path = run_xy_comparison(args.spins, args.kappa, args.out, jobs=args.jobs)
            print(f"wrote {path}")
        elif args.command == "acceptance":
            return run_acceptance()
        elif args.command == "sweep":
            config = parse_config_text(args.config.read_text(encoding="utf-8"))
            if args.style is not None:
                config = replace(config, style=args.style)
            out = Path(config.output_path) if config.output_path else args.out / "sweep.csv"
            path = run_sweep(config, out=out, jobs=args.jobs)
            print(f"wrote {path}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
