"""Command-line interface for the sweep and acceptance runners.

Exit codes: 0 on success, 1 when an acceptance criterion fails, output
cannot be written or the solver fails on a point (the message names the
point), 2 on bad arguments or a configuration file that cannot be read or
is invalid.

Each dataset command evaluates its grid in one process unless `--jobs`
asks for more workers; a large sweep can gain from them, the shipped
figures are faster without.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .experiments import (
    MAX_SPINS,
    ConfigError,
    SweepConfig,
    parse_config_text,
    run_acceptance,
    run_fig2,
    run_fig3,
    run_sweep,
    run_xy_comparison,
)
from .steady import SteadyStateError


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _read_config(path: Path) -> SweepConfig:
    """The sweep configuration in `path`; an unreadable file is a configuration error."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text (byte {err.start})") from None
    return parse_config_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinheat",
        description="Steady-state heat transport through thermally driven spin chains.",
    )
    # each command registers only the options it reads
    kappa = argparse.ArgumentParser(add_help=False)
    kappa.add_argument(
        "--kappa", type=_positive_float, default=1.0, help="bath coupling prefactor"
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    output.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for sweep points, at most one per processor (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "fig2", parents=[kappa, output], help="current vs left temperature, three couplings"
    )
    sub.add_parser("fig3", parents=[kappa, output], help="current vs coupling and the diode curve")
    xy = sub.add_parser(
        "xy-compare", parents=[kappa, output], help="global vs local currents on the XY chain"
    )
    xy.add_argument("--spins", type=int, default=4, help=f"chain length (2 to {MAX_SPINS})")
    sub.add_parser("acceptance", help="run the acceptance criteria table")
    sweep = sub.add_parser(
        "sweep", parents=[output], help="run a sweep described by a config file"
    )
    sweep.add_argument("--config", type=Path, required=True, help="flat key=value file")
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
            config = _read_config(args.config)
            out = Path(config.output_path) if config.output_path else args.out / "sweep.csv"
            path = run_sweep(config, out=out, jobs=args.jobs)
            print(f"wrote {path}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
    except SteadyStateError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
