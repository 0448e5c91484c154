"""Command-line entry point.

Exit codes: 0 success, 1 a verification threshold failed, 2 usage or
configuration errors, including spectra whose M is near-singular or whose
fields overflow, `scatter` sweeps whose scattering entries overflow or
whose potential has not decayed at the ends of the scattering domain, and
grids or sweeps too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .io_cli import (
    ConfigError,
    export_grid,
    parse_config_file,
    run_figure,
    run_lambda_sweep,
    write_text,
)
from .scattering import DomainTooSmallError, NonFiniteScatteringError
from .soliton import NearSingularError, NonFiniteFieldError, SpectrumError
from .verify import VerifyError, run_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tccss",
        description=(
            "Multi-soliton fields of the three-component coupled "
            "Sasa-Satsuma equation: grid export, bundled figure "
            "reproduction, and independent verification checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="evaluate the field grid and write it")
    gen.add_argument("--config", required=True, help="JSON run configuration")
    gen.add_argument("--out", required=True, help="output file (csv or json per config)")

    ver = sub.add_parser("verify", help="run the configured verification checks")
    ver.add_argument("--config", required=True, help="JSON run configuration")
    ver.add_argument("--json", dest="json_out", default=None, help="write the full report here")

    fig = sub.add_parser("figure", help="reproduce a bundled figure data set")
    fig.add_argument("--id", type=int, required=True, help="figure id, 1..4")
    fig.add_argument("--out-dir", required=True, help="directory for csv + sidecar")

    sca = sub.add_parser("scatter", help="sweep real lambda and record scattering entries")
    sca.add_argument("--config", required=True, help="JSON run configuration")
    sca.add_argument(
        "--lambda-re",
        required=True,
        metavar="a:b:n",
        help="real-lambda sweep: start:stop:count",
    )
    sca.add_argument("--out", required=True, help="output CSV")
    return parser


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--lambda-re expects a:b:n, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"--lambda-re expects numbers a:b:n, got {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--lambda-re endpoints must be finite, got {text!r}")
    return start, stop, count


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            cfg = parse_config_file(args.config)
            path = export_grid(cfg, args.out)
            print(f"wrote {path}")
            return 0

        if args.command == "verify":
            cfg = parse_config_file(args.config)
            outcome = run_checks(cfg)
            for check in outcome.checks:
                status = "PASS" if check.passed else "FAIL"
                r = check.report
                print(
                    f"[{status}] {r.name}: max_abs = {r.max_abs:.3e} "
                    f"(threshold {check.threshold:.1e}), rms = {r.rms:.3e}"
                )
            if args.json_out:
                write_text(args.json_out, json.dumps(outcome.as_dict(), indent=2, sort_keys=True) + "\n")
                print(f"wrote {args.json_out}")
            return 0 if outcome.passed else 1

        if args.command == "figure":
            paths = run_figure(args.id, Path(args.out_dir))
            for p in paths:
                print(f"wrote {p}")
            return 0

        # scatter
        cfg = parse_config_file(args.config)
        start, stop, count = _parse_sweep(args.lambda_re)
        path = run_lambda_sweep(cfg, start, stop, count, args.out)
        print(f"wrote {path}")
        return 0

    except (
        ConfigError, SpectrumError, ValueError, NearSingularError, NonFiniteFieldError,
        NonFiniteScatteringError, DomainTooSmallError, VerifyError, MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
