"""Command-line interface.

Exit codes: 0 success, 2 malformed config or input, 3 reproduction run
disagreed with the published values, 4 a bound was demanded but the data
carried no width information (the run's files are written first).
"""
from __future__ import annotations

import argparse
import sys
import warnings
from functools import cache

import numpy as np

from .bounds import NoInformationError
from .fidelity import (
    ALPHA_COUNT,
    ALPHA_START,
    ALPHA_STOP,
    DPI_ALPHA_MIN,
    alpha_fidelity_curve,
    alpha_range,
    check_alpha,
)
from .linalg import DensityMatrix
from .scenario import (
    ConfigError,
    GoldenCheckError,
    OutputError,
    RunReport,
    bound_record,
    csv_bytes,
    field_errors,
    json_bytes,
    load_json,
    load_scenario,
    read_state,
    reproduce_fig4,
    run_scenario,
    sweep_thickness,
    write_output,
    write_run_dir,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GOLDEN = 3
EXIT_NO_INFORMATION = 4


def _load_state(path, flag: str, qubit: bool = False) -> DensityMatrix:
    return read_state(load_json(path, f"{flag} state"), f"{flag} state {path}", qubit)


def _alpha_grid(args, lower: float) -> np.ndarray:
    # the range flags default to None, so one given with --alpha is not silently dropped
    ranged = {f"--alpha-{k}": getattr(args, f"alpha_{k}") for k in ("start", "stop", "count")}
    single = getattr(args, "alpha", None) is not None
    if single and any(v is not None for v in ranged.values()):
        given = " or ".join(flag for flag, v in ranged.items() if v is not None)
        raise ConfigError(f"--alpha cannot be combined with {given}")
    with field_errors("--alpha" if single else "/".join(ranged)), warnings.catch_warnings():
        # the fidelity curve repeats this check, with its alpha < 0.5 warning
        warnings.simplefilter("ignore")
        if single:
            return np.array([check_alpha(args.alpha)])
        defaults = (ALPHA_START, ALPHA_STOP, ALPHA_COUNT)
        start, stop, count = (d if v is None else v for v, d in zip(ranged.values(), defaults))
        return alpha_range(start, stop, count, lower)


def _add_alpha_args(parser: argparse.ArgumentParser, single: bool = False) -> None:
    if single:
        parser.add_argument(
            "--alpha", type=float, default=None, help="single order parameter"
        )
    parser.add_argument("--alpha-start", type=float)
    parser.add_argument("--alpha-stop", type=float)
    parser.add_argument("--alpha-count", type=int)


def cmd_afid(args) -> None:
    rho1 = _load_state(args.rho1, "--rho1")
    rho2 = _load_state(args.rho2, "--rho2")
    grid = _alpha_grid(args, lower=0.0)
    with field_errors("--rho1/--rho2"):
        curve = alpha_fidelity_curve(rho1, rho2, grid)
    data = csv_bytes(["alpha", "fidelity"], (grid, curve))
    if args.csv is None:  # the same bytes as the file: a text stream would translate CRLF
        sys.stdout.buffer.write(data)
    else:
        print(f"wrote {write_output(args.csv, data, '--csv')}")


def _print_report(report) -> None:
    """One b_inf line per bound (per thickness in a sweep), then the files written."""
    results = report.summary["results"]
    for entry in results.get("thicknesses", [results]):
        where = f"thickness_mm = {entry['thickness_mm']}: " if "thickness_mm" in entry else ""
        if entry["no_information"]:
            print(f"{where}no_information: true")
        else:
            print(
                f"{where}b_inf = {entry['b_inf_hz']:.12e} Hz at alpha = "
                f"{entry['alpha_star']:.6f} ({entry['family']})"
            )
    for path in report.files:
        print(f"wrote {path}")


def cmd_bound(args) -> RunReport:
    grid = _alpha_grid(args, lower=DPI_ALPHA_MIN)
    return bound_record(args.record, grid, args.out, args.require_bound)


def cmd_config(args) -> RunReport:
    """simulate and sweep: args.run (run_scenario or sweep_thickness) on the --config file."""
    with field_errors("--config"):
        config = load_scenario(args.config)
    return args.run(config, out_dir=args.out)


def cmd_tomography(args) -> None:
    from .tomography import (
        TomographySettings, ZeroCountsError, reconstruct, rng_stream, simulate_counts,
    )

    state = _load_state(args.state, "--state", qubit=True)
    with field_errors("--time/--rate/--seed"):
        settings = TomographySettings(
            integration_time=args.time, count_rate=args.rate, seed=args.seed
        )
    stream = rng_stream(settings.seed, (0, 0))
    counts = simulate_counts(state, settings, stream)
    try:
        estimate = reconstruct(counts, settings.bases)
    except ZeroCountsError as exc:
        raise ConfigError(f"--time is too short for --rate: {exc}") from exc
    files = {"counts.json": json_bytes(counts.to_json()),
             "reconstructed.json": json_bytes(estimate.to_json())}
    for path in write_run_dir(args.out, files):
        print(f"wrote {path}")


def cmd_reproduce_fig4(args) -> RunReport:
    report = reproduce_fig4(out_dir=args.out)
    results = report.summary["results"]
    print(
        f"b2 at alpha 0.5: {results['b2_half_over_sigma']:.4f} sigma "
        f"(published {results['published_b2_half_over_sigma']})"
    )
    print(
        f"b2 at alpha 0.9999: {results['b2_top_over_sigma']:.4f} sigma "
        f"(published {results['published_b2_top_over_sigma']})"
    )
    return report


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree, built once per process."""
    parser = argparse.ArgumentParser(
        prog="alphaprobe",
        description="Width bounds on an unknown Gaussian line from qubit probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("afid", help="alpha-fidelity curve of two states")
    p.add_argument("--rho1", required=True, help="first state (matrix JSON)")
    p.add_argument("--rho2", required=True, help="second state (matrix JSON)")
    _add_alpha_args(p, single=True)
    p.add_argument("--csv", default=None, help="write the curve here instead of stdout")
    p.set_defaults(func=cmd_afid)

    p = sub.add_parser("bound", help="width bound curve from a probing record")
    p.add_argument("--record", required=True, help="probing record JSON")
    _add_alpha_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--require-bound",
        action="store_true",
        help="fail (exit 4) when the record is uninformative",
    )
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="run a scenario config end to end")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_config, run=run_scenario)

    p = sub.add_parser("tomography", help="simulate counts and reconstruct a state")
    p.add_argument("--state", required=True, help="true state (matrix JSON)")
    p.add_argument("--time", type=float, required=True, help="integration time (s)")
    p.add_argument("--rate", type=float, required=True, help="pair rate (1/s)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser(
        "reproduce-fig4",
        help="rebuild the demonstration bound curves and check published values",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_reproduce_fig4)

    p = sub.add_parser("sweep", help="bound optimum per plate thickness")
    p.add_argument("--config", required=True, help="scenario JSON with a sweep section")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_config, run=sweep_thickness)

    return parser


def _show_warning(message, *_) -> None:
    print(f"alphaprobe: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one stable line, no source path
            report = args.func(args)
        if report is not None:  # afid and tomography print their own lines
            _print_report(report)
        return EXIT_OK
    except ConfigError as exc:  # a run directory's output error is one of --out
        flag = "--out: " if isinstance(exc, OutputError) and "out" in args else ""
        print(f"config error: {flag}{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GoldenCheckError as exc:
        print(f"golden check failed: {exc}", file=sys.stderr)
        return EXIT_GOLDEN
    except NoInformationError as exc:
        print(f"no information: {exc}", file=sys.stderr)
        return EXIT_NO_INFORMATION


if __name__ == "__main__":
    raise SystemExit(main())
