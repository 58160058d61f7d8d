"""Command-line interface.

Exit codes: 0 success, 2 malformed config or input, 3 reproduction run
disagreed with the published values, 4 a bound was demanded but the data
carried no width information (the run's files are written first).
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .bounds import DegenerateControlError, NoInformationError, write_csv
from .fidelity import (
    ALPHA_COUNT,
    ALPHA_START,
    ALPHA_STOP,
    DPI_ALPHA_MIN,
    alpha_fidelity_curve,
    alpha_range,
    check_alpha,
)
from .linalg import DensityMatrix, check_qubit, matrix_from_json, write_json
from .scenario import (
    ConfigError,
    GoldenCheckError,
    bound_record,
    field_errors,
    load_json,
    load_scenario,
    make_run_dir,
    reproduce_fig4,
    run_scenario,
    sweep_thickness,
)
from .tomography import (
    TomographySettings,
    ZeroCountsError,
    reconstruct,
    rng_stream,
    simulate_counts,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GOLDEN = 3
EXIT_NO_INFORMATION = 4


def _load_state(path, flag: str, qubit: bool = False) -> DensityMatrix:
    with field_errors(f"{flag} state {path}"):
        matrix = matrix_from_json(load_json(path, "state"))
        return DensityMatrix(check_qubit(matrix) if qubit else matrix)


def _alpha_grid(args, lower: float) -> np.ndarray:
    single = getattr(args, "alpha", None) is not None
    flags = "--alpha" if single else "--alpha-start/--alpha-stop/--alpha-count"
    with field_errors(flags), warnings.catch_warnings():
        # the fidelity curve repeats this check, with its alpha < 0.5 warning
        warnings.simplefilter("ignore")
        if single:
            return np.array([check_alpha(args.alpha)])
        return alpha_range(args.alpha_start, args.alpha_stop, args.alpha_count, lower)


def _add_alpha_args(parser: argparse.ArgumentParser, single: bool = False) -> None:
    if single:
        parser.add_argument(
            "--alpha", type=float, default=None, help="single order parameter"
        )
    parser.add_argument("--alpha-start", type=float, default=ALPHA_START)
    parser.add_argument("--alpha-stop", type=float, default=ALPHA_STOP)
    parser.add_argument("--alpha-count", type=int, default=ALPHA_COUNT)


def cmd_afid(args) -> int:
    rho1 = _load_state(args.rho1, "--rho1")
    rho2 = _load_state(args.rho2, "--rho2")
    grid = _alpha_grid(args, lower=0.0)
    with field_errors("--rho1/--rho2"):
        curve = alpha_fidelity_curve(rho1, rho2, grid)
    write_csv(args.csv or sys.stdout, ["alpha", "fidelity"], zip(grid.tolist(), curve.tolist()))
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


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


def cmd_bound(args) -> int:
    grid = _alpha_grid(args, lower=DPI_ALPHA_MIN)
    _print_report(bound_record(args.record, grid, args.out, args.require_bound))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _print_report(run_scenario(load_scenario(args.config), out_dir=args.out))
    return EXIT_OK


def cmd_tomography(args) -> int:
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
    make_run_dir(args.out)
    for name, payload in (("counts.json", counts), ("reconstructed.json", estimate)):
        path = os.path.join(args.out, name)
        write_json(path, payload.to_json())
        print(f"wrote {path}")
    return EXIT_OK


def cmd_reproduce_fig4(args) -> int:
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
    _print_report(report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _print_report(sweep_thickness(load_scenario(args.config), out_dir=args.out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_simulate)

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
    p.set_defaults(func=cmd_sweep)

    return parser


def _show_warning(message, *_) -> None:
    print(f"alphaprobe: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one stable line, no source path
            return args.func(args)
    except (ConfigError, DegenerateControlError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GoldenCheckError as exc:
        print(f"golden check failed: {exc}", file=sys.stderr)
        return EXIT_GOLDEN
    except NoInformationError as exc:
        print(f"no information: {exc}", file=sys.stderr)
        return EXIT_NO_INFORMATION


if __name__ == "__main__":
    raise SystemExit(main())
