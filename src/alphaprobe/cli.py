"""Command-line interface.

Exit codes: 0 success, 2 malformed config or input, 3 reproduction run
disagreed with the published values, 4 a bound was demanded but the data
carried no width information.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .bounds import (
    DegenerateControlError,
    NoInformationError,
    ProbingRecord,
    bound_summary,
    tightest_bound,
    write_bound_curve_csv,
    write_csv,
)
from .fidelity import (
    ALPHA_COUNT,
    ALPHA_START,
    ALPHA_STOP,
    DPI_ALPHA_MIN,
    _check_alpha_grid,
    alpha_fidelity_curve,
    alpha_range,
)
from .linalg import DensityMatrix, check_qubit, matrix_from_json, save_matrix
from .scenario import (
    ConfigError,
    GoldenCheckError,
    _number,
    _write_report,
    load_json,
    load_scenario,
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
    try:
        matrix = matrix_from_json(load_json(path, "state"))
        return DensityMatrix(check_qubit(matrix) if qubit else matrix)
    except ValueError as exc:
        raise ConfigError(f"{flag} state {path}: {exc}") from exc


def _alpha_grid(args, lower: float) -> np.ndarray:
    single = getattr(args, "alpha", None) is not None
    try:
        with warnings.catch_warnings():
            # the fidelity curve repeats this check, with its alpha < 0.5 warning
            warnings.simplefilter("ignore")
            if single:
                return _check_alpha_grid([args.alpha], lower)
            return alpha_range(args.alpha_start, args.alpha_stop, args.alpha_count, lower)
    except ValueError as exc:
        flags = "--alpha" if single else "--alpha-start/--alpha-stop/--alpha-count"
        raise ConfigError(f"{flags}: {exc}") from exc


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
    if rho1.dim != rho2.dim:
        raise ConfigError(f"--rho1/--rho2: states of dimension {rho1.dim} and {rho2.dim}")
    grid = _alpha_grid(args, lower=0.0)
    rows = zip(grid.tolist(), alpha_fidelity_curve(rho1, rho2, grid).tolist())
    write_csv(args.csv or sys.stdout, ["alpha", "fidelity"], rows)
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


def _load_record(path) -> ProbingRecord:
    payload = load_json(path, "record")
    try:
        states = [
            DensityMatrix(matrix_from_json(payload[key]))
            for key in ("rho1", "rho2", "phi1_rho1", "phi2_rho2")
        ]
        return ProbingRecord(*states, delta_mu=_number(payload["delta_mu_hz"], "delta_mu_hz"))
    except KeyError as exc:
        raise ConfigError(f"record {path} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"record {path}: {exc}") from exc


def cmd_bound(args) -> int:
    record = _load_record(args.record)
    grid = _alpha_grid(args, lower=DPI_ALPHA_MIN)
    curve = tightest_bound(record, grid)
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "bound_curve.csv")
    write_bound_curve_csv(curve, curve_path)
    config = {"record": os.path.abspath(args.record)}
    resolved = {"delta_mu_hz": record.delta_mu}
    _write_report(args.out, config, resolved, bound_summary(curve), None, (curve_path,))
    if curve.optimum is None:
        print("no_information: every grid point has fidelity fraction >= 1")
        if args.require_bound:
            raise NoInformationError("bound demanded but the record is uninformative")
    else:
        print(
            f"b_inf = {curve.optimum.value:.12e} Hz at alpha = "
            f"{curve.optimum.alpha:.6f} ({curve.optimum.family})"
        )
    print(f"wrote {curve_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_scenario(args.config)
    report = run_scenario(config, out_dir=args.out)
    results = report.summary["results"]
    if results.get("no_information"):
        print("no_information: true")
    else:
        print(f"b_inf = {results['b_inf_hz']:.12e} Hz")
    for path in report.files:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_tomography(args) -> int:
    state = _load_state(args.state, "--state", qubit=True)
    try:
        settings = TomographySettings(
            integration_time=args.time, count_rate=args.rate, seed=args.seed
        )
    except ValueError as exc:
        raise ConfigError(f"--time/--rate/--seed: {exc}") from exc
    stream = rng_stream(settings.seed, (0, 0))
    counts = simulate_counts(state, settings, stream)
    try:
        estimate = reconstruct(counts, settings.bases)
    except ZeroCountsError as exc:
        raise ConfigError(f"--time is too short for --rate: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    counts_path = os.path.join(args.out, "counts.json")
    with open(counts_path, "w", encoding="utf-8") as fh:
        json.dump(counts.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    state_path = os.path.join(args.out, "reconstructed.json")
    save_matrix(state_path, estimate.matrix)
    print(f"wrote {counts_path}")
    print(f"wrote {state_path}")
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
    print(f"b_inf = {results['b_inf_hz']:.12e} Hz")
    for path in report.files:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_scenario(args.config)
    report = sweep_thickness(config, out_dir=args.out)
    for path in report.files:
        print(f"wrote {path}")
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
