"""Scenario configs, end-to-end runs, and machine-readable reports.

A scenario JSON describes the physics (two environment lines, two probe
preparations, a wave-plate stack) and the readout (exact states or
shot-noise tomography with replicas). Running it produces a bound curve CSV
and a summary JSON; every number printed to the console also appears in one
of those artifacts. Reruns with identical config and seeds are byte-identical
except for the generated_at timestamp.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .bounds import (
    DegenerateControlError,
    NoInformationError,
    ProbingRecord,
    bound_summary,
    tightest_bound,
    write_bound_curve_csv,
    write_csv,
)
from .channel import QUARTZ_BIREFRINGENCE, WavePlate, WavePlateStack, apply_channel
from .fidelity import (
    ALPHA_COUNT,
    ALPHA_START,
    ALPHA_STOP,
    DPI_ALPHA_MIN,
    alpha_range,
    default_alpha_grid,
)
from .linalg import (
    DensityMatrix,
    check_integer,
    check_positive,
    check_qubit,
    check_real,
    matrix_from_json,
    write_json,
)
from .reference import (
    REFERENCE_RHO_1,
    REFERENCE_RHO_2,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from .spectra import GaussianSpectrum, _check_grid_shape
from .tomography import (
    MAX_REPLICAS,
    TomographySettings,
    ZeroCountsError,
    monte_carlo_bounds,
    rng_stream,
)

SCHEMA_VERSION = "probe-scenario/1"

REFERENCE_LITERAL = "paper-matrices"

# published demonstration values with the acceptance tolerance of 5%
GOLDEN_B2_HALF_OVER_SIGMA = 2.22
GOLDEN_B2_TOP_OVER_SIGMA = 1.82
GOLDEN_RTOL = 0.05

PLUS_STATE = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class ConfigError(ValueError):
    """Scenario config is malformed; the message names the offending field."""


class GoldenCheckError(RuntimeError):
    """A reproduction run disagrees with the published demonstration values."""


def load_json(path, what: str):
    """Read a JSON document; unreadable or malformed files are ConfigErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


@contextmanager
def field_errors(path: str):
    """Re-raise a domain ValueError from the block as a ConfigError naming path."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def make_run_dir(path) -> None:
    """Create a run directory and its parents; a path that cannot be one is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path} cannot be created: {exc.strerror}") from exc


def _require(payload: dict, key: str, path: str):
    if key not in payload:
        raise ConfigError(f"{path}.{key} is required")
    return payload[key]


_REQUIRED = object()


def _field(payload: dict, key: str, path: str, default=_REQUIRED) -> tuple:
    """(value, field path) of payload[key], the arguments of a linalg check_* rule."""
    value = _require(payload, key, path) if default is _REQUIRED else payload.get(key, default)
    return value, f"{path}.{key}"


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _parse_spectrum(payload, path: str) -> GaussianSpectrum:
    _object(payload, path)
    if "mu_hz" in payload or "sigma_hz" in payload:
        return GaussianSpectrum(
            mu=check_positive(*_field(payload, "mu_hz", path)),
            sigma=check_positive(*_field(payload, "sigma_hz", path)),
        )
    if "center_wavelength_nm" in payload or "width_nm" in payload:
        center_nm = check_positive(*_field(payload, "center_wavelength_nm", path))
        width_nm = check_positive(*_field(payload, "width_nm", path))
        with field_errors(f"{path}.center_wavelength_nm/width_nm"):
            return GaussianSpectrum.from_wavelength(center_nm, width_nm)
    raise ConfigError(
        f"{path} needs either mu_hz/sigma_hz or center_wavelength_nm/width_nm"
    )


def _parse_probe(payload, path: str) -> DensityMatrix:
    if payload == "plus":
        return DensityMatrix(PLUS_STATE)
    if isinstance(payload, dict):
        with field_errors(path):
            return DensityMatrix(check_qubit(matrix_from_json(payload)))
    raise ConfigError(f"{path} must be \"plus\" or a matrix object, got {payload!r}")


def _parse_stack(payload, path: str) -> WavePlateStack:
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must be an object or the literal "
                          f"{REFERENCE_LITERAL!r}")
    plates_cfg = _require(payload, "plates", path)
    if not isinstance(plates_cfg, list) or not plates_cfg:
        raise ConfigError(f"{path}.plates must be a nonempty list")
    birefringence = check_real(*_field(payload, "birefringence", path, QUARTZ_BIREFRINGENCE))
    needs_seed = any(
        isinstance(p, dict) and p.get("orientation_deg") == "random" for p in plates_cfg
    )
    rng = None
    if needs_seed:
        if "orientation_seed" not in payload:
            raise ConfigError(
                f"{path}.orientation_seed is required when any orientation is \"random\""
            )
        seed = check_integer(*_field(payload, "orientation_seed", path), minimum=0)
        rng = rng_stream(seed, ())
    plates = []
    for i, plate_cfg in enumerate(plates_cfg):
        ppath = f"{path}.plates[{i}]"
        _object(plate_cfg, ppath)
        thickness_mm = check_positive(*_field(plate_cfg, "thickness_mm", ppath))
        if plate_cfg.get("orientation_deg") == "random":
            theta = float(rng.uniform(0.0, 180.0))
        else:
            theta = check_real(*_field(plate_cfg, "orientation_deg", ppath, 0.0))
        with field_errors(f"{ppath}.thickness_mm"):  # a thickness that underflows in meters
            plates.append(
                WavePlate(thickness=thickness_mm * 1e-3, orientation=math.radians(theta))
            )
    with field_errors(path):
        return WavePlateStack(plates=tuple(plates), birefringence=birefringence)


def _sweep_stack(
    thickness_mm: float, orientation_deg: float, birefringence: float
) -> WavePlateStack:
    """The one-plate stack a thickness sweep evaluates at thickness_mm."""
    plate = WavePlate(thickness=thickness_mm * 1e-3, orientation=math.radians(orientation_deg))
    return WavePlateStack(plates=(plate,), birefringence=birefringence)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario: physics, readout, alpha grid, and the raw config echo."""

    spectra: tuple[GaussianSpectrum, GaussianSpectrum] | None
    probes: tuple[DensityMatrix, DensityMatrix] | None
    stack: WavePlateStack | None  # None means the bundled reference record
    alpha_grid: np.ndarray
    tomography: TomographySettings | None  # None means exact states
    replicas: int
    require_bound: bool
    sweep_thicknesses_mm: tuple[float, ...] | None
    sweep_orientation_deg: float
    sweep_birefringence: float
    echo: dict


def parse_scenario(payload: dict) -> ScenarioConfig:
    """A scenario config from its JSON payload; a malformed field is a ConfigError naming it."""
    try:
        return _parse_config(payload)
    except ConfigError:  # from _require, _object, _boolean and field_errors
        raise
    except ValueError as exc:  # the one conversion of a check_* rule, whose message names the path
        raise ConfigError(str(exc)) from exc


def _parse_config(payload: dict) -> ScenarioConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"schema must be {SCHEMA_VERSION!r}, got {schema!r}"
        )

    coupling = _require(payload, "coupling", "config")
    use_reference = coupling == REFERENCE_LITERAL
    stack = None if use_reference else _parse_stack(coupling, "coupling")

    probes_cfg = payload.get("probes")
    spectra: tuple[GaussianSpectrum, GaussianSpectrum] | None = None
    probes: tuple[DensityMatrix, DensityMatrix] | None = None

    if use_reference:
        if probes_cfg not in (None, REFERENCE_LITERAL):
            raise ConfigError(
                f"probes must be omitted or {REFERENCE_LITERAL!r} when coupling is "
                f"{REFERENCE_LITERAL!r}: the bundled evolved states belong to the "
                "bundled probes"
            )
    else:
        spectra_cfg = _object(_require(payload, "spectra", "config"), "config.spectra")
        spectra = (
            _parse_spectrum(_require(spectra_cfg, "first", "spectra"), "spectra.first"),
            _parse_spectrum(_require(spectra_cfg, "second", "spectra"), "spectra.second"),
        )
        if probes_cfg is None:
            raise ConfigError("config.probes is required for a simulated coupling")
        if probes_cfg == REFERENCE_LITERAL:
            probes = (DensityMatrix(REFERENCE_RHO_1), DensityMatrix(REFERENCE_RHO_2))
        elif isinstance(probes_cfg, dict):
            probes = (
                _parse_probe(_require(probes_cfg, "rho1", "probes"), "probes.rho1"),
                _parse_probe(_require(probes_cfg, "rho2", "probes"), "probes.rho2"),
            )
        else:
            raise ConfigError(
                f"config.probes must be {REFERENCE_LITERAL!r} or an object"
            )

    # schema 1 documents a quadrature grid; it is still checked, but the channel is exact
    grid_cfg = _object(payload.get("grid", {}), "config.grid")
    span = check_real(*_field(grid_cfg, "span_sigmas", "config.grid", 8.0))
    points = check_integer(*_field(grid_cfg, "points", "config.grid", 3001))
    with field_errors("config.grid"):
        _check_grid_shape(span, points)

    alpha_cfg = _object(payload.get("alpha_grid", {}), "config.alpha_grid")
    a_start = check_real(*_field(alpha_cfg, "start", "config.alpha_grid", ALPHA_START))
    a_stop = check_real(*_field(alpha_cfg, "stop", "config.alpha_grid", ALPHA_STOP))
    a_count = check_integer(*_field(alpha_cfg, "count", "config.alpha_grid", ALPHA_COUNT))
    with field_errors("config.alpha_grid"):
        alpha_grid = alpha_range(a_start, a_stop, a_count, DPI_ALPHA_MIN)

    tomo_cfg = payload.get("tomography", "exact-states")
    tomography = None
    replicas = 1
    if tomo_cfg != "exact-states":
        if not isinstance(tomo_cfg, dict):
            raise ConfigError(
                "config.tomography must be \"exact-states\" or a settings object"
            )
        integration_time = check_positive(*_field(tomo_cfg, "integration_time_s", "tomography"))
        count_rate = check_positive(*_field(tomo_cfg, "count_rate_hz", "tomography"))
        seed = check_integer(*_field(tomo_cfg, "seed", "tomography"))
        with field_errors("config.tomography"):
            tomography = TomographySettings(integration_time, count_rate, seed)
        replicas = check_integer(
            *_field(tomo_cfg, "replicas", "tomography", 1), minimum=1, maximum=MAX_REPLICAS
        )

    sweep_cfg = payload.get("sweep")
    sweep_thicknesses = None
    sweep_orientation = 0.0
    sweep_birefringence = QUARTZ_BIREFRINGENCE
    if sweep_cfg is not None:
        _object(sweep_cfg, "config.sweep")
        thick = _require(sweep_cfg, "thicknesses_mm", "sweep")
        if not isinstance(thick, list) or not thick:
            raise ConfigError("sweep.thicknesses_mm must be a nonempty list")
        sweep_thicknesses = tuple(
            check_positive(t, f"sweep.thicknesses_mm[{i}]") for i, t in enumerate(thick)
        )
        sweep_orientation = check_real(*_field(sweep_cfg, "orientation_deg", "sweep", 0.0))
        sweep_birefringence = check_real(
            *_field(sweep_cfg, "birefringence", "sweep", QUARTZ_BIREFRINGENCE)
        )
        with field_errors("config.sweep"):
            for t in sweep_thicknesses:
                _sweep_stack(t, sweep_orientation, sweep_birefringence)
        if use_reference:
            raise ConfigError(
                "sweep scenarios simulate the coupling per thickness; coupling must "
                "be a stack object (its plates are ignored) and spectra/probes must "
                "be given"
            )

    return ScenarioConfig(
        spectra=spectra,
        probes=probes,
        stack=stack,
        alpha_grid=alpha_grid,
        tomography=tomography,
        replicas=replicas,
        require_bound=_boolean(*_field(payload, "require_bound", "config", False)),
        sweep_thicknesses_mm=sweep_thicknesses,
        sweep_orientation_deg=sweep_orientation,
        sweep_birefringence=sweep_birefringence,
        echo=payload,
    )


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(load_json(path, "config"))


def load_record(path) -> ProbingRecord:
    """Read a probing record JSON; a missing or malformed field is a ConfigError."""
    payload = load_json(path, "record")
    try:
        states = [
            DensityMatrix(matrix_from_json(payload[key]))
            for key in ("rho1", "rho2", "phi1_rho1", "phi2_rho2")
        ]
        return ProbingRecord(*states, delta_mu=check_real(payload["delta_mu_hz"], "delta_mu_hz"))
    except KeyError as exc:
        raise ConfigError(f"record {path} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"record {path}: {exc}") from exc


@dataclass(frozen=True)
class RunReport:
    """What a run produced: the summary dict and the files it wrote, summary.json last."""

    summary: dict
    files: tuple[str, ...]


def _write_report(
    out_dir: str, config, resolved: dict, results: dict, seed: int | None, writers: dict,
    uninformative: str | None = None,
) -> RunReport:
    """Write a run directory: each artifact (name -> writer of its path), then summary.json.

    The one exit-4 rule: a message in uninformative raises NoInformationError
    only after every file is written.
    """
    make_run_dir(out_dir)
    files = tuple(os.path.join(out_dir, name) for name in (*writers, "summary.json"))
    for write, path in zip(writers.values(), files):
        write(path)
    summary = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "resolved": resolved,
        "results": results,
        "provenance": {
            "package": f"alphaprobe {__version__}",
            "numpy": np.__version__,
            "seed": seed,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        },
        "files": [*writers, "summary.json"],
    }
    write_json(files[-1], summary)
    if uninformative is not None:
        raise NoInformationError(uninformative)
    return RunReport(summary=summary, files=files)


def _stack_echo(stack: WavePlateStack) -> dict:
    return {
        "birefringence": stack.birefringence,
        "plates": [
            {
                "thickness_mm": p.thickness * 1e3,
                "orientation_deg": math.degrees(p.orientation),
            }
            for p in stack.plates
        ],
    }


def _evolve(config: ScenarioConfig, stack: WavePlateStack) -> ProbingRecord:
    s1, s2 = config.spectra
    rho1, rho2 = config.probes
    with field_errors("coupling simulation stage"):
        return ProbingRecord(
            rho1=rho1,
            rho2=rho2,
            phi1_rho1=apply_channel(stack, s1, rho1),
            phi2_rho2=apply_channel(stack, s2, rho2),
            delta_mu=abs(s1.mu - s2.mu),
        )


def _truth_sigma(config: ScenarioConfig) -> float | None:
    if config.spectra is None:
        return REFERENCE_SIGMA_HZ
    s1, s2 = config.spectra
    return s1.sigma if math.isclose(s1.sigma, s2.sigma, rel_tol=1e-12) else None


def run_scenario(config: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Evolve, read out, bound, and write bound_curve.csv plus summary.json.

    With tomography settings the record fed to the bound curve is replica 0's
    reconstruction and, for replicas >= 2, the summary carries Monte-Carlo
    statistics over all replicas (null mean and std when none is informative).
    Raises NoInformationError, after writing both files, only when require_bound
    is set and no grid point of the (replica-0) record is informative.
    """
    if config.sweep_thicknesses_mm is not None:
        raise ConfigError("config has a sweep section; run sweep_thickness instead")

    resolved: dict = {}
    if config.stack is None:
        truth = reference_record()
        resolved["coupling"] = REFERENCE_LITERAL
    else:
        truth = _evolve(config, config.stack)
        resolved["coupling"] = _stack_echo(config.stack)
    resolved["delta_mu_hz"] = truth.delta_mu

    sigma_truth = _truth_sigma(config)
    mc_block = None
    # replica 0 is the single experiment the curve artifact describes; it comes
    # out of the Monte-Carlo pass, which also serves a single replica
    try:
        if config.tomography is None:
            curve = tightest_bound(truth, config.alpha_grid)
        else:
            mc = monte_carlo_bounds(
                truth, config.tomography, config.replicas, alpha_grid=config.alpha_grid
            )
            curve = mc.curve0
            if config.replicas >= 2:
                mc_block = mc.to_json()
                if sigma_truth is not None and mc.mean_b_inf is not None:
                    mc_block["mean_b_inf_over_sigma"] = mc.mean_b_inf / sigma_truth
    except ZeroCountsError as exc:
        raise ConfigError(f"tomography.integration_time_s too short: {exc}") from exc
    except DegenerateControlError as exc:
        raise DegenerateControlError(f"bound stage: {exc}") from exc

    results = bound_summary(curve, sigma_reference=sigma_truth)
    if mc_block is not None:
        results["monte_carlo"] = mc_block
    if sigma_truth is not None:
        results["sigma_truth_hz"] = sigma_truth

    seed = None if config.tomography is None else config.tomography.seed
    demanded = config.require_bound and curve.no_information
    return _write_report(
        out_dir, config.echo, resolved, results, seed,
        {"bound_curve.csv": partial(write_bound_curve_csv, curve)},
        "scenario demanded a bound but every grid point is uninformative" if demanded else None,
    )


def bound_record(
    record_path, alpha_grid=None, out_dir: str = ".", require_bound: bool = False
) -> RunReport:
    """Bound a probing record file into bound_curve.csv and summary.json.

    Then raises NoInformationError if require_bound finds no informative alpha.
    """
    record = load_record(record_path)
    curve = tightest_bound(record, alpha_grid)
    demanded = require_bound and curve.no_information
    return _write_report(
        out_dir, {"record": os.path.abspath(record_path)}, {"delta_mu_hz": record.delta_mu},
        bound_summary(curve), None, {"bound_curve.csv": partial(write_bound_curve_csv, curve)},
        "bound demanded but the record is uninformative" if demanded else None,
    )


def reproduce_fig4(out_dir: str = ".") -> RunReport:
    """Rebuild the demonstration bound curves and check the published values.

    Writes fig4_bounds.csv, fig4_fractions.csv, and summary.json. Raises
    GoldenCheckError when B2 at the grid ends leaves the 5% window around the
    published 2.22 sigma / 1.82 sigma, or when any fidelity fraction fails to
    stay below 1.
    """
    record = reference_record()
    curve = tightest_bound(record, default_alpha_grid())
    f_fwd, f_rev = curve.fractions

    checks = []
    b2_half = curve.b2[0] / REFERENCE_SIGMA_HZ
    b2_top = curve.b2[-1] / REFERENCE_SIGMA_HZ
    checks.append(("b2_half_over_sigma", b2_half, GOLDEN_B2_HALF_OVER_SIGMA))
    checks.append(("b2_top_over_sigma", b2_top, GOLDEN_B2_TOP_OVER_SIGMA))
    failures = [
        f"{name}: computed {got:.4f}, published {want} (tolerance {GOLDEN_RTOL:.0%})"
        for name, got, want in checks
        if math.isnan(got) or abs(got - want) > GOLDEN_RTOL * want
    ]
    if np.nanmax(f_fwd) >= 1.0 or np.nanmax(f_rev) >= 1.0:
        failures.append(
            "fidelity fractions must stay below 1 over the whole grid, got max "
            f"{max(np.nanmax(f_fwd), np.nanmax(f_rev)):.6f}"
        )
    if failures:
        raise GoldenCheckError("; ".join(failures))

    results = bound_summary(curve, sigma_reference=REFERENCE_SIGMA_HZ)
    results["b2_half_over_sigma"] = float(b2_half)
    results["b2_top_over_sigma"] = float(b2_top)
    results["published_b2_half_over_sigma"] = GOLDEN_B2_HALF_OVER_SIGMA
    results["published_b2_top_over_sigma"] = GOLDEN_B2_TOP_OVER_SIGMA
    results["sigma_truth_hz"] = REFERENCE_SIGMA_HZ
    header = ["alpha", "fraction_forward", "fraction_reversed"]
    rows = zip(curve.alphas.tolist(), f_fwd.tolist(), f_rev.tolist())
    writers = {
        "fig4_bounds.csv": partial(write_bound_curve_csv, curve),
        "fig4_fractions.csv": lambda path: write_csv(path, header, rows),
    }
    config, resolved = {"coupling": REFERENCE_LITERAL}, {"delta_mu_hz": record.delta_mu}
    return _write_report(out_dir, config, resolved, results, None, writers)


def sweep_thickness(config: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Exact-state bound optimum per plate thickness of an aligned stack.

    One plate per thickness at the sweep orientation; readout is exact
    (tomography settings are ignored here). Writes sweep.csv and summary.json,
    then raises NoInformationError if require_bound finds no informative one.
    """
    if config.sweep_thicknesses_mm is None:
        raise ConfigError("config.sweep.thicknesses_mm is required for a sweep")
    sigma_truth = _truth_sigma(config)

    rows = []
    for thickness_mm in config.sweep_thicknesses_mm:
        stack = _sweep_stack(
            thickness_mm, config.sweep_orientation_deg, config.sweep_birefringence
        )
        record = _evolve(config, stack)
        curve = tightest_bound(record, config.alpha_grid)
        entry = bound_summary(curve, sigma_reference=sigma_truth)
        entry["thickness_mm"] = thickness_mm
        rows.append(entry)

    columns = [
        "thickness_mm", "b_inf_hz", "b_inf_over_sigma", "alpha_star", "family", "no_information"
    ]
    table = ([r.get(c) for c in columns] for r in rows)
    resolved = {
        "orientation_deg": config.sweep_orientation_deg,
        "birefringence": config.sweep_birefringence,
    }
    results = {"thicknesses": rows, "sigma_truth_hz": sigma_truth}
    demanded = config.require_bound and all(r["no_information"] for r in rows)
    return _write_report(
        out_dir, config.echo, resolved, results, None,
        {"sweep.csv": lambda path: write_csv(path, columns, table)},
        "sweep demanded a bound but every thickness is uninformative" if demanded else None,
    )
