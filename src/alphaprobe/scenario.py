"""Scenario configs, end-to-end runs, and machine-readable reports.

A scenario JSON describes the physics (two environment lines, two probe
preparations, a wave-plate stack) and the readout (exact states or
shot-noise tomography with replicas). Running it produces a bound curve CSV
and a summary JSON; every number printed to the console also appears in one
of those artifacts. Reruns with identical config and seeds on one machine and one
numpy SIMD dispatch path are byte-identical except for the generated_at
timestamp; another path may move last digits (fig4_bounds.csv's B2 at alpha =
0.9999 reads 1.034372368278e+12 with AVX-512 dispatch, 1.034372368280e+12 with AVX2).
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, partial

import numpy as np

from . import __version__
from .bounds import (
    NoInformationError,
    ProbingRecord,
    bound_summary,
    tightest_bound,
    width_ratio,
    write_bound_curve_csv,
    write_csv,
)
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
from .reference import REFERENCE_SIGMA_HZ, reference_record

# channel, spectra and tomography are imported where a config or run needs them,
# so a CLI process that never simulates or samples does not load them

SCHEMA_VERSION = "probe-scenario/1"

REFERENCE_LITERAL = "paper-matrices"

# published demonstration values with the acceptance tolerance of 5%
GOLDEN_B2_HALF_OVER_SIGMA = 2.22
GOLDEN_B2_TOP_OVER_SIGMA = 1.82
GOLDEN_RTOL = 0.05

RECORD_STATES = ("rho1", "rho2", "phi1_rho1", "phi2_rho2")

PLUS_STATE = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

# the deepest input the schema defines has 5 levels (root, probes, rho1, re, a row); a deeper
# one is rejected when read, before the summary's echo of it could run out of recursion
MAX_JSON_DEPTH = 64


class ConfigError(ValueError):
    """Scenario config is malformed; the message names the offending field."""


class OutputError(ConfigError):
    """An output directory or file cannot be created or written; the message names its path."""


class GoldenCheckError(RuntimeError):
    """A reproduction run disagrees with the published demonstration values."""


def load_json(path, what: str):
    """Read a JSON document; unreadable, malformed or too deeply nested files are ConfigErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, long integers, deep nesting
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    level, depth = [document], 0  # one container level at a time: no recursion
    while level := [v for v in level if isinstance(v, (dict, list))]:
        depth += 1
        if depth > MAX_JSON_DEPTH:
            raise ConfigError(f"{what} {path} is nested deeper than {MAX_JSON_DEPTH} levels")
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return document


@contextmanager
def field_errors(path: str):
    """Re-raise a domain ValueError from the block as a ConfigError naming path."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_output(path, write, what: str = "output file") -> str:
    """Call write(path), creating no directory, and return path; an OSError is a ConfigError."""
    try:
        write(path)
    except OSError as exc:
        raise OutputError(f"{what} {path} cannot be written: {exc.strerror}") from exc
    return path


def write_run_dir(out_dir, writers: dict) -> tuple[str, ...]:
    """Make out_dir and its parents, then write each file (name -> writer of its path) in order.

    One mkdir makes a new directory under an existing one; makedirs decides every other case.
    """
    try:
        try:
            os.mkdir(out_dir)
        except (FileNotFoundError, FileExistsError):  # a parent missing, or out_dir there
            os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"output directory {out_dir} cannot be created: {exc.strerror}") from exc
    return tuple(write_output(os.path.join(out_dir, n), w) for n, w in writers.items())


_REQUIRED = object()


def _field(payload: dict, key: str, path: str, default=_REQUIRED) -> tuple:
    """(value, field path) of payload[key], the arguments of a check rule; "" is the root path."""
    where = f"{path}.{key}" if path else key
    if key not in payload and default is _REQUIRED:
        raise ConfigError(f"{where} is required")
    return payload.get(key, default), where


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def read_state(payload, path: str, qubit: bool = False) -> DensityMatrix:
    """The state (a qubit if asked) of a matrix JSON payload; errors are ConfigErrors on path."""
    with field_errors(path):
        matrix = matrix_from_json(payload)
        return DensityMatrix(check_qubit(matrix) if qubit else matrix)


def _parse_spectrum(payload, path: str) -> GaussianSpectrum:
    from .spectra import GaussianSpectrum

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


@cache
def _plus_probe() -> DensityMatrix:
    """The "plus" probe, validated once: it is immutable."""
    return DensityMatrix(PLUS_STATE)


def _parse_probe(payload, path: str) -> DensityMatrix:
    if payload == "plus":
        return _plus_probe()
    if isinstance(payload, dict):
        return read_state(payload, path, qubit=True)
    raise ConfigError(f"{path} must be \"plus\" or a matrix object, got {payload!r}")


def _parse_stack(payload, path: str) -> tuple[WavePlateStack, dict]:
    """The stack and its echo: each value as read, a "random" orientation as drawn."""
    from .channel import QUARTZ_BIREFRINGENCE, WavePlate, WavePlateStack

    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must be an object or the literal "
                          f"{REFERENCE_LITERAL!r}")
    plates_cfg = _field(payload, "plates", path)[0]
    if not isinstance(plates_cfg, list) or not plates_cfg:
        raise ConfigError(f"{path}.plates must be a nonempty list")
    birefringence = check_real(*_field(payload, "birefringence", path, QUARTZ_BIREFRINGENCE))
    needs_seed = any(
        isinstance(p, dict) and p.get("orientation_deg") == "random" for p in plates_cfg
    )
    if "orientation_seed" in payload:  # checked even where no orientation draws from it
        seed = check_integer(*_field(payload, "orientation_seed", path), minimum=0)
    elif needs_seed:
        raise ConfigError(
            f"{path}.orientation_seed is required when any orientation is \"random\""
        )
    rng = None
    if needs_seed:
        from .tomography import rng_stream

        rng = rng_stream(seed, ())
    plates, echo = [], []
    for i, plate_cfg in enumerate(plates_cfg):
        ppath = f"{path}.plates[{i}]"
        _object(plate_cfg, ppath)
        thickness_mm = check_positive(*_field(plate_cfg, "thickness_mm", ppath))
        if plate_cfg.get("orientation_deg") == "random":
            theta = float(rng.uniform(0.0, 180.0))
        else:
            theta = check_real(*_field(plate_cfg, "orientation_deg", ppath, 0.0))
        echo.append({"thickness_mm": thickness_mm, "orientation_deg": theta})
        with field_errors(f"{ppath}.thickness_mm"):  # a thickness that underflows in meters
            plates.append(
                WavePlate(thickness=thickness_mm * 1e-3, orientation=math.radians(theta))
            )
    with field_errors(path):
        stack = WavePlateStack(plates=tuple(plates), birefringence=birefringence)
    return stack, {"birefringence": birefringence, "plates": echo}


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
    sweep_stacks: tuple[tuple[float, WavePlateStack], ...] | None  # (thickness_mm, one plate)
    resolved: dict  # the summary's resolved block but delta_mu_hz, each value as parsed
    echo: dict


def parse_scenario(payload: dict) -> ScenarioConfig:
    """A scenario config from its JSON payload; a malformed field is a ConfigError naming it."""
    try:
        return _parse_config(payload)
    except ConfigError:  # from _field, _object, _boolean and field_errors
        raise
    except ValueError as exc:  # the one conversion of a check_* rule, whose message names the path
        raise ConfigError(str(exc)) from exc


def _parse_config(payload: dict) -> ScenarioConfig:
    from .spectra import _check_grid_shape

    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"schema must be {SCHEMA_VERSION!r}, got {schema!r}"
        )

    coupling = _field(payload, "coupling", "config")[0]
    use_reference = coupling == REFERENCE_LITERAL
    stack, echoed = (None, coupling) if use_reference else _parse_stack(coupling, "coupling")
    resolved = {"coupling": echoed}

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
        if "spectra" in payload:
            raise ConfigError(
                f"spectra must be omitted when coupling is {REFERENCE_LITERAL!r}: the "
                "bundled record fixes its lines"
            )
    else:
        spectra_cfg = _object(*_field(payload, "spectra", "config"))
        spectra = tuple(
            _parse_spectrum(*_field(spectra_cfg, k, "spectra")) for k in ("first", "second")
        )
        if spectra[0].mu == spectra[1].mu:  # a zero control shift bounds nothing
            raise ConfigError("spectra.first and spectra.second must have different line "
                              f"centers, got {spectra[0].mu!r} Hz for both")
        if probes_cfg is None:
            raise ConfigError("config.probes is required for a simulated coupling")
        if probes_cfg == REFERENCE_LITERAL:
            probes = (reference_record().rho1, reference_record().rho2)
        elif isinstance(probes_cfg, dict):
            probes = tuple(
                _parse_probe(*_field(probes_cfg, k, "probes")) for k in ("rho1", "rho2")
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
        from .tomography import MAX_REPLICAS, TomographySettings

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
    sweep_stacks = None
    if sweep_cfg is not None:
        from .channel import QUARTZ_BIREFRINGENCE, WavePlate, WavePlateStack

        _object(sweep_cfg, "config.sweep")
        thick = _field(sweep_cfg, "thicknesses_mm", "sweep")[0]
        if not isinstance(thick, list) or not thick:
            raise ConfigError("sweep.thicknesses_mm must be a nonempty list")
        mm = [check_positive(t, f"sweep.thicknesses_mm[{i}]") for i, t in enumerate(thick)]
        orientation = check_real(*_field(sweep_cfg, "orientation_deg", "sweep", 0.0))
        dn = check_real(*_field(sweep_cfg, "birefringence", "sweep", QUARTZ_BIREFRINGENCE))
        resolved = {"orientation_deg": orientation, "birefringence": dn}
        theta = math.radians(orientation)
        with field_errors("config.sweep"):  # one plate per thickness
            sweep_stacks = tuple(
                (t, WavePlateStack((WavePlate(t * 1e-3, theta),), dn)) for t in mm
            )
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
        sweep_stacks=sweep_stacks,
        resolved=resolved,
        echo=payload,
    )


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(load_json(path, "config"))


def load_record(path) -> ProbingRecord:
    """Read the `bound --record` JSON; an error is a ConfigError naming the flag, file and field."""
    payload = load_json(path, "--record")
    with field_errors(f"--record {path}"):
        _object(payload, "document root")
        states = [read_state(*_field(payload, key, "")) for key in RECORD_STATES]
        return ProbingRecord(*states, check_positive(*_field(payload, "delta_mu_hz", "")))


@dataclass(frozen=True)
class RunReport:
    """What a run produced: the summary dict and the files it wrote, summary.json last."""

    summary: dict
    files: tuple[str, ...]


def _write_report(
    out: str, config, resolved: dict, results: dict, seed: int | None, writers: dict,
    uninformative: str | None = None,
) -> RunReport:
    """Write the run directory out: each artifact (name -> writer of its path), then summary.json.

    The one exit-4 rule: a message in uninformative raises NoInformationError
    only after every file is written.
    """
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
    files = write_run_dir(out, {**writers, "summary.json": partial(write_json, payload=summary)})
    if uninformative is not None:
        raise NoInformationError(uninformative)
    return RunReport(summary=summary, files=files)


def _evolve(config: ScenarioConfig, stack: WavePlateStack) -> ProbingRecord:
    from .channel import _exact_channel

    s1, s2 = config.spectra
    rho1, rho2 = config.probes
    with field_errors("coupling simulation stage"):
        evolved = _exact_channel(stack, config.spectra, [rho1.matrix, rho2.matrix])
        return ProbingRecord(rho1, rho2, *map(DensityMatrix, evolved), abs(s1.mu - s2.mu))


def _truth_sigma(config: ScenarioConfig) -> float | None:
    if config.spectra is None:
        return REFERENCE_SIGMA_HZ
    s1, s2 = config.spectra
    return s1.sigma if math.isclose(s1.sigma, s2.sigma, rel_tol=1e-12) else None


def run_scenario(config: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Evolve, read out, bound, and write bound_curve.csv plus summary.json.

    With tomography settings the record fed to the bound curve is replica 0's
    reconstruction and, for replicas >= 2, the summary carries Monte-Carlo
    statistics over all replicas (null mean and std when none is informative),
    with the share of replicas whose bound lies below a known true width.
    Raises NoInformationError, after writing both files, only when require_bound
    is set and no grid point of the (replica-0) record is informative.
    """
    if config.sweep_stacks is not None:
        raise ConfigError("config has a sweep section; run sweep_thickness instead")

    truth = reference_record() if config.stack is None else _evolve(config, config.stack)
    sigma_truth = _truth_sigma(config)
    # replica 0 is the single experiment the curve artifact describes; it comes
    # out of the Monte-Carlo pass, which also serves a single replica
    mc = None
    if config.tomography is None:
        curve = tightest_bound(truth, config.alpha_grid)
    else:
        from .tomography import ZeroCountsError, monte_carlo_bounds

        try:
            mc = monte_carlo_bounds(
                truth, config.tomography, config.replicas, alpha_grid=config.alpha_grid
            )
        except ZeroCountsError as exc:
            raise ConfigError(f"tomography.integration_time_s too short: {exc}") from exc
        curve = mc.curve0

    with field_errors("spectra"):  # a finite bound over a tiny width can overflow
        results = bound_summary(curve, sigma_reference=sigma_truth)
        if mc is not None and mc.replicas >= 2:
            results["monte_carlo"] = mc_block = mc.to_json()
            if sigma_truth is not None:
                if mc.mean_b_inf is not None:
                    mc_block["mean_b_inf_over_sigma"] = width_ratio(mc.mean_b_inf, sigma_truth)
                # a replica without a bound is not below the truth
                below = sum(v is not None and v < sigma_truth for v in mc.values)
                mc_block["below_truth_fraction"] = below / mc.replicas
    if sigma_truth is not None:
        results["sigma_truth_hz"] = sigma_truth

    seed = None if config.tomography is None else config.tomography.seed
    demanded = config.require_bound and curve.no_information
    return _write_report(
        out_dir, config.echo, {**config.resolved, "delta_mu_hz": truth.delta_mu}, results, seed,
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
    alphas, (f_fwd, f_rev) = curve.alphas, curve.fractions

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
    writers = {
        "fig4_bounds.csv": partial(write_bound_curve_csv, curve),
        "fig4_fractions.csv": partial(write_csv, header=header, columns=(alphas, f_fwd, f_rev)),
    }
    config, resolved = {"coupling": REFERENCE_LITERAL}, {"delta_mu_hz": record.delta_mu}
    return _write_report(out_dir, config, resolved, results, None, writers)


def sweep_thickness(config: ScenarioConfig, out_dir: str = ".") -> RunReport:
    """Exact-state bound optimum per plate thickness of an aligned stack.

    One plate per thickness at the sweep orientation; readout is exact
    (tomography settings are ignored here). Every thickness is evolved before
    tightest_bound bounds each in turn. Writes sweep.csv and summary.json, then
    raises NoInformationError if require_bound finds no informative one.
    """
    if config.sweep_stacks is None:
        raise ConfigError("config.sweep.thicknesses_mm is required for a sweep")
    sigma_truth = _truth_sigma(config)

    records = [_evolve(config, stack) for _, stack in config.sweep_stacks]
    rows = []
    for (thickness_mm, _), record in zip(config.sweep_stacks, records):
        curve = tightest_bound(record, config.alpha_grid)
        with field_errors("spectra"):
            entry = bound_summary(curve, sigma_reference=sigma_truth)
        entry["thickness_mm"] = thickness_mm
        rows.append(entry)

    numbers = ["thickness_mm", "b_inf_hz", "b_inf_over_sigma", "alpha_star"]
    columns = [np.array([r.get(c) for r in rows], dtype=float) for c in numbers]  # None: NaN
    columns += [[r["family"] or "" for r in rows], np.array([r["no_information"] for r in rows])]
    header = [*numbers, "family", "no_information"]
    results = {"thicknesses": rows, "sigma_truth_hz": sigma_truth}
    demanded = config.require_bound and all(r["no_information"] for r in rows)
    return _write_report(
        out_dir, config.echo, config.resolved, results, None,
        {"sweep.csv": partial(write_csv, header=header, columns=columns)},
        "sweep demanded a bound but every thickness is uninformative" if demanded else None,
    )
