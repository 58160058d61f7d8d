"""Every malformed input exits 2 and names the offending field on stderr.

One row per case: the CLI arguments (built from a config or state file in a
temporary directory), and the field path the error message must contain.
Malformed state and record files have their own table, keyed by the flag,
file or field the message must name; a record error must name its file too.
"""
import json

import numpy as np
import pytest

from alphaprobe.cli import EXIT_CONFIG, main
from alphaprobe.fidelity import MAX_ALPHA_COUNT
from alphaprobe.linalg import matrix_to_json
from alphaprobe.reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_EVOLVED_1,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from alphaprobe.scenario import SCHEMA_VERSION
from alphaprobe.tomography import MAX_REPLICAS


def base_config():
    return {
        "schema": SCHEMA_VERSION,
        "spectra": {
            "first": {"mu_hz": 3.7e14, "sigma_hz": REFERENCE_SIGMA_HZ},
            "second": {
                "mu_hz": 3.7e14 + REFERENCE_DELTA_MU_HZ,
                "sigma_hz": REFERENCE_SIGMA_HZ,
            },
        },
        "probes": {"rho1": "plus", "rho2": "plus"},
        "coupling": {"plates": [{"thickness_mm": 5.0, "orientation_deg": 0.0}]},
        "alpha_grid": {"start": 0.5, "stop": 0.9999, "count": 20},
        "grid": {"span_sigmas": 8.0, "points": 101},
    }


def sweep_config():
    cfg = base_config()
    cfg["sweep"] = {"thicknesses_mm": [2.0, 5.0]}
    return cfg


def tomography_config(**settings):
    cfg = base_config()
    cfg["tomography"] = {
        "integration_time_s": 60.0,
        "count_rate_hz": 200.0,
        "seed": 3,
        **settings,
    }
    return cfg


def edited(cfg, path, value):
    """cfg with the value at a dotted path (list items as integers) replaced."""
    keys = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cfg


QUTRIT = matrix_to_json(np.eye(3) / 3)


def stringified(payload, part, row, col):
    """A matrix payload with one entry of its re or im rows as a numeric string."""
    payload[part][row][col] = repr(payload[part][row][col])
    return payload


# the plus state with every real part given as a numeric string
STRING_PLUS = {"dim": 2, "re": [["0.5", "0.5"], ["0.5", "0.5"]], "im": [[0, 0], [0, 0]]}


def reference_record_json():
    record = reference_record()
    payload = {key: getattr(record, key).to_json()
               for key in ("rho1", "rho2", "phi1_rho1", "phi2_rho2")}
    payload["delta_mu_hz"] = record.delta_mu
    return payload


def record_with(key, value):
    """The reference record JSON with one field replaced."""
    return dict(reference_record_json(), **{key: value})


def state_with(matrix, part, row, col, value):
    """A matrix payload with one entry of its re or im rows replaced."""
    payload = matrix_to_json(matrix)
    payload[part][row][col] = value
    return payload


def nine_plate_config():
    plates = [{"thickness_mm": 1.0 + i, "orientation_deg": 20.0 * i} for i in range(9)]
    return edited(base_config(), "coupling.plates", plates)


def random_orientation_config(seed):
    cfg = base_config()
    cfg["coupling"]["plates"][0]["orientation_deg"] = "random"
    cfg["coupling"]["orientation_seed"] = seed
    return cfg


def wavelength_config(center_nm):
    line = {"center_wavelength_nm": center_nm, "width_nm": 1.0}
    return edited(base_config(), "spectra.first", line)


# (case id, subcommand, config or None, extra arguments, expected field path)
CASES = [
    ("birefringence-string", "simulate",
     edited(base_config(), "coupling.birefringence", "abc"), [],
     "coupling.birefringence"),
    ("span-string", "simulate", edited(base_config(), "grid.span_sigmas", "x"), [],
     "grid.span_sigmas"),
    ("alpha-count-string", "simulate", edited(base_config(), "alpha_grid.count", "x"), [],
     "alpha_grid.count"),
    ("replicas-string", "simulate", tomography_config(replicas="x"), [],
     "tomography.replicas"),
    ("orientation-seed-string", "simulate", random_orientation_config("x"), [],
     "orientation_seed"),
    ("sweep-orientation-string", "sweep",
     edited(sweep_config(), "sweep.orientation_deg", "x"), [], "sweep.orientation_deg"),
    ("sweep-qutrit-probe", "sweep", edited(sweep_config(), "probes.rho1", QUTRIT), [],
     "probes.rho1"),
    ("sweep-even-grid", "sweep", edited(sweep_config(), "grid.points", 100), [],
     "config.grid"),
    ("sweep-zero-birefringence", "sweep",
     edited(sweep_config(), "sweep.birefringence", 0.0), [], "config.sweep"),
    ("zero-count-basis", "simulate",
     tomography_config(integration_time_s=0.001, count_rate_hz=1.0), [],
     "tomography.integration_time_s"),
    ("zero-count-tomography", "tomography", None,
     ["--time", "0.001", "--rate", "1", "--seed", "7"], "--time"),
    ("fractional-seed", "simulate", tomography_config(seed=1.5), [], "tomography.seed"),
    ("require-bound-string", "simulate", dict(base_config(), require_bound="no"), [],
     "require_bound"),
    ("alpha-start-bool", "simulate", edited(base_config(), "alpha_grid.start", True), [],
     "alpha_grid.start"),
    ("alpha-count-one", "afid", None, ["--alpha-count", "1"], "--alpha-count"),
    ("probe-string-entries", "simulate", edited(base_config(), "probes.rho1", STRING_PLUS),
     [], "probes.rho1"),
    ("nine-plates", "simulate", nine_plate_config(), [], "coupling"),
    ("alpha-count-over-max", "simulate",
     edited(base_config(), "alpha_grid.count", MAX_ALPHA_COUNT + 1), [],
     "config.alpha_grid: count"),
    ("alpha-count-flag-over-max", "afid", None, ["--alpha-count", str(MAX_ALPHA_COUNT + 1)],
     "--alpha-count"),
    ("replicas-over-max", "simulate", tomography_config(replicas=MAX_REPLICAS + 1), [],
     "tomography.replicas"),
    ("wavelength-underflow", "simulate", wavelength_config(5e-324), [],
     "spectra.first.center_wavelength_nm"),
    ("wavelength-overflow", "simulate", wavelength_config(1e300), [],
     "spectra.first.center_wavelength_nm"),
    ("thickness-underflow", "simulate",
     edited(base_config(), "coupling.plates.0.thickness_mm", 5e-324), [],
     "coupling.plates[0].thickness_mm"),
    ("acquisition-beyond-2**53", "simulate",
     tomography_config(integration_time_s=1e10, count_rate_hz=1e10), [], "config.tomography"),
    ("acquisition-flags-beyond-2**53", "tomography", None,
     ["--time", "1e10", "--rate", "1e10", "--seed", "7"], "--time/--rate/--seed"),
    # "{tmp}" is the test's temporary directory, which holds config.json and state.json
    ("out-is-a-file", "simulate", base_config(), ["--out", "{tmp}/config.json"],
     "output directory"),
    ("out-under-a-file", "tomography", None,
     ["--time", "60", "--rate", "200", "--seed", "7", "--out", "{tmp}/state.json/run"],
     "output directory"),
    ("csv-in-a-missing-directory", "afid", None, ["--csv", "{tmp}/missing/x.csv"], "--csv"),
    ("config-root-not-an-object", "simulate", [base_config()], [], "config root"),
    ("spectra-not-an-object", "simulate", dict(base_config(), spectra=[]), [],
     "config.spectra"),
    ("coupling-not-an-object", "simulate", dict(base_config(), coupling=5), [], "coupling"),
    ("probes-not-an-object", "simulate", dict(base_config(), probes=5), [], "config.probes"),
    ("tomography-not-an-object", "simulate", dict(base_config(), tomography=5), [],
     "config.tomography"),
    ("sweep-no-thicknesses", "sweep", edited(sweep_config(), "sweep.thicknesses_mm", []), [],
     "sweep.thicknesses_mm"),
    # a numeric string is quoted, so it cannot be read as a valid value
    ("mu-numeric-string", "simulate", edited(base_config(), "spectra.first.mu_hz", "3.7e14"), [],
     "spectra.first.mu_hz must be positive, got '3.7e14'"),
]


@pytest.mark.parametrize(
    "subcommand, config, extra, field", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_malformed_input_exits_2_naming_the_field(
    tmp_path, capsys, subcommand, config, extra, field
):
    out = str(tmp_path / "out")
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(REFERENCE_EVOLVED_1)), encoding="utf-8")
    if subcommand in ("simulate", "sweep"):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [subcommand, "--config", str(path), "--out", out]
    elif subcommand == "tomography":
        argv = ["tomography", "--state", str(state), "--out", out]
    else:
        argv = ["afid", "--rho1", str(state), "--rho2", str(state)]
    code = main(argv + [arg.format(tmp=tmp_path) for arg in extra])
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err


# (case id, subcommand, malformed file payload, flag or file name in the message)
FILE_CASES = [
    ("afid-dimension-mismatch", "afid", QUTRIT, "--rho1/--rho2"),
    ("afid-string-entry", "afid",
     stringified(matrix_to_json(REFERENCE_EVOLVED_1), "re", 0, 0), "--rho2"),
    ("afid-fractional-dim", "afid", dict(matrix_to_json(np.eye(2) / 2), dim=2.7), "--rho2"),
    ("bound-string-entry", "bound",
     dict(reference_record_json(),
          phi1_rho1=stringified(reference_record().phi1_rho1.to_json(), "im", 0, 1)),
     "record.json"),
    ("tomography-qutrit", "tomography", QUTRIT, "--state"),
    ("record-not-an-object", "bound", [reference_record_json()], "document root"),
    ("record-rho1-without-im", "bound",
     record_with("rho1", {"dim": 2, "re": [[1, 0], [0, 0]]}), ": rho1:"),
    ("record-rho2-not-hermitian", "bound",
     record_with("rho2", state_with(np.eye(2) / 2, "re", 0, 1, 0.3)), ": rho2:"),
    ("record-phi1-negative", "bound",
     record_with("phi1_rho1", matrix_to_json(np.diag([1.5, -0.5]))), ": phi1_rho1:"),
    ("record-phi2-trace", "bound",
     record_with("phi2_rho2", state_with(REFERENCE_EVOLVED_1, "re", 0, 0,
                                         REFERENCE_EVOLVED_1[0, 0].real + 0.991)),
     ": phi2_rho2:"),
    # a numeric string is quoted, so it cannot be read as a valid shift
    ("record-shift-string", "bound", record_with("delta_mu_hz", "1e12"),
     ": delta_mu_hz must be positive, got '1e12'"),
    ("record-shift-zero", "bound", record_with("delta_mu_hz", 0), ": delta_mu_hz"),
    ("record-shift-negative", "bound", record_with("delta_mu_hz", -1.0), ": delta_mu_hz"),
    ("record-rho1-not-an-object", "bound", record_with("rho1", 5),
     ": rho1: matrix payload must be a JSON object, got int"),
]


@pytest.mark.parametrize(
    "subcommand, payload, name", [c[1:] for c in FILE_CASES], ids=[c[0] for c in FILE_CASES]
)
def test_malformed_file_exits_2_naming_it(tmp_path, capsys, subcommand, payload, name):
    bad = tmp_path / ("record.json" if subcommand == "bound" else "rho2.json")
    bad.write_text(json.dumps(payload), encoding="utf-8")
    out = str(tmp_path / "out")
    if subcommand == "bound":
        argv = ["bound", "--record", str(bad), "--out", out]
    elif subcommand == "tomography":
        argv = ["tomography", "--state", str(bad), "--time", "60", "--rate", "200",
                "--seed", "7", "--out", out]
    else:
        state = tmp_path / "rho1.json"
        state.write_text(json.dumps(matrix_to_json(REFERENCE_EVOLVED_1)), encoding="utf-8")
        argv = ["afid", "--rho1", str(state), "--rho2", str(bad)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert name in err
    if subcommand == "bound":  # a record error names the file as well as the field
        assert "record.json" in err


def test_state_file_that_is_not_an_object_exits_2_naming_its_flag(tmp_path, capsys):
    bad = tmp_path / "rho1.json"
    bad.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]), encoding="utf-8")
    state = tmp_path / "rho2.json"
    state.write_text(json.dumps(matrix_to_json(REFERENCE_EVOLVED_1)), encoding="utf-8")
    assert main(["afid", "--rho1", str(bad), "--rho2", str(state)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--rho1 state {bad}: matrix payload must be a JSON object, got list" in err
