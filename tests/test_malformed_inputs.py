"""Every malformed input exits 2 and names the offending field on stderr.

One row per case: the CLI arguments (built from a config or state file in a
temporary directory), and the field path the error message must contain.
Malformed state and record files have their own table, keyed by the flag,
file or field the message must name; a record error must name its file too.
"""
import errno
import json
import os

import numpy as np
import pytest

from alphaprobe.cli import EXIT_CONFIG, EXIT_NO_INFORMATION, EXIT_OK, main
from alphaprobe.fidelity import MAX_ALPHA_COUNT
from alphaprobe.linalg import matrix_to_json
from alphaprobe.reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_EVOLVED_1,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from alphaprobe.scenario import MAX_JSON_DEPTH, SCHEMA_VERSION
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


def tiny_width_config():
    """Lines so narrow that a finite bound over their width overflows b_inf_over_sigma."""
    cfg = base_config()
    cfg["spectra"] = {key: {"mu_hz": mu, "sigma_hz": 1e-170}
                      for key, mu in (("first", 1e150), ("second", 2e150))}
    return cfg


def narrow_lines_config():
    """Lines so narrow that the delay phase 2 pi tau mu of a 2.5e306 mm plate overflows
    where its damping is still nonzero."""
    cfg = base_config()
    cfg["spectra"] = {key: {"mu_hz": mu, "sigma_hz": 1e-300}
                      for key, mu in (("first", 3.7e14), ("second", 3.8e14))}
    return cfg


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
    # the seed is checked even where every orientation is fixed and none draws from it
    ("orientation-seed-string-fixed-plates", "simulate",
     edited(base_config(), "coupling.orientation_seed", "x"), [], "coupling.orientation_seed"),
    ("orientation-seed-negative-fixed-plates", "simulate",
     edited(base_config(), "coupling.orientation_seed", -5), [], "coupling.orientation_seed"),
    # the bundled coupling reads no spectra, so a spectra block beside it is rejected
    ("spectra-beside-bundled-coupling", "simulate",
     {"schema": SCHEMA_VERSION, "coupling": "paper-matrices", "spectra": "garbage"}, [],
     "spectra must be omitted"),
    ("spectra-lines-beside-bundled-coupling", "simulate",
     {"schema": SCHEMA_VERSION, "coupling": "paper-matrices",
      "spectra": {"first": {"mu_hz": -1}}}, [], "spectra must be omitted"),
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
    ("alpha-with-alpha-count", "afid", None, ["--alpha", "0.7", "--alpha-count", "5"],
     "--alpha cannot be combined with --alpha-count"),
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
    ("out-empty-path", "simulate", base_config(), ["--out", ""],
     "output directory  cannot be created: No such file or directory"),
    ("out-under-a-file", "tomography", None,
     ["--time", "60", "--rate", "200", "--seed", "7", "--out", "{tmp}/state.json/run"],
     "output directory"),
    ("csv-in-a-missing-directory", "afid", None, ["--csv", "{tmp}/missing/x.csv"], "--csv"),
    ("alpha-below-the-least-order", "afid", None, ["--alpha", "1e-308"],
     "--alpha: alpha must lie in [1.5370265692228274e-307, 1), got 1e-308"),
    ("alpha-stop-infinite", "afid", None, ["--alpha-stop", "inf"],
     "stop must be a finite number, got inf"),
    ("alpha-start-nan", "afid", None, ["--alpha-start", "nan"],
     "start must be a finite number, got nan"),
    ("csv-empty-path", "afid", None, ["--csv", ""], "--csv  cannot be written"),
    ("width-ratio-overflow", "simulate", tiny_width_config(), [], "spectra: a bound of"),
    ("width-ratio-overflow-sweep", "sweep",
     dict(tiny_width_config(), sweep={"thicknesses_mm": [5.0]}), [], "spectra: a bound of"),
    ("config-root-not-an-object", "simulate", [base_config()], [], "config root"),
    ("spectra-not-an-object", "simulate", dict(base_config(), spectra=[]), [],
     "config.spectra"),
    ("coupling-not-an-object", "simulate", dict(base_config(), coupling=5), [], "coupling"),
    ("probes-not-an-object", "simulate", dict(base_config(), probes=5), [], "config.probes"),
    ("tomography-not-an-object", "simulate", dict(base_config(), tomography=5), [],
     "config.tomography"),
    ("sweep-no-thicknesses", "sweep", edited(sweep_config(), "sweep.thicknesses_mm", []), [],
     "sweep.thicknesses_mm"),
    # dn x = 1e310 m: the plate delay dn x / c overflows a float
    ("delay-overflow", "simulate",
     edited(edited(base_config(), "coupling.birefringence", 1e300),
            "coupling.plates.0.thickness_mm", 1e13), [], "coupling: plate delays"),
    ("delay-overflow-sweep", "sweep",
     edited(sweep_config(), "sweep", {"thicknesses_mm": [5.0, 1e13], "birefringence": 1e300}),
     [], "config.sweep: plate delays"),
    ("phase-overflow", "simulate",
     edited(narrow_lines_config(), "coupling.plates.0.thickness_mm", 2.5e306), [],
     "coupling simulation stage: the line phase 2 pi tau mu overflows"),
    ("phase-overflow-sweep", "sweep",
     dict(narrow_lines_config(), sweep={"thicknesses_mm": [2.5e306]}), [],
     "coupling simulation stage: the line phase 2 pi tau mu overflows"),
    # every thickness is evolved before any is bounded: the 5 mm plate's bound over a
    # 1e-300 Hz width would overflow, but the later plate's evolve error comes first
    ("phase-overflow-after-width-overflow-sweep", "sweep",
     dict(narrow_lines_config(), sweep={"thicknesses_mm": [5.0, 2.5e306]}), [],
     "coupling simulation stage: the line phase 2 pi tau mu overflows"),
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
    assert not (tmp_path / "out").exists()  # rejected before any file is written


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


# (subcommand, the artifact whose path is made a directory before the run)
BLOCKED_ARTIFACTS = [
    ("simulate", "bound_curve.csv"),
    ("bound", "summary.json"),
    ("sweep", "sweep.csv"),
    ("reproduce-fig4", "fig4_fractions.csv"),
    ("tomography", "reconstructed.json"),
]


@pytest.mark.parametrize("subcommand, artifact", BLOCKED_ARTIFACTS)
def test_artifact_path_that_is_a_directory_exits_2_naming_it(
    tmp_path, capsys, subcommand, artifact
):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    inputs = tmp_path / "input.json"
    payload = {"simulate": base_config(), "sweep": sweep_config(),
               "bound": reference_record_json(),
               "tomography": matrix_to_json(REFERENCE_EVOLVED_1)}.get(subcommand, {})
    inputs.write_text(json.dumps(payload), encoding="utf-8")
    argv = {
        "simulate": ["--config", str(inputs)],
        "sweep": ["--config", str(inputs)],
        "bound": ["--record", str(inputs)],
        "reproduce-fig4": [],
        "tomography": ["--state", str(inputs), "--time", "60", "--rate", "200", "--seed", "7"],
    }[subcommand]
    assert main([subcommand, *argv, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"output file {out / artifact} cannot be written" in captured.err
    assert "wrote" not in captured.out


def test_full_disk_exits_2_naming_the_file(tmp_path, capsys, monkeypatch):
    inputs = tmp_path / "config.json"
    inputs.write_text(json.dumps(base_config()), encoding="utf-8")

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full_disk)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(inputs), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (f"output file {out / 'bound_curve.csv'} cannot be written: No space left on device"
            in captured.err)
    assert "wrote" not in captured.out


def nested(depth):
    """JSON text of `depth` nested empty arrays."""
    return "[" * depth + "]" * depth


# (subcommand, the flag given a document 200,000 arrays deep, its other arguments): so deep a
# document makes the decoder itself run out of recursion
DEEP_FLAGS = [
    ("simulate", "--config", []),
    ("sweep", "--config", []),
    ("bound", "--record", []),
    ("afid", "--rho1", ["--rho2", "{qubit}"]),
    ("afid", "--rho2", ["--rho1", "{qubit}"]),
    ("tomography", "--state", ["--time", "60", "--rate", "200", "--seed", "7"]),
]


@pytest.mark.parametrize("subcommand, flag, rest", DEEP_FLAGS,
                         ids=[f"{c[0]}{c[1]}" for c in DEEP_FLAGS])
def test_too_deep_to_decode_exits_2_naming_its_flag(tmp_path, capsys, subcommand, flag, rest):
    deep, qubit, out = tmp_path / "deep.json", tmp_path / "qubit.json", tmp_path / "out"
    deep.write_text(nested(200_000), encoding="utf-8")
    qubit.write_text(json.dumps(matrix_to_json(REFERENCE_EVOLVED_1)), encoding="utf-8")
    argv = [subcommand, flag, str(deep), *(a.format(qubit=qubit) for a in rest)]
    assert main(argv + ([] if subcommand == "afid" else ["--out", str(out)])) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{flag}" in captured.err and f"{deep} is not valid JSON" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1, 983])
def test_config_nested_beyond_the_limit_exits_2_before_any_file(tmp_path, capsys, depth):
    # nested lists under a key the schema does not read: at the limit the run writes its
    # files; beyond it the config is rejected when read, where at 983 levels its echo in
    # summary.json once ran out of recursion after bound_curve.csv was written (on a deep
    # call stack the decoder may run out first, which is rejected as invalid JSON)
    config, out = tmp_path / "config.json", tmp_path / "out"
    text = json.dumps({**base_config(), "extra": 0}).replace('"extra": 0',
                                                             f'"extra": {nested(depth - 1)}')
    config.write_text(text, encoding="utf-8")
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    if depth == MAX_JSON_DEPTH:
        assert code == EXIT_OK and (out / "summary.json").exists()
    else:
        assert code == EXIT_CONFIG and not out.exists()
        assert f"--config: config {config} is " in err
        if depth == MAX_JSON_DEPTH + 1:
            assert f"is nested deeper than {MAX_JSON_DEPTH} levels" in err


@pytest.mark.parametrize("delta_mu, code, informative", [
    (1e160, EXIT_OK, True),  # Δμ² overflows a float, Δμ · B(1 Hz) does not
    (1.7e308, EXIT_NO_INFORMATION, False),  # every bound itself overflows, so none is informative
])
def test_huge_record_shift_is_never_squared(tmp_path, capsys, delta_mu, code, informative):
    record = tmp_path / "record.json"
    record.write_text(json.dumps(record_with("delta_mu_hz", delta_mu)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["bound", "--record", str(record), "--out", str(out), "--require-bound"]) == code
    results = json.loads((out / "summary.json").read_text(encoding="utf-8"))["results"]
    assert results["no_information"] is not informative
    if informative:
        # the 50-digit value of the grid optimum (alpha = 0.9999, B2)
        assert results["b_inf_hz"] == pytest.approx(1.301097318588e160, rel=1e-12)
        assert "b_inf = 1.301097318589e+160 Hz" in capsys.readouterr().out


# one representative of each value class, set at every field of a document in turn
FIELD_VALUES = [None, True, "x", -1.5, 0, 0.25, 2**64, 1e308, float("inf"), [], {},
                "random", "plus", "paper-matrices", "exact-states"]
DELETED = object()

# (document id, subcommand, its flag, the valid document whose fields are replaced)
FIELD_DOCUMENTS = [
    ("tomography", "simulate", "--config", tomography_config(replicas=2)),
    ("random-orientation", "simulate", "--config", random_orientation_config(11)),
    ("sweep", "sweep", "--config", sweep_config()),
    ("record", "bound", "--record", reference_record_json()),
]


def field_paths(node, path=()):
    """The key path of every value in node, objects and lists included, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, (*path, key))


def with_field(document, path, value):
    """A deep copy of document with the field at path set to value, or deleted."""
    copy = json.loads(json.dumps(document))
    node = copy
    for key in path[:-1]:
        node = node[key]
    if value is DELETED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return copy


@pytest.mark.parametrize(
    "subcommand, flag, document", [d[1:] for d in FIELD_DOCUMENTS],
    ids=[d[0] for d in FIELD_DOCUMENTS],
)
def test_every_field_of_a_valid_document_exits_cleanly(
    tmp_path, capsys, subcommand, flag, document
):
    """Each value class, and deletion, at every field: exit 0, 2 or 4, and exit 2 names the key."""
    path, out = tmp_path / "input.json", str(tmp_path / "out")
    failures = []
    for key_path in field_paths(document):
        for value in [DELETED, *FIELD_VALUES]:
            path.write_text(json.dumps(with_field(document, key_path, value)), encoding="utf-8")
            shown = "<deleted>" if value is DELETED else repr(value)
            case = f"{'.'.join(map(str, key_path))} = {shown}"
            try:
                code = main([subcommand, flag, str(path), "--out", out])
            except Exception as exc:  # noqa: BLE001 -- every escape is a failure of the case
                code = exc
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NO_INFORMATION):
                failures.append(f"{case}: {code!r}")
            elif code == EXIT_CONFIG and str(key_path[0]) not in err:
                failures.append(f"{case}: exit 2 without naming {key_path[0]}: {err.strip()}")
    assert not failures, "\n".join(failures)


# one value of each class for a flag, as the shell passes it: numbers (2**64 as digits), then
# paths, which FLAG_PATHS fills in with files made for each case
FLAG_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "0", "-0.0", "5e-324", "1e-308", "0.25",
               "1e308", str(2**64), "x", "", "{missing}", "{directory}", "{not-json}", "{qutrit}"]
FLAG_PATHS = {"missing": "missing.json", "directory": "directory", "not-json": "not.json",
              "qutrit": "qutrit.json", "qubit": "qubit.json", "config": "config.json",
              "sweep": "sweep.json", "record": "record.json"}

# (subcommand, its valid arguments, the flags given each value in turn)
FLAG_COMMANDS = [
    ("afid", ["--rho1", "{qubit}", "--rho2", "{qubit}"],
     ["--rho1", "--rho2", "--alpha", "--alpha-start", "--alpha-stop", "--alpha-count", "--csv"]),
    ("tomography", ["--state", "{qubit}", "--time", "60", "--rate", "200", "--seed", "7"],
     ["--state", "--time", "--rate", "--seed", "--out"]),
    ("simulate", ["--config", "{config}"], ["--config", "--out"]),
    ("sweep", ["--config", "{sweep}"], ["--config", "--out"]),
    ("bound", ["--record", "{record}"],
     ["--record", "--out", "--alpha-start", "--alpha-stop", "--alpha-count"]),
    ("reproduce-fig4", [], ["--out"]),
]


@pytest.mark.parametrize("subcommand, valid, flags", FLAG_COMMANDS,
                         ids=[c[0] for c in FLAG_COMMANDS])
def test_every_flag_exits_cleanly(tmp_path, monkeypatch, capsys, subcommand, valid, flags):
    """Each value class at every flag: exit 0 or 2, exit 2 naming the flag, nothing escaping."""
    failures = []
    for flag in flags:
        for i, value in enumerate(FLAG_VALUES):
            case = tmp_path / f"{flag}-{i}"  # a fresh working directory: outputs land here
            (case / FLAG_PATHS["directory"]).mkdir(parents=True)
            (case / FLAG_PATHS["not-json"]).write_text("not JSON", encoding="utf-8")
            documents = {"qubit": matrix_to_json(REFERENCE_EVOLVED_1), "qutrit": QUTRIT,
                         "config": base_config(), "sweep": sweep_config(),
                         "record": reference_record_json()}
            for name, document in documents.items():
                (case / FLAG_PATHS[name]).write_text(json.dumps(document), encoding="utf-8")
            monkeypatch.chdir(case)
            args = dict(zip(valid[::2], valid[1::2]))
            args[flag] = value
            argv = [subcommand, *(a.format(**FLAG_PATHS) for kv in args.items() for a in kv)]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            except Exception as exc:  # noqa: BLE001 -- every escape is a failure of the case
                code = exc
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_CONFIG):
                failures.append(f"{flag} {value!r}: {code!r}")
            elif code == EXIT_CONFIG and flag not in err:
                failures.append(f"{flag} {value!r}: exit 2 without naming {flag}: {err.strip()}")
    assert not failures, "\n".join(failures)
