import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alphaprobe.cli as cli
import alphaprobe.scenario as scenario
from alphaprobe.channel import apply_channel
from alphaprobe.cli import EXIT_CONFIG, EXIT_GOLDEN, EXIT_NO_INFORMATION, EXIT_OK, main
from alphaprobe.fidelity import alpha_fidelity
from alphaprobe.linalg import DensityMatrix, matrix_from_json, matrix_to_json
from alphaprobe.reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_EVOLVED_1,
    REFERENCE_EVOLVED_2,
    REFERENCE_RHO_1,
    REFERENCE_RHO_2,
    REFERENCE_SIGMA_HZ,
)
from alphaprobe.scenario import SCHEMA_VERSION
from support import oracle_csv_bytes

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2.0


def write_state(path, matrix):
    path.write_text(json.dumps(matrix_to_json(matrix)), encoding="utf-8")
    return str(path)


def write_record(path, rho1, rho2, evolved1, evolved2, delta_mu):
    payload = {
        "rho1": matrix_to_json(rho1),
        "rho2": matrix_to_json(rho2),
        "phi1_rho1": matrix_to_json(evolved1),
        "phi2_rho2": matrix_to_json(evolved2),
        "delta_mu_hz": delta_mu,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def sim_config(**overrides):
    cfg = {
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
        "alpha_grid": {"start": 0.5, "stop": 0.9999, "count": 60},
    }
    cfg.update(overrides)
    return cfg


class TestAfid:
    def test_single_alpha_to_stdout(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        rho2 = write_state(tmp_path / "b.json", KET0)
        code = main(["afid", "--rho1", rho1, "--rho2", rho2, "--alpha", "0.5"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,fidelity"
        alpha, fid = (float(x) for x in lines[1].split(","))
        assert alpha == 0.5
        assert fid == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_stdout_bytes_equal_the_csv_file_bytes(self, tmp_path, capsysbinary):
        # stdout gets the file's bytes, CRLF rows untranslated, through its binary buffer
        argv = ["afid", "--rho1", write_state(tmp_path / "a.json", PLUS),
                "--rho2", write_state(tmp_path / "b.json", MIXED), "--alpha-count", "7"]
        assert main(argv) == EXIT_OK
        stdout = capsysbinary.readouterr().out
        assert main(argv + ["--csv", str(tmp_path / "afid.csv")]) == EXIT_OK
        assert capsysbinary.readouterr().out == f"wrote {tmp_path / 'afid.csv'}\n".encode()
        assert stdout == (tmp_path / "afid.csv").read_bytes()
        assert stdout.startswith(b"alpha,fidelity\r\n") and stdout.count(b"\r\n") == 8

    def test_curve_to_csv_file(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        rho2 = write_state(tmp_path / "b.json", MIXED)
        out = tmp_path / "curve.csv"
        code = main(
            [
                "afid", "--rho1", rho1, "--rho2", rho2,
                "--alpha-start", "0.5", "--alpha-stop", "0.9", "--alpha-count", "5",
                "--csv", str(out),
            ]
        )
        assert code == EXIT_OK
        assert f"wrote {out}" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row in rows:
            expect = alpha_fidelity(
                DensityMatrix(PLUS), DensityMatrix(MIXED), float(row["alpha"])
            )
            assert float(row["fidelity"]) == pytest.approx(expect, rel=1e-10)

    def test_warning_is_one_stable_line(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        rho2 = write_state(tmp_path / "b.json", KET0)
        code = main(["afid", "--rho1", rho1, "--rho2", rho2, "--alpha", "0.3"])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "alphaprobe: warning: alpha = 0.3 is below 0.5: the data-processing "
            "inequality is not guaranteed in this range"
        ]
        assert "cli.py" not in err and "UserWarning" not in err
        # library callers keep the ordinary warning
        with pytest.warns(UserWarning, match="below 0.5"):
            alpha_fidelity(PLUS, KET0, 0.3)

    def test_alpha_out_of_range(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        code = main(["afid", "--rho1", rho1, "--rho2", rho1, "--alpha", "1.5"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "--alpha" in err

    def test_alpha_with_a_range_flag_exits_2_naming_both(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        out = tmp_path / "curve.csv"
        for flags, named in [
            (["--alpha-count", "5"], "--alpha-count"),
            (["--alpha-start", "0.6"], "--alpha-start"),
            (["--alpha-stop", "0.9"], "--alpha-stop"),
            # a range flag given at its default value is still given
            (["--alpha-start", "0.5", "--alpha-count", "500"], "--alpha-start or --alpha-count"),
        ]:
            code = main(["afid", "--rho1", rho1, "--rho2", rho1, "--alpha", "0.7", *flags,
                         "--csv", str(out)])
            assert code == EXIT_CONFIG
            captured = capsys.readouterr()
            assert f"config error: --alpha cannot be combined with {named}" in captured.err
            assert captured.out == ""
            assert not out.exists()
        # each alone still works, the range flags at their defaults when left out
        assert main(["afid", "--rho1", rho1, "--rho2", rho1, "--alpha", "0.7"]) == EXIT_OK
        assert capsys.readouterr().out.count("\n") == 2
        assert main(["afid", "--rho1", rho1, "--rho2", rho1, "--alpha-count", "5"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 6
        assert [float(r.split(",")[0]) for r in rows[1::4]] == [0.5, 0.9999]

    def test_unwritable_csv_names_the_flag_and_creates_no_directory(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        target = tmp_path / "missing" / "curve.csv"
        code = main(["afid", "--rho1", rho1, "--rho2", rho1, "--csv", str(target)])
        assert code == EXIT_CONFIG
        assert f"--csv {target} cannot be written" in capsys.readouterr().err
        assert not target.parent.exists()

    def test_missing_state_file(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        code = main(["afid", "--rho1", rho1, "--rho2", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_state(self, tmp_path, capsys):
        rho1 = write_state(tmp_path / "a.json", PLUS)
        bad = write_state(
            tmp_path / "bad.json", np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        )
        code = main(["afid", "--rho1", rho1, "--rho2", bad])
        assert code == EXIT_CONFIG
        assert "state" in capsys.readouterr().err


class TestBound:
    def test_reference_record(self, tmp_path, capsys):
        record = write_record(
            tmp_path / "record.json",
            REFERENCE_RHO_1,
            REFERENCE_RHO_2,
            REFERENCE_EVOLVED_1,
            REFERENCE_EVOLVED_2,
            REFERENCE_DELTA_MU_HZ,
        )
        out = tmp_path / "out"
        code = main(["bound", "--record", record, "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "b_inf = " in stdout
        assert "(B2)" in stdout
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["results"]["b_inf_hz"] / REFERENCE_SIGMA_HZ == pytest.approx(
            1.82, rel=0.05
        )
        assert (out / "bound_curve.csv").exists()

    def test_uninformative_record(self, tmp_path, capsys):
        record = write_record(
            tmp_path / "record.json",
            KET0,
            np.diag([0.9, 0.1]).astype(complex),
            MIXED,
            MIXED,
            1e12,
        )
        out = tmp_path / "out"
        code = main(["bound", "--record", record, "--out", str(out)])
        assert code == EXIT_OK
        assert "no_information" in capsys.readouterr().out

        code = main(["bound", "--record", record, "--out", str(out), "--require-bound"])
        assert code == EXIT_NO_INFORMATION
        assert "no information" in capsys.readouterr().err

    def test_grid_below_half_rejected(self, tmp_path, capsys):
        record = write_record(
            tmp_path / "record.json",
            REFERENCE_RHO_1,
            REFERENCE_RHO_2,
            REFERENCE_EVOLVED_1,
            REFERENCE_EVOLVED_2,
            REFERENCE_DELTA_MU_HZ,
        )
        code = main(["bound", "--record", record, "--alpha-start", "0.3"])
        assert code == EXIT_CONFIG
        assert "0.5" in capsys.readouterr().err

    def test_missing_record_field(self, tmp_path, capsys):
        payload = {
            "rho1": matrix_to_json(KET0),
            "rho2": matrix_to_json(MIXED),
            "phi1_rho1": matrix_to_json(MIXED),
            "delta_mu_hz": 1e12,
        }
        record = tmp_path / "record.json"
        record.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["bound", "--record", str(record)])
        assert code == EXIT_CONFIG
        assert "phi2_rho2" in capsys.readouterr().err


class TestSimulate:
    def test_exact_run(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", sim_config())
        out = tmp_path / "out"
        code = main(["simulate", "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "b_inf = " in stdout
        assert stdout.count("wrote ") == 2
        assert (out / "bound_curve.csv").exists()
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("overrides", [
        # widths whose damping overflows, and plates whose delays make 2 pi tau mu overflow
        {"spectra": {"first": {"mu_hz": 3.7e14, "sigma_hz": 1e300},
                     "second": {"mu_hz": 3.7e14 + REFERENCE_DELTA_MU_HZ, "sigma_hz": 1e300}}},
        {"coupling": {"plates": [{"thickness_mm": 1.7e308}]}},
        {"coupling": {"plates": [{"thickness_mm": 1e10}], "birefringence": 1e300}},
    ], ids=["width-1e300", "plate-1.7e308-mm", "birefringence-1e300"])
    def test_extreme_dephasing_runs_without_warnings(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path / "config.json", sim_config(**overrides))
        code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == ""
        assert "no_information: true" in captured.out

    def test_malformed_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{oops", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = sim_config()
        del cfg["probes"]
        config = write_config(tmp_path / "config.json", cfg)
        code = main(["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config.probes" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        {"mu_hz": 3.7e14, "sigma_hz": REFERENCE_SIGMA_HZ},
        {"center_wavelength_nm": 810.0, "width_nm": 1.73},
    ], ids=["mu_hz", "center_wavelength_nm"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_zero_control_shift(self, tmp_path, capsys, command, line):
        # equal line centers are rejected when the config is read, before any file
        cfg = sim_config(spectra={"first": line, "second": dict(line)})
        if command == "sweep":
            cfg["sweep"] = {"thicknesses_mm": [5.0]}
        config = write_config(tmp_path / "config.json", cfg)
        out = tmp_path / "out"
        code = main([command, "--config", config, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "spectra.first and spectra.second" in capsys.readouterr().err
        assert not out.exists()

    def test_uninformative_scenario(self, tmp_path, capsys):
        # rows: exact states, and tomography whose replicas are all uninformative
        monte_carlo = {
            "integration_time_s": 60.0,
            "count_rate_hz": 1e6,
            "seed": 42,
            "replicas": 3,
        }
        for name, tomography in (("exact", "exact-states"), ("mc", monte_carlo)):
            cfg = sim_config(
                probes="paper-matrices",
                coupling={"plates": [{"thickness_mm": 22.0, "orientation_deg": 0.0}]},
                tomography=tomography,
            )
            config = write_config(tmp_path / f"{name}.json", cfg)
            out = tmp_path / name / "a"
            code = main(["simulate", "--config", config, "--out", str(out)])
            assert code == EXIT_OK
            assert "no_information: true" in capsys.readouterr().out
            results = json.loads((out / "summary.json").read_text())["results"]
            assert results["no_information"] is True
            if name == "mc":
                assert results["monte_carlo"]["mean_b_inf_hz"] is None
                assert results["monte_carlo"]["std_b_inf_hz"] is None
                assert results["monte_carlo"]["no_info_fraction"] == 1.0
                assert results["monte_carlo"]["below_truth_fraction"] == 0.0

            cfg["require_bound"] = True
            config = write_config(tmp_path / f"{name}_required.json", cfg)
            code = main(["simulate", "--config", config, "--out", str(tmp_path / name / "b")])
            assert code == EXIT_NO_INFORMATION
            assert "no information" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = sim_config(
            tomography={
                "integration_time_s": 30.0,
                "count_rate_hz": 100.0,
                "seed": 5,
                "replicas": 3,
            }
        )
        config = write_config(tmp_path / "config.json", cfg)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(dir_a)]) == EXIT_OK
        assert main(["simulate", "--config", config, "--out", str(dir_b)]) == EXIT_OK
        assert (dir_a / "bound_curve.csv").read_bytes() == (
            dir_b / "bound_curve.csv"
        ).read_bytes()
        summaries = []
        for d in (dir_a, dir_b):
            with open(d / "summary.json", encoding="utf-8") as fh:
                s = json.load(fh)
            s["provenance"].pop("generated_at")
            summaries.append(s)
        assert summaries[0] == summaries[1]


class TestExitFourAfterArtifacts:
    """A demanded bound on uninformative data exits 4 only after its run directory is written."""

    PLATE = {"plates": [{"thickness_mm": 22.0, "orientation_deg": 0.0}]}

    def argv(self, tmp_path, command):
        cfg = sim_config(probes="paper-matrices", coupling=self.PLATE, require_bound=True)
        if command == "bound":
            parsed = scenario.parse_scenario(cfg)
            (s1, s2), (rho1, rho2) = parsed.spectra, parsed.probes
            path = write_record(
                tmp_path / "record.json", rho1.matrix, rho2.matrix,
                apply_channel(parsed.stack, s1, rho1).matrix,
                apply_channel(parsed.stack, s2, rho2).matrix, abs(s1.mu - s2.mu),
            )
            return ["bound", "--record", path, "--require-bound"], "bound_curve.csv"
        if command == "sweep":
            cfg["sweep"] = {"thicknesses_mm": [22.0]}
            return ["sweep", "--config", write_config(tmp_path / "c.json", cfg)], "sweep.csv"
        if command == "simulate-replicas":
            cfg["tomography"] = {
                "integration_time_s": 60.0, "count_rate_hz": 1e6, "seed": 42, "replicas": 3
            }
        return ["simulate", "--config", write_config(tmp_path / "c.json", cfg)], "bound_curve.csv"

    @pytest.mark.parametrize("command", ["bound", "simulate", "simulate-replicas", "sweep"])
    def test_writes_then_exits_four(self, tmp_path, capsys, command):
        argv, artifact = self.argv(tmp_path, command)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_NO_INFORMATION
        assert "no information" in capsys.readouterr().err
        assert (out / artifact).exists()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["files"] == [artifact, "summary.json"]
        results = summary["results"]
        for entry in results.get("thicknesses", [results]):
            assert entry["no_information"] is True


@pytest.mark.parametrize("command", ["bound", "simulate", "sweep", "reproduce-fig4"])
def test_run_commands_print_one_b_inf_line_format(tmp_path, capsys, command):
    record = write_record(
        tmp_path / "record.json", REFERENCE_RHO_1, REFERENCE_RHO_2,
        REFERENCE_EVOLVED_1, REFERENCE_EVOLVED_2, REFERENCE_DELTA_MU_HZ,
    )
    sweep = write_config(tmp_path / "sweep.json", sim_config(sweep={"thicknesses_mm": [5.0]}))
    argv = {
        "bound": ["bound", "--record", record],
        "simulate": ["simulate", "--config", write_config(tmp_path / "c.json", sim_config())],
        "sweep": ["sweep", "--config", sweep],
        "reproduce-fig4": ["reproduce-fig4"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    pattern = r"(thickness_mm = 5\.0: )?b_inf = \S+e\+\d+ Hz at alpha = 0\.\d{6} \(B[12]\)"
    assert len([line for line in lines if re.fullmatch(pattern, line)]) == 1
    written = [line for line in lines if line.startswith("wrote ")]
    assert written[-1] == f"wrote {tmp_path / 'out' / 'summary.json'}"


class TestTomography:
    def test_writes_artifacts_deterministically(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", REFERENCE_EVOLVED_1)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            code = main(
                [
                    "tomography", "--state", state,
                    "--time", "1.0", "--rate", "10000", "--seed", "7",
                    "--out", str(d),
                ]
            )
            assert code == EXIT_OK
        for name in ("counts.json", "reconstructed.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        with open(dirs[0] / "reconstructed.json", encoding="utf-8") as fh:
            estimate = matrix_from_json(json.load(fh))
        assert np.trace(estimate).real == pytest.approx(1.0, abs=1e-9)
        # at 10k pairs per basis the estimate lands near the true state
        assert np.abs(estimate - REFERENCE_EVOLVED_1).max() < 0.05

    def test_bad_settings(self, tmp_path, capsys):
        state = write_state(tmp_path / "state.json", REFERENCE_EVOLVED_1)
        code = main(
            [
                "tomography", "--state", state,
                "--time", "-1.0", "--rate", "10000", "--seed", "7",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG
        assert "time" in capsys.readouterr().err


class TestReproduceFig4:
    def test_success(self, tmp_path, capsys):
        code = main(["reproduce-fig4", "--out", str(tmp_path)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "b2 at alpha 0.5:" in stdout
        assert "published 2.22" in stdout
        assert "published 1.82" in stdout
        for name in ("fig4_bounds.csv", "fig4_fractions.csv", "summary.json"):
            assert (tmp_path / name).exists()

    def test_golden_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenario, "GOLDEN_B2_TOP_OVER_SIGMA", 9.9)
        code = main(["reproduce-fig4", "--out", str(tmp_path)])
        assert code == EXIT_GOLDEN
        err = capsys.readouterr().err
        assert "golden check failed" in err
        assert "b2_top_over_sigma" in err


class TestSweep:
    def test_sweep_run(self, tmp_path, capsys):
        cfg = sim_config(
            probes="paper-matrices", sweep={"thicknesses_mm": [2.0, 5.0]}
        )
        config = write_config(tmp_path / "config.json", cfg)
        out = tmp_path / "out"
        code = main(["sweep", "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["no_information"] == "false" for r in rows)

    def test_sweep_without_section(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", sim_config())
        code = main(["sweep", "--config", config, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "thicknesses_mm" in capsys.readouterr().err


# a Monte-Carlo scenario config whose second line, given by wavelength, is 1.73 nm
# (7.905e11 Hz) wide against the first line's 5.68e11 Hz
WAVELENGTH_CONFIG = {
    "schema": SCHEMA_VERSION,
    "spectra": {
        "first": {"mu_hz": 3.7e14, "sigma_hz": 5.68e11},
        "second": {"center_wavelength_nm": 810.0, "width_nm": 1.73},
    },
    "probes": {"rho1": "plus", "rho2": "plus"},
    "coupling": {
        "plates": [{"thickness_mm": 5.0, "orientation_deg": 0.0}],
        "birefringence": 0.00925,
    },
    "alpha_grid": {"start": 0.5, "stop": 0.9999, "count": 500},
    "grid": {"span_sigmas": 8.0, "points": 3001},
    "tomography": {
        "integration_time_s": 60.0, "count_rate_hz": 200.0, "seed": 42, "replicas": 500
    },
    "require_bound": False,
}

# a record whose B1 is informative at 146 of the 500 default orders and B2 at all of them
MIXED_RECORD = [
    [[0.223, -0.346 + 0.158j], [-0.346 - 0.158j, 0.777]],
    [[0.801, 0.284 + 0.277j], [0.284 - 0.277j, 0.199]],
    [[0.564, -0.387 - 0.244j], [-0.387 + 0.244j, 0.436]],
    [[0.235, 0.407 + 0.005j], [0.407 - 0.005j, 0.765]],
]


def csv_artifact_argv(tmp_path, command):
    """CLI arguments (without --out or --csv) of a run writing the named CSV artifacts."""
    if command == "simulate":
        return ["simulate", "--config", write_config(tmp_path / "c.json", WAVELENGTH_CONFIG)]
    if command == "bound":
        states = [np.array(m) for m in MIXED_RECORD]
        return ["bound", "--record", write_record(tmp_path / "r.json", *states, 7.95e11)]
    if command == "sweep":
        cfg = sim_config(probes="paper-matrices", sweep={"thicknesses_mm": [5.0, 22.0]})
        return ["sweep", "--config", write_config(tmp_path / "c.json", cfg)]
    if command == "reproduce-fig4":
        return ["reproduce-fig4"]
    rho1, rho2 = write_state(tmp_path / "a.json", PLUS), write_state(tmp_path / "b.json", KET0)
    return ["afid", "--rho1", rho1, "--rho2", rho2]


@pytest.mark.parametrize("command, artifacts", [
    ("simulate", ["bound_curve.csv"]),
    ("bound", ["bound_curve.csv"]),
    ("sweep", ["sweep.csv"]),
    ("reproduce-fig4", ["fig4_bounds.csv", "fig4_fractions.csv"]),
    ("afid", ["afid.csv"]),
])
def test_csv_artifacts_match_the_row_writer_oracle(tmp_path, capsys, monkeypatch, command,
                                                   artifacts):
    argv = csv_artifact_argv(tmp_path, command)
    outputs = {}
    for writer in ("columnar", "oracle"):
        if writer == "oracle":
            for module in (scenario, cli):
                monkeypatch.setattr(module, "csv_bytes", oracle_csv_bytes)
        out = tmp_path / writer
        if command == "afid":
            assert main(argv) == EXIT_OK
            stdout = capsys.readouterr().out
            out.mkdir()
            assert main(argv + ["--csv", str(out / "afid.csv")]) == EXIT_OK
            assert capsys.readouterr().out == f"wrote {out / 'afid.csv'}\n"
        else:
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            stdout = None
        outputs[writer] = stdout, [(out / name).read_bytes() for name in artifacts]
    assert outputs["columnar"] == outputs["oracle"]
    if command == "afid":  # stdout and the --csv file hold the same curve
        assert outputs["columnar"][0].encode() == outputs["columnar"][1][0]
    if command in ("bound", "sweep"):  # both kinds of row are in the artifact
        cells = outputs["columnar"][1][0].decode().split("\r\n")
        assert any(",," in row for row in cells) and any("true" in row for row in cells)


# modules a cold process of each subcommand loads: what it runs, nothing more; an
# exact-states simulate and tomography load these beyond COLD_MODULES
COLD_MODULES = {"bounds", "cli", "fidelity", "linalg", "reference", "scenario"}
EXTRA_MODULES = {"simulate": {"channel", "spectra"}, "tomography": {"tomography"}}
# main() in a fresh interpreter, then the loaded alphaprobe modules and whether numpy.random is
LOADED_AFTER_MAIN = (
    "import json, sys; from alphaprobe.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules "
    "if m.startswith('alphaprobe.')), 'numpy.random' in sys.modules]))"
)


@pytest.mark.parametrize("command", ["afid", "bound", "reproduce-fig4", "simulate", "tomography"])
def test_a_cold_subcommand_loads_only_the_modules_it_runs(tmp_path, command):
    rho1, rho2 = write_state(tmp_path / "a.json", PLUS), write_state(tmp_path / "b.json", KET0)
    record = write_record(
        tmp_path / "record.json", REFERENCE_RHO_1, REFERENCE_RHO_2,
        REFERENCE_EVOLVED_1, REFERENCE_EVOLVED_2, REFERENCE_DELTA_MU_HZ,
    )
    out = str(tmp_path / "out")
    argv = {
        "afid": ["afid", "--rho1", rho1, "--rho2", rho2, "--csv", str(tmp_path / "afid.csv")],
        "bound": ["bound", "--record", record, "--out", out],
        "reproduce-fig4": ["reproduce-fig4", "--out", out],
        "simulate": ["simulate", "--config", write_config(tmp_path / "c.json", sim_config()),
                     "--out", out],
        "tomography": ["tomography", "--state", rho1, "--time", "60", "--rate", "200",
                       "--seed", "7", "--out", out],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, modules, numpy_random = json.loads(done.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert set(modules) == COLD_MODULES | EXTRA_MODULES.get(command, set())
    assert numpy_random == (command == "tomography")
