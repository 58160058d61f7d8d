import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import alphaprobe.channel as channel
import alphaprobe.scenario as scenario
from alphaprobe.bounds import NoInformationError, ProbingRecord, bound_summary, tightest_bound
from alphaprobe.channel import WavePlate, WavePlateStack, apply_channel
from alphaprobe.cli import EXIT_GOLDEN, main
import alphaprobe.linalg as linalg
from alphaprobe.fidelity import default_alpha_grid
from alphaprobe.linalg import DensityMatrix, NotPositiveError, matrix_to_json
from alphaprobe.reference import REFERENCE_DELTA_MU_HZ, REFERENCE_SIGMA_HZ, reference_record
from alphaprobe.scenario import (
    _EXPONENTS,
    _LEAD_ROW,
    _TAIL_WORDS,
    _WORDS,
    MAX_JSON_DEPTH,
    REFERENCE_LITERAL,
    SCHEMA_VERSION,
    ConfigError,
    GoldenCheckError,
    _float_cells,
    _key_cells,
    bound_curve_csv,
    csv_bytes,
    field_errors,
    json_bytes,
    load_scenario,
    parse_scenario,
    reproduce_fig4,
    run_scenario,
    sweep_thickness,
    write_output,
)
from alphaprobe.spectra import LIGHT_SPEED, GaussianSpectrum
from alphaprobe.tomography import monte_carlo_bounds, rng_stream
from support import (
    oracle_csv_bytes,
    oracle_percent_csv_bytes,
    oracle_sweep_csv,
    oracle_sweep_rows,
    rand_state,
    record_kernel_halves,
    short_os_writes,
)

MU0 = 3.7e14


def sim_config(**overrides):
    cfg = {
        "schema": SCHEMA_VERSION,
        "spectra": {
            "first": {"mu_hz": MU0, "sigma_hz": REFERENCE_SIGMA_HZ},
            "second": {"mu_hz": MU0 + REFERENCE_DELTA_MU_HZ, "sigma_hz": REFERENCE_SIGMA_HZ},
        },
        "probes": {"rho1": "plus", "rho2": "plus"},
        "coupling": {"plates": [{"thickness_mm": 5.0, "orientation_deg": 0.0}]},
    }
    cfg.update(overrides)
    return cfg


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestParse:
    def test_minimal_simulated_config(self):
        cfg = parse_scenario(sim_config())
        assert cfg.stack is not None
        assert cfg.stack.plates[0].thickness == pytest.approx(5e-3)
        assert cfg.spectra[0].mu == pytest.approx(MU0)
        assert cfg.spectra[1].mu == pytest.approx(MU0 + REFERENCE_DELTA_MU_HZ)
        assert cfg.probes[0].dim == 2
        assert cfg.tomography is None
        assert cfg.replicas == 1
        assert cfg.alpha_grid.size == 500
        assert cfg.alpha_grid[0] == 0.5
        assert cfg.alpha_grid[-1] == 0.9999
        assert cfg.require_bound is False
        assert cfg.sweep_stacks is None

    def test_reference_config(self):
        cfg = parse_scenario({"schema": SCHEMA_VERSION, "coupling": REFERENCE_LITERAL})
        assert cfg.stack is None
        assert cfg.spectra is None
        assert cfg.probes is None

    def test_schema_checked(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_scenario({"coupling": REFERENCE_LITERAL})
        with pytest.raises(ConfigError, match="schema"):
            parse_scenario({"schema": "probe-scenario/2", "coupling": REFERENCE_LITERAL})

    def test_missing_fields_name_their_paths(self):
        with pytest.raises(ConfigError, match="config.coupling"):
            parse_scenario({"schema": SCHEMA_VERSION})
        cfg = sim_config()
        del cfg["spectra"]
        with pytest.raises(ConfigError, match="config.spectra"):
            parse_scenario(cfg)
        cfg = sim_config(spectra={"first": {"mu_hz": MU0, "sigma_hz": 1e11}})
        with pytest.raises(ConfigError, match="spectra.second"):
            parse_scenario(cfg)
        cfg = sim_config()
        del cfg["probes"]
        with pytest.raises(ConfigError, match="config.probes"):
            parse_scenario(cfg)
        cfg = sim_config(coupling={"plates": []})
        with pytest.raises(ConfigError, match="coupling.plates"):
            parse_scenario(cfg)
        cfg = sim_config(coupling={"plates": [{"orientation_deg": 0.0}]})
        with pytest.raises(ConfigError, match=r"coupling.plates\[0\].thickness_mm"):
            parse_scenario(cfg)

    def test_spectrum_forms(self):
        cfg = sim_config()
        cfg["spectra"]["first"] = {"center_wavelength_nm": 810.0, "width_nm": 1.3}
        parsed = parse_scenario(cfg)
        lam = 810e-9
        assert parsed.spectra[0].mu == pytest.approx(LIGHT_SPEED / lam, rel=1e-12)
        assert parsed.spectra[0].sigma == pytest.approx(
            LIGHT_SPEED * 1.3e-9 / lam**2, rel=1e-12
        )
        cfg["spectra"]["first"] = {"frequency": 1.0}
        with pytest.raises(ConfigError, match="mu_hz/sigma_hz or center_wavelength_nm"):
            parse_scenario(cfg)
        cfg["spectra"]["first"] = {"mu_hz": MU0, "sigma_hz": -1.0}
        with pytest.raises(ConfigError, match="spectra.first.sigma_hz"):
            parse_scenario(cfg)

    def test_probe_forms(self):
        cfg = sim_config(
            probes={
                "rho1": {"dim": 2, "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [0, 0]]},
                "rho2": "plus",
            }
        )
        parsed = parse_scenario(cfg)
        assert np.abs(parsed.probes[0].matrix - parsed.probes[1].matrix).max() <= 1e-12

        bad = sim_config(
            probes={
                "rho1": {"dim": 2, "re": [[1.5, 0], [0, -0.5]], "im": [[0, 0], [0, 0]]},
                "rho2": "plus",
            }
        )
        with pytest.raises(ConfigError, match="probes.rho1"):
            parse_scenario(bad)
        with pytest.raises(ConfigError, match="probes.rho2"):
            parse_scenario(sim_config(probes={"rho1": "plus", "rho2": 7}))

    def test_reference_probes_for_simulated_coupling(self):
        cfg = parse_scenario(sim_config(probes=REFERENCE_LITERAL))
        assert cfg.probes[0].matrix[0, 0] == pytest.approx(0.513)
        assert cfg.probes[1].matrix[0, 0] == pytest.approx(0.535)

    def test_reference_coupling_forbids_custom_probes(self):
        cfg = {
            "schema": SCHEMA_VERSION,
            "coupling": REFERENCE_LITERAL,
            "probes": {"rho1": "plus", "rho2": "plus"},
        }
        with pytest.raises(ConfigError, match="bundled"):
            parse_scenario(cfg)

    def test_random_orientations(self):
        cfg = sim_config(
            coupling={
                "plates": [
                    {"thickness_mm": 2.0, "orientation_deg": "random"},
                    {"thickness_mm": 3.0, "orientation_deg": "random"},
                ],
                "orientation_seed": 11,
            }
        )
        a = parse_scenario(cfg)
        b = parse_scenario(cfg)
        got = [p.orientation for p in a.stack.plates]
        assert got == [p.orientation for p in b.stack.plates]
        # drawn in degrees from rng_stream(11, ()): 111.26... and 149.03...
        assert got == [1.941866685809457, 2.60102201912537]
        assert all(0.0 <= theta < math.pi for theta in got)
        assert got[0] != got[1]

        cfg["coupling"]["orientation_seed"] = 12
        c = parse_scenario(cfg)
        assert got != [p.orientation for p in c.stack.plates]

        del cfg["coupling"]["orientation_seed"]
        with pytest.raises(ConfigError, match="orientation_seed"):
            parse_scenario(cfg)

    def test_alpha_grid_bounds(self):
        cfg = sim_config(alpha_grid={"start": 0.6, "stop": 0.99, "count": 40})
        parsed = parse_scenario(cfg)
        assert parsed.alpha_grid.size == 40
        assert parsed.alpha_grid[0] == pytest.approx(0.6)
        assert parsed.alpha_grid[-1] == pytest.approx(0.99)
        for bad in (
            {"start": 0.4},
            {"stop": 1.0},
            {"start": 0.9, "stop": 0.6},
            {"count": 1},
        ):
            with pytest.raises(ConfigError, match="alpha_grid"):
                parse_scenario(sim_config(alpha_grid=bad))

    def test_tomography_block(self):
        cfg = sim_config(
            tomography={
                "integration_time_s": 60.0,
                "count_rate_hz": 200.0,
                "seed": 9,
                "replicas": 5,
            }
        )
        parsed = parse_scenario(cfg)
        assert parsed.tomography.integration_time == 60.0
        assert parsed.tomography.count_rate == 200.0
        assert parsed.tomography.seed == 9
        assert parsed.replicas == 5

        with pytest.raises(ConfigError, match="tomography.seed"):
            parse_scenario(
                sim_config(tomography={"integration_time_s": 1.0, "count_rate_hz": 1.0})
            )
        with pytest.raises(ConfigError, match="replicas"):
            parse_scenario(
                sim_config(
                    tomography={
                        "integration_time_s": 1.0,
                        "count_rate_hz": 1.0,
                        "seed": 0,
                        "replicas": 0,
                    }
                )
            )

    def test_load_scenario_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(bad)


class TestFieldErrors:
    def test_a_value_error_becomes_a_config_error_naming_the_path(self):
        cause = NotPositiveError("density matrix has negative eigenvalue -1.000e-03")
        with pytest.raises(ConfigError) as error:
            with field_errors("probes.rho1"):
                raise cause
        assert str(error.value) == "probes.rho1: density matrix has negative eigenvalue -1.000e-03"
        assert error.value.__cause__ is cause and error.value.__suppress_context__

    def test_nested_guards_name_both_paths(self):
        with pytest.raises(ConfigError) as error:
            with field_errors("outer"):
                with field_errors("inner"):
                    raise ValueError("msg")
        assert str(error.value) == "outer: inner: msg"
        assert type(error.value.__cause__) is ConfigError
        assert str(error.value.__cause__) == "inner: msg"
        assert type(error.value.__cause__.__cause__) is ValueError

    def test_other_errors_and_a_clean_block_pass_through(self):
        for other in (TypeError("t"), KeyError("k"), RuntimeError("r")):
            with pytest.raises(type(other)) as error:
                with field_errors("x"):
                    raise other
            assert error.value is other and error.value.__cause__ is None
        with field_errors("x") as entered:
            value = 1
        assert entered is None and value == 1

    def test_a_return_inside_the_block_returns(self):
        def guarded():
            with field_errors("x"):
                return 7
        assert guarded() == 7


class TestEvolve:
    def test_both_evolved_states_take_one_validator_call(self, monkeypatch):
        calls = []
        check = linalg.check_density_matrices
        monkeypatch.setattr(linalg, "check_density_matrices",
                            lambda m: calls.append(np.shape(m)) or check(m))
        config = parse_scenario(sim_config())
        calls.clear()
        record = scenario._evolve(config, config.stack)
        assert calls == [(2, 2, 2)]
        for state in (record.phi1_rho1, record.phi2_rho2):
            assert type(state) is DensityMatrix and not state.matrix.flags.writeable

    def test_one_expansion_gives_both_lines_channel_outputs(self, monkeypatch):
        # _evolve expands the stack once for both lines; each evolved probe must equal
        # its own apply_channel call bit for bit, over 1 to 8 plates, plus and mixed probes
        rng = np.random.default_rng(2121)
        expansions = []
        expand = channel._delay_expansion
        monkeypatch.setattr(channel, "_delay_expansion",
                            lambda stack: expansions.append(stack) or expand(stack))
        base = parse_scenario(sim_config())
        for n_plates in range(1, 9):
            for probes in ("plus", "mixed"):
                for _ in range(3):
                    stack = WavePlateStack(tuple(
                        WavePlate(float(rng.uniform(0.5e-3, 10e-3)),
                                  float(rng.uniform(0.0, math.pi)))
                        for _ in range(n_plates)
                    ))
                    sigma = float(rng.uniform(2e11, 1e12))
                    s1 = GaussianSpectrum(MU0, sigma)
                    s2 = GaussianSpectrum(MU0 + sigma * float(rng.uniform(0.3, 3.0)),
                                          sigma * float(rng.uniform(0.5, 2.0)))
                    pair = base.probes if probes == "plus" else tuple(
                        DensityMatrix(rand_state(rng, 2, rank=int(rng.integers(1, 3))))
                        for _ in range(2)
                    )
                    config = replace(base, spectra=(s1, s2), probes=pair)
                    expansions.clear()
                    record = scenario._evolve(config, stack)
                    assert expansions == [stack]
                    for got, line, rho in ((record.phi1_rho1, s1, pair[0]),
                                           (record.phi2_rho2, s2, pair[1])):
                        assert np.array_equal(got.matrix, apply_channel(stack, line, rho).matrix)
                    assert record.delta_mu == abs(s1.mu - s2.mu)


class TestRunScenario:
    def test_exact_run_artifacts(self, tmp_path):
        report = run_scenario(parse_scenario(sim_config()), out_dir=str(tmp_path))
        assert (tmp_path / "bound_curve.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert report.files[-1].endswith("summary.json")

        summary = read_summary(tmp_path / "summary.json")
        assert summary["schema"] == SCHEMA_VERSION
        assert summary["resolved"]["delta_mu_hz"] == pytest.approx(REFERENCE_DELTA_MU_HZ)
        results = summary["results"]
        assert results["no_information"] is False
        assert results["sigma_truth_hz"] == pytest.approx(REFERENCE_SIGMA_HZ)
        assert results["b_inf_over_sigma"] == pytest.approx(
            results["b_inf_hz"] / REFERENCE_SIGMA_HZ
        )
        assert 1.0 < results["b_inf_over_sigma"] < 3.0
        assert "monte_carlo" not in results

        with open(tmp_path / "bound_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        assert all(r["valid1"] == "true" and r["valid2"] == "true" for r in rows)

    @pytest.mark.parametrize("tomography", ["exact-states", {
        "integration_time_s": 60.0, "count_rate_hz": 200.0, "seed": 3, "replicas": 3}])
    def test_an_echo_json_cannot_hold_raises_before_the_directory_exists(self, tmp_path,
                                                                         tomography):
        # the parser reads no "note"; every artifact is built before the directory is made,
        # so the summary's echo of a NaN leaves neither bound_curve.csv nor the directory
        config = parse_scenario(sim_config(note={"values": [1.0, math.nan]},
                                           tomography=tomography))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="not JSON compliant: nan"):
            run_scenario(config, out_dir=str(out))
        assert not out.exists()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the equal-width inversion bounds "
                       "a record of lines of unequal widths below both widths")
    def test_unequal_widths_bound_no_less_than_the_narrower_width(self, tmp_path):
        # an 810 nm line 1.73 nm wide is 7.905e11 Hz wide against the first line's
        # 5.68e11 Hz; in exact-states mode b_inf reads 4.989e11 Hz, below both widths
        cfg = parse_scenario(sim_config(spectra={
            "first": {"mu_hz": MU0, "sigma_hz": REFERENCE_SIGMA_HZ},
            "second": {"center_wavelength_nm": 810.0, "width_nm": 1.73},
        }))
        results = run_scenario(cfg, out_dir=str(tmp_path)).summary["results"]
        assert results["b_inf_hz"] >= min(s.sigma for s in cfg.spectra)

    def test_eight_plate_stack_runs(self, tmp_path):
        plates = [{"thickness_mm": 1.0 + i, "orientation_deg": 20.0 * i} for i in range(8)]
        cfg = parse_scenario(sim_config(coupling={"plates": plates}))
        report = run_scenario(cfg, out_dir=str(tmp_path))
        assert report.summary["resolved"]["coupling"]["plates"] == plates

    def test_resolved_block_echoes_the_parsed_values(self, tmp_path):
        random_plates = [{"thickness_mm": 2.0, "orientation_deg": "random"},
                         {"thickness_mm": 3.0, "orientation_deg": "random"}]
        cfg = parse_scenario(
            sim_config(coupling={"plates": random_plates, "orientation_seed": 11})
        )
        echo = cfg.resolved["coupling"]["plates"]
        assert [p["thickness_mm"] for p in echo] == [2.0, 3.0]
        for plate, drawn in zip(cfg.stack.plates, echo):
            assert math.radians(drawn["orientation_deg"]) == plate.orientation

        # a run's echo, pasted back as coupling, replays the same stack to the bit
        cfg = parse_scenario(
            sim_config(coupling={"plates": [{"thickness_mm": 0.7, "orientation_deg": 12}]})
        )
        coupling = run_scenario(cfg, str(tmp_path / "a")).summary["resolved"]["coupling"]
        replayed = parse_scenario(sim_config(coupling=coupling))
        assert replayed.stack == cfg.stack
        run_scenario(replayed, str(tmp_path / "b"))
        curve = (tmp_path / "a" / "bound_curve.csv").read_bytes()
        assert (tmp_path / "b" / "bound_curve.csv").read_bytes() == curve

        sweep = parse_scenario(sim_config(sweep={"thicknesses_mm": [2.0], "orientation_deg": 12}))
        assert sweep.resolved == {"orientation_deg": 12.0,
                                  "birefringence": channel.QUARTZ_BIREFRINGENCE}

    def test_exact_states_config_ignores_its_replica_count(self, tmp_path):
        cfg = parse_scenario({"schema": SCHEMA_VERSION, "coupling": REFERENCE_LITERAL})
        runs = [run_scenario(replace(cfg, replicas=n), str(tmp_path / str(n))) for n in (1, 3)]
        assert "monte_carlo" not in runs[1].summary["results"]
        for run in runs:
            run.summary["provenance"].pop("generated_at")
        assert runs[1].summary == runs[0].summary
        curve = (tmp_path / "1" / "bound_curve.csv").read_bytes()
        assert (tmp_path / "3" / "bound_curve.csv").read_bytes() == curve

    def test_reference_coupling_run(self, tmp_path):
        cfg = parse_scenario({"schema": SCHEMA_VERSION, "coupling": REFERENCE_LITERAL})
        report = run_scenario(cfg, out_dir=str(tmp_path))
        results = report.summary["results"]
        assert results["b_inf_over_sigma"] == pytest.approx(1.82, rel=0.05)
        assert report.summary["resolved"]["coupling"] == REFERENCE_LITERAL

    def test_zero_shift_rejected_by_parser(self):
        cfg = sim_config()
        cfg["spectra"]["second"] = dict(cfg["spectra"]["first"])
        with pytest.raises(ConfigError, match="spectra.first and spectra.second"):
            parse_scenario(cfg)

    def test_tomography_run_reports_monte_carlo(self, tmp_path):
        cfg = sim_config(
            alpha_grid={"start": 0.5, "stop": 0.9999, "count": 60},
            tomography={
                "integration_time_s": 60.0,
                "count_rate_hz": 200.0,
                "seed": 12345,
                "replicas": 6,
            },
        )
        report = run_scenario(parse_scenario(cfg), out_dir=str(tmp_path))
        results = report.summary["results"]
        mc = results["monte_carlo"]
        assert mc["replicas"] == 6
        assert mc["seed"] == 12345
        assert mc["no_info_fraction"] == 0.0
        assert mc["std_b_inf_hz"] > 0.0
        assert mc["mean_b_inf_over_sigma"] == pytest.approx(
            mc["mean_b_inf_hz"] / REFERENCE_SIGMA_HZ
        )
        assert report.summary["provenance"]["seed"] == 12345
        # curve artifact is replica 0, close to but distinct from the truth
        assert results["b_inf_hz"] == pytest.approx(mc["mean_b_inf_hz"], rel=0.3)

    def test_below_truth_fraction_counts_replicas_under_sigma(self, tmp_path):
        # the reference record at 0.2 s and 200 Hz, 40 pairs per basis: about a
        # quarter to a third of the replicas bound the width below the truth (103 of
        # 400 here), and the 19 replicas without a bound are not below it
        tomo = {"integration_time_s": 0.2, "count_rate_hz": 200.0, "seed": 10, "replicas": 400}
        config = parse_scenario({"schema": SCHEMA_VERSION, "coupling": REFERENCE_LITERAL,
                                 "tomography": tomo})
        mc = run_scenario(config, out_dir=str(tmp_path)).summary["results"]["monte_carlo"]
        values = monte_carlo_bounds(reference_record(), config.tomography, 400).values
        below = sum(v is not None and v < REFERENCE_SIGMA_HZ for v in values)
        assert mc["below_truth_fraction"] == below / 400
        assert 0.2 < mc["below_truth_fraction"] < 0.4
        # with unequal widths there is no truth to be below
        cfg = sim_config(tomography=dict(tomo, integration_time_s=60.0, replicas=3))
        cfg["spectra"]["second"]["sigma_hz"] = 2 * REFERENCE_SIGMA_HZ
        report = run_scenario(parse_scenario(cfg), out_dir=str(tmp_path / "unequal"))
        assert "below_truth_fraction" not in report.summary["results"]["monte_carlo"]

    def test_an_empty_basis_ends_one_replica_not_the_run(self, tmp_path):
        # the reference record at 0.03 s and 200 Hz, 6 pairs per basis: at seed 0 replica
        # 0 has counts in every basis and 3 of 100 replicas have an empty one. They have
        # no estimate, so they count as not below the truth, over all 100 replicas; at
        # 60 s no basis is empty and the key is not written. An empty basis of replica 0,
        # the reported experiment, still ends the run (at 3 pairs per basis, seed 12)
        tomo = {"integration_time_s": 0.03, "count_rate_hz": 200.0, "seed": 0, "replicas": 100}

        def run(name, **settings):
            config = parse_scenario({"schema": SCHEMA_VERSION, "coupling": REFERENCE_LITERAL,
                                     "tomography": dict(tomo, **settings)})
            mc = run_scenario(config, out_dir=str(tmp_path / name)).summary["results"]
            return config, mc["monte_carlo"]

        config, mc = run("short")
        report = monte_carlo_bounds(reference_record(), config.tomography, 100)
        assert mc["empty_basis_fraction"] == report.empty_basis_fraction == 0.03
        below = sum(v is not None and v < REFERENCE_SIGMA_HZ for v in report.values)
        assert mc["below_truth_fraction"] == below / 100
        assert mc["no_info_fraction"] == report.values.count(None) / 100 >= 0.03
        assert "empty_basis_fraction" not in run("long", integration_time_s=60.0)[1]
        with pytest.raises(ConfigError, match="integration_time_s too short: basis 'diag'"):
            run("empty", integration_time_s=1.0, count_rate_hz=3.0, seed=12)

    def test_curve_artifact_is_replica_zero_at_any_replica_count(self, tmp_path):
        # with replicas >= 2 replica 0's curve comes out of the Monte-Carlo pass
        tomo = {"integration_time_s": 60.0, "count_rate_hz": 200.0, "seed": 12345}
        grid = {"start": 0.5, "stop": 0.9999, "count": 60}
        for replicas in (1, 3):
            cfg = sim_config(alpha_grid=grid, tomography=dict(tomo, replicas=replicas))
            run_scenario(parse_scenario(cfg), out_dir=str(tmp_path / str(replicas)))
        single = (tmp_path / "1" / "bound_curve.csv").read_bytes()
        assert (tmp_path / "3" / "bound_curve.csv").read_bytes() == single

    def test_single_replica_run_has_no_monte_carlo_block(self, tmp_path):
        cfg = sim_config(
            alpha_grid={"start": 0.5, "stop": 0.9999, "count": 60},
            tomography={
                "integration_time_s": 60.0,
                "count_rate_hz": 200.0,
                "seed": 12345,
            },
        )
        report = run_scenario(parse_scenario(cfg), out_dir=str(tmp_path))
        assert "monte_carlo" not in report.summary["results"]
        assert report.summary["results"]["b_inf_hz"] > 0.0

    def test_require_bound_raises_when_uninformative(self, tmp_path):
        cfg = sim_config(
            probes=REFERENCE_LITERAL,
            coupling={"plates": [{"thickness_mm": 22.0, "orientation_deg": 0.0}]},
            require_bound=True,
        )
        with pytest.raises(NoInformationError, match="uninformative"):
            run_scenario(parse_scenario(cfg), out_dir=str(tmp_path))

    def test_uninformative_run_still_writes_artifacts(self, tmp_path):
        cfg = sim_config(
            probes=REFERENCE_LITERAL,
            coupling={"plates": [{"thickness_mm": 22.0, "orientation_deg": 0.0}]},
        )
        report = run_scenario(parse_scenario(cfg), out_dir=str(tmp_path))
        assert report.summary["results"]["no_information"] is True
        assert report.summary["results"]["b_inf_hz"] is None

    def test_artifact_path_that_is_a_directory_is_a_config_error(self, tmp_path):
        blocked = tmp_path / "bound_curve.csv"
        blocked.mkdir()
        with pytest.raises(ConfigError, match=f"output file {blocked} cannot be written"):
            run_scenario(parse_scenario(sim_config()), out_dir=str(tmp_path))
        assert not (tmp_path / "summary.json").exists()

    def test_huge_shift_gives_finite_monte_carlo_statistics(self, tmp_path):
        # bounds near 1e200 Hz, whose replica deviations (above 1e155 Hz) square beyond a float
        first = {"mu_hz": 1e200, "sigma_hz": REFERENCE_SIGMA_HZ}
        tomo = {"integration_time_s": 60.0, "count_rate_hz": 200.0, "seed": 42, "replicas": 20}
        cfg = sim_config(tomography=tomo, alpha_grid={"start": 0.5, "stop": 0.9999, "count": 60})
        cfg["spectra"]["first"] = first
        report = run_scenario(parse_scenario(cfg), out_dir=str(tmp_path))
        mc = report.summary["results"]["monte_carlo"]
        assert mc["no_info_fraction"] < 1.0
        assert 1e155 < mc["std_b_inf_hz"] < mc["mean_b_inf_hz"] < math.inf

    def test_sweep_config_rejected(self, tmp_path):
        cfg = sim_config(sweep={"thicknesses_mm": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="sweep"):
            run_scenario(parse_scenario(cfg), out_dir=str(tmp_path))

    def test_rerun_is_identical_except_timestamp(self, tmp_path):
        cfg = sim_config(
            alpha_grid={"start": 0.5, "stop": 0.9999, "count": 60},
            tomography={
                "integration_time_s": 30.0,
                "count_rate_hz": 100.0,
                "seed": 77,
                "replicas": 3,
            },
        )
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_scenario(cfg), out_dir=str(dir_a))
        run_scenario(parse_scenario(cfg), out_dir=str(dir_b))
        assert (dir_a / "bound_curve.csv").read_bytes() == (
            dir_b / "bound_curve.csv"
        ).read_bytes()
        sa, sb = read_summary(dir_a / "summary.json"), read_summary(dir_b / "summary.json")
        sa["provenance"].pop("generated_at")
        sb["provenance"].pop("generated_at")
        assert sa == sb


class TestReproduceFig4:
    def test_matches_published_values(self, tmp_path):
        report = reproduce_fig4(out_dir=str(tmp_path))
        results = report.summary["results"]
        assert abs(results["b2_half_over_sigma"] - 2.22) <= 0.05 * 2.22
        assert abs(results["b2_top_over_sigma"] - 1.82) <= 0.05 * 1.82
        assert results["family"] == "B2"
        assert results["b_inf_hz"] == pytest.approx(
            results["b2_top_over_sigma"] * REFERENCE_SIGMA_HZ, rel=1e-12
        )
        for name in ("fig4_bounds.csv", "fig4_fractions.csv", "summary.json"):
            assert (tmp_path / name).exists()

        with open(tmp_path / "fig4_fractions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        assert all(float(r["fraction_forward"]) < 1.0 for r in rows)
        assert all(float(r["fraction_reversed"]) < 1.0 for r in rows)

    def test_computes_the_four_fidelity_curves_once(self, tmp_path, monkeypatch):
        # fig4_fractions.csv comes from the same kernel calls as the bounds
        calls = record_kernel_halves(monkeypatch)
        reproduce_fig4(out_dir=str(tmp_path))
        assert calls == [("frames", 4), ("sums", 4)]

    def test_disagreement_raises_golden_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario, "GOLDEN_B2_HALF_OVER_SIGMA", 5.0)
        with pytest.raises(GoldenCheckError, match="published 5.0") as err:
            reproduce_fig4(out_dir=str(tmp_path))
        assert "b2_half_over_sigma" in str(err.value)
        assert "computed" in str(err.value)

    def test_a_fraction_of_one_raises_golden_error(self, tmp_path, monkeypatch, capsys):
        # evolved probes equal to the prepared ones: every fraction is 1, which the check
        # rejects, and the CLI exits with the golden code
        truth = reference_record()
        unchanged = replace(truth, phi1_rho1=truth.rho1, phi2_rho2=truth.rho2)
        monkeypatch.setattr(scenario, "reference_record", lambda: unchanged)
        with pytest.raises(GoldenCheckError, match="fidelity fractions must stay below 1"):
            reproduce_fig4(out_dir=str(tmp_path / "run"))
        assert main(["reproduce-fig4", "--out", str(tmp_path / "cli")]) == EXIT_GOLDEN
        assert "fidelity fractions must stay below 1" in capsys.readouterr().err


class TestSweep:
    def sweep_config(self, thicknesses, **overrides):
        cfg = sim_config(
            probes=REFERENCE_LITERAL,
            alpha_grid={"start": 0.5, "stop": 0.9999, "count": 80},
            sweep={"thicknesses_mm": thicknesses},
        )
        cfg.update(overrides)
        return cfg

    def test_small_sweep(self, tmp_path):
        cfg = parse_scenario(self.sweep_config([2.0, 5.0, 7.0]))
        report = sweep_thickness(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["thickness_mm"]) for r in rows] == [2.0, 5.0, 7.0]
        for r in rows:
            assert r["no_information"] == "false"
            assert float(r["b_inf_hz"]) > 0.0
            assert r["family"] in ("B1", "B2")
            assert 0.5 <= float(r["alpha_star"]) < 1.0
        entries = report.summary["results"]["thicknesses"]
        assert len(entries) == 3
        assert entries[1]["b_inf_over_sigma"] == pytest.approx(1.83, abs=0.05)

    def test_sweep_marks_uninformative_thickness(self, tmp_path):
        cfg = parse_scenario(self.sweep_config([5.0, 22.0]))
        sweep_thickness(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["no_information"] == "false"
        assert rows[1]["no_information"] == "true"
        assert rows[1]["b_inf_hz"] == ""
        assert rows[1]["family"] == ""

    def test_sweep_with_reference_coupling_rejected(self):
        cfg = {
            "schema": SCHEMA_VERSION,
            "coupling": REFERENCE_LITERAL,
            "sweep": {"thicknesses_mm": [1.0]},
        }
        with pytest.raises(ConfigError, match="sweep"):
            parse_scenario(cfg)

    def test_sweep_requires_sweep_section(self, tmp_path):
        with pytest.raises(ConfigError, match="thicknesses_mm"):
            sweep_thickness(parse_scenario(sim_config()), out_dir=str(tmp_path))

    @pytest.mark.parametrize("count, thicknesses, second_sigma", [
        # 60 thicknesses, the uninformative 22 mm plate last
        (80, [0.25 * k for k in range(1, 60)] + [22.0], None),
        # unequal widths, so sigma_truth is null and no row has b_inf_over_sigma
        (80, [22.0] + [0.35 * k for k in range(1, 62)], 1.4 * REFERENCE_SIGMA_HZ),
        (500, [1.5 * k for k in range(1, 11)] + [22.0], None),
    ])
    def test_one_blocked_pass_keeps_the_per_thickness_rows(
        self, tmp_path, count, thicknesses, second_sigma
    ):
        payload = self.sweep_config(thicknesses, alpha_grid={"count": count})
        if second_sigma is not None:
            payload["spectra"]["second"]["sigma_hz"] = second_sigma
        cfg = parse_scenario(payload)
        want = oracle_sweep_rows(cfg)
        report = sweep_thickness(cfg, out_dir=str(tmp_path / "run"))
        results = report.summary["results"]
        assert results["thicknesses"] == want
        assert (tmp_path / "run" / "sweep.csv").read_bytes() == oracle_sweep_csv(cfg)
        assert (results["sigma_truth_hz"] is None) == (second_sigma is not None)
        assert any(r["no_information"] for r in want)
        assert any(not r["no_information"] for r in want)

    def test_require_bound_sweep_with_no_informative_thickness(self, tmp_path):
        cfg = parse_scenario(self.sweep_config([22.0, 25.0], require_bound=True))
        with pytest.raises(NoInformationError, match="every thickness"):
            sweep_thickness(cfg, out_dir=str(tmp_path))


def curve_rows(curve) -> list[dict]:
    return list(csv.DictReader(io.StringIO(bound_curve_csv(curve).decode(), newline="")))


class TestCsvBytes:
    def test_csv_round_trip(self):
        curve = tightest_bound(reference_record(), alpha_grid=np.linspace(0.5, 0.9999, 40))
        rows = curve_rows(curve)
        assert len(rows) == 40
        for i, row in enumerate(rows):
            assert float(row["alpha"]) == pytest.approx(curve.alphas[i], rel=1e-10)
            assert float(row["b1_hz"]) == pytest.approx(curve.b1[i], rel=1e-10)
            assert float(row["b2_hz"]) == pytest.approx(curve.b2[i], rel=1e-10)
            assert row["valid1"] == "true" and row["valid2"] == "true"

    def test_csv_bytes_cell_rule(self, tmp_path, monkeypatch):
        columns = [np.array([0.25]), np.array([math.nan]), [""], np.array([True]),
                   np.array([False]), ["B2"]]
        want = b"a,b,c,d,e,f\r\n2.500000000000e-01,,,true,false,B2\r\n"
        assert csv_bytes(["a", "b", "c", "d", "e", "f"], columns) == want
        path = tmp_path / "out.csv"
        assert write_output(path, csv_bytes(["a", "b", "c", "d", "e", "f"], columns)) == path
        assert path.read_bytes() == want
        # a write of at most 7 bytes a call leaves the same bytes, over a longer file too
        short_os_writes(monkeypatch)
        write_output(path, csv_bytes(["a", "b", "c", "d", "e", "f"], columns))
        assert path.read_bytes() == want
        curve = tightest_bound(reference_record())
        assert bound_curve_csv(curve) == oracle_csv_bytes(
            ["alpha", "b1_hz", "b2_hz", "valid1", "valid2"],
            (curve.alphas, curve.b1, curve.b2, curve.valid1, curve.valid2))

    def test_csv_bytes_match_the_row_writer_oracle(self):
        # seeded tables of float, bool and string columns, built by both writers
        rng = np.random.default_rng(20261018)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
        words = ["", "B1", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", '"', ",", "é"]
        for _ in range(60):
            n = int(rng.integers(0, 40))
            columns = []
            for kind in rng.integers(3, size=int(rng.integers(2, 7))):
                if kind == 0:
                    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                    special = rng.random(n) < 0.3
                    values[special] = rng.choice(specials, int(special.sum()))
                    columns.append(values)
                elif kind == 1:
                    columns.append(rng.random(n) < 0.5)
                else:
                    columns.append([words[i] for i in rng.integers(len(words), size=n)])
            header = [words[i] for i in rng.integers(len(words), size=len(columns))]
            assert csv_bytes(header, columns) == oracle_csv_bytes(header, columns)

    @staticmethod
    def assert_percent_writer_bytes(header, columns):
        assert csv_bytes(header, columns) == oracle_percent_csv_bytes(header, columns)

    def test_float_cells_match_percent_formatting(self):
        # seeded: every cell against '%.12e' % v, in one column of each dtype
        rng = np.random.default_rng(20261019)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        round_ups = np.array([float(f"9.9999999999995e{k}") for k in range(-310, 308)])
        edges = np.concatenate((powers, round_ups))
        values = np.concatenate((
            rng.choice([-1.0, 1.0], 60_000) * 10.0 ** rng.uniform(-320.0, 308.25, 60_000),
            (2.0 * rng.integers(0, 2**45, 20_000) + 1.0) * 2.0**-20,  # odd multiples of 2^-20
            rng.integers(10**12, 10**15, 10_000) * 10.0 + 5.0,  # ties: ...5 at 14+ digits
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf), -edges,
            rng.random(5_000) * 2.2250738585072014e-308,  # subnormals
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308,
             1e-310, 9.9999999999995e5, 9.99999999999949e99, 1e308],
        ))
        assert values.size >= 10**5
        singles = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-45.0, 38.0, 20_000)
        singles = np.append(singles, [math.nan, -math.inf, math.inf, -0.0, 1e-45,
                                      9.9999999999995e5]).astype(np.float32)
        # NaN columns as an uninformative or partly informative bound curve holds them
        lone = np.full(500, math.nan)
        lone[250] = 1.5e11
        alternating = values[:1000].copy()
        alternating[::2] = math.nan
        nan_columns = (np.full(500, math.nan), lone, alternating)
        for column in (values, singles, rng.integers(-2**63, 2**63, 5_000),
                       np.arange(-1000, 1000), *nan_columns):
            self.assert_percent_writer_bytes(["x"], [column])
        for column in nan_columns:  # also in the one call that formats every later column
            grid = np.linspace(0.5, 0.9999, column.size)
            self.assert_percent_writer_bytes(["alpha", "b1", "b2"], [grid, column, column[::-1]])

    def test_float_cell_word_tables(self):
        # every 4-digit word, lead word and exponent tail word against '%'
        assert [w.tobytes() for w in _WORDS[:10**4]] == [b"%04d" % i for i in range(10**4)]
        for d in range(1, 10):
            assert _WORDS[_LEAD_ROW + d].tobytes() == b"\xff\xff%d." % d
            assert _WORDS[_LEAD_ROW - d].tobytes() == b"\xff-%d." % d
        tails = [(b"e%+03d" % e).ljust(8, b"\xff") for e in _EXPONENTS.tolist()]
        assert [w.tobytes() for w in _TAIL_WORDS] == tails

    @pytest.mark.parametrize("columns", [
        [np.zeros(0), np.zeros(0, dtype=bool), []],  # zero rows
        [np.array([1.5, math.nan, -0.0])],  # one column: a NaN row is an empty line
        [["a\x00b", "x,y", 'say "hi"', "cr\rhere", "two\nlines", "é ∞ 😀", ""]],
        [["\x00", "\xff", ",\x00"], np.array([math.nan, 1e-300, 5e-324]),
         np.array([True, False, True])],
        [],  # no column: the header's empty row alone
    ])
    def test_csv_bytes_match_the_percent_writer(self, columns):
        self.assert_percent_writer_bytes([f"h{k},\x00" for k in range(len(columns))], columns)

    def test_key_column_cells_are_a_read_only_memo(self):
        grid = default_alpha_grid()
        cells = _key_cells(grid.dtype, grid.tobytes())
        assert not cells.flags.writeable
        assert _key_cells(grid.dtype, grid.tobytes()) is cells
        # a changed grid, or the same bytes read as another dtype, gets fresh cells
        moved = _key_cells(grid.dtype, (grid * 0.5).tobytes())
        swapped = _key_cells(np.dtype(">f8"), grid.tobytes())
        assert moved is not cells and swapped is not cells and moved is not swapped
        assert not np.array_equal(moved, cells) and not np.array_equal(swapped, cells)
        for got, column in ((cells, grid), (moved, grid * 0.5)):
            assert got.tobytes() == _float_cells(column).tobytes()

    def test_csv_marks_uninformative_rows_empty(self):
        # evolution erased the preparations entirely: both fractions exceed one
        mixed = DensityMatrix(np.eye(2) / 2)
        record = ProbingRecord(DensityMatrix(np.diag([1.0, 0.0])),
                               DensityMatrix(np.diag([0.9, 0.1])), mixed, mixed, 1.0)
        for row in curve_rows(tightest_bound(record, alpha_grid=[0.5, 0.7])):
            assert row["b1_hz"] == "" and row["b2_hz"] == ""
            assert row["valid1"] == "false" and row["valid2"] == "false"


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def nested_payload(rng, depth: int):
    """A seeded JSON value of every kind json_bytes takes, nested at most depth levels."""
    scalars = ["", "é ∞ 😀", 'say "hi"\\', "tab\there\x00\x1f\u2028", True, False, None, 0,
               -7, 2**70, -(2**1100), 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
               0.1, np.float64(2.5e-300), float(rng.standard_normal())]
    kind = int(rng.integers(4 if depth else 1))
    if kind == 0:
        return scalars[int(rng.integers(len(scalars)))]
    items = [nested_payload(rng, depth - 1) for _ in range(int(rng.integers(4)))]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    return {scalars[int(rng.integers(3))] + str(k): v for k, v in enumerate(items)}


class TestJsonBytes:
    """json_bytes is json.dumps(indent=2, sort_keys=True, allow_nan=False)'s UTF-8 bytes."""

    def test_package_payloads(self, tmp_path, monkeypatch):
        from alphaprobe.tomography import TomographySettings, reconstruct, simulate_counts

        record = reference_record()
        counts = simulate_counts(record.rho1, TomographySettings(60.0, 200.0, 7), rng_stream(7, (0,)))
        payloads = [reproduce_fig4(str(tmp_path / "fig4")).summary,
                    bound_summary(tightest_bound(record), 5.68e11), counts.to_json(),
                    reconstruct(counts).to_json(), record.phi1_rho1.to_json(),
                    matrix_to_json(np.diag([0.5, 0.3, 0.2]))]
        for payload in payloads:
            assert json_bytes(payload) == dumps(payload).encode()
        # a write of at most 7 bytes a call leaves the same bytes
        short_os_writes(monkeypatch)
        for k, payload in enumerate(payloads):
            write_output(tmp_path / f"{k}.json", json_bytes(payload))
            assert (tmp_path / f"{k}.json").read_bytes() == dumps(payload).encode()

    def test_generated_nested_payloads(self):
        rng = np.random.default_rng(3901)
        for k in range(300):
            payload = nested_payload(rng, 6)
            assert json_bytes(payload) == dumps(payload).encode()

    def test_nesting_at_max_json_depth(self):
        payload = [1.5]
        for k in range(MAX_JSON_DEPTH):
            payload = {"k": payload} if k % 2 else [payload, {}]
        assert json_bytes({"config": payload}).decode() == dumps({"config": payload})

    @pytest.mark.parametrize("payload, error", [
        ({"x": math.nan}, ValueError),
        ([1.0, [math.inf]], ValueError),
        ({"a": {"b": -math.inf}}, ValueError),
        (np.float64(math.nan), ValueError),
        ({1: "one"}, TypeError),
        ({"a": 1, None: 2}, TypeError),
        ({"a": np.int64(3)}, TypeError),
        ([b"bytes"], TypeError),
        ({"s": {1, 2}}, TypeError),
        (np.array([1.0]), TypeError),
    ])
    def test_rejects_what_json_rejects(self, payload, error):
        with pytest.raises(error):
            json_bytes(payload)
