import importlib

import pytest

import alphaprobe

# every name the package exports, under the module that defines it
EXPORTS = {
    "bounds": [
        "BoundCurve", "BoundOptimum", "NoInformationError", "ProbingRecord", "bound_b1",
        "bound_b2", "bound_summary", "fraction", "fraction_curve", "lower_bound_delta_mu",
        "ratio_lower_bound", "tightest_bound",
    ],
    "channel": [
        "QUARTZ_BIREFRINGENCE", "WavePlate", "WavePlateStack", "apply_channel",
        "jones_at_frequencies",
    ],
    "fidelity": [
        "alpha_fidelity", "alpha_fidelity_curve", "default_alpha_grid", "dpi_margin",
        "renyi_divergence",
    ],
    "linalg": [
        "DensityMatrix", "NotHermitianError", "NotPositiveError", "matrix_from_json",
        "matrix_to_json",
    ],
    "reference": ["REFERENCE_DELTA_MU_HZ", "REFERENCE_SIGMA_HZ", "reference_record"],
    "scenario": [
        "ConfigError", "GoldenCheckError", "RunReport", "ScenarioConfig", "bound_curve_csv",
        "load_scenario", "parse_scenario", "reproduce_fig4", "run_scenario", "sweep_thickness",
    ],
    "spectra": [
        "LIGHT_SPEED", "GaussianSpectrum", "discretize_pair", "gaussian_alpha_fidelity",
        "kappa",
    ],
    "tomography": [
        "MUB_BASES", "CountRecord", "MeasurementBasis", "MonteCarloReport",
        "TomographySettings", "born_probabilities", "monte_carlo_bounds", "reconstruct",
        "rng_stream", "sample_counts", "simulate_counts",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exported_names():
    assert len(NAMES) == 56
    assert sorted(alphaprobe.__all__) == sorted(NAMES)


def test_each_name_is_the_defining_modules_object():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"alphaprobe.{module}")
        for name in names:
            assert getattr(alphaprobe, name) is getattr(defining, name), name


def test_dir_lists_the_exported_names():
    assert set(NAMES) <= set(dir(alphaprobe))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        alphaprobe.no_such_name  # noqa: B018


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from alphaprobe import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(alphaprobe.__all__)
