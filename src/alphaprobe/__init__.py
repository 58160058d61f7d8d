"""Coupling-agnostic width bounds on an unknown Gaussian spectral line.

A qubit probe traverses an unknown birefringent coupling twice, once per
setting of a frequency-shifted environment line. Comparing how
distinguishable the probes are before and after, in terms of alpha-fidelities,
bounds the line width sigma without modeling the coupling itself. The
subpackages provide the Hermitian linear algebra, the fidelities, the
Gaussian-line closed forms, a wave-plate channel simulator, the bound
families, shot-noise tomography with Monte-Carlo error bars, and a CLI.

The namespace is lazy: each exported name imports its defining module on first
access, so a CLI process loads only the modules its subcommand runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": "BoundCurve BoundOptimum NoInformationError ProbingRecord bound_b1 bound_b2 "
              "bound_summary fraction fraction_curve lower_bound_delta_mu ratio_lower_bound "
              "tightest_bound",
    "channel": "QUARTZ_BIREFRINGENCE WavePlate WavePlateStack apply_channel "
               "jones_at_frequencies",
    "fidelity": "alpha_fidelity alpha_fidelity_curve default_alpha_grid dpi_margin "
                "renyi_divergence",
    "linalg": "DensityMatrix NotHermitianError NotPositiveError matrix_from_json matrix_to_json",
    "reference": "REFERENCE_DELTA_MU_HZ REFERENCE_SIGMA_HZ reference_record",
    "scenario": "ConfigError GoldenCheckError RunReport ScenarioConfig bound_curve_csv "
                "load_scenario parse_scenario reproduce_fig4 run_scenario sweep_thickness",
    "spectra": "LIGHT_SPEED GaussianSpectrum discretize_pair gaussian_alpha_fidelity kappa",
    "tomography": "MUB_BASES CountRecord MeasurementBasis MonteCarloReport TomographySettings "
                  "born_probabilities monte_carlo_bounds reconstruct rng_stream sample_counts "
                  "simulate_counts",
}
# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module defining an exported name and cache the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
