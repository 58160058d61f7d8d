"""Coupling-agnostic width bounds on an unknown Gaussian spectral line.

A qubit probe traverses an unknown birefringent coupling twice, once per
setting of a frequency-shifted environment line. Comparing how
distinguishable the probes are before and after, in terms of alpha-fidelities,
bounds the line width sigma without modeling the coupling itself. The
subpackages provide the Hermitian linear algebra, the fidelities, the
Gaussian-line closed forms, a wave-plate channel simulator, the bound
families, shot-noise tomography with Monte-Carlo error bars, and a CLI.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    BoundCurve,
    BoundOptimum,
    NoInformationError,
    ProbingRecord,
    bound_b1,
    bound_b2,
    bound_summary,
    fraction,
    fraction_curve,
    lower_bound_delta_mu,
    ratio_lower_bound,
    tightest_bound,
    write_bound_curve_csv,
)
from .channel import (
    QUARTZ_BIREFRINGENCE,
    WavePlate,
    WavePlateStack,
    apply_channel,
    jones_at_frequencies,
)
from .fidelity import (
    alpha_fidelity,
    alpha_fidelity_curve,
    default_alpha_grid,
    dpi_margin,
    renyi_divergence,
)
from .linalg import (
    DensityMatrix,
    NotHermitianError,
    NotPositiveError,
    matrix_from_json,
    matrix_to_json,
)
from .reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from .scenario import (
    ConfigError,
    GoldenCheckError,
    RunReport,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
    reproduce_fig4,
    run_scenario,
    sweep_thickness,
)
from .spectra import (
    LIGHT_SPEED,
    FrequencyGrid,
    GaussianSpectrum,
    UnequalWidthsError,
    discretize_pair,
    gaussian_alpha_fidelity,
    kappa,
)
from .tomography import (
    MUB_BASES,
    CountRecord,
    MeasurementBasis,
    MonteCarloReport,
    TomographySettings,
    born_probabilities,
    monte_carlo_bounds,
    reconstruct,
    rng_stream,
    sample_counts,
    simulate_counts,
)
