"""Shot-noise qubit tomography and Monte-Carlo error bars for width bounds.

Measurement model: each of three mutually unbiased polarization bases is
integrated for a fixed time at a fixed pair-detection rate; the two outcome
counts are independent Poisson draws with means rate * time * p_outcome.
The bases are the Pauli triple H/V, D/A and R/L, so everything is in closed
Bloch form: a qubit state (I + r.sigma) / 2 has r = (z, x, y) = (a00 - a11,
2 Re a01, -2 Im a01), basis k has outcome probabilities (1 +/- r_k) / 2 (one
kernel, _outcome_probabilities), and linear inversion of the count asymmetries
gives r back, repaired into a physical state as r / max(1, |r|). Monte-Carlo
replicas repeat the four-state tomography of a single record step for step, in
passes: each truth state has one counter-derived stream, read six draws a replica
in index order, so replica 0 draws what one tomography run of that stream draws.
A pass is drawn, inverted into states valid by construction (a replica with an
empty basis gets no estimate) and turned into qubit frames once. Replica 0, the
experiment a run reports, takes the full-grid route of tightest_bound
(bounds._bound_curve); the others one certified alpha search (bounds._search_optima).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    BoundCurve, ProbingRecord, _bound_curve, _bound_grid, _record_frames, _search_optima,
)
from .fidelity import _qubit_rows
from .linalg import (
    DensityMatrix,
    check_integer,
    check_positive,
    check_qubit,
    check_real,
    state_matrix,
)

# the replica loop holds one float per replica; larger runs are rejected up front
MAX_REPLICAS = 100_000
# expected pairs per basis (rate x time) at most: each count's mean then lies where
# floats hold every integer, as reconstruct assumes, far inside numpy's Poisson limit
MAX_EXPECTED_PAIRS = 2**53
# replicas are sampled, inverted and bounded in index order in passes of up to SAMPLE_REPLICAS,
# with one frames and one coarse kernel call a pass, so the pass size bounds their memory:
# 1,100 replicas of the reference record trace 1.75 MiB at A = 500 and 23.9 MiB at A = 100,000
SAMPLE_REPLICAS = 256

class ZeroCountsError(ValueError):
    """A basis collected no counts, so its asymmetry is undefined."""


@dataclass(frozen=True)
class MeasurementBasis:
    """One basis of the Pauli triple, by name: hv measures Z, diag X and circ Y."""

    name: str


MUB_BASES = tuple(map(MeasurementBasis, ("hv", "diag", "circ")))


@dataclass(frozen=True)
class TomographySettings:
    """Acquisition parameters shared by every basis of a tomography run."""

    integration_time: float  # s
    count_rate: float  # detected pairs per second
    seed: int
    bases = MUB_BASES  # fixed, not a field: the Pauli triple linear inversion assumes

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "integration_time", check_positive(self.integration_time, "integration time")
        )
        object.__setattr__(self, "count_rate", check_positive(self.count_rate, "count rate"))
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", minimum=0))
        if self.expected_pairs > MAX_EXPECTED_PAIRS:
            raise ValueError(
                f"count rate x integration time must be at most 2**53, got {self.expected_pairs}"
            )

    @property
    def expected_pairs(self) -> float:
        return self.count_rate * self.integration_time


@dataclass(frozen=True)
class CountRecord:
    """Outcome counts per basis: name -> (n_plus, n_minus).

    Names must be strings and counts nonnegative integers (NumPy integers
    included, booleans not); nothing else is converted.
    """

    counts: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[str, tuple[int, int]] = {}
        for name, pair in self.counts.items():
            if not isinstance(name, str):
                raise ValueError(f"basis names must be strings, got {name!r}")
            try:
                n_plus, n_minus = pair
                clean[name] = tuple(check_integer(n, "count", 0) for n in (n_plus, n_minus))
            except (TypeError, ValueError):
                raise ValueError(
                    f"counts must be nonnegative integers, got {pair} in {name!r}"
                ) from None
        object.__setattr__(self, "counts", clean)

    def to_json(self) -> dict:
        return {name: list(pair) for name, pair in self.counts.items()}


def _outcome_probabilities(a: np.ndarray) -> np.ndarray:
    """(1 + r_k) / 2, (1 - r_k) / 2 (..., 6) of qubit matrices (..., 2, 2), in MUB_BASES order."""
    off = a[..., 0, 1]
    r = np.stack(((a[..., 0, 0] - a[..., 1, 1]).real, 2.0 * off.real, -2.0 * off.imag), -1)
    p = np.stack(((1.0 + r) / 2.0, (1.0 - r) / 2.0), -1).reshape(r.shape[:-1] + (6,))
    return np.clip(p, 0.0, 1.0, out=p)  # floating-point residue; each pair sums to 1


def born_probabilities(rho, basis: MeasurementBasis) -> tuple[float, float]:
    """Outcome probabilities (p_plus, p_minus) = ((1 + r_k) / 2, (1 - r_k) / 2) of basis k."""
    if basis not in MUB_BASES:
        raise ValueError(f"basis must be one of MUB_BASES, got {basis!r}")
    k = 2 * MUB_BASES.index(basis)
    return tuple(_outcome_probabilities(check_qubit(state_matrix(rho)))[k:k + 2].tolist())


def rng_stream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """Counter-derived independent stream for (seed, spawn_key).

    Streams with different spawn keys are statistically independent and
    reproducible regardless of creation or consumption order. This is the
    definition of every stream in the package: monte_carlo_bounds draws truth
    state k of every replica from the one stream with spawn key (0, k).
    """
    ss = np.random.SeedSequence(
        entropy=check_integer(seed, "seed", minimum=0),
        spawn_key=tuple(check_integer(k, "spawn key entry", minimum=0) for k in spawn_key),
    )
    return np.random.Generator(np.random.Philox(ss))


def sample_counts(
    probabilities: dict[str, tuple[float, float]],
    settings: TomographySettings,
    stream: np.random.Generator,
) -> CountRecord:
    """Poisson-sample counts for precomputed per-basis outcome probabilities.

    Each basis of settings.bases must map to a pair (p_plus, p_minus) of real numbers in
    [0, 1] (NumPy reals included, booleans not); nothing else is converted.
    """
    means = []
    for name in (b.name for b in settings.bases):
        if name not in probabilities:
            raise ValueError(f"probabilities are missing basis {name!r}")
        pair = probabilities[name]
        try:
            p_plus, p_minus = (check_real(p, "probability") for p in pair)
            if not (0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0):
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(
                f"probabilities must be two numbers in [0, 1], got {pair!r} in {name!r}"
            ) from None
        means += (p_plus, p_minus)
    n = stream.poisson(settings.expected_pairs * np.array(means)).tolist()  # a replica's row
    return CountRecord({b.name: (n[2 * i], n[2 * i + 1]) for i, b in enumerate(settings.bases)})


def simulate_counts(
    rho, settings: TomographySettings, stream: np.random.Generator
) -> CountRecord:
    """Born probabilities plus Poisson sampling in one step."""
    probs = {b.name: born_probabilities(rho, b) for b in settings.bases}
    return sample_counts(probs, settings, stream)


def _invert(counts: np.ndarray) -> np.ndarray:
    """Repaired linear-inversion estimates (..., 2, 2), exactly Hermitian and positive as built.

    counts (..., 6) hold n_plus, n_minus of each basis in MUB_BASES order. The
    first zero-count basis in C order raises ZeroCountsError.
    """
    n_plus, n_minus = counts[..., 0::2], counts[..., 1::2]
    total = n_plus + n_minus
    empty = total == 0
    if empty.any():
        name = MUB_BASES[np.argwhere(empty)[0][-1]].name
        raise ZeroCountsError(f"basis {name!r} collected zero counts; asymmetry is undefined")
    z, x, y = np.moveaxis((n_plus - n_minus) / total, -1, 0)  # r in MUB_BASES order
    z, x, y = (z, x, y) / np.maximum(1.0, np.sqrt(z * z + x * x + y * y))  # r / max(1, |r|)
    rho = np.stack((1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z), axis=-1) / 2.0  # (I + r.sigma) / 2
    return rho.reshape(z.shape + (2, 2))


def reconstruct(
    counts: CountRecord, bases: tuple[MeasurementBasis, ...] = MUB_BASES
) -> DensityMatrix:
    """Linear-inversion estimate from count asymmetries, repaired to a state.

    rho_hat = (I + r.sigma) / 2 with r_k = (n_plus - n_minus) / N_k over the Pauli
    triple, which `bases` must be. For a qubit, clipping the negative eigenvalue of an
    estimate outside the Bloch ball and renormalizing is exactly r -> r / |r|.
    """
    if tuple(bases) != MUB_BASES:
        raise ValueError(f"bases must be the Pauli triple MUB_BASES, got {bases!r}")
    for basis in MUB_BASES:
        if basis.name not in counts.counts:
            raise ValueError(f"count record is missing basis {basis.name!r}")
    # float counts are exact below 2**53 and, unlike int64, cannot overflow
    row = np.array([n for basis in MUB_BASES for n in counts.counts[basis.name]], dtype=float)
    return DensityMatrix(_invert(row))


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated bound statistics over tomography replicas.

    values holds one entry per replica in index order; None marks a replica
    whose reconstructed record was uninformative at every grid point, or which
    has no estimate because a basis of one of its states collected no counts
    (empty_basis_fraction is their share). When every replica is None,
    mean_b_inf and std_b_inf are None. curve0 is replica
    0's bound curve, the single experiment a run's curve artifact describes;
    it is left out of equality and of the JSON summary.
    """

    mean_b_inf: float | None
    std_b_inf: float | None
    no_info_fraction: float
    replicas: int
    seed: int
    values: tuple[float | None, ...]
    empty_basis_fraction: float = 0.0
    curve0: BoundCurve | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        report = {
            "mean_b_inf_hz": self.mean_b_inf,
            "std_b_inf_hz": self.std_b_inf,
            "no_info_fraction": self.no_info_fraction,
            "replicas": self.replicas,
            "seed": self.seed,
        }
        if self.empty_basis_fraction > 0.0:  # a run without an empty basis keeps its bytes
            report["empty_basis_fraction"] = self.empty_basis_fraction
        return report


def monte_carlo_bounds(
    truth: ProbingRecord, settings: TomographySettings, replicas: int, alpha_grid=None
) -> MonteCarloReport:
    """Propagate tomography shot noise through the bound pipeline.

    Each replica redoes the four-state tomography and reports the tightest
    bound of the reconstructed record; the truth states' Poisson means come from
    one _outcome_probabilities call for all replicas. Truth state k draws the
    counts of every replica from one stream, rng_stream(seed, (0, k)): replica r
    takes its draws 6r to 6r + 5, in MUB_BASES order with n_plus before n_minus.
    Replicas run in index order, in passes of up to SAMPLE_REPLICAS, and each
    stream carries on from pass to pass, so the report does not depend on how the
    run is split. Replica 0, the experiment a run reports and the first row of the
    first pass, is bounded by bounds._bound_curve as tightest_bound's curve is, and
    its empty basis raises ZeroCountsError; the other rows by bounds._search_optima,
    and one with an empty basis gets no estimate (its value is None).
    """
    replicas = check_integer(replicas, "replicas", 1, MAX_REPLICAS)
    alphas = _bound_grid(alpha_grid)
    # the Poisson means (4, 6) of each state's six counts, computed once for all replicas
    truth_states = np.array([check_qubit(state) for state in truth.states])
    means = settings.expected_pairs * _outcome_probabilities(truth_states)
    streams = [rng_stream(settings.seed, (0, k)) for k in range(len(means))]
    b_inf = np.full(replicas, math.inf)  # by replica index; inf where a replica has no bound
    empty_count = 0
    for start in range(0, replicas, SAMPLE_REPLICAS):
        rows = np.arange(start, min(start + SAMPLE_REPLICAS, replicas))
        # counts (rows, state, 6): one array draw per state, a row per replica
        counts = np.stack([g.poisson(m, size=(len(rows), len(m)))
                           for g, m in zip(streams, means)], axis=1)
        empty = (counts[..., 0::2] + counts[..., 1::2] == 0).any(axis=(1, 2))  # no estimate
        empty_count += int(empty.sum())
        kept = rows[~empty | (rows == 0)]  # replica 0's first empty basis raises in _invert
        frames = _record_frames(_invert(counts[kept - start]))
        if start == 0:  # replica 0, the experiment a run reports, by the full-grid route
            curve0 = _bound_curve(_qubit_rows(frames[:, :4], alphas), alphas, truth.delta_mu)
            b_inf[0] = math.inf if curve0.no_information else curve0.optimum.value
            kept, frames = kept[1:], frames[:, 4:]
        if kept.size:
            b_inf[kept] = _search_optima(frames, alphas, truth.delta_mu)

    # aggregation in replica index order, compensated sums
    values = tuple(None if math.isinf(v) else v for v in b_inf.tolist())
    informative = [v for v in values if v is not None]
    mean = std = None
    if informative:
        # an exact 2**e unit only where squares could leave the normal range: x ** 2 is
        # pow, whose rounding may differ at another scale
        e = math.frexp(max(informative))[1]
        e = 0 if -400 < e <= 500 else e - 500
        unit = [math.ldexp(v, -e) for v in informative]
        mean = math.fsum(unit) / len(unit)
        dof = max(len(unit) - 1, 1)  # one informative replica has std 0
        std = math.ldexp(math.sqrt(math.fsum((v - mean) ** 2 for v in unit) / dof), e)
        mean = math.ldexp(mean, e)
    return MonteCarloReport(
        mean_b_inf=mean,
        std_b_inf=std,
        no_info_fraction=(replicas - len(informative)) / replicas,
        replicas=replicas,
        seed=settings.seed,
        values=values,
        empty_basis_fraction=empty_count / replicas,
        curve0=curve0,
    )
