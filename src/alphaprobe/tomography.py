"""Shot-noise qubit tomography and Monte-Carlo error bars for width bounds.

Measurement model: each of three mutually unbiased polarization bases is
integrated for a fixed time at a fixed pair-detection rate; the two outcome
counts are independent Poisson draws with means rate * time * p_outcome.
Linear inversion of the count asymmetries gives a Bloch vector r, repaired
into a physical state as r / max(1, |r|). Monte-Carlo replicas repeat the full
four-state tomography with independent counter-derived streams and propagate
each replica through the bound pipeline; passes of replicas are sampled,
reconstructed and validated as arrays and bounded in blocks, with the same
draws and results as one replica at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import (
    BoundCurve,
    ProbingRecord,
    _bound_curve,
    _bound_grid,
    _bound_rows,
    _check_control_shift,
)
from .linalg import (
    DensityMatrix,
    check_density_matrices,
    check_integer,
    check_positive,
    check_qubit,
)

_SQ2 = 1.0 / math.sqrt(2.0)

# the replica loop holds one result per replica; larger runs are rejected up front
MAX_REPLICAS = 100_000
# expected pairs per basis (rate x time) at most: each count's mean then lies where
# floats hold every integer, as reconstruct assumes, far inside numpy's Poisson limit
MAX_EXPECTED_PAIRS = 2**53
# replicas are sampled, inverted and validated in passes of up to SAMPLE_REPLICAS
# in evaluation order, and bounded in blocks of max(1, BLOCK_ALPHA_POINTS // A)
# for an A-point grid. Peak memory bounds the block: over 150 runs of 100 replicas at
# A = 500 (2-vCPU Xeon, Python 3.11, numpy 2.4), blocks of 4 peak 7.9 MiB above the
# imported package, 16 at 9.0 MiB and 100 at 14.1 MiB, and the mc-tomography
# benchmark allows about 2.2 MiB (5%) of growth
SAMPLE_REPLICAS = 1024
BLOCK_ALPHA_POINTS = 2048

# numpy's SeedSequence pool hash (pool of 4 uint32 words), see _philox_keys
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


class ZeroCountsError(ValueError):
    """A basis collected no counts, so its asymmetry is undefined."""


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective qubit basis given by its two orthonormal outcome kets."""

    name: str
    plus: tuple[complex, complex]
    minus: tuple[complex, complex]

    @cached_property
    def observable(self) -> np.ndarray:
        """Traceless +/-1 observable P_plus - P_minus, built once per basis."""
        plus, minus = np.asarray(self.plus), np.asarray(self.minus)
        obs = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
        obs.setflags(write=False)
        return obs


HV_BASIS = MeasurementBasis("hv", (1.0, 0.0), (0.0, 1.0))
DIAG_BASIS = MeasurementBasis("diag", (_SQ2, _SQ2), (_SQ2, -_SQ2))
CIRC_BASIS = MeasurementBasis("circ", (_SQ2, _SQ2 * 1j), (_SQ2, -_SQ2 * 1j))

MUB_BASES = (HV_BASIS, DIAG_BASIS, CIRC_BASIS)


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
            n_plus, n_minus = pair
            try:
                clean[name] = tuple(check_integer(n, "count", 0) for n in (n_plus, n_minus))
            except ValueError:
                raise ValueError(
                    f"counts must be nonnegative integers, got {pair} in {name!r}"
                ) from None
        object.__setattr__(self, "counts", clean)

    def to_json(self) -> dict:
        return {name: list(pair) for name, pair in self.counts.items()}


def born_probabilities(rho, basis: MeasurementBasis) -> tuple[float, float]:
    """Outcome probabilities (p_plus, p_minus) of the basis on a qubit state."""
    a = check_qubit(rho)
    p_plus = float(np.real(np.conj(basis.plus) @ a @ basis.plus))
    p_minus = float(np.real(np.conj(basis.minus) @ a @ basis.minus))
    # clip floating-point residue; the pair sums to tr(rho) = 1
    return (min(max(p_plus, 0.0), 1.0), min(max(p_minus, 0.0), 1.0))


def rng_stream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """Counter-derived independent stream for (seed, spawn_key).

    Streams with different spawn keys are statistically independent and
    reproducible regardless of creation or consumption order. This is the
    definition of every stream in the package; monte_carlo_bounds reaches the
    same fresh states through _philox_keys and _reseeded.
    """
    ss = np.random.SeedSequence(
        entropy=check_integer(seed, "seed"),
        spawn_key=tuple(check_integer(k, "spawn key entry") for k in spawn_key),
    )
    return np.random.Generator(np.random.Philox(ss))


def _philox_keys(seed: int, spawn_keys) -> np.ndarray:
    """Philox keys (N, 2) uint64 of rng_stream(seed, key) for N spawn keys at once.

    numpy's SeedSequence pool hash, vectorised over the streams: the entropy
    is the seed's little-endian 32-bit words, zero-padded to the pool size,
    then the spawn-key words, each entry below 2**32. (numpy pads only when a
    spawn key follows; without one, its pool hashes missing words as 0 all
    the same.) Words shared by every stream stay Python ints; the rest are
    uint64 arrays masked to 32 bits, so both wrap exactly as numpy's uint32
    arithmetic does.
    """
    spawn = np.asarray(spawn_keys, dtype=np.uint64)
    if spawn.size and int(spawn.max()) > _MASK32:
        raise ValueError("spawn key entries must be below 2**32")
    seed = int(seed)
    n_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    entropy = [seed >> 32 * i & _MASK32 for i in range(n_words)] + list(spawn.T)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = _INIT_B
    words = []
    for i in range(4):  # generate_state(2, np.uint64): four words cycled from the pool
        value = pool[i % _POOL_SIZE] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        words.append(np.asarray(value ^ value >> _XSHIFT, dtype=np.uint64))
    keys = np.empty((spawn.shape[0], 2), dtype=np.uint64)
    keys[:, 0] = words[0] | words[1] << np.uint64(32)
    keys[:, 1] = words[2] | words[3] << np.uint64(32)
    return keys


def _reseeded(stream: np.random.Generator, key) -> np.random.Generator:
    """stream with its Philox reset to the fresh state Philox(SeedSequence) has for key."""
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return stream


def _draw(stream: np.random.Generator, means: list[float]) -> list[int]:
    """Scalar Poisson draws from one stream, one per mean and in order."""
    return [int(stream.poisson(m)) for m in means]


def sample_counts(
    probabilities: dict[str, tuple[float, float]],
    settings: TomographySettings,
    stream: np.random.Generator,
) -> CountRecord:
    """Poisson-sample counts for precomputed per-basis outcome probabilities."""
    pairs = settings.expected_pairs
    n = _draw(stream, [pairs * p for b in settings.bases for p in probabilities[b.name]])
    return CountRecord({b.name: (n[2 * i], n[2 * i + 1]) for i, b in enumerate(settings.bases)})


def simulate_counts(
    rho, settings: TomographySettings, stream: np.random.Generator
) -> CountRecord:
    """Born probabilities plus Poisson sampling in one step."""
    probs = {b.name: born_probabilities(rho, b) for b in settings.bases}
    return sample_counts(probs, settings, stream)


def _invert(counts: np.ndarray, bases: tuple[MeasurementBasis, ...]) -> np.ndarray:
    """Repaired linear-inversion estimates (..., 2, 2), not yet validated.

    counts (..., 2k) hold n_plus, n_minus of each basis in `bases` order. The
    first zero-count basis in C order raises ZeroCountsError.
    """
    n_plus, n_minus = counts[..., 0::2], counts[..., 1::2]
    total = n_plus + n_minus
    empty = total == 0
    if empty.any():
        name = bases[np.argwhere(empty)[0][-1]].name
        raise ZeroCountsError(f"basis {name!r} collected zero counts; asymmetry is undefined")
    r = (n_plus - n_minus) / total
    bloch = np.zeros(r.shape[:-1] + (2, 2), dtype=complex)  # sum_k r_k P_k
    norm2 = 0.0
    for k, basis in enumerate(bases):
        r_k = r[..., k, None, None]
        norm2 = norm2 + r_k * r_k
        bloch += r_k * basis.observable
    return (np.eye(2) + bloch / np.maximum(1.0, np.sqrt(norm2))) / 2.0


def reconstruct(
    counts: CountRecord, bases: tuple[MeasurementBasis, ...] = MUB_BASES
) -> DensityMatrix:
    """Linear-inversion estimate from count asymmetries, repaired to a state.

    rho_hat = (I + sum_k r_k P_k) / 2 with r_k = (n_plus - n_minus) / N_k over the
    Pauli triple `bases`. For a qubit, clipping the negative eigenvalue of an
    estimate outside the Bloch ball and renormalizing is exactly r -> r / |r|.
    """
    for basis in bases:
        if basis.name not in counts.counts:
            raise ValueError(f"count record is missing basis {basis.name!r}")
    # float counts are exact below 2**53 and, unlike int64, cannot overflow
    row = np.array([n for basis in bases for n in counts.counts[basis.name]], dtype=float)
    return DensityMatrix(_invert(row, bases))


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated bound statistics over tomography replicas.

    values holds one entry per replica in replica order; None marks a replica
    whose reconstructed record was uninformative at every grid point. When
    every replica is, mean_b_inf and std_b_inf are None. curve0 is replica
    0's bound curve, the single experiment a run's curve artifact describes;
    it is left out of equality and of the JSON summary.
    """

    mean_b_inf: float | None
    std_b_inf: float | None
    no_info_fraction: float
    replicas: int
    seed: int
    values: tuple[float | None, ...]
    curve0: BoundCurve | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "mean_b_inf_hz": self.mean_b_inf,
            "std_b_inf_hz": self.std_b_inf,
            "no_info_fraction": self.no_info_fraction,
            "replicas": self.replicas,
            "seed": self.seed,
        }


def monte_carlo_bounds(
    truth: ProbingRecord,
    settings: TomographySettings,
    replicas: int,
    alpha_grid=None,
    replica_order=None,
) -> MonteCarloReport:
    """Propagate tomography shot noise through the bound pipeline.

    Each replica redoes the four-state tomography with its own streams
    (spawn keys (replica, state_index)) and reports the tightest bound of the
    reconstructed record; the truth states' Born probabilities are computed
    once for all replicas. replica_order may permute the evaluation order
    (e.g. for chunked execution); results are aggregated order-independently,
    so any permutation yields the identical report.
    """
    replicas = check_integer(replicas, "replicas", 1, MAX_REPLICAS)
    order = list(range(replicas))
    if replica_order is not None:
        order = [check_integer(r, "replica_order entry") for r in replica_order]
    if sorted(order) != list(range(replicas)):
        raise ValueError("replica_order must be a permutation of range(replicas)")

    alphas = _bound_grid(alpha_grid)
    _check_control_shift(truth.delta_mu)
    # the Poisson means of each state's six counts, computed once for all replicas
    pairs = settings.expected_pairs
    means = [
        [pairs * p for b in settings.bases for p in born_probabilities(state, b)]
        for state in truth.states
    ]
    block = max(1, BLOCK_ALPHA_POINTS // alphas.size)
    # one generator for the run, reseeded to each (replica, state) stream's fresh state
    stream = np.random.Generator(np.random.Philox(0))
    results: dict[int, float | None] = {}
    curve0 = None
    for start in range(0, replicas, SAMPLE_REPLICAS):
        rows = order[start:start + SAMPLE_REPLICAS]
        # state k of a replica is sampled from the stream with spawn key (replica, k)
        spawn = np.stack(np.meshgrid(rows, range(len(means)), indexing="ij"), axis=-1)
        keys = _philox_keys(settings.seed, spawn.reshape(-1, 2)).reshape(spawn.shape)
        counts = np.array([
            [_draw(_reseeded(stream, key), m) for key, m in zip(replica_keys, means)]
            for replica_keys in keys.tolist()
        ])
        states = check_density_matrices(_invert(counts, settings.bases))
        for b in range(0, len(rows), block):
            fractions, bounds, optima = _bound_rows(states[b:b + block], alphas, truth.delta_mu)
            for i, (replica, optimum) in enumerate(zip(rows[b:b + block], optima)):
                results[replica] = None if optimum is None else optimum.value
                if replica == 0:
                    curve0 = _bound_curve(alphas, fractions[i], bounds[i], optimum)

    # order-independent aggregation: replica index order, compensated sums
    values = tuple(results[r] for r in range(replicas))
    informative = [v for v in values if v is not None]
    mean = std = None
    if informative:
        mean = math.fsum(informative) / len(informative)
        dof = max(len(informative) - 1, 1)  # one informative replica has std 0
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in informative) / dof)
    return MonteCarloReport(
        mean_b_inf=mean,
        std_b_inf=std,
        no_info_fraction=(replicas - len(informative)) / replicas,
        replicas=replicas,
        seed=settings.seed,
        values=values,
        curve0=curve0,
    )
