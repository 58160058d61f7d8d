import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from alphaprobe import fidelity, tomography
from alphaprobe.bounds import (
    BLOCK_ALPHA_POINTS,
    BoundCurve,
    ProbingRecord,
    _bound_curve,
    tightest_bound,
)
from alphaprobe.channel import WavePlate, WavePlateStack, apply_channel
from alphaprobe.cli import main
from alphaprobe.linalg import DensityMatrix, check_density_matrices, write_json
from alphaprobe.reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_EVOLVED_1,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from alphaprobe.scenario import SCHEMA_VERSION, parse_scenario, run_scenario
from alphaprobe.spectra import GaussianSpectrum, discretize_pair
from alphaprobe.tomography import (
    MAX_REPLICAS,
    MUB_BASES,
    SAMPLE_REPLICAS,
    CountRecord,
    MeasurementBasis,
    MonteCarloReport,
    TomographySettings,
    ZeroCountsError,
    born_probabilities,
    monte_carlo_bounds,
    reconstruct,
    rng_stream,
    sample_counts,
    simulate_counts,
)
from support import (
    MUB_KETS,
    expected_counts,
    frame_curves,
    full_grid_optima,
    ket_born_probabilities,
    ket_observable,
    observable_sum_estimate,
    pow_qubit_fidelity_sums,
    pow_qubit_frames,
    project_to_state,
    rand_state,
    record_kernel_halves,
    trace_distance,
)

HV_BASIS, DIAG_BASIS, CIRC_BASIS = MUB_BASES

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2

SMALL_GRID = np.linspace(0.5, 0.9999, 50)


def settings(time=1.0, rate=1e4, seed=7):
    return TomographySettings(integration_time=time, count_rate=rate, seed=seed)


class TestBases:
    def test_observables_are_pauli_triple(self):
        # the oracle's outcome kets give the Pauli triple, and the closed form's
        # p_plus - p_minus of each basis is tr(rho P) of that basis's Pauli matrix
        paulis = (PAULI_Z, PAULI_X, PAULI_Y)
        for basis, pauli in zip(MUB_BASES, paulis):
            assert np.abs(ket_observable(basis.name) - pauli).max() <= 1e-12
        rng = np.random.default_rng(61)
        for _ in range(50):
            rho = rand_state(rng, 2)
            for basis, pauli in zip(MUB_BASES, paulis):
                p_plus, p_minus = born_probabilities(rho, basis)
                assert p_plus - p_minus == pytest.approx(np.trace(rho @ pauli).real, abs=1e-15)

    def test_bases_are_mutually_unbiased(self):
        for b1 in MUB_BASES:
            for b2 in MUB_BASES:
                if b1.name == b2.name:
                    continue
                for k1 in MUB_KETS[b1.name]:
                    for k2 in MUB_KETS[b2.name]:
                        assert abs(np.vdot(k1, k2)) ** 2 == pytest.approx(0.5, abs=1e-12)
                # each outcome of one basis is equally likely in the other
                for k1 in MUB_KETS[b1.name]:
                    assert born_probabilities(np.outer(k1, k1.conj()), b2) == pytest.approx(
                        (0.5, 0.5), abs=1e-15)

    def test_only_the_pauli_triple_has_probabilities(self):
        with pytest.raises(ValueError, match="MUB_BASES"):
            born_probabilities(MIXED, MeasurementBasis("other"))


class TestSettings:
    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="time"):
            TomographySettings(integration_time=0.0, count_rate=1.0, seed=0)
        with pytest.raises(ValueError, match="rate"):
            TomographySettings(integration_time=1.0, count_rate=-1.0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            TomographySettings(integration_time=1.0, count_rate=1.0, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            TomographySettings(integration_time=1.0, count_rate=1.0, seed=1.5)
        for seed in (7.0, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                TomographySettings(integration_time=60.0, count_rate=200.0, seed=seed)
        with pytest.raises(ValueError, match="time"):
            TomographySettings(integration_time=True, count_rate=1.0, seed=0)
        # a NumPy seed is stored as an int, so the report it seeds serializes
        cfg = TomographySettings(integration_time=60.0, count_rate=200.0, seed=np.int64(7))
        assert type(cfg.seed) is int and cfg.seed == 7
        report = monte_carlo_bounds(exact_truth_record(), cfg, 2, SMALL_GRID)
        write_json(tmp_path / "report.json", report.to_json())
        assert json.loads((tmp_path / "report.json").read_text())["seed"] == 7

    def test_basis_triple_validation(self):
        # the triple is the fixed Pauli triple, not a setting a caller can replace
        assert settings().bases is MUB_BASES
        with pytest.raises(TypeError, match="bases"):
            TomographySettings(1.0, 1.0, 0, bases=(HV_BASIS, DIAG_BASIS, DIAG_BASIS))

    def test_expected_pairs(self):
        assert settings(time=60.0, rate=200.0).expected_pairs == pytest.approx(12000.0)

    def test_expected_pairs_capped_at_exact_float_integers(self):
        assert settings(time=2.0**26, rate=2.0**27).expected_pairs == 2**53
        for time, rate in ((1e10, 1e10), (1e200, 1e200)):
            with pytest.raises(ValueError, match=r"at most 2\*\*53"):
                settings(time=time, rate=rate)


class TestBornProbabilities:
    def test_maximally_mixed_state(self):
        for basis in MUB_BASES:
            assert born_probabilities(MIXED, basis) == pytest.approx((0.5, 0.5))

    def test_plus_state_in_diag_basis(self):
        assert born_probabilities(PLUS, DIAG_BASIS) == pytest.approx((1.0, 0.0))

    def test_reference_evolved_state(self):
        # p_plus follows the entries: rho00, (1 + 2 Re rho01)/2, (1 - 2 Im rho01)/2
        p_hv = born_probabilities(REFERENCE_EVOLVED_1, HV_BASIS)
        p_diag = born_probabilities(REFERENCE_EVOLVED_1, DIAG_BASIS)
        p_circ = born_probabilities(REFERENCE_EVOLVED_1, CIRC_BASIS)
        assert p_hv[0] == pytest.approx(0.510, abs=1e-12)
        assert p_diag[0] == pytest.approx(0.935, abs=1e-12)
        assert p_circ[0] == pytest.approx(0.427, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            rho = rand_state(rng, 2)
            for basis in MUB_BASES:
                p_plus, p_minus = born_probabilities(rho, basis)
                assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_non_qubit_rejected(self):
        with pytest.raises(ValueError, match="qubit"):
            born_probabilities(np.eye(3) / 3, HV_BASIS)
        qutrits = [DensityMatrix(np.diag(d)) for d in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])] * 2
        with pytest.raises(ValueError, match="qubit"):
            monte_carlo_bounds(ProbingRecord(*qutrits, delta_mu=1.0), settings(), 2, SMALL_GRID)

    @pytest.mark.parametrize("rho", [
        np.diag([1.1, -0.1]), np.diag([2.0, -1.0]),  # a negative eigenvalue
        np.eye(2),  # a trace of 2
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[0.5, 0.1], [0.0, 0.5]]),  # a Hermitian defect
    ])
    def test_non_states_raise_the_validators_error(self, rho):
        # born_probabilities and simulate_counts clip nothing into a state: a
        # non-state raises the one validator's error, type and message
        with pytest.raises(ValueError) as want:
            check_density_matrices(rho)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            born_probabilities(rho, HV_BASIS)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            simulate_counts(rho, settings(), rng_stream(7, (0,)))

    def test_closed_form_matches_ket_oracle(self):
        # random mixed, pure and near-pure states: each probability within 1e-15
        rng = np.random.default_rng(137)
        states = [rand_state(rng, 2) for _ in range(4000)]
        states += [rand_state(rng, 2, rank=1) for _ in range(4000)]
        for eps in (1e-3, 1e-9):
            states += [(1 - eps) * rand_state(rng, 2, rank=1) + eps * MIXED for _ in range(1000)]
        states += [KET0, PLUS, MIXED]
        worst = 0.0
        for rho in states:
            for basis in MUB_BASES:
                got = born_probabilities(rho, basis)
                want = ket_born_probabilities(rho, basis)
                worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        assert worst <= 1e-15
        assert len(states) >= 10_000

    def test_mixed_state_is_exactly_one_half(self):
        # the ket route gives 0.4999999999999999 in the D/A and R/L bases
        for basis in MUB_BASES:
            assert born_probabilities(MIXED, basis) == (0.5, 0.5)


class TestCounts:
    def test_zero_probability_never_fires(self):
        record = simulate_counts(KET0, settings(), rng_stream(7, (0,)))
        assert record.counts["hv"][1] == 0

    def test_streams_are_reproducible(self):
        a = simulate_counts(PLUS, settings(), rng_stream(7, (3, 1)))
        b = simulate_counts(PLUS, settings(), rng_stream(np.int64(7), (3, np.uint8(1))))
        assert a.counts == b.counts
        for seed, key in ((7.9, (3, 1)), (True, (3, 1)), (7, (3.0, 1))):
            with pytest.raises(ValueError, match="must be an integer"):
                rng_stream(seed, key)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            rng_stream(-1, (0,))
        with pytest.raises(ValueError, match="spawn key entry must be at least 0, got -2"):
            rng_stream(1, (0, -2))

    def test_distinct_spawn_keys_decorrelate(self):
        a = simulate_counts(PLUS, settings(), rng_stream(7, (0, 0)))
        b = simulate_counts(PLUS, settings(), rng_stream(7, (0, 1)))
        c = simulate_counts(PLUS, settings(), rng_stream(8, (0, 0)))
        assert a.counts != b.counts
        assert a.counts != c.counts

    def test_poisson_scale(self):
        record = simulate_counts(MIXED, settings(rate=1e4), rng_stream(11, (0,)))
        for n_plus, n_minus in record.counts.values():
            for n in (n_plus, n_minus):
                assert abs(n - 5000.0) <= 4.0 * math.sqrt(5000.0)

    @pytest.mark.parametrize("basis, pair", [
        ("hv", (0.1, 0.2, 0.7)),  # a third value would shift every later basis's means
        ("diag", (0.5,)),
        ("circ", 0.5),
        ("hv", (2.0, 0.5)),
        ("diag", (0.5, -0.25)),
        ("circ", (True, False)),
        ("hv", (math.nan, 0.5)),
        ("diag", (0.5, math.inf)),
        ("circ", ("0.5", "0.5")),
        ("hv", (0.5 + 0j, 0.5)),
    ])
    def test_sample_counts_rejects_a_malformed_pair_naming_its_basis(self, basis, pair):
        probabilities = {"hv": (0.9, 0.1), "diag": (0.9, 0.1), "circ": (0.5, 0.5)}
        probabilities[basis] = pair
        with pytest.raises(ValueError, match=rf"two numbers in \[0, 1\], got .* in '{basis}'"):
            sample_counts(probabilities, settings(), rng_stream(7, (0,)))

    def test_sample_counts_needs_every_basis_and_takes_numpy_reals(self):
        with pytest.raises(ValueError, match="missing basis 'circ'"):
            sample_counts({"hv": (0.9, 0.1), "diag": (0.9, 0.1)}, settings(), rng_stream(7, (0,)))
        plain = {"hv": (0.9, 0.1), "diag": (0.0, 1.0), "circ": (0.5, 0.5)}
        numpy = {"hv": np.array([0.9, 0.1]), "diag": [np.float64(0.0), 1],
                 "circ": (np.float32(0.5), 0.5)}
        assert (sample_counts(numpy, settings(), rng_stream(7, (0,)))
                == sample_counts(plain, settings(), rng_stream(7, (0,))))

    def test_expected_counts_are_deterministic_means(self):
        record = expected_counts(REFERENCE_EVOLVED_1, settings(rate=1e6))
        assert record.counts["hv"] == (510000, 490000)
        assert record.counts["diag"] == (935000, 65000)
        assert record.counts["circ"] == (427000, 573000)

    def test_count_record_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CountRecord({"hv": (-1, 2)})
        with pytest.raises(ValueError, match="nonnegative"):
            CountRecord({"hv": (1.5, 2)})

    @pytest.mark.parametrize(
        "counts, match",
        [
            ({"hv": (3.0, 4)}, "nonnegative integers"),
            ({"hv": (3, np.float64(4.0))}, "nonnegative integers"),
            ({"hv": (True, 4)}, "nonnegative integers"),
            ({"hv": (3, np.bool_(False))}, "nonnegative integers"),
            ({5: (1, 2)}, "strings"),
            ({b"hv": (1, 2)}, "strings"),
            ({"hv": 5}, r"got 5 in 'hv'"),
            ({"hv": None}, r"got None in 'hv'"),
            ({"hv": (1,)}, r"got \(1,\) in 'hv'"),
            ({"hv": (1, 2, 3)}, r"got \(1, 2, 3\) in 'hv'"),
        ],
        ids=["float", "numpy-float", "bool", "numpy-bool", "int-name", "bytes-name",
             "int-pair", "none-pair", "short-pair", "long-pair"],
    )
    def test_count_record_converts_nothing(self, counts, match):
        with pytest.raises(ValueError, match=match):
            CountRecord(counts)

    def test_count_record_accepts_numpy_integers(self):
        record = CountRecord({"hv": (np.int64(3), np.uint16(4))})
        assert record.counts == {"hv": (3, 4)}
        assert all(type(n) is int for n in record.counts["hv"])

    def test_count_record_json_round_trip(self):
        # the counts.json layout: basis name -> [n_plus, n_minus]
        record = CountRecord({"hv": (3, 4), "diag": (5, 6), "circ": (7, 8)})
        payload = json.loads(json.dumps(record.to_json()))
        assert CountRecord({k: tuple(v) for k, v in payload.items()}).counts == record.counts


class TestReconstruct:
    def test_exact_round_trip_at_large_counts(self):
        rng = np.random.default_rng(113)
        cfg = settings(rate=1e12)
        for _ in range(10):
            rho = rand_state(rng, 2)
            est = reconstruct(expected_counts(rho, cfg))
            assert np.abs(est.matrix - rho).max() <= 1e-10

    def test_balanced_counts_give_maximally_mixed(self):
        record = CountRecord({b.name: (1000, 1000) for b in MUB_BASES})
        assert np.abs(reconstruct(record).matrix - MIXED).max() <= 1e-12

    def test_unphysical_asymmetries_are_repaired(self):
        # all three asymmetries +1 point outside the Bloch ball; the repair
        # lands on the pure state along (1, 1, 1) / sqrt(3)
        record = CountRecord({b.name: (1000, 0) for b in MUB_BASES})
        est = reconstruct(record)
        want = (np.eye(2) + (PAULI_X + PAULI_Y + PAULI_Z) / math.sqrt(3.0)) / 2.0
        assert np.abs(est.matrix - want).max() <= 1e-12
        evals = np.linalg.eigvalsh(est.matrix)
        assert evals.min() >= -1e-12
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigh_oracle(self):
        # random records reach |r| > 1 often; the fixed ones add |r| = 1 and r = 0
        rng = np.random.default_rng(131)
        records = [CountRecord({b.name: tuple(rng.integers(0, 1000, size=2) + (1, 0))
                                for b in MUB_BASES}) for _ in range(300)]
        records.append(CountRecord({"hv": (1000, 0), "diag": (500, 500), "circ": (7, 7)}))
        records.append(CountRecord({"hv": (0, 40), "diag": (30, 0), "circ": (0, 40)}))
        records.append(CountRecord({b.name: (1000, 1000) for b in MUB_BASES}))
        # a pure truth (|r| = 1), and near-pure states whose rounded expected counts
        # can leave the ball
        truths = [KET0]
        truths += [0.999 * rand_state(rng, 2, rank=1) + 0.001 * MIXED for _ in range(100)]
        records += [expected_counts(m, settings(rate=37.0)) for m in truths]
        outside = 0
        for record in records:
            r = [(n_plus - n_minus) / (n_plus + n_minus)
                 for n_plus, n_minus in (record.counts[b.name] for b in MUB_BASES)]
            outside += math.hypot(*r) > 1.0
            estimate = observable_sum_estimate(record, repair=False)
            got = reconstruct(record).matrix
            assert np.abs(got - project_to_state(estimate)).max() <= 1e-14
        assert 50 <= outside <= len(records) - 50

    def test_closed_form_matches_observable_sum_oracle(self):
        # count rows inside and outside the Bloch ball, each entry within 1e-15,
        # through reconstruct and through the replica path's array inversion
        rng = np.random.default_rng(139)
        rows = rng.integers(0, 1000, size=(10_000, 6)) + np.array([1, 0] * 3)
        rows[:2000, 1::2] = 0  # one-sided counts: |r| = sqrt(3), always repaired
        rows[2000:2100] = 500  # balanced counts: r = 0
        got = tomography._invert(rows.reshape(100, 100, 6).astype(float)).reshape(-1, 2, 2)
        worst = 0.0
        for row, matrix in zip(rows.tolist(), got):
            record = CountRecord({b.name: (row[2 * k], row[2 * k + 1])
                                  for k, b in enumerate(MUB_BASES)})
            want = observable_sum_estimate(record)
            worst = max(worst, np.abs(matrix - want).max())
            if row[0] % 50 == 0:  # a sample of rows through reconstruct too
                assert np.abs(reconstruct(record).matrix - matrix).max() == 0.0
        assert worst <= 1e-15

    def test_inverted_estimates_are_states_as_built(self):
        # the replica pass bounds _invert's estimates unchecked: each pass of 1024 x 4 is
        # its own check_density_matrices image, bit for bit, with one-sided and other
        # rows outside the Bloch ball among them, which the repair puts on its surface
        rng = np.random.default_rng(149)
        repaired = 0
        for _ in range(20):
            counts = rng.poisson(rng.uniform(0.0, 40.0, size=(1024, 4, 6))).astype(float)
            counts[..., 0::2] += counts[..., 0::2] + counts[..., 1::2] == 0  # no empty basis
            n_plus, n_minus = counts[..., 0::2], counts[..., 1::2]
            r = (n_plus - n_minus) / (n_plus + n_minus)
            repaired += int(np.sum(np.sum(r * r, axis=-1) > 1.0))
            states = tomography._invert(counts)
            assert states.tobytes() == check_density_matrices(states).tobytes()
        assert repaired > 1000

    def test_zero_count_basis_rejected(self):
        record = CountRecord({"hv": (10, 10), "diag": (0, 0), "circ": (10, 10)})
        with pytest.raises(ValueError, match="zero counts"):
            reconstruct(record)

    @pytest.mark.parametrize("bases", [
        (HV_BASIS,),  # a |+> record would silently come back as I/2
        (HV_BASIS, DIAG_BASIS, DIAG_BASIS),
        (DIAG_BASIS, HV_BASIS, CIRC_BASIS),
    ])
    def test_only_the_pauli_triple_is_inverted(self, bases):
        record = CountRecord({"hv": (500, 500), "diag": (1000, 0), "circ": (500, 500)})
        with pytest.raises(ValueError, match="MUB_BASES"):
            reconstruct(record, bases)
        for triple in (list(MUB_BASES), (b for b in MUB_BASES)):
            assert np.allclose(reconstruct(record, triple).matrix, PLUS)

    def test_missing_basis_rejected(self):
        record = CountRecord({"hv": (10, 10), "diag": (10, 10)})
        with pytest.raises(ValueError, match="missing basis"):
            reconstruct(record)

    def test_reconstruction_consistency_at_scale(self):
        # shot-noise tomography at 1e6 pairs lands within 5e-3 trace distance
        # for essentially every state
        rng = np.random.default_rng(127)
        cfg = settings(rate=1e6, seed=127)
        hits = 0
        trials = 200
        for k in range(trials):
            rho = rand_state(rng, 2)
            counts = simulate_counts(rho, cfg, rng_stream(cfg.seed, (k,)))
            est = reconstruct(counts)
            if trace_distance(est.matrix, rho) <= 5e-3:
                hits += 1
        assert hits >= int(0.99 * trials)


def exact_truth_record():
    """Noise-free 5 mm aligned-plate record on a shared frequency grid."""
    s1 = GaussianSpectrum(mu=3.7e14, sigma=REFERENCE_SIGMA_HZ)
    s2 = GaussianSpectrum(mu=3.7e14 + REFERENCE_DELTA_MU_HZ, sigma=REFERENCE_SIGMA_HZ)
    g1, g2 = discretize_pair(s1, s2)
    stack = WavePlateStack(plates=(WavePlate(5e-3, 0.0),))
    return ProbingRecord(
        rho1=DensityMatrix(PLUS),
        rho2=DensityMatrix(PLUS),
        phi1_rho1=apply_channel(stack, s1, PLUS, grid=g1),
        phi2_rho2=apply_channel(stack, s2, PLUS, grid=g2),
        delta_mu=REFERENCE_DELTA_MU_HZ,
    )


def erased_record():
    """The evolution erased both probes: every replica is uninformative."""
    return ProbingRecord(
        rho1=DensityMatrix(KET0),
        rho2=DensityMatrix(np.diag([0.9, 0.1])),
        phi1_rho1=DensityMatrix(MIXED),
        phi2_rho2=DensityMatrix(MIXED),
        delta_mu=1.0,
    )


def record_counts(monkeypatch) -> list:
    """Patch tomography._invert to keep a copy of each count array it inverts."""
    drawn, invert = [], tomography._invert
    monkeypatch.setattr(tomography, "_invert",
                        lambda counts: drawn.append(counts.copy()) or invert(counts))
    return drawn


def assert_same_curve(got: BoundCurve, want: BoundCurve) -> None:
    """Equal optima, and both families and fractions equal bit for bit (NaN where NaN)."""
    assert got.optimum == want.optimum
    for mine, theirs in zip((got.alphas, got.b1, got.b2, *got.fractions),
                            (want.alphas, want.b1, want.b2, *want.fractions)):
        assert np.array_equal(mine, theirs, equal_nan=True)


class TestMonteCarlo:
    def test_noiseless_replicas_collapse(self):
        # a noise-free replica reconstructs the rounded expected counts
        truth = exact_truth_record()
        cfg = settings(time=60.0, rate=200.0)
        states = (truth.rho1, truth.rho2, truth.phi1_rho1, truth.phi2_rho2)
        records = [
            ProbingRecord(*(reconstruct(expected_counts(s, cfg)) for s in states),
                          delta_mu=truth.delta_mu)
            for _ in range(2)
        ]
        values = [tightest_bound(record, SMALL_GRID).optimum.value for record in records]
        assert values[0] == values[1]
        exact = tightest_bound(truth, SMALL_GRID).optimum.value
        assert values[0] == pytest.approx(exact, rel=1e-2)

    def test_shot_noise_run_is_deterministic(self):
        truth = exact_truth_record()
        cfg = settings(time=60.0, rate=200.0, seed=12345)
        a = monte_carlo_bounds(truth, cfg, 8, SMALL_GRID)
        b = monte_carlo_bounds(truth, cfg, 8, SMALL_GRID)
        assert a == b

    def test_pass_size_does_not_change_the_report(self, monkeypatch):
        # a replica's result depends on its index, not on the pass it is evaluated in:
        # 300 replicas in passes of 1, 3, 256 (then 44) and 1024, on grids of 5, 500
        # and 2,049 points, every report field and replica 0's curve bit for bit
        truth = exact_truth_record()
        cfg = settings(time=60.0, rate=200.0, seed=12345)
        for grid in (np.linspace(0.5, 0.9999, 5), None, np.linspace(0.5, 0.9999, 2049)):
            reports = []
            for pass_size in (1, 3, 256, 1024):
                monkeypatch.setattr(tomography, "SAMPLE_REPLICAS", pass_size)
                reports.append(monte_carlo_bounds(truth, cfg, 300, grid))
            for report in reports[1:]:
                assert report == reports[0]
                assert_same_curve(report.curve0, reports[0].curve0)

    @pytest.mark.parametrize("pass_size", [1, 3, 256])
    def test_replica_zero_curve_is_its_records_tightest_bound(self, monkeypatch, pass_size):
        # replica 0 is the first row of the first pass, whose frames come from one call over
        # the pass; its curve is still the tightest_bound curve of the record reconstructed
        # from each stream's first sample_counts draw, bit for bit, whether the first pass
        # holds 1, 3 or 256 replicas
        monkeypatch.setattr(tomography, "SAMPLE_REPLICAS", pass_size)
        truth = reference_record()
        for time in (10.0, 60.0, 360.0):
            cfg = settings(time=time, rate=200.0, seed=2052)
            report = monte_carlo_bounds(truth, cfg, 300)
            estimates = [reconstruct(simulate_counts(state, cfg, rng_stream(cfg.seed, (0, k))))
                         for k, state in enumerate(truth.states)]
            want = tightest_bound(ProbingRecord(*estimates, delta_mu=truth.delta_mu))
            assert_same_curve(report.curve0, want)
            assert report.values[0] == want.optimum.value

    def test_reasonable_statistics_near_truth(self):
        truth = exact_truth_record()
        report = monte_carlo_bounds(truth, settings(time=60.0, rate=200.0, seed=1), 20, SMALL_GRID)
        exact = tightest_bound(truth, SMALL_GRID).optimum.value
        assert report.no_info_fraction == 0.0
        assert report.replicas == 20
        assert len(report.values) == 20
        assert report.mean_b_inf == pytest.approx(exact, rel=0.15)
        assert 0.0 < report.std_b_inf < 0.2 * exact

    def test_every_draw_matches_a_replica_rebuilt_stream_by_stream(self):
        # the Monte-Carlo loop computes the truth's Born probabilities once, draws
        # a pass's counts of each state in one array call on that state's stream,
        # carries the streams from pass to pass and bounds a pass by the certified
        # search, one coarse call per pass and fill calls of at most BLOCK_ALPHA_POINTS
        # points; each value must still be the bound of the record whose state k is
        # the (replica + 1)-th sample_counts call on rng_stream(seed, (0, k)), from
        # freshly computed probabilities, one record at a time, and replica 0's curve
        # that record's full-grid curve
        truth = reference_record()
        states = (truth.rho1, truth.rho2, truth.phi1_rho1, truth.phi2_rho2)
        assert BLOCK_ALPHA_POINTS == 4096 and SAMPLE_REPLICAS == 256
        cases = [(seed, 20, None) for seed in (5, 601, 2**31 - 1, 2**32 + 5, 2**64 + 3)]
        cases += [(17, replicas, None) for replicas in (1, 5, 7)]
        cases += [(17, 7, np.linspace(0.5, 0.9999, 600))]  # 39 coarse points
        cases += [(17, 7, np.linspace(0.5, 0.9999, 1100))]  # 36, gaps of 31 points
        cases += [(17, 5, np.linspace(0.5, 0.9999, 2049))]  # 65, the last gap full
        cases += [(17, 150, None)]  # 33 coarse points, fill calls of 273 gaps and fewer
        # five sampling passes (4 x 256 + 3), each in one coarse call
        cases += [(17, 1027, np.linspace(0.5, 0.9999, 5))]
        for seed, replicas, grid in cases:
            cfg = settings(time=60.0, rate=200.0, seed=seed)
            report = monte_carlo_bounds(truth, cfg, replicas, grid)
            assert report.replicas == len(report.values) == replicas
            streams = [rng_stream(seed, (0, k)) for k in range(len(states))]
            for replica in range(replicas):
                estimates = [
                    reconstruct(
                        sample_counts(
                            {b.name: born_probabilities(state, b) for b in cfg.bases},
                            cfg,
                            stream,
                        ),
                        cfg.bases,
                    )
                    for stream, state in zip(streams, states)
                ]
                curve = tightest_bound(ProbingRecord(*estimates, delta_mu=truth.delta_mu), grid)
                want = None if curve.optimum is None else curve.optimum.value
                assert report.values[replica] == want
                if replica == 0:
                    assert report.curve0.optimum == curve.optimum
                    np.testing.assert_array_equal(report.curve0.b1, curve.b1)
                    np.testing.assert_array_equal(report.curve0.b2, curve.b2)
                    for got, rebuilt in zip(report.curve0.fractions, curve.fractions):
                        np.testing.assert_array_equal(got, rebuilt)

    def test_replica_zero_draws_what_one_tomography_run_draws(self, monkeypatch, tmp_path):
        # replica 0 takes the first six draws of each state's stream: a 100-replica
        # run, a one-replica run and the tomography subcommand at the same seed read
        # the same counts. Replica 0 is the first row of the first pass, which each run
        # inverts in one call: all 100 replicas, or replica 0 alone
        drawn = record_counts(monkeypatch)
        truth, cfg = reference_record(), settings(time=60.0, rate=200.0, seed=9)
        shapes, firsts = {}, []
        for replicas in (100, 1):
            drawn.clear()
            monte_carlo_bounds(truth, cfg, replicas, SMALL_GRID)
            shapes[replicas] = [d.shape for d in drawn]
            firsts.append(drawn[0])
        assert shapes == {100: [(100, 4, 6)], 1: [(1, 4, 6)]}
        many, one = firsts
        np.testing.assert_array_equal(many[:1], one)
        state = tmp_path / "rho1.json"
        write_json(state, truth.rho1.to_json())
        args = ["--time", "60", "--rate", "200", "--seed", "9", "--out", str(tmp_path / "out")]
        assert main(["tomography", "--state", str(state), *args]) == 0
        counts = json.loads((tmp_path / "out" / "counts.json").read_text())
        assert [n for b in MUB_BASES for n in counts[b.name]] == one[0, 0].tolist()

    def test_replica_counts_are_poisson_and_uncorrelated(self, monkeypatch):
        # 2,000 replicas of the reference record, in two passes: each of the 24 counts
        # of a replica has its mean and variance / mean near 1, as a Poisson count
        # does, and the lag-1 correlation of consecutive replicas, which read
        # consecutive draws of one state's stream, lies within 4 / sqrt(n)
        drawn = record_counts(monkeypatch)
        truth, cfg = reference_record(), settings(time=60.0, rate=200.0, seed=2049)
        monte_carlo_bounds(truth, cfg, 2000, SMALL_GRID)
        counts = np.concatenate(drawn).reshape(2000, 24).astype(float)
        n = len(counts)
        means = [cfg.expected_pairs * p for state in truth.states
                 for b in MUB_BASES for p in born_probabilities(state, b)]
        assert min(means) > 40.0
        assert np.all(np.abs(counts.mean(axis=0) - means) < 5.0 * np.sqrt(np.divide(means, n)))
        # the ratio's standard error is sqrt(2 / (n - 1)), about 0.032
        dispersion = counts.var(axis=0, ddof=1) / counts.mean(axis=0)
        assert np.all(np.abs(dispersion - 1.0) < 5.0 * math.sqrt(2.0 / (n - 1)))
        centred = counts - counts.mean(axis=0)
        lag1 = (centred[1:] * centred[:-1]).sum(axis=0) / (centred**2).sum(axis=0)
        assert np.all(np.abs(lag1) < 4.0 / math.sqrt(n))

    def test_alpha_free_half_runs_once_per_sampling_pass(self, monkeypatch):
        # the frames of a pass's 4 x replicas fidelity pairs come from one call, replica
        # 0's included; in the first pass replica 0's full grid runs on its four frame
        # columns, then the per-alpha half runs the certified search on the others, one
        # coarse call over their records and fill calls of at most BLOCK_ALPHA_POINTS points
        calls = record_kernel_halves(monkeypatch)
        truth, cfg = reference_record(), settings(time=60.0, rate=200.0, seed=3)
        monte_carlo_bounds(truth, cfg, 100)
        # one pass of 100 replicas, the search's 99 records on 33 coarse points; a fill call
        # holds two pairs per gap it fills, here 373 gaps of 15 points in calls of
        # 4096 // 15 = 273 gaps and 100
        assert calls == [("frames", 400), ("sums", 4), ("sums", 396),
                         ("sums", 546, 15), ("sums", 200, 15)]
        calls.clear()
        # passes of 256, 256, 256, 256 and 3 replicas at A = 5: 3 coarse points and
        # 2 gaps of one point, every gap filled, the 1,024 gaps of a pass in one call
        monte_carlo_bounds(truth, cfg, 1027, np.linspace(0.5, 0.9999, 5))
        full_pass = [("frames", 1024), ("sums", 1024), ("sums", 2048, 1)]
        assert calls == [("frames", 1024), ("sums", 4), ("sums", 1020), ("sums", 2040, 1),
                         *full_pass * 3, ("frames", 12), ("sums", 12), ("sums", 24, 1)]

    def test_a_pass_bounds_its_memory(self):
        # a pass is one coarse kernel call over its records, so SAMPLE_REPLICAS bounds that
        # call's memory: 1,100 replicas on a grid of 100,000 points trace a peak of about
        # 24 MiB in passes of 256 (about 38 MiB in the record blocks of one 1,024-replica
        # pass, 77 MiB in one coarse call over such a pass)
        truth, cfg = reference_record(), settings(time=60.0, rate=200.0, seed=5)
        grid = np.linspace(0.5, 0.9999, 100_000)  # the largest grid a run takes
        tracemalloc.start()
        try:
            monte_carlo_bounds(truth, cfg, 1100, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20

    def test_a_run_builds_one_bound_curve(self, monkeypatch):
        # only replica 0's curve is reported, so it is the only one built: here in
        # a run of one pass, then in the first of two passes
        built, init = [], BoundCurve.__init__
        monkeypatch.setattr(BoundCurve, "__init__", lambda curve, *args, **kwargs:
                            built.append(len(args)) or init(curve, *args, **kwargs))
        truth, cfg = reference_record(), settings(time=60.0, rate=200.0, seed=3)
        for replicas, grid in [(100, None), (1027, np.linspace(0.5, 0.9999, 5))]:
            built.clear()
            report = monte_carlo_bounds(truth, cfg, replicas, grid)
            assert len(built) == 1
            assert report.curve0 is not None and len(report.values) == replicas

    def test_zero_counts_in_replica_zero_name_its_first_empty_basis(self, monkeypatch):
        # about 3 expected pairs per basis, replica 0 of state k the first record drawn
        # from rng_stream(seed, (0, k)). Replica 0 is the experiment a run reports: at
        # seed 12 its first empty basis in state order is state 1's diag, ahead of state
        # 3's hv, and the run raises what reconstructing that record raises. At seed 30
        # replica 0 has counts in every basis and replica 1 none in state 2's hv, so that
        # run finishes without an estimate for replica 1, also in passes of one replica,
        # where replica 1's pass has no estimate to bound
        truth = reference_record()
        for seed in (12, 30):
            cfg = settings(time=1.0, rate=3.0, seed=seed)
            errors = []
            for k, state in enumerate(truth.states):
                try:
                    reconstruct(simulate_counts(state, cfg, rng_stream(seed, (0, k))))
                except ZeroCountsError as exc:
                    errors.append(str(exc))
            if seed == 12:
                assert len(errors) == 2 and "'diag'" in errors[0] and "'hv'" in errors[1]
                with pytest.raises(ZeroCountsError) as info:
                    monte_carlo_bounds(truth, cfg, 8)
                assert str(info.value) == errors[0]
            else:
                assert errors == []
                report = monte_carlo_bounds(truth, cfg, 8)
                assert report.values[1] is None and report.empty_basis_fraction >= 1 / 8
                monkeypatch.setattr(tomography, "SAMPLE_REPLICAS", 1)
                assert monte_carlo_bounds(truth, cfg, 8) == report

    @pytest.mark.parametrize("time, replicas, runs_with_empty", [(0.05, 1000, 6), (0.03, 100, 19)])
    def test_an_empty_basis_ends_one_replica_not_the_run(self, time, replicas, runs_with_empty):
        # the reference record at 200 Hz, 10 and 6 expected pairs per basis, seeds 0-19:
        # replica 0 has counts in every basis, so every run finishes. A replica with an
        # empty basis in the counts of its four streams has no estimate: its value is
        # None, it counts in no_info_fraction and empty_basis_fraction, and the mean and
        # std are over the informative replicas only
        truth, with_empty = reference_record(), 0
        for seed in range(20):
            cfg = settings(time=time, rate=200.0, seed=seed)
            means = [[cfg.expected_pairs * p for b in MUB_BASES for p in born_probabilities(s, b)]
                     for s in truth.states]
            counts = np.stack([rng_stream(seed, (0, k)).poisson(m, size=(replicas, 6))
                               for k, m in enumerate(means)], axis=1)
            empty = (counts[..., 0::2] + counts[..., 1::2] == 0).any(axis=(1, 2))
            assert not empty[0]
            report = monte_carlo_bounds(truth, cfg, replicas)
            assert all(report.values[r] is None for r in np.flatnonzero(empty))
            assert report.empty_basis_fraction == empty.sum() / replicas
            informative = [v for v in report.values if v is not None]
            assert report.no_info_fraction == (replicas - len(informative)) / replicas
            assert report.mean_b_inf == pytest.approx(np.mean(informative), rel=1e-12)
            assert report.std_b_inf == pytest.approx(np.std(informative, ddof=1), rel=1e-9)
            with_empty += bool(empty.any())
        assert with_empty == runs_with_empty

    def test_search_matches_the_full_grid_on_reconstructed_records(self, monkeypatch):
        # 10^4 reconstructed reference records, repaired pure estimates among them: each
        # pass's certified search against the full-grid route, each least bound bit for bit
        search, seen = tomography._search_optima, []

        def checked(frames, alphas, delta_mu):
            got = search(frames, alphas, delta_mu)
            np.testing.assert_array_equal(got, full_grid_optima(frames, alphas, delta_mu))
            # each state is the first of one pair, whose log det(rho1) is -inf where it is 0
            seen.append(int(np.sum(frames[2] == -math.inf)))
            return got

        monkeypatch.setattr(tomography, "_search_optima", checked)
        truth = reference_record()
        for time in (10.0, 60.0, 360.0):
            monte_carlo_bounds(truth, settings(time=time, rate=200.0, seed=2047), 3334)
        # fourteen passes a run (13 x 256 + 6, replica 0 aside); repaired pure estimates, at 10 s
        assert len(seen) == 42 and sum(seen[:14]) > 200

    def test_maximally_mixed_estimates_match_the_full_grid(self, monkeypatch):
        # evolved probes at I / 2 and 6 expected pairs per basis: about 0.45% of their
        # estimates are exactly I / 2 (every basis split evenly), a rho2 with no eigenbasis
        # of its own, on either side of a pair; each pass's certified search against the
        # full-grid route, bit for bit, where about three in four replicas are informative
        search, mixed = tomography._search_optima, []

        def checked(frames, alphas, delta_mu):
            got = search(frames, alphas, delta_mu)
            np.testing.assert_array_equal(got, full_grid_optima(frames, alphas, delta_mu))
            # each state is the second of one pair, whose log(l1 / l2) is 0 only at I / 2
            mixed.append(int(np.sum(frames[0] == 0.0)))
            return got

        monkeypatch.setattr(tomography, "_search_optima", checked)
        truth = replace(reference_record(), phi1_rho1=DensityMatrix(MIXED),
                        phi2_rho2=DensityMatrix(MIXED))
        report = monte_carlo_bounds(truth, settings(time=0.03, rate=200.0, seed=2050), 1000)
        assert len(mixed) == 4 and sum(mixed) >= 10
        assert report.no_info_fraction < 0.5

    @pytest.mark.parametrize("time, replicas, pass_size", [
        (10.0, 300, None), (60.0, 300, None), (360.0, 300, None), (60.0, 70, 16),
    ])
    def test_report_equals_the_full_grid_route(self, monkeypatch, time, replicas, pass_size):
        # every MonteCarloReport field and replica 0's curve, through the search and
        # through the full-grid route, in one pass or in passes of pass_size replicas;
        # the erased-probe truth is uninformative throughout
        if pass_size is not None:
            monkeypatch.setattr(tomography, "SAMPLE_REPLICAS", pass_size)
        for truth in (reference_record(), exact_truth_record(), erased_record()):
            cfg = settings(time=time, rate=200.0, seed=2048)
            got = monte_carlo_bounds(truth, cfg, replicas)
            with monkeypatch.context() as patch:
                patch.setattr(tomography, "_search_optima", full_grid_optima)
                want = monte_carlo_bounds(truth, cfg, replicas)
            assert got == want
            assert (got.mean_b_inf, got.std_b_inf, got.no_info_fraction) == (
                want.mean_b_inf, want.std_b_inf, want.no_info_fraction)
            assert_same_curve(got.curve0, want.curve0)

    def test_erased_probes_raise_no_information(self):
        truth = erased_record()
        report = monte_carlo_bounds(truth, settings(rate=1e4), 5, SMALL_GRID)
        assert report.values == (None,) * 5
        assert report.mean_b_inf is None and report.std_b_inf is None
        assert report.no_info_fraction == 1.0

    def test_tiny_bounds_keep_their_spread(self):
        # replica bounds near 1e-188 Hz: their deviations square below the float range
        # unless the values are first scaled up by a power of two, which is exact
        truth = replace(reference_record(), delta_mu=REFERENCE_DELTA_MU_HZ * 1e-200)
        cfg = settings(time=60.0, rate=200.0, seed=3)
        report = monte_carlo_bounds(truth, cfg, 50)
        values = np.array(report.values) * 2.0**600
        assert report.std_b_inf == pytest.approx(np.std(values, ddof=1) / 2.0**600, rel=1e-13)
        assert report.mean_b_inf == pytest.approx(np.mean(values) / 2.0**600, rel=1e-15)
        ordinary = monte_carlo_bounds(reference_record(), cfg, 50)
        assert report.std_b_inf == pytest.approx(ordinary.std_b_inf * 1e-200, rel=1e-12)

    def test_single_replica_is_replica_zero(self):
        truth = exact_truth_record()
        one = monte_carlo_bounds(truth, settings(), 1, SMALL_GRID)
        three = monte_carlo_bounds(truth, settings(), 3, SMALL_GRID)
        assert one.values == three.values[:1]
        assert one.mean_b_inf == one.values[0] and one.std_b_inf == 0.0
        assert one.curve0.optimum == three.curve0.optimum

    def test_one_replica_runs_no_certified_search(self, monkeypatch):
        # replica 0 is bounded by its own full-grid curve alone, so a one-replica run, what
        # simulate runs when a config gives no replica count, never calls the search
        searched = []
        monkeypatch.setattr(tomography, "_search_optima",
                            lambda *args: searched.append(args) or np.array([]))
        for truth in (reference_record(), erased_record()):
            report = monte_carlo_bounds(truth, settings(time=60.0, rate=200.0, seed=3), 1)
            assert report.replicas == len(report.values) == 1
        assert searched == []

    @pytest.mark.parametrize("time", [10.0, 60.0, 360.0])
    def test_replica_zero_value_is_its_curves_optimum(self, time):
        # values[0] is curve0's least bound, bit for bit, or None where the curve has none:
        # the erased-probe truth has none
        informative = []
        for truth in (reference_record(), erased_record()):
            for seed in range(5):
                report = monte_carlo_bounds(truth, settings(time=time, rate=200.0, seed=seed), 3)
                best, got = report.curve0.optimum, report.values[0]
                assert (got and got.hex()) == (best and best.value.hex())
                informative.append(best is not None)
        assert informative == [True] * 5 + [False] * 5

    def test_replica_count_validated(self):
        truth = exact_truth_record()
        with pytest.raises(ValueError, match="at least 1"):
            monte_carlo_bounds(truth, settings(), 0, SMALL_GRID)
        with pytest.raises(ValueError, match=f"at most {MAX_REPLICAS}"):
            monte_carlo_bounds(truth, settings(), MAX_REPLICAS + 1, SMALL_GRID)
        for bad in (3.0, True):
            with pytest.raises(ValueError, match="replicas must be an integer"):
                monte_carlo_bounds(truth, settings(), bad, SMALL_GRID)

    def test_report_json_keys(self):
        report = MonteCarloReport(
            mean_b_inf=1.0,
            std_b_inf=0.1,
            no_info_fraction=0.0,
            replicas=4,
            seed=3,
            values=(1.0, 1.0, 1.0, 1.0),
        )
        assert report.to_json() == {
            "mean_b_inf_hz": 1.0,
            "std_b_inf_hz": 0.1,
            "no_info_fraction": 0.0,
            "replicas": 4,
            "seed": 3,
        }

    @pytest.mark.parametrize("seed", [42, 43])
    def test_replicas_agree_with_pow_kernel(self, tmp_path, monkeypatch, seed):
        # a Monte-Carlo scenario config with a wavelength-form second line: every
        # replica's optimum through the log-domain qubit kernel and through the
        # linear-domain pow kernel
        config = {
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
                "integration_time_s": 60.0, "count_rate_hz": 200.0,
                "seed": seed, "replicas": 500,
            },
        }
        search = tomography._search_optima
        optima, calls = {}, {}
        halves = {
            "log": (fidelity._qubit_frames, fidelity._qubit_fidelity_sums),
            "pow": (pow_qubit_frames, pow_qubit_fidelity_sums),
        }
        for name, (frames, sums) in halves.items():
            passes, curves = [], []

            def recording(frames, alphas, delta_mu, passes=passes):
                passes.append((frames, alphas, delta_mu, search(frames, alphas, delta_mu)))
                return passes[-1][-1]

            # both halves substituted and every call recorded: the kernel under test runs
            recorded = record_kernel_halves(monkeypatch, frames, sums)
            monkeypatch.setattr(tomography, "_search_optima", recording)
            monkeypatch.setattr(tomography, "_bound_curve", lambda *args, curves=curves:
                                curves.append(_bound_curve(*args)) or curves[-1])
            run_scenario(parse_scenario(config), str(tmp_path / name))
            calls[name] = recorded[:]
            # replica 0's optimum from its own curve; for the other replicas the full-grid
            # route, where a tie still decides alpha*, gives each alpha and family
            zero = curves[0].optimum
            optima[name] = [(zero and (zero.alpha, zero.family), zero.value if zero else math.inf)]
            optima[name] += [(c.optimum and (c.optimum.alpha, c.optimum.family), v)
                             for frames, alphas, delta_mu, value in passes
                             for c, v in zip(frame_curves(frames, alphas, delta_mu),
                                             value.tolist())]
        # sampling passes of 256 and 244 records, the alpha-free half over each pass's
        # records; replica 0's full grid on its four frame columns, then the search: one
        # coarse call and fill calls of at most 2 x 4096 // 15 = 546 pairs; both kernels
        # prune alike
        got = calls["log"]
        assert got == calls["pow"]
        assert [c for c in got if len(c) == 2] == [("frames", 1024), ("sums", 4),
                                                   ("sums", 1020), ("frames", 976),
                                                   ("sums", 976)]
        assert all(c[1] <= 546 and c[1] % 2 == 0 and c[2] == 15 for c in got if len(c) == 3)
        assert len(optima["log"]) == len(optima["pow"]) == 500
        for (k, got), (j, want) in zip(optima["log"], optima["pow"]):
            assert math.isinf(got) == math.isinf(want)
            if not math.isinf(got):
                assert got == pytest.approx(want, rel=1e-10, abs=0.0)
                assert k == j  # the same alpha and family
