import json
import math

import numpy as np
import pytest

from alphaprobe import fidelity, tomography
from alphaprobe.bounds import ProbingRecord, tightest_bound
from alphaprobe.channel import WavePlate, WavePlateStack, apply_channel
from alphaprobe.linalg import DensityMatrix, write_json
from alphaprobe.reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_EVOLVED_1,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from alphaprobe.scenario import SCHEMA_VERSION, parse_scenario, run_scenario
from alphaprobe.spectra import GaussianSpectrum, discretize_pair
from alphaprobe.tomography import (
    CIRC_BASIS,
    DIAG_BASIS,
    HV_BASIS,
    BLOCK_ALPHA_POINTS,
    MAX_REPLICAS,
    MUB_BASES,
    SAMPLE_REPLICAS,
    CountRecord,
    MonteCarloReport,
    TomographySettings,
    ZeroCountsError,
    _philox_keys,
    _reseeded,
    born_probabilities,
    monte_carlo_bounds,
    reconstruct,
    rng_stream,
    sample_counts,
    simulate_counts,
)
from support import (
    expected_counts,
    pow_qubit_fidelity_sums,
    project_to_state,
    rand_state,
    trace_distance,
)

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
        assert np.abs(HV_BASIS.observable - PAULI_Z).max() <= 1e-12
        assert np.abs(DIAG_BASIS.observable - PAULI_X).max() <= 1e-12
        assert np.abs(CIRC_BASIS.observable - PAULI_Y).max() <= 1e-12

    def test_bases_are_mutually_unbiased(self):
        for b1 in MUB_BASES:
            for b2 in MUB_BASES:
                if b1.name == b2.name:
                    continue
                for k1 in (b1.plus, b1.minus):
                    for k2 in (b2.plus, b2.minus):
                        assert abs(np.vdot(k1, k2)) ** 2 == pytest.approx(0.5, abs=1e-12)


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

    def test_distinct_spawn_keys_decorrelate(self):
        a = simulate_counts(PLUS, settings(), rng_stream(7, (0, 0)))
        b = simulate_counts(PLUS, settings(), rng_stream(7, (0, 1)))
        c = simulate_counts(PLUS, settings(), rng_stream(8, (0, 0)))
        assert a.counts != b.counts
        assert a.counts != c.counts

    def test_philox_keys_match_seed_sequence(self):
        seeds = (0, 1, 2**31 - 1, 2**32, 2**32 + 5, 2**64 + 3, 2**70)
        spawn = [(r, k) for r in (0, 1, 1023, 1024, MAX_REPLICAS - 1) for k in range(4)]
        for seed in seeds:
            want = [
                np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)
                for key in spawn
            ]
            got = _philox_keys(seed, spawn)
            assert got.dtype == np.uint64 and got.shape == (len(spawn), 2)
            np.testing.assert_array_equal(got, want)

    def test_reseeded_generator_starts_where_rng_stream_does(self):
        stream = np.random.Generator(np.random.Philox(0))
        spawn = [(3, 1), (0, 0), (3, 1)]
        for key, words in zip(spawn, _philox_keys(2**32 + 5, spawn).tolist()):
            fresh = rng_stream(2**32 + 5, key)
            reseeded = _reseeded(stream, words)
            got, want = reseeded.bit_generator.state, fresh.bit_generator.state
            for name in ("buffer_pos", "has_uint32", "uinteger"):
                assert got[name] == want[name]
            np.testing.assert_array_equal(got["buffer"], want["buffer"])
            for name in ("counter", "key"):
                np.testing.assert_array_equal(got["state"][name], want["state"][name])
            # a half-used buffer and a cached 32-bit word must not leak into the next stream
            assert reseeded.poisson(50.0, 7).tolist() == fresh.poisson(50.0, 7).tolist()
            assert reseeded.integers(0, 2**32, 3, dtype=np.uint32).tolist() == (
                fresh.integers(0, 2**32, 3, dtype=np.uint32).tolist()
            )

    def test_poisson_scale(self):
        record = simulate_counts(MIXED, settings(rate=1e4), rng_stream(11, (0,)))
        for n_plus, n_minus in record.counts.values():
            for n in (n_plus, n_minus):
                assert abs(n - 5000.0) <= 4.0 * math.sqrt(5000.0)

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
        ],
        ids=["float", "numpy-float", "bool", "numpy-bool", "int-name", "bytes-name"],
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
        # the oracle's own trace-one qubit case (|r| = 1 after the Born clip), and
        # near-pure states whose rounded expected counts can leave the ball
        truths = [np.diag([1.1, -0.1])]
        truths += [0.999 * rand_state(rng, 2, rank=1) + 0.001 * MIXED for _ in range(100)]
        records += [expected_counts(m, settings(rate=37.0)) for m in truths]
        outside = 0
        for record in records:
            r = [(n_plus - n_minus) / (n_plus + n_minus)
                 for n_plus, n_minus in (record.counts[b.name] for b in MUB_BASES)]
            outside += math.hypot(*r) > 1.0
            estimate = (np.eye(2) + sum(r_k * b.observable for r_k, b in zip(r, MUB_BASES))) / 2
            got = reconstruct(record).matrix
            assert np.abs(got - project_to_state(estimate)).max() <= 1e-14
        assert 50 <= outside <= len(records) - 50

    def test_zero_count_basis_rejected(self):
        record = CountRecord({"hv": (10, 10), "diag": (0, 0), "circ": (10, 10)})
        with pytest.raises(ValueError, match="zero counts"):
            reconstruct(record)

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

    def test_replica_order_does_not_change_the_report(self):
        truth = exact_truth_record()
        cfg = settings(time=60.0, rate=200.0, seed=12345)
        base = monte_carlo_bounds(truth, cfg, 8, SMALL_GRID)
        shuffled = monte_carlo_bounds(
            truth, cfg, 8, SMALL_GRID, replica_order=[5, 0, 7, 2, 6, 1, 4, 3]
        )
        assert base == shuffled

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
        # the Monte-Carlo loop computes the truth's Born probabilities once,
        # derives the stream keys of SAMPLE_REPLICAS replicas in one hash,
        # reseeds one generator per stream and bounds in blocks of
        # max(1, BLOCK_ALPHA_POINTS // A); each value must still be the bound of
        # the record sampled per (replica, state) stream from freshly computed
        # probabilities, one record at a time
        truth = reference_record()
        states = (truth.rho1, truth.rho2, truth.phi1_rho1, truth.phi2_rho2)
        assert [max(1, BLOCK_ALPHA_POINTS // a) for a in (500, 600, 1100, 5)] == [4, 3, 1, 409]
        assert SAMPLE_REPLICAS == 1024
        cases = [(seed, 20, None, None) for seed in (5, 601, 2**31 - 1, 2**32 + 5, 2**64 + 3)]
        cases += [(17, replicas, None, None) for replicas in (1, 5, 7)]  # partial blocks
        cases += [(17, 7, np.linspace(0.5, 0.9999, 600), None)]  # blocks of 3
        cases += [(17, 5, np.linspace(0.5, 0.9999, 1100), None)]  # blocks of 1
        cases += [(17, 7, None, [6, 2, 5, 0, 3, 1, 4])]  # replica 0 mid-block
        # two sampling passes (1024 + 3) with blocks of 409 that end at the pass
        # boundary, replica 0 last
        cases += [(17, 1027, np.linspace(0.5, 0.9999, 5), list(range(1026, -1, -1)))]
        for seed, replicas, grid, order in cases:
            cfg = settings(time=60.0, rate=200.0, seed=seed)
            report = monte_carlo_bounds(truth, cfg, replicas, grid, replica_order=order)
            assert report.replicas == len(report.values) == replicas
            for replica in range(replicas):
                estimates = [
                    reconstruct(
                        sample_counts(
                            {b.name: born_probabilities(state, b) for b in cfg.bases},
                            cfg,
                            rng_stream(seed, (replica, k)),
                        ),
                        cfg.bases,
                    )
                    for k, state in enumerate(states)
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

    def test_zero_counts_name_the_first_empty_basis_in_replica_order(self):
        # about 3 expected pairs per basis: at this seed the first empty basis in
        # replica order is state 2's circ of the fourth replica, in the first block
        truth = reference_record()
        states = (truth.rho1, truth.rho2, truth.phi1_rho1, truth.phi2_rho2)
        cfg = settings(time=1.0, rate=3.0, seed=30)
        order = [7, 3, 0, 5, 1, 6, 2, 4]

        def one_record_at_a_time():
            for replica in order:
                for k, state in enumerate(states):
                    counts = simulate_counts(state, cfg, rng_stream(cfg.seed, (replica, k)))
                    try:
                        reconstruct(counts)
                    except ZeroCountsError as exc:
                        yield str(exc)

        want = next(one_record_at_a_time())
        assert "'circ'" in want
        with pytest.raises(ZeroCountsError) as info:
            monte_carlo_bounds(truth, cfg, 8, replica_order=order)
        assert str(info.value) == want

    def test_erased_probes_raise_no_information(self):
        truth = ProbingRecord(
            rho1=DensityMatrix(KET0),
            rho2=DensityMatrix(np.diag([0.9, 0.1])),
            phi1_rho1=DensityMatrix(MIXED),
            phi2_rho2=DensityMatrix(MIXED),
            delta_mu=1.0,
        )
        report = monte_carlo_bounds(truth, settings(rate=1e4), 5, SMALL_GRID)
        assert report.values == (None,) * 5
        assert report.mean_b_inf is None and report.std_b_inf is None
        assert report.no_info_fraction == 1.0

    def test_single_replica_is_replica_zero(self):
        truth = exact_truth_record()
        one = monte_carlo_bounds(truth, settings(), 1, SMALL_GRID)
        three = monte_carlo_bounds(truth, settings(), 3, SMALL_GRID)
        assert one.values == three.values[:1]
        assert one.mean_b_inf == one.values[0] and one.std_b_inf == 0.0
        assert one.curve0.optimum == three.curve0.optimum

    def test_replica_count_validated(self):
        truth = exact_truth_record()
        with pytest.raises(ValueError, match="at least 1"):
            monte_carlo_bounds(truth, settings(), 0, SMALL_GRID)
        with pytest.raises(ValueError, match=f"at most {MAX_REPLICAS}"):
            monte_carlo_bounds(truth, settings(), MAX_REPLICAS + 1, SMALL_GRID)
        for bad in (3.0, True):
            with pytest.raises(ValueError, match="replicas must be an integer"):
                monte_carlo_bounds(truth, settings(), bad, SMALL_GRID)

    def test_replica_order_validated(self):
        truth = exact_truth_record()
        with pytest.raises(ValueError, match="permutation"):
            monte_carlo_bounds(truth, settings(), 3, SMALL_GRID, replica_order=[0, 1, 1])
        with pytest.raises(ValueError, match="replica_order entry must be an integer"):
            monte_carlo_bounds(truth, settings(), 3, SMALL_GRID, replica_order=[2.9, 0.2, 1.5])

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
        # the README's scenario config: every replica's optimum through the
        # log-domain qubit kernel and through the linear-domain pow kernel
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
        bound_rows = tomography._bound_rows
        optima = {}
        for name, kernel in [("log", fidelity._qubit_fidelity_sums),
                             ("pow", pow_qubit_fidelity_sums)]:
            found = optima[name] = []

            def recording(*args, found=found):
                rows = bound_rows(*args)
                found.extend(rows[2])
                return rows

            monkeypatch.setattr(fidelity, "_qubit_fidelity_sums", kernel)
            monkeypatch.setattr(tomography, "_bound_rows", recording)
            run_scenario(parse_scenario(config), str(tmp_path / name))
        assert len(optima["log"]) == len(optima["pow"]) == 500
        for got, want in zip(optima["log"], optima["pow"]):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.value == pytest.approx(want.value, rel=1e-10, abs=0.0)
                assert (got.alpha, got.family) == (want.alpha, want.family)
