import math

import numpy as np
import pytest

from alphaprobe.bounds import ProbingRecord
from alphaprobe.channel import (
    MAX_PLATES,
    QUARTZ_BIREFRINGENCE,
    WavePlate,
    WavePlateStack,
    _exact_channel,
    apply_channel,
    jones_at_frequencies,
)
from alphaprobe.fidelity import alpha_fidelity
from alphaprobe.spectra import (
    LIGHT_SPEED,
    GaussianSpectrum,
    discretize_pair,
    gaussian_alpha_fidelity,
    kappa,
)
from alphaprobe.tomography import TomographySettings
from support import (
    ORACLE_MAX_ENV,
    apply_channel_oracle,
    classical_alpha_fidelity,
    discretize,
    jones_at_frequency,
    rand_state,
    tensordot_exact_channel,
)

SPECTRUM = GaussianSpectrum(mu=3.7e14, sigma=5.68e11)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def rand_stack(rng, n_plates):
    plates = tuple(
        WavePlate(
            thickness=float(rng.uniform(0.5e-3, 8e-3)),
            orientation=float(rng.uniform(0.0, math.pi)),
        )
        for _ in range(n_plates)
    )
    return WavePlateStack(plates=plates)


class TestStackGeometry:
    def test_plate_validation(self):
        with pytest.raises(ValueError, match="thickness"):
            WavePlate(thickness=0.0, orientation=0.0)
        with pytest.raises(ValueError, match="thickness"):
            WavePlate(thickness=True, orientation=0)
        for bad in (math.nan, True, "0.1", np.float32(np.inf)):
            with pytest.raises(ValueError, match="orientation"):
                WavePlate(thickness=1e-3, orientation=bad)

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            WavePlateStack(plates=())
        for bad in (0.0, True, "0.00925"):
            with pytest.raises(ValueError, match="birefringence"):
                WavePlateStack(plates=(WavePlate(1e-3, 0.0),), birefringence=bad)

    def test_delays_must_have_a_finite_sum(self):
        # dn x = 1e310 m overflows; 1e7 m gives a finite delay of 3.3e298 s
        with pytest.raises(ValueError, match="finite sum"):
            WavePlateStack(plates=(WavePlate(1e10, 0.0),), birefringence=1e300)
        with pytest.raises(ValueError, match="finite sum"):
            WavePlateStack(plates=(WavePlate(1e10, 0.0), WavePlate(1e-3, 0.0)),
                           birefringence=-1e300)
        assert WavePlateStack((WavePlate(1e7, 0.0),), 1e300).delays()[0] < math.inf

    def test_overflowing_delay_fully_dephases_without_warnings(self):
        # kappa is exactly 0 at each nonzero delay difference, so the plus state
        # through a 1.7e308 mm plate (5.2e294 s) keeps only its diagonal
        plus = np.full((2, 2), 0.5)
        for stack in (WavePlateStack((WavePlate(1.7e305, 0.0),)),
                      WavePlateStack((WavePlate(1e7, 0.0),), 1e300)):
            out = apply_channel(stack, SPECTRUM, plus).matrix
            assert np.array_equal(out, np.eye(2) / 2)

    def test_float32_orientation_is_accepted(self):
        line, plus = GaussianSpectrum(mu=3.7e14, sigma=5.68e11), np.full((2, 2), 0.5)
        got = apply_channel(WavePlateStack(plates=(WavePlate(1e-3, np.float32(0.3)),)), line, plus)
        want = WavePlateStack(plates=(WavePlate(1e-3, float(np.float32(0.3))),))
        assert np.array_equal(got.matrix, apply_channel(want, line, plus).matrix)

    def test_numpy_scalars_are_stored_as_floats(self):
        f32 = np.float32
        stack = WavePlateStack((WavePlate(f32(5e-3), f32(0.3)),), birefringence=f32(0.00925))
        twin = WavePlateStack(
            (WavePlate(float(f32(5e-3)), float(f32(0.3))),), birefringence=float(f32(0.00925))
        )
        line = GaussianSpectrum(mu=f32(3.7e14), sigma=f32(5.68e11))
        twin_line = GaussianSpectrum(mu=float(f32(3.7e14)), sigma=float(f32(5.68e11)))
        got = apply_channel(stack, line, PLUS)
        assert np.array_equal(got.matrix, apply_channel(twin, twin_line, PLUS).matrix)
        record = ProbingRecord(got, got, got, got, delta_mu=f32(1e12))
        settings = TomographySettings(integration_time=f32(60.0), count_rate=f32(200.0), seed=7)
        plate = stack.plates[0]
        stored = (
            plate.thickness, plate.orientation, stack.birefringence, line.mu, line.sigma,
            record.delta_mu, settings.integration_time, settings.count_rate,
        )
        assert all(type(x) is float for x in stored)

    def test_delays_and_thickness(self):
        stack = WavePlateStack(
            plates=(WavePlate(2e-3, 0.0), WavePlate(3e-3, 0.5)),
            birefringence=QUARTZ_BIREFRINGENCE,
        )
        want = QUARTZ_BIREFRINGENCE * np.array([2e-3, 3e-3]) / LIGHT_SPEED
        assert np.allclose(stack.delays(), want, rtol=1e-15)


class TestJones:
    def test_aligned_zero_orientation_is_diagonal_phase(self):
        stack = WavePlateStack(plates=(WavePlate(2e-3, 0.0), WavePlate(3e-3, 0.0)))
        tau = stack.delays().sum()
        for omega in (3.0e14, 3.7e14, 4.4e14):
            v = jones_at_frequency(stack, omega)
            want = np.diag([1.0, np.exp(2j * math.pi * omega * tau)])
            assert np.abs(v - want).max() <= 1e-12

    def test_quarter_turn_moves_phase_to_first_axis(self):
        stack = WavePlateStack(plates=(WavePlate(5e-3, math.pi / 2),))
        tau = stack.delays()[0]
        omega = 3.7e14
        v = jones_at_frequency(stack, omega)
        want = np.diag([np.exp(2j * math.pi * omega * tau), 1.0])
        assert np.abs(v - want).max() <= 1e-12

    def test_plates_compose_in_order(self):
        p1 = WavePlate(2e-3, 0.3)
        p2 = WavePlate(4e-3, 1.1)
        omega = 3.7e14
        together = jones_at_frequency(WavePlateStack(plates=(p1, p2)), omega)
        j1 = jones_at_frequency(WavePlateStack(plates=(p1,)), omega)
        j2 = jones_at_frequency(WavePlateStack(plates=(p2,)), omega)
        assert np.abs(together - j2 @ j1).max() <= 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            stack = rand_stack(rng, 3)
            vs = jones_at_frequencies(stack, np.linspace(3.0e14, 4.4e14, 7))
            for v in vs:
                assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-10

    def test_aligned_plates_commute(self):
        plates = (WavePlate(1e-3, 0.8), WavePlate(3e-3, 0.8), WavePlate(5e-3, 0.8))
        fwd = jones_at_frequency(WavePlateStack(plates=plates), 3.7e14)
        rev = jones_at_frequency(WavePlateStack(plates=plates[::-1]), 3.7e14)
        assert np.abs(fwd - rev).max() <= 1e-10


class TestApplyChannel:
    def test_aligned_dephasing_matches_characteristic_function(self):
        stack = WavePlateStack(plates=(WavePlate(5e-3, 0.0),))
        tau = stack.delays()[0]
        out = apply_channel(stack, SPECTRUM, PLUS)
        k = kappa(SPECTRUM, tau)
        assert out.matrix[1, 0] == pytest.approx(0.5 * k, abs=1e-6)
        assert out.matrix[0, 1] == pytest.approx(0.5 * np.conj(k), abs=1e-6)
        assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert out.matrix[1, 1] == pytest.approx(0.5, abs=1e-9)

    def test_negligible_birefringence_is_identity(self):
        rng = np.random.default_rng(97)
        rho = rand_state(rng, 2)
        stack = WavePlateStack(plates=(WavePlate(1e-3, 0.7),), birefringence=1e-12)
        out = apply_channel(stack, SPECTRUM, rho)
        assert np.abs(out.matrix - rho).max() <= 1e-8

    def test_aligned_zero_orientation_preserves_diagonal_states(self):
        stack = WavePlateStack(plates=(WavePlate(5e-3, 0.0), WavePlate(2e-3, 0.0)))
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = apply_channel(stack, SPECTRUM, rho)
        assert np.abs(out.matrix - rho).max() <= 1e-9

    def test_trace_preserved(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            out = apply_channel(rand_stack(rng, 2), SPECTRUM, rand_state(rng, 2))
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-12

    def test_wider_spans_refine_the_quadrature(self):
        stack = WavePlateStack(plates=(WavePlate(5e-3, 0.0),))
        k = kappa(SPECTRUM, stack.delays()[0])
        errs = []
        for span in (3.0, 4.0, 6.0, 8.0):
            grid = discretize(SPECTRUM, span_sigmas=span, n=2001)
            out = apply_channel(stack, SPECTRUM, PLUS, grid=grid)
            errs.append(abs(out.matrix[1, 0] - 0.5 * k))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-12

    def test_non_qubit_rejected(self):
        stack = WavePlateStack(plates=(WavePlate(1e-3, 0.0),))
        with pytest.raises(ValueError, match="qubit"):
            apply_channel(stack, SPECTRUM, np.eye(3) / 3)

    def test_non_state_rejected(self):
        # the 20 mm plate damps the coherences enough that either output is a state
        stack = WavePlateStack(plates=(WavePlate(20e-3, 0.0),))
        cases = (
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
            (np.array([[0.5, 0.6], [0.6, 0.5]]), "negative eigenvalue"),
        )
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                apply_channel(stack, SPECTRUM, bad)


class TestOracleAgreement:
    def test_matches_production_channel_on_shared_grid(self):
        rng = np.random.default_rng(103)
        grid = discretize(SPECTRUM, n=129)
        for n_plates in (1, 2, 3):
            stack = rand_stack(rng, n_plates)
            rho = rand_state(rng, 2)
            fast = apply_channel(stack, SPECTRUM, rho, grid=grid)
            slow = apply_channel_oracle(stack, SPECTRUM, rho, 129)
            assert np.abs(fast.matrix - slow.matrix).max() <= 1e-12

    def test_aligned_oracle_matches_characteristic_function(self):
        stack = WavePlateStack(plates=(WavePlate(5e-3, 0.0),))
        out = apply_channel_oracle(stack, SPECTRUM, PLUS, 129)
        k = kappa(SPECTRUM, stack.delays()[0])
        assert out.matrix[1, 0] == pytest.approx(0.5 * k, abs=1e-7)

    def test_environment_size_capped(self):
        stack = WavePlateStack(plates=(WavePlate(1e-3, 0.0),))
        with pytest.raises(ValueError, match="capped"):
            apply_channel_oracle(stack, SPECTRUM, PLUS, ORACLE_MAX_ENV + 2)


class TestChannelPairInequality:
    def test_margin_nonnegative_on_shared_grid(self):
        # two channels driven by the same stack but different lines, built on
        # one shared grid: the generalized inequality must hold pointwise
        rng = np.random.default_rng(107)
        for _ in range(10):
            sigma = float(rng.uniform(2e11, 1e12))
            dmu = float(rng.uniform(0.3, 3.0)) * sigma
            s1 = GaussianSpectrum(mu=3.7e14, sigma=sigma)
            s2 = GaussianSpectrum(mu=3.7e14 + dmu, sigma=sigma)
            g1, g2 = discretize_pair(s1, s2)
            stack = rand_stack(rng, int(rng.integers(1, 4)))
            r1, r2 = rand_state(rng, 2), rand_state(rng, 2)
            e1 = apply_channel(stack, s1, r1, grid=g1)
            e2 = apply_channel(stack, s2, r2, grid=g2)
            a = float(rng.uniform(0.5, 0.9999))
            xi = classical_alpha_fidelity(g1, g2, a)
            margin = alpha_fidelity(e1, e2, a) - alpha_fidelity(r1, r2, a) * xi
            assert margin >= -1e-9


class TestClosedForm:
    def test_matches_shared_grid_quadrature(self):
        # unequal widths included: each line is checked on the pair's shared grid
        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(200):
            sigma1, sigma2 = rng.uniform(2e11, 1e12, size=2)
            s1 = GaussianSpectrum(mu=3.7e14, sigma=float(sigma1))
            s2 = GaussianSpectrum(
                mu=3.7e14 + float(rng.uniform(0.3, 3.0)) * sigma1, sigma=float(sigma2)
            )
            g1, g2 = discretize_pair(s1, s2)
            stack = rand_stack(rng, int(rng.integers(1, 6)))
            rho = rand_state(rng, 2)
            for spectrum, grid in ((s1, g1), (s2, g2)):
                exact = apply_channel(stack, spectrum, rho)
                quad = apply_channel(stack, spectrum, rho, grid=grid)
                worst = max(worst, np.abs(exact.matrix - quad.matrix).max())
        assert worst <= 1e-12

    def test_aligned_stack_dephases_by_kappa(self):
        for thicknesses in ((5e-3,), (2e-3, 3e-3), (1e-3, 4e-3, 2.5e-3)):
            stack = WavePlateStack(plates=tuple(WavePlate(x, 0.0) for x in thicknesses))
            k = kappa(SPECTRUM, stack.delays().sum())
            out = apply_channel(stack, SPECTRUM, PLUS).matrix
            assert abs(out[1, 0] - 0.5 * k) <= 1e-14
            assert abs(out[0, 1] - 0.5 * np.conj(k)) <= 1e-14

    def test_margin_nonnegative_against_closed_form_line_fidelity(self):
        rng = np.random.default_rng(113)
        for i in range(100):
            sigma = float(rng.uniform(2e11, 1e12))
            s1 = GaussianSpectrum(mu=3.7e14, sigma=sigma)
            s2 = GaussianSpectrum(mu=3.7e14 + float(rng.uniform(0.3, 3.0)) * sigma, sigma=sigma)
            stack = rand_stack(rng, int(rng.integers(1, 6)))
            r1, r2 = (PLUS, PLUS) if i % 2 else (rand_state(rng, 2), rand_state(rng, 2))
            e1 = apply_channel(stack, s1, r1)
            e2 = apply_channel(stack, s2, r2)
            a = float(rng.uniform(0.5, 0.9999))
            xi = gaussian_alpha_fidelity(s1, s2, a)
            margin = alpha_fidelity(e1, e2, a) - alpha_fidelity(r1, r2, a) * xi
            assert margin >= -1e-12

    def test_plate_limit(self):
        rng = np.random.default_rng(127)
        stack = rand_stack(rng, MAX_PLATES)
        grid = discretize(SPECTRUM, span_sigmas=8.0, n=3001)
        exact = apply_channel(stack, SPECTRUM, PLUS)
        quad = apply_channel(stack, SPECTRUM, PLUS, grid=grid)
        assert np.abs(exact.matrix - quad.matrix).max() <= 1e-12
        with pytest.raises(ValueError, match=f"at most {MAX_PLATES} plates"):
            apply_channel(rand_stack(rng, MAX_PLATES + 1), SPECTRUM, PLUS)


@pytest.mark.parametrize("n_plates", [1, 2, 3, 4, 5])
def test_exact_channel_is_the_tensordot_formula_to_the_bit(n_plates):
    # seeded: both spectra of a pair, plus probes and random full-rank probes
    rng = np.random.default_rng(3900 + n_plates)
    for _ in range(20):
        stack = rand_stack(rng, n_plates)
        sigma = float(rng.uniform(2e11, 1e12))
        spectra = [GaussianSpectrum(3.7e14, sigma),
                   GaussianSpectrum(3.7e14 + sigma * float(rng.uniform(0.3, 3.0)), sigma)]
        for states in ([PLUS, PLUS], [rand_state(rng, 2), rand_state(rng, 2)]):
            got = _exact_channel(stack, spectra, states)
            want = tensordot_exact_channel(stack, spectra, states)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
