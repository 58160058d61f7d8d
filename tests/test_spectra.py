import math
import re

import mpmath
import numpy as np
import pytest

from alphaprobe.reference import REFERENCE_DELTA_MU_HZ, REFERENCE_SIGMA_HZ
from alphaprobe.spectra import (
    LIGHT_SPEED,
    GaussianSpectrum,
    discretize_pair,
    gaussian_alpha_fidelity,
    kappa,
)
from support import classical_alpha_fidelity, discretize

MU0 = 3.7e14  # optical scale, Hz


def reference_pair():
    s1 = GaussianSpectrum(mu=MU0, sigma=REFERENCE_SIGMA_HZ)
    s2 = GaussianSpectrum(mu=MU0 + REFERENCE_DELTA_MU_HZ, sigma=REFERENCE_SIGMA_HZ)
    return s1, s2


class TestGaussianSpectrum:
    def test_from_wavelength_formulas(self):
        s = GaussianSpectrum.from_wavelength(810.0, 1.73)
        lam = 810e-9
        assert s.mu == pytest.approx(LIGHT_SPEED / lam, rel=1e-12)
        assert s.sigma == pytest.approx(LIGHT_SPEED * 1.73e-9 / lam**2, rel=1e-12)

    def test_wavelength_separation_maps_to_control_shift(self):
        # a 1.73 nm line separation at 810 nm is the demonstration's control
        # shift of 7.95e11 Hz, up to the first-order conversion
        s = GaussianSpectrum.from_wavelength(810.0, 1.73)
        assert s.sigma == pytest.approx(REFERENCE_DELTA_MU_HZ, rel=0.01)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianSpectrum(mu=-1.0, sigma=1.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianSpectrum(mu=1.0, sigma=0.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianSpectrum.from_wavelength(810.0, -1.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianSpectrum.from_wavelength(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianSpectrum(mu=True, sigma=True)
        with pytest.raises(ValueError, match="center wavelength must be positive, got inf"):
            GaussianSpectrum.from_wavelength(math.inf, 1.0)
        for center in (5e-324, 1e300):  # the line underflows or overflows in Hz
            with pytest.raises(ValueError, match=re.escape(f"center wavelength {center} nm")):
                GaussianSpectrum.from_wavelength(center, 1.0)


class TestGaussianAlphaFidelity:
    def test_identical_lines_give_one(self):
        s1, _ = reference_pair()
        for a in (0.5, 0.8, 0.9999):
            assert gaussian_alpha_fidelity(s1, s1, a) == 1.0

    def test_reference_shift_value(self):
        s1, s2 = reference_pair()
        ratio = REFERENCE_DELTA_MU_HZ / REFERENCE_SIGMA_HZ
        want = math.exp(-(ratio**2) / 8.0)
        got = gaussian_alpha_fidelity(s1, s2, 0.5)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.7828, abs=5e-4)

    def test_closed_form_matches_discretized_oracle(self):
        s1, s2 = reference_pair()
        g1, g2 = discretize_pair(s1, s2)
        for a in (0.5, 0.7, 0.9, 0.9999):
            closed = gaussian_alpha_fidelity(s1, s2, a)
            discrete = classical_alpha_fidelity(g1, g2, a)
            assert discrete == pytest.approx(closed, abs=1e-8)

    def test_monotonicity(self):
        sig = REFERENCE_SIGMA_HZ
        shifts = np.linspace(0.0, 3.0, 7) * sig
        vals = [
            gaussian_alpha_fidelity(
                GaussianSpectrum(MU0, sig), GaussianSpectrum(MU0 + d, sig), 0.7
            )
            for d in shifts
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

        # wider lines overlap more
        widths = np.linspace(0.5, 3.0, 6) * sig
        vals = [
            gaussian_alpha_fidelity(
                GaussianSpectrum(MU0, w), GaussianSpectrum(MU0 + sig, w), 0.7
            )
            for w in widths
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

        # alpha (1 - alpha) shrinks towards alpha = 1
        s1, s2 = reference_pair()
        vals = [gaussian_alpha_fidelity(s1, s2, a) for a in (0.5, 0.6, 0.8, 0.9999)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_symmetric_in_line_order(self):
        s1, s2 = reference_pair()
        for a in (0.5, 0.9):
            assert gaussian_alpha_fidelity(s1, s2, a) == gaussian_alpha_fidelity(s2, s1, a)

    @pytest.mark.filterwarnings("ignore:alpha = 0.2 is below 0.5")
    def test_unequal_widths_match_the_shared_grid(self):
        s1 = GaussianSpectrum(mu=MU0, sigma=1e11)
        for r in (0.3, 0.77, 1.39, 3.0):
            s2 = GaussianSpectrum(mu=MU0 + 1e11, sigma=r * 1e11)
            g1, g2 = discretize_pair(s1, s2, 12.0, 20001)
            for a in (0.2, 0.5, 0.7, 0.9999):
                want = classical_alpha_fidelity(g1, g2, a)
                assert gaussian_alpha_fidelity(s1, s2, a) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("sigma1, sigma2, want", [
        (2e154, 2e154, 1.0),  # sigma1^2 overflows
        (1e-163, 1e-163, 0.0),  # sigma1^2 underflows to 0
        (1e-300, 1e300, 1.1952286093343204e-180),  # r overflows
        (1e300, 1e-300, 0.0),  # r underflows, sigma1^2 overflows
    ])
    def test_extreme_widths(self, sigma1, sigma2, want):
        # the 50-digit closed form, rounded to a float, at dmu = 1e15 Hz
        got = gaussian_alpha_fidelity(GaussianSpectrum(1e15, sigma1),
                                      GaussianSpectrum(2e15, sigma2), 0.7)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_any_finite_widths_match_the_50_digit_form(self):
        # widths and shifts from 1e-300 to 1e300 Hz: F within 1e-12 max(1, |ln F|) of the
        # 50-digit value, relative, or one subnormal step where it underflows
        rng = np.random.default_rng(151)
        with mpmath.workdps(50):
            for _ in range(300):
                sigma1, sigma2, mu = 10.0 ** rng.uniform(-300.0, 300.0, size=3)
                mu2 = mu * (1.0 + float(rng.choice([0.0, 1e-12, 0.5, 3.0])))
                a = float(rng.uniform(0.5, 0.9999))
                got = gaussian_alpha_fidelity(GaussianSpectrum(mu, sigma1),
                                              GaussianSpectrum(mu2, sigma2), a)
                s1, s2, d, m = (mpmath.mpf(x) for x in (sigma1, sigma2, mu - mu2, a))
                v = (1 - m) * s1**2 + m * s2**2  # sigma1^2 (1 + a (r^2 - 1))
                log_want = (m * mpmath.log(s2) + (1 - m) * mpmath.log(s1) - mpmath.log(v) / 2
                            - (1 - m) * m * d**2 / (2 * v))
                want = mpmath.exp(log_want)  # F <= 1, so ln F <= 0
                assert abs(got - want) <= 1e-12 * max(1, -log_want) * want + math.ulp(0.0)


class TestKappa:
    def test_zero_delay(self):
        s1, _ = reference_pair()
        assert kappa(s1, 0.0) == 1.0 + 0.0j

    @pytest.mark.parametrize("tau", ["1e-13", b"1", True, [True, False]])
    def test_rejects_delays_that_are_not_real_numbers(self, tau):
        s1, _ = reference_pair()
        with pytest.raises(ValueError, match="tau must hold real delays, got dtype"):
            kappa(s1, tau)

    def test_integer_and_float32_delays_are_read_as_float64(self):
        s1, _ = reference_pair()
        assert kappa(s1, np.array([0, 2])).tolist() == kappa(s1, [0.0, 2.0]).tolist()
        assert kappa(s1, np.float32(1e-13)) == kappa(s1, float(np.float32(1e-13)))

    def test_damping_scale(self):
        s1, _ = reference_pair()
        tau = 1.0 / (2.0 * math.pi * s1.sigma)
        assert abs(kappa(s1, tau)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        s1, _ = reference_pair()
        grid = discretize(s1, span_sigmas=8.0, n=4001)
        for x_mm in (1.0, 5.0, 10.0):
            tau = 0.00925 * x_mm * 1e-3 / LIGHT_SPEED
            want = np.sum(grid.weights * np.exp(2j * math.pi * grid.points * tau))
            assert kappa(s1, tau) == pytest.approx(complex(want), abs=1e-6)

    def test_magnitude_decreases_with_delay(self):
        s1, _ = reference_pair()
        taus = np.linspace(0.0, 5.0, 11) / (2.0 * math.pi * s1.sigma)
        mags = [abs(kappa(s1, t)) for t in taus]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_underflowing_damping_gives_exactly_zero_without_warnings(self):
        # RuntimeWarnings fail the suite: the overflowing square and phase stay silent
        assert kappa(GaussianSpectrum(3.7e14, 1e300), 1e-13) == 0.0
        s1, _ = reference_pair()
        # 5.2e294 s, the delay of a 1.7e308 mm quartz plate, overflows 2 pi tau mu
        got = kappa(s1, np.array([0.0, -1e-9, 1e-9, 5.2e294, -5.2e294]))
        assert got[0] == 1.0 and np.array_equal(got[1:], np.zeros(4))
        assert not np.signbit(got[1:].real).any() and not np.signbit(got[1:].imag).any()

    def test_overflowing_phase_under_nonzero_damping_raises_without_warnings(self):
        # sigma = 1e-300 Hz leaves the damping at 1 while 2 pi tau mu overflows
        narrow = GaussianSpectrum(3.7e14, 1e-300)
        with pytest.raises(ValueError, match=r"2 pi tau mu overflows a float at tau = 1e\+294 s"):
            kappa(narrow, np.array([0.0, 1e-9, -1e294]))
        assert abs(kappa(narrow, 1e290)) == pytest.approx(1.0)

    def test_ordinary_delays_unchanged_by_the_zero_rule(self):
        s1, _ = reference_pair()
        tau = np.linspace(-3.0, 3.0, 101) / (2.0 * math.pi * s1.sigma)
        phase = 2.0 * math.pi * tau * s1.mu
        want = np.exp(-((2.0 * math.pi * tau * s1.sigma) ** 2) / 2.0) * (
            np.cos(phase) + 1j * np.sin(phase))
        assert np.array_equal(kappa(s1, tau), want)


class TestDiscretize:
    def test_moments(self):
        s1, _ = reference_pair()
        g = discretize(s1)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.points[np.argmax(g.weights)] == pytest.approx(s1.mu, abs=1e-3)
        mean = float(np.sum(g.weights * g.points))
        assert abs(mean - s1.mu) <= 1e-9 * s1.sigma

    def test_shape_validation(self):
        s1, _ = reference_pair()
        with pytest.raises(ValueError, match="odd"):
            discretize(s1, n=2000)
        with pytest.raises(ValueError, match="odd"):
            discretize(s1, n=1)
        with pytest.raises(ValueError, match="grid size must be an integer"):
            discretize_pair(s1, s1, 8.0, 301.0)
        with pytest.raises(ValueError, match="span"):
            discretize(s1, span_sigmas=0.0)

    def test_pair_shares_points(self):
        s1, s2 = reference_pair()
        g1, g2 = discretize_pair(s1, s2)
        assert g1.points is g2.points and not g1.points.flags.writeable
        assert g1.points[0] <= s1.mu - 7.9 * s1.sigma
        assert g1.points[-1] >= s2.mu + 7.9 * s2.sigma
        assert g1.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert g2.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_a_line_whose_weights_all_underflow_raises(self):
        narrow = (GaussianSpectrum(mu=1.0, sigma=1e-3), GaussianSpectrum(mu=2.0, sigma=1e-3))
        with pytest.raises(ValueError, match="grid weights sum to zero; nothing to normalize"):
            discretize_pair(*narrow, span_sigmas=40.0, n=3)


class TestClassicalAlphaFidelity:
    def test_identical_grids_give_one(self):
        s1, _ = reference_pair()
        g = discretize(s1)
        assert classical_alpha_fidelity(g, g, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_points_rejected(self):
        s1, s2 = reference_pair()
        with pytest.raises(ValueError, match="identical frequency points"):
            classical_alpha_fidelity(discretize(s1), discretize(s2), 0.5)

    def test_unequal_widths_route(self):
        # the fallback the closed form points to: shared grid, direct sum
        s1 = GaussianSpectrum(mu=MU0, sigma=1e11)
        s2 = GaussianSpectrum(mu=MU0 + 1e11, sigma=2e11)
        g1, g2 = discretize_pair(s1, s2)
        a = 0.5
        got = classical_alpha_fidelity(g1, g2, a)
        # equal-width Bhattacharyya-like overlap generalizes to
        # sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-dmu^2 / (4 (s1^2 + s2^2)))
        pref = math.sqrt(2 * s1.sigma * s2.sigma / (s1.sigma**2 + s2.sigma**2))
        want = pref * math.exp(-((s2.mu - s1.mu) ** 2) / (4 * (s1.sigma**2 + s2.sigma**2)))
        assert got == pytest.approx(want, abs=1e-8)
