import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from alphaprobe import fidelity
from alphaprobe.fidelity import (
    ALPHA_MIN,
    alpha_fidelity,
    alpha_fidelity_curve,
    alpha_range,
    default_alpha_grid,
    dpi_margin,
    renyi_divergence,
)
from alphaprobe.linalg import EIG_FLOOR, check_density_matrices
from alphaprobe.reference import (
    REFERENCE_DELTA_MU_HZ,
    REFERENCE_RHO_1,
    REFERENCE_RHO_2,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from alphaprobe.spectra import GaussianSpectrum, gaussian_alpha_fidelity
from alphaprobe.tomography import TomographySettings, reconstruct, rng_stream, simulate_counts
from support import (
    apply_kraus,
    eigh_qubit_frames,
    eigvalsh_alpha_fidelity_curve,
    mp_qubit_alpha_fidelity,
    near_pure_stack,
    oracle_alpha_fidelity,
    oracle_qubit_fidelity_sums,
    pow_qubit_fidelity_sums,
    pow_qubit_frames,
    rand_kraus,
    rand_state,
    rand_unitary,
)

ALPHAS = (0.5, 0.62, 0.75, 0.9, 0.9999)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
HALF = np.eye(2, dtype=complex) / 2


class TestAlphaFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3):
            rho = rand_state(rng, dim)
            for a in ALPHAS:
                assert alpha_fidelity(rho, rho, a) == pytest.approx(1.0, abs=1e-12)
        # qubits: F(rho, rho) = tr rho = 1 exactly, where the computed value would round
        # an ulp or so to either side of it
        qubits = [rand_state(rng, 2) for _ in range(20)] + [pure_qubit(rng) for _ in range(5)]
        qubits += list(near_pure_stack(rng, 5).reshape(-1, 2, 2))
        for rho in qubits + [HALF, KET0, KET1, np.full((2, 2), 0.5, dtype=complex)]:
            assert np.all(alpha_fidelity_curve(rho, rho, default_alpha_grid()) == 1.0)

    def test_orthogonal_states_vanish(self):
        for a in ALPHAS:
            assert alpha_fidelity(KET0, KET1, a) == 0.0

    def test_orthogonal_pure_states_vanish_in_any_basis(self):
        # in rho2's eigenbasis, rounding leaves rho1 = v a population of about 1e-17, of
        # either sign, along rho2 = I - v; its alpha-th power would be 0.68 at alpha = 0.01
        rng = np.random.default_rng(41)
        grid = np.array([*ALPHAS, 0.2, 0.01, 1e-300])
        for _ in range(50):
            v = pure_qubit(rng)
            for rho1, rho2 in ((v, np.eye(2) - v), (np.eye(2) - v, v)):
                with pytest.warns(UserWarning, match="below 0.5"):
                    curve = alpha_fidelity_curve(rho1, rho2, grid)
                np.testing.assert_array_equal(curve, 0.0)

    def test_mixed_vs_pure_closed_form(self):
        # pure rho2 reduces to <0| I/2 |0>^alpha = 0.5^alpha
        got = alpha_fidelity(np.eye(2) / 2, KET0, 0.5)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_reference_pair_matches_independent_oracle(self):
        for a in ALPHAS:
            got = alpha_fidelity(REFERENCE_RHO_1, REFERENCE_RHO_2, a)
            want = oracle_alpha_fidelity(REFERENCE_RHO_1, REFERENCE_RHO_2, a)
            assert got == pytest.approx(want, abs=1e-9)

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(37)
        for dim in (2, 3, 4):
            for _ in range(10):
                r1 = rand_state(rng, dim)
                r2 = rand_state(rng, dim)
                for a in (0.5, 0.8):
                    got = alpha_fidelity(r1, r2, a)
                    want = oracle_alpha_fidelity(r1, r2, a)
                    assert got == pytest.approx(want, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            f = alpha_fidelity(rand_state(rng, 3), rand_state(rng, 3), rng.uniform(0.5, 0.99))
            assert 0.0 <= f <= 1.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            r1, r2 = rand_state(rng, 3), rand_state(rng, 3)
            u = rand_unitary(rng, 3)
            for a in (0.5, 0.9):
                base = alpha_fidelity(r1, r2, a)
                moved = alpha_fidelity(u @ r1 @ u.conj().T, u @ r2 @ u.conj().T, a)
                assert moved == pytest.approx(base, abs=1e-9)

    def test_symmetric_at_one_half(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            r1, r2 = rand_state(rng, 3), rand_state(rng, 3)
            assert alpha_fidelity(r1, r2, 0.5) == pytest.approx(
                alpha_fidelity(r2, r1, 0.5), abs=1e-9
            )

    def test_commuting_states_reduce_to_classical_form(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            for a in (0.5, 0.7, 0.95):
                want = float(np.sum(p**a * q ** (1.0 - a)))
                got = alpha_fidelity(np.diag(p), np.diag(q), a)
                assert got == pytest.approx(want, abs=1e-10)

    def test_pure_rho2_shortcut(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            rho = rand_state(rng, 3)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            proj = np.outer(v, v.conj())
            for a in (0.5, 0.85):
                want = (v.conj() @ rho @ v).real ** a
                assert alpha_fidelity(rho, proj, a) == pytest.approx(want, abs=1e-9)

    def test_clamps_and_warns_above_one(self):
        # the clamp is the kernel's; a public entry point rejects 1.5 * KET0 as a state
        with pytest.warns(UserWarning, match="clamping"):
            got = fidelity._fidelity_rows((1.5 * KET0)[None], KET0[None], np.array([0.5]))
        assert got[0, 0] == 1.0

    def test_non_states_rejected_in_either_position(self):
        nan_entry = KET0.copy()
        nan_entry[0, 1] = np.nan
        cases = (
            (1.5 * KET0, "trace is"),
            (np.diag([1.1, -0.1]), "negative eigenvalue"),
            (nan_entry, "must be finite"),
        )
        for bad, message in cases:
            for pair in ((bad, KET0), (KET0, bad)):
                with pytest.raises(ValueError, match=message):
                    alpha_fidelity(*pair, 0.5)

    def test_alpha_outside_unit_interval_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5, "0.5"):
            with pytest.raises(ValueError, match="alpha"):
                alpha_fidelity(KET0, KET0, bad)
        for grid in (["0.5", "0.9"], [b"0.5"], [True, False]):
            with pytest.raises(ValueError, match="alpha grid must hold real numbers"):
                alpha_fidelity_curve(KET0, KET0, grid)

    def test_float32_grid_is_accepted(self):
        grid = np.linspace(0.5, 0.99, 7, dtype=np.float32)
        got = alpha_fidelity_curve(REFERENCE_RHO_1, REFERENCE_RHO_2, grid)
        want = alpha_fidelity_curve(REFERENCE_RHO_1, REFERENCE_RHO_2, grid.astype(float))
        assert np.array_equal(got, want)

    def test_least_order_keeps_the_kernel_in_float_range(self):
        # q = (1 - alpha) / alpha times log EIG_FLOOR, the qubit kernel's largest log
        # factor, is finite from ALPHA_MIN (about 1.537e-307) on and overflows below it
        log_floor = math.log(EIG_FLOOR)
        below = math.nextafter(ALPHA_MIN, 0.0)
        assert math.isfinite((1.0 - ALPHA_MIN) / ALPHA_MIN * log_floor)
        assert math.isinf((1.0 - below) / below * log_floor)
        rng = np.random.default_rng(62)
        states = [REFERENCE_RHO_1, REFERENCE_RHO_2, KET0, KET1, np.eye(2) / 2,
                  qubit_with_small_eigenvalue(rng, EIG_FLOOR)]
        for rho1 in states:
            for rho2 in states:
                with pytest.warns(UserWarning, match="below 0.5") as record:
                    alpha_fidelity_curve(rho1, rho2, [ALPHA_MIN, 1e-300, 0.25])
                assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
        for tiny in (below, 1e-308, 1e-320, 5e-324):
            with pytest.raises(ValueError, match=rf"\[{ALPHA_MIN!r}, 1\), got {tiny!r}$"):
                alpha_fidelity_curve(REFERENCE_RHO_1, REFERENCE_RHO_2, [tiny])

    def test_alpha_below_half_warns(self):
        with pytest.warns(UserWarning, match="below 0.5"):
            alpha_fidelity(KET0, KET0, 0.3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            alpha_fidelity(np.eye(2) / 2, np.eye(3) / 3, 0.5)

    def test_curve_matches_scalar_loop(self):
        rng = np.random.default_rng(61)
        r1, r2 = rand_state(rng, 3), rand_state(rng, 3)
        grid = np.linspace(0.5, 0.99, 23)
        curve = alpha_fidelity_curve(r1, r2, grid)
        for a, f in zip(grid, curve):
            assert f == pytest.approx(alpha_fidelity(r1, r2, float(a)), abs=1e-12)

    def test_alpha_range_count_validated(self):
        assert alpha_range(0.5, 0.9, np.int64(5)).tolist() == [0.5, 0.6, 0.7, 0.8, 0.9]
        for bad in (True, 5.0):
            with pytest.raises(ValueError, match="count must be an integer"):
                alpha_range(0.5, 0.9, bad)
        with pytest.raises(ValueError, match="count must be at least 2"):
            alpha_range(0.5, 0.9, 1)

    def test_alpha_range_ends_must_be_finite(self):
        # each end is checked before the grid is built, so the message names the value given
        for start, stop, what in ((0.5, math.inf, "stop"), (math.nan, 0.9999, "start"),
                                  (-math.inf, 0.9, "start"), (0.5, "0.9", "stop")):
            with pytest.raises(ValueError, match=f"{what} must be a finite number, got"):
                alpha_range(start, stop, 5)
        # finite ends whose difference, the grid's span, overflows
        with pytest.raises(ValueError, match=r"got \[-1e\+308, 1e\+308\]"):
            alpha_range(-1e308, 1e308, 5)

    def test_default_grid_shape(self):
        grid = default_alpha_grid()
        assert grid.size == 500
        assert grid[0] == 0.5
        assert grid[-1] == 0.9999
        assert np.all(np.diff(grid) > 0)


def qubit_with_small_eigenvalue(rng: np.random.Generator, small: float) -> np.ndarray:
    """Exactly Hermitian, the matrix the package keeps and the 50-digit reference reads."""
    u = rand_unitary(rng, 2)
    m = (u * np.array([1.0 - small, small])) @ u.conj().T
    return (m + m.conj().T) / 2


class TestQubitClosedForm:
    """The closed-form 2x2 sandwich eigenvalues against the eigvalsh route and mpmath."""

    NEAR_PURE_GRID = np.array([0.5, 0.5001, 0.55, 0.7, 0.9, 0.99, 0.9999])

    def test_matches_eigvalsh_route_when_well_conditioned(self):
        rng = np.random.default_rng(89)
        grid = default_alpha_grid()
        worst = 0.0
        for _ in range(200):
            r1 = qubit_with_small_eigenvalue(rng, rng.uniform(1e-3, 0.5))
            r2 = qubit_with_small_eigenvalue(rng, rng.uniform(1e-3, 0.5))
            got = alpha_fidelity_curve(r1, r2, grid)
            want = eigvalsh_alpha_fidelity_curve(r1, r2, grid)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-12

    def test_near_pure_pairs_no_less_accurate_than_eigvalsh(self):
        # A pair's error is its worst over the grid. The closed-form frames and the eigh
        # frames (the same per-alpha half on LAPACK's eigendecomposition of rho2) round
        # rho2's small eigenvalue differently, and F magnifies an absolute error in it by
        # about 1 / l1; over the set, the worst and the summed error of the closed form
        # are each no larger than those of either other route.
        rng = np.random.default_rng(97)
        grid = self.NEAR_PURE_GRID
        q = (1.0 - grid) / grid
        smalls = (0.0, 1e-13, 1e-10, 1e-6)
        errors = {"closed": [], "eigh": [], "eigvalsh": []}
        both_mixed = {"closed": 0.0, "eigvalsh": 0.0}
        for s1 in smalls:
            for s2 in smalls:
                for _ in range(4):
                    r1 = qubit_with_small_eigenvalue(rng, s1)
                    r2 = qubit_with_small_eigenvalue(rng, s2)
                    want = np.array([mp_qubit_alpha_fidelity(r1, r2, a) for a in grid])
                    eigh = fidelity._qubit_fidelity_sums(eigh_qubit_frames(r1[None], r2[None]),
                                                         q, grid)[0]
                    got = {"closed": alpha_fidelity_curve(r1, r2, grid),
                           "eigh": np.minimum(eigh, 1.0),
                           "eigvalsh": eigvalsh_alpha_fidelity_curve(r1, r2, grid)}
                    for route, f in got.items():
                        errors[route].append(np.max(np.abs(f - want)))
                    if s1 == s2 == 1e-6:
                        for route in both_mixed:
                            both_mixed[route] += errors[route][-1]
        assert max(errors["closed"]) <= 1e-12  # the tolerance of a kernel rewrite
        for other in ("eigh", "eigvalsh"):
            assert max(errors["closed"]) <= max(errors[other]), other
            assert sum(errors["closed"]) <= sum(errors[other]), other
        # where the sandwich's small eigenvalue dominates, the closed form is tighter
        assert both_mixed["closed"] < both_mixed["eigvalsh"]

    def test_rank_one_rho2_reduces_to_expectation(self):
        rng = np.random.default_rng(101)
        grid = default_alpha_grid()
        for _ in range(20):
            rho = rand_state(rng, 2)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            want = (v.conj() @ rho @ v).real ** grid
            got = alpha_fidelity_curve(rho, np.outer(v, v.conj()), grid)
            assert np.max(np.abs(got - want)) <= 1e-12
        # the poles, diagonal rho2 with a >= c and with a < c, give <k|rho1|k>^a
        for rho in [rand_state(rng, 2) for _ in range(20)] + [HALF, KET0, KET1]:
            for k, pole in enumerate((KET0, KET1)):
                np.testing.assert_allclose(alpha_fidelity_curve(rho, pole, grid),
                                           rho[k, k].real ** grid, rtol=1e-14, atol=0.0)


def pure_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def kernel_cases() -> dict:
    """Named lists of qubit pairs (rho1, rho2) for the kernel agreement test."""
    rng = np.random.default_rng(131)
    cases = {
        "random": [(rand_state(rng, 2), rand_state(rng, 2)) for _ in range(40)],
        "rank-one-rho2": [(rand_state(rng, 2), pure_qubit(rng)) for _ in range(20)],
        "orthogonal": [(KET0, KET1), (KET1, KET0)],
        # det(rho1) is 0 or a rounding error of either sign; the diagonal one is exactly 0
        "det-rho1-nonpositive": [(KET0, rand_state(rng, 2))]
        + [(pure_qubit(rng), rand_state(rng, 2)) for _ in range(20)],
    }
    for v in (pure_qubit(rng) for _ in range(8)):
        cases["orthogonal"].append((v, np.eye(2) - v))
    # the smallest eigenvalue at, below and around EIG_FLOOR = 1e-12, in either state
    for small in (0.0, 1e-13, 1e-12 * (1.0 - 1e-9), 1e-12 * (1.0 + 1e-9), 1e-10):
        cases[f"smallest-{small:.9e}"] = [
            pair
            for _ in range(6)
            for pair in (
                (qubit_with_small_eigenvalue(rng, small), rand_state(rng, 2)),
                (rand_state(rng, 2), qubit_with_small_eigenvalue(rng, small)),
                (qubit_with_small_eigenvalue(rng, small), qubit_with_small_eigenvalue(rng, small)),
            )
        ]
    return cases


def _rotated(rho: np.ndarray, theta: float) -> np.ndarray:
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return u @ rho @ u.T


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an alpha-free input below EIG_FLOOR is taken as 0, though its "
                          "alpha-th power is 0.74 at alpha = 0.01: F = 0.50348 against 0.87671 "
                          "(det(rho1) = 1e-13) and 0.70250 against 0.92759 (a population)")
@pytest.mark.parametrize("rho1, rho2", [
    (_rotated(np.diag([1.0 - 1e-13, 1e-13]).astype(complex), 0.7), np.eye(2) / 2),
    (np.diag([1.0 - 1e-13, 1e-13]).astype(complex), np.diag([0.7, 0.3]).astype(complex)),
], ids=["det-rho1", "population"])
def test_input_below_the_floor_counts_far_below_half(rho1, rho2):
    # rho1's small eigenvalue, 1e-13, is a value and not rounding; the reference is
    # mpmath at 50 digits with no floor, which agrees with the closed form
    # 2^-(1 - a) (l+^a + l-^a) for rho2 = I / 2
    for alpha in (0.5, 0.2, 0.01):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # below 0.5
            got = alpha_fidelity(rho1, rho2, alpha)
        want = mp_qubit_alpha_fidelity(rho1, rho2, alpha, floored=False)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), alpha


def test_reference_keeps_a_small_eigenvalue_far_below_the_large_one():
    # the 50-digit reference takes each small eigenvalue as det / large: as
    # (a + c - d) / 2 it would cancel once it lies about 10^-50 below the large one
    rho1 = np.diag([1.0 - 1e-13, 1e-13]).astype(complex)
    rho2 = np.diag([0.7, 0.3]).astype(complex)
    exact = 0.7**0.99 * (1.0 - 1e-13) ** 0.01 + 0.3**0.99 * 1e-13**0.01  # they commute
    got = mp_qubit_alpha_fidelity(rho1, rho2, 0.01, floored=False)
    assert got == pytest.approx(0.9275879903844045, rel=1e-15, abs=0.0)
    assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
    # the limit at alpha -> 0, which the kernel reads too
    assert mp_qubit_alpha_fidelity(REFERENCE_RHO_1, REFERENCE_RHO_2, 1e-300) == 1.0
    with pytest.warns(UserWarning, match="below 0.5"):
        assert alpha_fidelity(REFERENCE_RHO_1, REFERENCE_RHO_2, 1e-300) == 1.0
    assert mp_qubit_alpha_fidelity(REFERENCE_RHO_1, REFERENCE_RHO_2, 0.2) == pytest.approx(
        0.998000917663741, rel=1e-15, abs=0.0)


def exact_det(rho: np.ndarray) -> Fraction:
    """a c - |b|^2 of a qubit matrix's float entries in exact rational arithmetic."""
    b = rho[0, 1]
    return (Fraction(rho[0, 0].real) * Fraction(rho[1, 1].real)
            - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2)


class TestLogDomainKernel:
    """The log-domain qubit kernel against the linear-domain pow kernel it replaced."""

    # cases where the pow kernel's eigh is not the reference, and the 50-digit value is:
    # a small eigenvalue within rounding of EIG_FLOOR, which the two routes may floor
    # apart, or one at 1e-10, whose absolute rounding in eigh moves F by up to about 1e-8
    MP_CASES = ("smallest-9.999999990e-13", "smallest-1.000000001e-12", "smallest-1.000000000e-10")

    @pytest.mark.parametrize("name", kernel_cases().keys())
    def test_agrees_with_pow_kernel(self, name):
        pairs = kernel_cases()[name]
        grid = default_alpha_grid()
        q = (1.0 - grid) / grid
        rho1s = check_density_matrices(np.array([p[0] for p in pairs]))
        rho2s = check_density_matrices(np.array([p[1] for p in pairs]))
        frames = fidelity._qubit_frames(rho1s, rho2s)
        got = fidelity._qubit_fidelity_sums(frames, q, grid)
        want = pow_qubit_fidelity_sums(pow_qubit_frames(rho1s, rho2s), q, grid)
        # the two per-alpha halves on one eigendecomposition of rho2, the pow kernel's eigh
        on_eigh = fidelity._qubit_fidelity_sums(eigh_qubit_frames(rho1s, rho2s), q, grid)
        assert np.max(np.abs(on_eigh - want)) <= 1e-12
        # both floors (rho2's spectrum and det(rho1)) zero the same points
        np.testing.assert_array_equal(on_eigh == 0.0, want == 0.0)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        if name not in self.MP_CASES:
            assert np.max(np.abs(got - want)) <= 1e-12
        else:
            # det(rho1) = a c - |b|^2 rounds by up to about eps, and F magnifies that near
            # the floor: a pair whose exact det(rho1) lies that close to EIG_FLOOR may be
            # floored either way, and every other pair is within 1e-12 of the 50-digit
            # value on a sub-grid, or no further from it than the pow kernel
            sub = slice(None, None, 20)
            eps = np.finfo(float).eps
            for rho1, rho2, new, old, floored in zip(rho1s, rho2s, got[:, sub], want[:, sub],
                                                     frames[2] == -math.inf):
                exact = exact_det(rho1)
                if floored != (exact < EIG_FLOOR):
                    assert abs(exact - Fraction(EIG_FLOOR)) <= eps
                    continue
                ref = [mp_qubit_alpha_fidelity(rho1, rho2, a) for a in grid[sub]]
                limit = max(1e-12, np.max(np.abs(old - ref)) + 4.0 * eps)
                assert np.max(np.abs(new - ref)) <= limit
        # the alpha-free and per-alpha halves are the one-piece kernel, bit for bit
        np.testing.assert_array_equal(got, oracle_qubit_fidelity_sums(rho1s, rho2s, grid))


def frame_cases() -> dict:
    """Named stacks (rho1s, rho2s) of qubit pairs for the closed-form frames' agreement test."""
    rng = np.random.default_rng(137)
    near = near_pure_stack(rng, 60)
    settings = TomographySettings(integration_time=10.0, count_rate=200.0, seed=139)
    estimates = [reconstruct(simulate_counts(rho, settings, rng_stream(139, (k, i)))).matrix
                 for k, rho in enumerate(reference_record().states) for i in range(40)]
    randoms = [rand_state(rng, 2) for _ in range(40)]
    pairs = {
        "random": [(rand_state(rng, 2), rand_state(rng, 2)) for _ in range(100)],
        "near-pure": [(near[k, i], near[k, j]) for k in range(60)
                      for i, j in ((2, 3), (0, 1), (3, 2), (1, 0))],
        "reconstructed": [(estimates[i], estimates[(7 * i + 3) % 160]) for i in range(160)],
        "rank-one": [(pure_qubit(rng), pure_qubit(rng)) for _ in range(40)]
        + [(rand_state(rng, 2), pure_qubit(rng)) for _ in range(40)],
        "half": [(HALF, HALF)] + [pair for rho in randoms[:20] + [pure_qubit(rng) for _ in range(5)]
                                  for pair in ((rho, HALF), (HALF, rho))],
        "poles": [(x, y) for x in (KET0, KET1) for y in (KET0, KET1)]
        + [pair for x in (KET0, KET1) for rho in randoms[20:] for pair in ((rho, x), (x, rho))],
    }
    return {name: tuple(check_density_matrices(np.array([p[i] for p in stack])) for i in (0, 1))
            for name, stack in pairs.items()}


def linear_inputs(frames: np.ndarray) -> np.ndarray:
    """The alpha-free inputs l1, l2, det(rho1), |r'_01|^2, r'_00 / 2 and r'_11 / 2 of frames."""
    return np.stack((np.exp(frames[0] + frames[1]), np.exp(frames[1]), np.exp(frames[2]),
                     *frames[3:]))


class TestClosedFormFrames:
    """The closed-form alpha-free half against the eigh frames it replaced."""

    @pytest.mark.parametrize("name", frame_cases().keys())
    def test_agrees_with_the_eigh_frames(self, name):
        rho1s, rho2s = frame_cases()[name]
        if name == "reconstructed":  # repaired pure estimates among them
            assert np.any(np.abs(np.linalg.det(rho1s)) < 1e-15)
        grid = default_alpha_grid()
        q = (1.0 - grid) / grid
        frames, eigh = fidelity._qubit_frames(rho1s, rho2s), eigh_qubit_frames(rho1s, rho2s)
        # every input agrees to within 4 eps, apart from bitwise-equal pairs, which by design
        # take the frames of a pure state against itself, and a multiple of I as rho2, whose
        # eigenbasis is any basis (eigh's and the z basis may order rho1's populations apart)
        flat = (rho2s[:, 0, 1] == 0.0) & (rho2s[:, 0, 0] == rho2s[:, 1, 1])
        kept = ~(rho1s == rho2s).all(axis=(1, 2)) & ~flat
        diff = np.abs(linear_inputs(frames) - linear_inputs(eigh))[:, kept]
        assert np.max(diff) <= 4.0 * np.finfo(float).eps
        got = np.minimum(fidelity._qubit_fidelity_sums(frames, q, grid), 1.0)
        if name != "near-pure":
            want = np.minimum(fidelity._qubit_fidelity_sums(eigh, q, grid), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-12
        else:
            # F magnifies the absolute rounding of rho2's small eigenvalue by about 1 / l1;
            # eigh's rounding puts its F up to about 1e-9 off here, the closed form's l1
            # keeps its relative precision: the closed form against the 50-digit value
            grid = TestQubitClosedForm.NEAR_PURE_GRID
            q = (1.0 - grid) / grid
            got = np.minimum(fidelity._qubit_fidelity_sums(frames[:, :60], q, grid), 1.0)
            want = [[mp_qubit_alpha_fidelity(r1, r2, a) for a in grid]
                    for r1, r2 in zip(rho1s[:60], rho2s[:60])]
            assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_maximally_mixed_state_against_either_argument(self):
        # I / 2 has no eigenbasis of its own; it takes the z basis. With the spectrum w
        # of rho, F(rho, I / 2) = 2^-(1 - a) sum w^a and F(I / 2, rho) = 2^-a sum w^(1 - a)
        rng = np.random.default_rng(149)
        grid = default_alpha_grid()
        states = [rand_state(rng, 2) for _ in range(20)] + [pure_qubit(rng) for _ in range(5)]
        for rho in states + [KET0, KET1, HALF]:
            w = np.linalg.eigvalsh(rho)
            w = np.where(w < EIG_FLOOR, 0.0, w)[:, None]
            assert not np.isnan(fidelity._qubit_frames(rho[None], HALF[None])).any()
            np.testing.assert_allclose(alpha_fidelity_curve(rho, HALF, grid),
                                       2.0 ** (grid - 1.0) * np.sum(w**grid, axis=0),
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(alpha_fidelity_curve(HALF, rho, grid),
                                       2.0 ** -grid * np.sum(w ** (1.0 - grid), axis=0),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [1e-60, 1e-100, 1e-150, 1e-200, 1e-300, 5e-324])
    def test_nearly_flat_rho2(self, x):
        # rho2 = I / 2 + x (cos t sigma_x - sin t sigma_y): d = 0, and |b|^2 or its square
        # leaves the float range, where d and b over a power of two near the larger do not
        rng = np.random.default_rng(167)
        grid = default_alpha_grid()
        q = (1.0 - grid) / grid
        states = [rand_state(rng, 2) for _ in range(12)] + [pure_qubit(rng) for _ in range(3)]
        rho1s = check_density_matrices(np.array(states + [KET0, KET1, HALF]))
        b = x * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(rho1s)))
        rho2s = check_density_matrices(np.array([[[0.5, v], [np.conj(v), 0.5]] for v in b]))
        for first, second in ((rho1s, rho2s), (rho2s, rho1s)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                frames = fidelity._qubit_frames(first, second)
            assert not np.isnan(frames).any()
            if second is rho2s:  # l1 = l2 = 1/2 to within x
                assert np.max(np.abs(frames[:2].T - (0.0, -math.log(2.0)))) <= 1e-15
            # F does not depend on the eigenbasis of a multiple of I to within x
            got = fidelity._qubit_fidelity_sums(frames, q, grid)
            want = fidelity._qubit_fidelity_sums(eigh_qubit_frames(first, second), q, grid)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_determinant_rounds_about_once(self):
        # det(rho2) = a c - |b|^2 of near-pure rho2, where the plain products cancel to
        # nothing, against exact rational arithmetic on the same float entries
        rng = np.random.default_rng(163)
        worst = 0.0
        for _ in range(300):
            rho = qubit_with_small_eigenvalue(rng, 10.0 ** rng.uniform(-16.0, -1.0))
            a, c, b = rho[0, 0].real, rho[1, 1].real, rho[0, 1]
            exact = Fraction(a) * Fraction(c) - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2
            got = fidelity._qubit_det(np.array([a]), np.array([c]), np.array([b]))[0]
            worst = max(worst, abs(Fraction(got) - exact) / abs(exact))
        assert worst <= 2.0 * np.finfo(float).eps

    def test_no_eigensolver_is_called(self, monkeypatch):
        rho1s, rho2s = frame_cases()["random"]

        def refuse(*args, **kwargs):
            raise AssertionError("the closed-form frames called numpy.linalg")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert fidelity._qubit_frames(rho1s, rho2s).shape == (6, len(rho1s))


class TestRenyiDivergence:
    def test_zero_for_identical_states(self):
        rng = np.random.default_rng(67)
        rho = rand_state(rng, 2)
        # F(rho, rho) = 1 exactly for qubits, and log 1 / (alpha - 1) alone is -0.0
        for a in (0.5, 0.7, 0.9999):
            s = renyi_divergence(rho, rho, a)
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_infinite_for_orthogonal_states(self):
        assert renyi_divergence(KET0, KET1, 0.7) == math.inf

    def test_exponential_identity(self):
        rng = np.random.default_rng(71)
        r1, r2 = rand_state(rng, 3), rand_state(rng, 3)
        for a in (0.5, 0.8, 0.95):
            s = renyi_divergence(r1, r2, a)
            assert math.exp((a - 1.0) * s) == pytest.approx(
                alpha_fidelity(r1, r2, a), abs=1e-9
            )


class TestDpiMargin:
    def test_identity_channel_margin_is_zero(self):
        rng = np.random.default_rng(73)
        r1, r2 = rand_state(rng, 2), rand_state(rng, 2)
        assert dpi_margin(r1, r2, r1, r2, 1.0, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_common_channel_never_decreases_fidelity(self):
        # classic data processing: one channel, unit environment fidelity
        rng = np.random.default_rng(79)
        for _ in range(30):
            dim = int(rng.integers(2, 4))
            r1, r2 = rand_state(rng, dim), rand_state(rng, dim)
            kraus = rand_kraus(rng, dim, int(rng.integers(1, 4)))
            e1, e2 = apply_kraus(kraus, r1), apply_kraus(kraus, r2)
            a = float(rng.uniform(0.5, 0.9999))
            assert dpi_margin(r1, r2, e1, e2, 1.0, a) >= -1e-9

    def test_reference_record_needs_environment_term(self):
        # distinct channels can decrease fidelity: the demonstration data
        # violate the common-channel form but satisfy the generalized one
        # with the true environment fidelity in place
        rec = reference_record()
        s1 = GaussianSpectrum(mu=2.0 * REFERENCE_DELTA_MU_HZ, sigma=REFERENCE_SIGMA_HZ)
        s2 = GaussianSpectrum(
            mu=2.0 * REFERENCE_DELTA_MU_HZ + REFERENCE_DELTA_MU_HZ,
            sigma=REFERENCE_SIGMA_HZ,
        )
        for a in (0.5, 0.7, 0.9, 0.9999):
            naive = dpi_margin(rec.rho1, rec.rho2, rec.phi1_rho1, rec.phi2_rho2, 1.0, a)
            assert naive < 0.0
            xi = gaussian_alpha_fidelity(s1, s2, a)
            general = dpi_margin(rec.rho1, rec.rho2, rec.phi1_rho1, rec.phi2_rho2, xi, a)
            assert general > 0.0

    def test_environment_fidelity_range_checked(self):
        rng = np.random.default_rng(83)
        r1, r2 = rand_state(rng, 2), rand_state(rng, 2)
        for bad in (-0.1, 1.1, True, "0.5"):
            with pytest.raises(ValueError, match="environment fidelity"):
                dpi_margin(r1, r2, r1, r2, bad, 0.7)
