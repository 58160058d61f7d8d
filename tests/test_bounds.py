import csv
import io
import math

import numpy as np
import pytest

from alphaprobe import fidelity
from alphaprobe.bounds import (
    SEARCH_ALLOWANCE,
    BoundCurve,
    BoundOptimum,
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
    write_csv,
    _bounds_from_fractions,
    _EXPONENTS,
    _LEAD_ROW,
    _TAIL_WORDS,
    _WORDS,
    _float_cells,
    _key_cells,
    _optimum,
    _record_frames,
    _search_optima,
)
from alphaprobe.channel import WavePlate, WavePlateStack, apply_channel
from alphaprobe.fidelity import alpha_fidelity, alpha_fidelity_curve, default_alpha_grid
from alphaprobe.linalg import EIG_FLOOR, DensityMatrix, check_density_matrices
from alphaprobe.reference import (
    REFERENCE_RHO_1,
    REFERENCE_RHO_2,
    REFERENCE_SIGMA_HZ,
    reference_record,
)
from alphaprobe.spectra import GaussianSpectrum, discretize_pair
from alphaprobe.tomography import TomographySettings, reconstruct, rng_stream, simulate_counts
from support import (
    eigvalsh_alpha_fidelity_curve,
    mp_qubit_alpha_fidelity,
    near_pure_stack,
    oracle_alpha_fidelity,
    oracle_bound_rows,
    oracle_percent_write_csv,
    oracle_write_csv,
    rand_state,
    record_curve,
    record_kernel_halves,
    short_os_writes,
)

KET0 = DensityMatrix(np.diag([1.0, 0.0]))
KET1 = DensityMatrix(np.diag([0.0, 1.0]))
MIXED = DensityMatrix(np.eye(2) / 2)
PLUS = DensityMatrix(np.full((2, 2), 0.5))


def diag_record(a, b, delta_mu=1.0):
    """Mirror-symmetric diagonal record: both fraction orders coincide."""
    return ProbingRecord(
        rho1=DensityMatrix(np.diag([a, 1.0 - a])),
        rho2=DensityMatrix(np.diag([1.0 - a, a])),
        phi1_rho1=DensityMatrix(np.diag([b, 1.0 - b])),
        phi2_rho2=DensityMatrix(np.diag([1.0 - b, b])),
        delta_mu=delta_mu,
    )


def no_information_record():
    """Evolution erased the preparations entirely: fractions exceed one."""
    return ProbingRecord(
        rho1=KET0,
        rho2=DensityMatrix(np.diag([0.9, 0.1])),
        phi1_rho1=MIXED,
        phi2_rho2=MIXED,
        delta_mu=1.0,
    )


class TestProbingRecord:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            ProbingRecord(
                rho1=KET0,
                rho2=KET1,
                phi1_rho1=DensityMatrix(np.eye(3) / 3),
                phi2_rho2=MIXED,
                delta_mu=1.0,
            )

    def test_control_shift_validated(self):
        for bad in (-1.0, math.nan, math.inf, True, "1.0"):
            with pytest.raises(ValueError, match="control shift"):
                ProbingRecord(
                    rho1=KET0, rho2=KET1, phi1_rho1=KET0, phi2_rho2=KET1, delta_mu=bad
                )

    def test_reference_record_is_built_once(self):
        # one shared record: frozen, with read-only states
        record = reference_record()
        assert reference_record() is record
        assert not any(state.matrix.flags.writeable for state in record.states)
        with pytest.raises(AttributeError):
            record.delta_mu = 1.0


class TestFraction:
    def test_identity_evolution_gives_one(self):
        rec = ProbingRecord(
            rho1=KET0, rho2=MIXED, phi1_rho1=KET0, phi2_rho2=MIXED, delta_mu=1.0
        )
        for order in ("forward", "reversed"):
            assert fraction(rec, 0.7, order) == pytest.approx(1.0, abs=1e-12)

    def test_reference_record_fractions_below_one(self):
        rec = reference_record()
        for a in (0.5, 0.7, 0.9, 0.9999):
            assert fraction(rec, a, "forward") < 1.0
            assert fraction(rec, a, "reversed") < 1.0

    def test_alike_states_give_exactly_one_on_both_routes(self):
        # F(rho, rho) = tr rho = 1 exactly, so probes alike and evolved states alike give
        # fractions of exactly 1 and no bound, on the full grid and in the certified search
        rng = np.random.default_rng(2053)
        alphas = default_alpha_grid()
        for first, second in [(PLUS, MIXED), (MIXED, PLUS)] + [
                (DensityMatrix(rand_state(rng, 2)), DensityMatrix(rand_state(rng, 2, rank=1)))
                for _ in range(10)]:
            record = ProbingRecord(first, first, second, second, delta_mu=1.0)
            curve = tightest_bound(record, alphas)
            assert np.all(curve.fractions[0] == 1.0) and np.all(curve.fractions[1] == 1.0)
            assert curve.optimum is None
            frames = _record_frames(record_stack([record]))
            assert _search_optima(frames, alphas, 1.0).tolist() == [math.inf]

    def test_zero_denominator_gives_infinity(self):
        rec = ProbingRecord(
            rho1=KET0, rho2=KET1, phi1_rho1=MIXED, phi2_rho2=MIXED, delta_mu=1.0
        )
        assert fraction(rec, 0.7) == math.inf

    def test_order_validated(self):
        with pytest.raises(ValueError, match="order"):
            fraction(reference_record(), 0.7, "sideways")

    def test_curve_matches_scalars(self):
        rec = reference_record()
        grid = np.linspace(0.5, 0.99, 11)
        for order in ("forward", "reversed"):
            curve = fraction_curve(rec, grid, order)
            for a, f in zip(grid, curve):
                assert f == pytest.approx(fraction(rec, float(a), order), abs=1e-12)


class TestBoundFamilies:
    def test_synthetic_inversion_recovers_unit_width(self):
        # evolved fraction e^{-1/8} at alpha = 1/2 inverts to exactly 1.0
        rec = ProbingRecord(
            rho1=KET0,
            rho2=KET0,
            phi1_rho1=KET0,
            phi2_rho2=DensityMatrix(np.diag([math.exp(-0.25), 1.0 - math.exp(-0.25)])),
            delta_mu=1.0,
        )
        assert fraction(rec, 0.5) == pytest.approx(math.exp(-0.125), rel=1e-12)
        assert bound_b1(rec, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_matches_formula_with_oracle_fidelities(self):
        rec = reference_record()
        states = (
            rec.rho1.matrix,
            rec.rho2.matrix,
            rec.phi1_rho1.matrix,
            rec.phi2_rho2.matrix,
        )
        r1, r2, e1, e2 = states
        for a in (0.5, 0.8, 0.9999):
            f_fwd = oracle_alpha_fidelity(e1, e2, a) / oracle_alpha_fidelity(r1, r2, a)
            f_rev = oracle_alpha_fidelity(e2, e1, a) / oracle_alpha_fidelity(r2, r1, a)
            want1 = math.sqrt(a * (a - 1.0) * rec.delta_mu**2 / (2.0 * math.log(f_fwd)))
            want2 = math.sqrt(a * (a - 1.0) * rec.delta_mu**2 / (2.0 * math.log(f_rev)))
            assert bound_b1(rec, a) == pytest.approx(want1, rel=1e-9)
            assert bound_b2(rec, a) == pytest.approx(want2, rel=1e-9)

    def test_reference_bounds_near_published_scale(self):
        rec = reference_record()
        assert bound_b2(rec, 0.5) / REFERENCE_SIGMA_HZ == pytest.approx(2.22, rel=0.05)
        assert bound_b2(rec, 0.9999) / REFERENCE_SIGMA_HZ == pytest.approx(1.82, rel=0.05)

    def test_families_coincide_at_one_half(self):
        rec = reference_record()
        assert bound_b1(rec, 0.5) == pytest.approx(bound_b2(rec, 0.5), rel=1e-9)

    def test_mirror_symmetric_record_equalizes_families(self):
        rec = diag_record(0.45, 0.2)
        for a in (0.5, 0.7, 0.9, 0.9999):
            b1, b2 = bound_b1(rec, a), bound_b2(rec, a)
            assert b1 is not None and b2 is not None
            assert b1 == pytest.approx(b2, rel=1e-12)

    def test_scales_linearly_with_control_shift(self):
        base = diag_record(0.45, 0.2, delta_mu=1.0)
        scaled = diag_record(0.45, 0.2, delta_mu=3.5)
        for a in (0.5, 0.8):
            assert bound_b1(scaled, a) == pytest.approx(3.5 * bound_b1(base, a), rel=1e-12)

    @pytest.mark.parametrize("delta_mu", [1e160, 1e300])
    def test_huge_control_shift_is_never_squared(self, delta_mu):
        # Δμ² overflows a float above about 1.34e154 Hz; the bound Δμ · B(1 Hz) does not
        base = tightest_bound(diag_record(0.45, 0.2, delta_mu=1.0))
        huge = tightest_bound(diag_record(0.45, 0.2, delta_mu=delta_mu))
        np.testing.assert_allclose(huge.b1, delta_mu * base.b1, rtol=1e-15)
        np.testing.assert_allclose(huge.b2, delta_mu * base.b2, rtol=1e-15)

    def test_bound_beyond_the_float_range_is_absent(self):
        states = reference_record().states
        unit = tightest_bound(ProbingRecord(*states, delta_mu=1.0))
        assert unit.optimum.value * 1.7e308 == math.inf  # so every bound overflows
        assert tightest_bound(ProbingRecord(*states, delta_mu=1.7e308)).no_information

    def test_stronger_dephasing_tightens_the_bound(self):
        weaker = diag_record(0.45, 0.3)
        stronger = diag_record(0.45, 0.1)
        for a in (0.5, 0.8):
            assert bound_b1(stronger, a) < bound_b1(weaker, a)

    def test_uninformative_fraction_gives_none(self):
        rec = no_information_record()
        assert fraction(rec, 0.7) > 1.0
        assert bound_b1(rec, 0.7) is None
        assert bound_b2(rec, 0.7) is None

    def test_barely_informative_fraction_gives_huge_bound(self):
        eps = 1e-12
        rec = ProbingRecord(
            rho1=KET0,
            rho2=KET0,
            phi1_rho1=KET0,
            phi2_rho2=DensityMatrix(np.diag([1.0 - eps, eps])),
            delta_mu=1.0,
        )
        b = bound_b1(rec, 0.5)
        assert b is not None
        assert b > 1e3

    def test_orthogonal_evolved_states_give_zero_bound(self):
        # fraction 0 is the infinitely-informative limit, not a missing value
        rec = ProbingRecord(
            rho1=DensityMatrix(np.diag([0.9, 0.1])),
            rho2=DensityMatrix(np.diag([0.8, 0.2])),
            phi1_rho1=KET0,
            phi2_rho2=KET1,
            delta_mu=1.0,
        )
        assert fraction(rec, 0.5) == 0.0
        assert bound_b1(rec, 0.5) == 0.0

    def test_zero_control_shift_rejected(self):
        # a record that cannot be bounded cannot be built
        with pytest.raises(ValueError, match="control shift must be positive"):
            ProbingRecord(rho1=KET0, rho2=MIXED, phi1_rho1=KET0, phi2_rho2=MIXED, delta_mu=0.0)

    def test_alpha_domain_enforced(self):
        rec = reference_record()
        for bad in (0.3, 0.4999, 1.0, 1.5, "0.7"):
            with pytest.raises(ValueError, match="alpha"):
                bound_b1(rec, bad)


class TestTightestBound:
    def test_reference_optimum(self):
        curve = tightest_bound(reference_record())
        assert not curve.no_information
        assert curve.optimum.family == "B2"
        assert curve.optimum.alpha == pytest.approx(0.9999)
        assert curve.optimum.value / REFERENCE_SIGMA_HZ == pytest.approx(1.82, rel=0.05)
        finite = np.concatenate([curve.b1[curve.valid1], curve.b2[curve.valid2]])
        assert curve.optimum.value == pytest.approx(float(finite.min()), rel=1e-15)
        assert curve.valid1.all() and curve.valid2.all()

    def test_no_information_curve(self):
        curve = tightest_bound(no_information_record())
        assert curve.no_information
        assert curve.optimum is None
        assert not curve.valid1.any()
        assert not curve.valid2.any()

    def test_grid_validation(self):
        rec = reference_record()
        with pytest.raises(ValueError, match="nonempty"):
            tightest_bound(rec, alpha_grid=[])
        with pytest.raises(ValueError, match=r"\[0.5, 1\)"):
            tightest_bound(rec, alpha_grid=[0.4, 0.6])
        with pytest.raises(ValueError, match=r"\[0.5, 1\)"):
            tightest_bound(rec, alpha_grid=[0.6, 1.0])
        with pytest.raises(ValueError, match="alpha grid must hold real numbers"):
            tightest_bound(rec, alpha_grid=["0.5", "0.9"])


def family_scan(b1, b2, alphas):
    """The optimum as a scan of B1 then B2 in grid order, keeping strict improvements."""
    optimum, best = None, math.inf
    for family, values in (("B1", b1), ("B2", b2)):
        for alpha, value in zip(alphas, values):
            if not math.isnan(value) and value < best:
                best = value
                optimum = BoundOptimum(value=float(value), alpha=float(alpha), family=family)
    return optimum


class TestOptimumTieRule:
    def test_one_point_grid_at_one_half_is_b1(self):
        # the mirror-symmetric diagonal record gives bit-equal families
        curve = tightest_bound(diag_record(0.45, 0.2), [0.5])
        assert curve.b1[0] == curve.b2[0]
        assert curve.optimum == BoundOptimum(float(curve.b1[0]), 0.5, "B1")
        curve = tightest_bound(diag_record(0.45, 0.2))
        assert np.array_equal(curve.b1, curve.b2)
        assert curve.optimum.family == "B1"

    def test_equal_minima_go_to_the_lower_alpha(self):
        alphas = np.array([0.5, 0.6, 0.7, 0.8])
        bounds = np.array([
            [[3.0, 1.0, 2.0, 1.0], [math.nan, 4.0, 2.0, 5.0]],  # two B1 minima
            [[3.0, 2.0, 2.0, 4.0], [math.nan, 3.0, 1.0, 1.0]],  # two B2 minima
            [[3.0, 1.0, 2.0, 4.0], [1.0, 3.0, 1.0, 1.0]],  # B1 ties B2 at a higher alpha
            [[math.nan] * 4, [math.nan] * 4],
        ])
        assert [_optimum(b, alphas) for b in bounds] == [
            BoundOptimum(1.0, 0.6, "B1"),
            BoundOptimum(1.0, 0.7, "B2"),
            BoundOptimum(1.0, 0.6, "B1"),
            None,
        ]

    def test_matches_the_family_scan_on_random_ties(self):
        rng = np.random.default_rng(43)
        alphas = np.linspace(0.5, 0.9, 6)
        bounds = rng.integers(1, 4, size=(500, 2, 6)).astype(float)
        bounds[rng.random(bounds.shape) < 0.3] = math.nan
        bounds[:10] = math.nan
        optima = [_optimum(b, alphas) for b in bounds]
        assert optima == [family_scan(b1, b2, alphas) for b1, b2 in bounds]
        assert None in optima

    def test_array_optimum_agrees_with_optima(self):
        # _optimum on crafted rows: B1 over B2, the first alpha within a family, an
        # all-NaN row, a bound of 0 and bounds that overflow
        alphas = np.array([0.5, 0.6, 0.7, 0.8])
        nan = math.nan
        ties = np.array([
            [[3.0, 1.0, 2.0, 1.0], [nan, 4.0, 2.0, 5.0]],  # two B1 minima
            [[3.0, 2.0, 2.0, 4.0], [nan, 3.0, 1.0, 1.0]],  # two B2 minima
            [[3.0, 1.0, 2.0, 4.0], [1.0, 3.0, 1.0, 1.0]],  # B1 ties B2 at a higher alpha
            [[nan] * 4, [nan] * 4],
        ])
        # fractions of 0 give bounds of 0 in both families, and at dmu = 1.7e308
        # every bound overflows and is absent
        zero = _bounds_from_fractions(np.array([[[0.5, 0.0, 0.9, 0.0], [0.0, 0.7, 1.0, 2.0]]]),
                                      alphas, 1.0)
        overflow = _bounds_from_fractions(np.array([[[0.99] * 4, [0.999] * 4]]), alphas, 1.7e308)
        bounds = np.concatenate([ties, zero, overflow])
        assert np.isnan(overflow).all() and zero[0, 0, 1] == zero[0, 1, 0] == 0.0
        optima = [_optimum(b, alphas) for b in bounds]
        assert optima == [
            BoundOptimum(1.0, 0.6, "B1"),
            BoundOptimum(1.0, 0.7, "B2"),
            BoundOptimum(1.0, 0.6, "B1"),
            None,
            BoundOptimum(0.0, 0.6, "B1"),
            None,
        ]
        assert all(type(o.value) is type(o.alpha) is float for o in optima if o is not None)


def random_qubit_record(rng, evolved: bool) -> ProbingRecord:
    """Four Ginibre states, or two Ginibre probes through a random 1-5 plate stack."""
    if not evolved:
        states = [DensityMatrix(rand_state(rng, 2)) for _ in range(4)]
        return ProbingRecord(*states, delta_mu=float(rng.uniform(0.3, 3.0)))
    sigma = float(rng.uniform(2e11, 1e12))
    delta_mu = sigma * float(rng.uniform(0.3, 3.0))
    plates = tuple(
        WavePlate(
            thickness=float(rng.uniform(0.5e-3, 10e-3)),
            orientation=float(rng.uniform(0.0, math.pi)),
        )
        for _ in range(int(rng.integers(1, 6)))
    )
    stack = WavePlateStack(plates=plates)
    rho1, rho2 = DensityMatrix(rand_state(rng, 2)), DensityMatrix(rand_state(rng, 2))
    return ProbingRecord(
        rho1=rho1,
        rho2=rho2,
        phi1_rho1=apply_channel(stack, GaussianSpectrum(3.7e14, sigma), rho1),
        phi2_rho2=apply_channel(stack, GaussianSpectrum(3.7e14 + delta_mu, sigma), rho2),
        delta_mu=delta_mu,
    )


def per_curve_reference(record: ProbingRecord, alphas: np.ndarray) -> list:
    """(fraction, bound) per family, one eigvalsh fidelity curve at a time."""
    out = []
    for num, den in (
        ((record.phi1_rho1, record.phi2_rho2), (record.rho1, record.rho2)),
        ((record.phi2_rho2, record.phi1_rho1), (record.rho2, record.rho1)),
    ):
        f_num = eigvalsh_alpha_fidelity_curve(num[0].matrix, num[1].matrix, alphas)
        f_den = eigvalsh_alpha_fidelity_curve(den[0].matrix, den[1].matrix, alphas)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(f_den == 0.0, math.inf, f_num / np.where(f_den == 0.0, 1.0, f_den))
            b = np.sqrt(alphas * (alphas - 1.0) * record.delta_mu**2 / (2.0 * np.log(f)))
        b[~((f < 1.0) & np.isfinite(b))] = math.nan
        out.append((f, b))
    return out


def assert_matches_per_curve_reference(curve: BoundCurve, record: ProbingRecord, tag) -> None:
    """Both families within rounding of per_curve_reference, and the same alpha* and family."""
    alphas = curve.alphas
    optima = {}
    for family, got, (f, want) in zip(("B1", "B2"), (curve.b1, curve.b2),
                                      per_curve_reference(record, alphas)):
        assert np.array_equal(np.isnan(got), np.isnan(want)), (tag, family)
        ok = ~np.isnan(want) & (want > 0.0)
        rel = np.abs(got[ok] - want[ok]) / want[ok]
        # b's relative error is that of the fraction over 2|ln f|, so near
        # f = 1 it is held to a 1e-13 relative fraction error instead
        slack = 1e-13 / (2.0 * np.abs(np.log(f[ok])))
        assert np.all(rel <= np.maximum(1e-12, slack)), (tag, family, rel.max())
        if not np.isnan(want).all():
            k = int(np.argmin(np.where(np.isnan(want), math.inf, want)))
            optima[family] = (want[k], alphas[k])
    if not optima:
        assert curve.optimum is None, tag
        return
    family = min(optima, key=lambda fam: optima[fam][0])
    assert curve.optimum.alpha == optima[family][1], tag
    values = [v for v, _ in optima.values()]
    # at alpha = 1/2 both families are one bound, so rounding picks the family
    if len(values) == 1 or abs(values[0] - values[1]) > 1e-12 * min(values):
        assert curve.optimum.family == family, tag


class TestQubitKernel:
    """One kernel call per record against one eigvalsh fidelity curve at a time."""

    def test_records_match_per_curve_reference(self):
        rng = np.random.default_rng(2024)
        alphas = default_alpha_grid()
        for i in range(200):
            record = random_qubit_record(rng, evolved=i % 2 == 1)
            assert_matches_per_curve_reference(tightest_bound(record, alphas), record, i)


    def test_anti_hermitian_defect_of_rho2_is_ignored(self):
        # eigh must see rho2's Hermitian part: its lower triangle alone carries the defect
        rng = np.random.default_rng(2025)
        alphas = default_alpha_grid()
        for _ in range(20):
            rho1, rho2 = rand_state(rng, 2), rand_state(rng, 2)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            defective = rho2 + 1e-10 * (g - g.conj().T) / 2
            hermitian = (defective + defective.conj().T) / 2
            got = alpha_fidelity_curve(rho1, defective, alphas)
            want = alpha_fidelity_curve(rho1, hermitian, alphas)
            assert np.max(np.abs(got - want)) <= 1e-15


def record_stack(records) -> np.ndarray:
    """The four state matrices of each record as one stack (n, 4, d, d)."""
    return np.array([record.states for record in records])


def random_qubit_stack(rng, n: int) -> np.ndarray:
    """n records of four validated Ginibre qubit states of rank 1 or 2: shape (n, 4, 2, 2)."""
    states = [rand_state(rng, 2, rank=int(rng.integers(1, 3))) for _ in range(4 * n)]
    return check_density_matrices(np.array(states)).reshape(n, 4, 2, 2)


def assert_same_curve(got: BoundCurve, fractions, b1, b2, optimum) -> None:
    """Both fractions, both families and the optimum equal, bit for bit (NaN where NaN)."""
    for mine, want in zip((*got.fractions, got.b1, got.b2), (*fractions, b1, b2)):
        assert np.array_equal(mine, want, equal_nan=True)
    assert got.optimum == optimum


class TestBlockedBoundLoop:
    """The full-grid route, one record at a time, against independent kernels."""

    @pytest.mark.parametrize("count", [1, 5, 500, 600, 2049])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9, 100])
    def test_qubit_blocks_match_the_one_piece_kernel(self, monkeypatch, n, count):
        rng = np.random.default_rng([2026, n, count])
        states = random_qubit_stack(rng, n)
        alphas = np.linspace(0.5, 0.9999, count)
        delta_mu = float(rng.uniform(0.3, 3.0))
        calls = record_kernel_halves(monkeypatch)
        curves = [record_curve(record, alphas, delta_mu) for record in states]
        # each record runs both halves of the kernel once, on its four pairs
        assert calls == [("frames", 4), ("sums", 4)] * n
        want = oracle_bound_rows(states, alphas, delta_mu)
        assert len(want) == n
        for curve, (fractions, (b1, b2), optimum) in zip(curves, want):
            assert_same_curve(curve, fractions, b1, b2, optimum)

    def test_qutrit_blocks_match_tightest_bound(self):
        # the sandwich route of dim > 2 against one eigvalsh fidelity curve at a time
        rng = np.random.default_rng(2027)
        alphas = np.linspace(0.5, 0.9999, 600)
        records = [
            ProbingRecord(*(DensityMatrix(rand_state(rng, 3, rank=int(rng.integers(1, 4))))
                            for _ in range(4)), delta_mu=1.7)
            for _ in range(13)
        ]
        curves = [tightest_bound(record, alphas) for record in records]
        assert any(c.optimum is not None for c in curves)
        assert any(c.optimum is None for c in curves)
        for i, (record, curve) in enumerate(zip(records, curves)):
            assert_matches_per_curve_reference(curve, record, i)


def plate_record(rho1, rho2, thickness_mm, orientation, shift_over_sigma) -> ProbingRecord:
    """Two probes through one plate under lines of the reference width, dmu apart."""
    sigma = REFERENCE_SIGMA_HZ
    stack = WavePlateStack(plates=(WavePlate(thickness=1e-3 * thickness_mm,
                                             orientation=orientation),))
    s1 = GaussianSpectrum(3.7e14, sigma)
    s2 = GaussianSpectrum(3.7e14 + shift_over_sigma * sigma, sigma)
    return ProbingRecord(rho1, rho2, apply_channel(stack, s1, rho1), apply_channel(stack, s2, rho2),
                         delta_mu=shift_over_sigma * sigma)


def assert_sound(curve: BoundCurve) -> None:
    """No bound, or one at or above the true (reference) width."""
    assert curve.optimum is None or curve.optimum.value >= REFERENCE_SIGMA_HZ, curve.optimum


class TestFloatSoundness:
    """Bounds that floating point, not the inequality, decides."""

    def test_small_fidelity_of_near_pure_states(self):
        # a sandwich root below EIG_FLOOR still adds up to 1e-6 to a small fidelity at
        # alpha = 0.5: with the roots floored, b_inf was 0.70763 sigma at alpha* = 0.5 (B1)
        def pure(theta, phi):
            x, y = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)
            z = math.cos(theta)
            return DensityMatrix(np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0)

        record = plate_record(pure(2.0032, 0.0), pure(1.13839, 3.14227), 0.00121036, 1.12578,
                              0.10751)
        assert_sound(tightest_bound(record))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="rounding alone puts a fraction below 1: b_inf = 0.067106 sigma "
                              "at dmu / sigma = 1e-7 and 6.7106e-4 sigma at 1e-9")
    @pytest.mark.parametrize("shift_over_sigma", [1e-7, 1e-9])
    def test_tiny_control_shift(self, shift_over_sigma):
        assert_sound(tightest_bound(plate_record(PLUS, PLUS, 5.0, 0.3, shift_over_sigma)))


def test_orthogonal_probes_along_a_plates_axes_stay_uninformative():
    # a plate leaves probes along its fast and slow axes as they are, so both fidelities
    # are 0 and the record bounds nothing; rounding leaves each probe a population of
    # about 1e-17 along the other, which read as a fidelity gave b_inf = 0 or 0.012 sigma
    def linear(theta):
        v = np.array([math.cos(theta), math.sin(theta)])
        return DensityMatrix(np.outer(v, v).astype(complex))

    for orientation in (0.3, 1.0, 2.2):
        fast, slow = linear(orientation), linear(orientation + math.pi / 2)
        for thickness_mm in (0.5, 3.0):
            record = plate_record(fast, slow, thickness_mm, orientation, 0.5)
            assert tightest_bound(record).no_information, (orientation, thickness_mm)


def test_fidelity_below_half_keeps_a_root_below_the_floor():
    # the paper's prepared probes, whose sandwich's small root lies below EIG_FLOOR from
    # alpha = 0.2 down (6.69e-13 there, its alpha-th power 0.0037); the references are mpmath
    # at 400 and at 800 digits, which agree, with no eigenvalue floor. As alpha -> 0 the roots'
    # powers tend to rho2's eigenvalues, so F tends to 1; with the roots floored, F was
    # 0.994327 at 0.2, 0.995924 at 0.1, 0.996724 at 0.05, 0.997364 at 0.01 and 0 at 1e-300
    for alpha, want in ((0.2, 0.998000917663741), (0.1, 0.99894032073658),
                        (0.05, 0.9994565397598163), (0.01, 0.9998892520591909), (1e-300, 1.0)):
        with pytest.warns(UserWarning, match="below 0.5"):
            got = alpha_fidelity(REFERENCE_RHO_1, REFERENCE_RHO_2, alpha)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def bloch_pure(theta: float, phi: float) -> DensityMatrix:
    """The pure qubit state at Bloch polar angle theta and azimuth phi."""
    x, y, z = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)
    return DensityMatrix(np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0)


def stack_record(rho1, rho2, plates, shift_over_sigma) -> ProbingRecord:
    """Two probes through plates (thickness mm, orientation) under lines of the reference width."""
    sigma = REFERENCE_SIGMA_HZ
    stack = WavePlateStack(plates=tuple(WavePlate(thickness=1e-3 * mm, orientation=theta)
                                        for mm, theta in plates))
    s1 = GaussianSpectrum(3.7e14, sigma)
    s2 = GaussianSpectrum(3.7e14 + shift_over_sigma * sigma, sigma)
    return ProbingRecord(rho1, rho2, apply_channel(stack, s1, rho1), apply_channel(stack, s2, rho2),
                         delta_mu=shift_over_sigma * sigma)


def search_records(rng) -> list:
    """Records for the search against the full grid, one group per hazard.

    Criterion 5's random scenarios and draws from its adversarial search box; the
    float-defect records of TestFloatSoundness; exact B1 = B2 ties of plus probes
    and of mirror-symmetric diagonal records; bounds of 0 at every point; records
    uninformative at every point.
    """
    records = []
    for _ in range(40):  # criterion 5's random scenarios
        plates = [(rng.uniform(0.5, 10.0), rng.uniform(0.0, math.pi))
                  for _ in range(int(rng.integers(1, 6)))]
        probes = [DensityMatrix(rand_state(rng, 2)) for _ in range(2)]
        records.append(stack_record(*probes, plates, rng.uniform(0.3, 3.0)))
    for _ in range(60):  # criterion 5's adversarial box: pure probes, 1 to 3 plates
        plates = [(math.exp(rng.uniform(math.log(0.1), math.log(20.0))), rng.uniform(0.0, math.pi))
                  for _ in range(int(rng.integers(1, 4)))]
        probes = [bloch_pure(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
                  for _ in range(2)]
        records.append(stack_record(*probes, plates, math.exp(rng.uniform(math.log(0.05), 0.0))))
    dropped_root = bloch_pure(2.0032, 0.0), bloch_pure(1.13839, 3.14227)
    records += [stack_record(*dropped_root, [(mm, 1.12578)], 0.10751) for mm in (0.00121036, 0.063)]
    records += [plate_record(PLUS, PLUS, 5.0, 0.3, shift) for shift in (1e-9, 1e-7, 1e-5)]
    records += [plate_record(PLUS, PLUS, mm, theta, 1.0) for mm, theta in
                [(5.0, 0.3), (2.0, 0.7), (5.0, 0.0), (22.0, 0.0)]]
    records += [diag_record(0.3, 0.35), diag_record(0.2, 0.6, delta_mu=3.0)]
    records += [ProbingRecord(PLUS, PLUS, KET0, KET1, delta_mu=1.0), no_information_record()]
    return records


def assert_search_matches_full_grid(states, alphas, delta_mu) -> None:
    """The search on the records' frames against each record's full-grid curve from its states."""
    optima = [record_curve(record, alphas, delta_mu).optimum for record in states]
    np.testing.assert_array_equal(_search_optima(_record_frames(states), alphas, delta_mu),
                                  [math.inf if b is None else b.value for b in optima])


class TestCertifiedSearch:
    """_search_optima against the full-grid route: each record's least bound, bitwise."""

    @pytest.mark.parametrize("count", [1, 2, 5, 17, 500, 1000, 2100])
    def test_hazard_records_on_every_grid_size(self, count):
        records = search_records(np.random.default_rng(2041))
        alphas = np.linspace(0.5, 0.9999, count)
        for record in records:
            assert_search_matches_full_grid(record_stack([record]), alphas, record.delta_mu)
        if count == 500:
            curves = [tightest_bound(r, alphas) for r in records]
            assert sum(c.optimum is None for c in curves) >= 3
            assert any(c.optimum is not None and c.optimum.value == 0.0 for c in curves)
            assert any(c.optimum is not None and c.optimum.family == "B1"
                       and np.nanmin(c.b2) == c.optimum.value for c in curves)

    def test_near_pure_records(self):
        rng = np.random.default_rng(2042)
        assert_search_matches_full_grid(near_pure_stack(rng, 2000), default_alpha_grid(), 1.0)

    def test_tiny_shifts_where_rounding_decides(self):
        # fractions within rounding of 1, as test_tiny_control_shift's, at shifts down to
        # 1e-10 sigma: without its allowance the search misses about 1 in 14 of these optima
        rng = np.random.default_rng(2043)
        records = []
        for _ in range(120):
            rho1 = DensityMatrix(rand_state(rng, 2))
            rho2 = rho1 if rng.random() < 0.5 else DensityMatrix(rand_state(rng, 2))
            plates = [(rng.uniform(0.5, 10.0), rng.uniform(0.0, math.pi))
                      for _ in range(int(rng.integers(1, 3)))]
            records.append(stack_record(rho1, rho2, plates, 10.0 ** rng.uniform(-10.0, -4.0)))
        for count in (60, 500):
            alphas = np.linspace(0.5, 0.9999, count)
            for record in records:
                assert_search_matches_full_grid(record_stack([record]), alphas, record.delta_mu)

    def test_ties_within_a_family_and_unsorted_grids(self, monkeypatch):
        # a grid that repeats each alpha three times ties every bound with its copies,
        # where the first copy wins; the search sorts an unsorted grid, so it certifies
        # the gaps of the sorted copy and makes that copy's kernel calls
        rng = np.random.default_rng(2044)
        records = [reference_record(), plate_record(PLUS, PLUS, 5.0, 0.3, 1.0),
                   diag_record(0.3, 0.35), no_information_record()]
        states = record_stack(records)
        repeated = np.repeat(np.linspace(0.5, 0.9999, 170), 3)
        shuffled = rng.permutation(default_alpha_grid())
        for alphas in (repeated, shuffled, shuffled[:17]):
            for record in records:
                assert_search_matches_full_grid(record_stack([record]), alphas, record.delta_mu)
            assert_search_matches_full_grid(states, alphas, 1.3)
        # the full-grid route decides alpha*: the first copy of the least bound's alpha,
        # whose grid index _optimum reports in place of alpha on a grid of indices
        curve = record_curve(states[0], repeated, 1.0)
        bounds = np.stack((curve.b1, curve.b2))
        assert _optimum(bounds, np.arange(repeated.size, dtype=float)).alpha % 3 == 0
        calls = record_kernel_halves(monkeypatch)
        for alphas in (shuffled, shuffled[:17]):
            made = []
            for grid in (alphas, np.sort(alphas)):
                calls.clear()
                _search_optima(_record_frames(states), grid, 1.3)
                made.append(list(calls))
            assert made[0] == made[1]

    def test_one_clamp_warning_per_pass(self):
        # a raw F of 1.5^alpha: the search warns once over a pass of three coarse blocks
        # and their fills, with the largest excess it evaluated (at alpha = 0.9999);
        # the full-grid route warns once per record
        states = np.array([[1.5 * KET0.matrix, KET0.matrix, PLUS.matrix, MIXED.matrix]] * 130)
        alphas = default_alpha_grid()
        with pytest.warns(UserWarning, match="clamping") as record:
            value = _search_optima(_record_frames(states), alphas, 1.0)
        assert len(record) == 1
        assert f"{1.5 ** 0.9999 - 1.0:.3e}" in str(record[0].message)
        with pytest.warns(UserWarning, match="clamping") as record:
            want = [record_curve(s, alphas, 1.0) for s in states]
        assert len(record) == 130
        assert value.tolist() == [
            math.inf if c.optimum is None else c.optimum.value for c in want]

    def test_allowance_bounds_the_kernel_error(self):
        # each computed ln F lies within a thirtieth of SEARCH_ALLOWANCE of the 50-digit
        # value, with the same floor, on near-pure, reconstructed and random pairs; a pair
        # whose rho2 eigenvalue, det(rho1) or population of rho1 in rho2's eigenbasis lies
        # within 1e-6 of EIG_FLOOR (in log), which rounding may put on either side of it,
        # is left out
        rng = np.random.default_rng(2045)
        pairs = [(rand_state(rng, 2), rand_state(rng, 2)) for _ in range(40)]
        near = near_pure_stack(rng, 40)
        pairs += [(near[k, 0], near[k, 2]) for k in range(40)]
        settings = TomographySettings(integration_time=10.0, count_rate=200.0, seed=2046)
        for k, rho in enumerate(reference_record().states):  # repaired pure estimates among them
            pairs += [(reconstruct(simulate_counts(rho, settings, rng_stream(2046, (k, i)))).matrix,
                       rho.matrix) for i in range(30)]
        worst, floor = 0.0, math.log(EIG_FLOOR)
        for rho1, rho2 in pairs:
            alpha = float(rng.uniform(0.5, 0.9999))
            det1 = rho1[0, 0].real * rho1[1, 1].real - abs(rho1[0, 1]) ** 2
            w2, v2 = np.linalg.eigh(rho2)
            populations = np.diag(v2.conj().T @ rho1 @ v2).real
            with np.errstate(divide="ignore", invalid="ignore"):
                inputs = np.log([w2[0], det1, *populations])
            if np.any(np.abs(inputs - floor) < 1e-6):
                continue
            frames = fidelity._qubit_frames(rho1[None], rho2[None])
            got = fidelity._qubit_fidelity_sums(frames, np.array([(1.0 - alpha) / alpha]),
                                                np.array([alpha]))[0, 0]
            want = mp_qubit_alpha_fidelity(rho1, rho2, alpha)
            if want > 0.0:
                worst = max(worst, abs(math.log(min(got, 1.0)) - math.log(want)))
        assert worst < SEARCH_ALLOWANCE / 30.0


class TestDualBounds:
    def test_ratio_is_shift_over_best_bound(self):
        rec = reference_record()
        for a in (0.5, 0.7, 0.9999):
            want = rec.delta_mu / min(bound_b1(rec, a), bound_b2(rec, a))
            assert ratio_lower_bound(rec, a) == pytest.approx(want, rel=1e-12)

    def test_ratio_matches_the_family_minimum_route(self):
        # the unit-shift bound through tightest_bound's optimum, against the fmin
        # of both families' unit-shift bounds, bit for bit
        rng = np.random.default_rng(2031)
        records = [reference_record(), no_information_record()]
        for _ in range(300):
            states = [DensityMatrix(rand_state(rng, 2, rank=int(rng.integers(1, 3))))
                      for _ in range(4)]
            records.append(ProbingRecord(*states, delta_mu=float(rng.uniform(0.1, 10.0))))
        for rec in records:
            for a in (0.5, float(rng.uniform(0.5, 0.9999)), 0.9999):
                grid = np.array([a])
                unit = record_curve(np.array(rec.states), grid, 1.0)
                best = float(np.fmin(unit.b1, unit.b2)[0])
                want = None if math.isnan(best) else math.inf if best == 0.0 else 1.0 / best
                assert ratio_lower_bound(rec, a) == want

    def test_ratio_none_when_uninformative(self):
        assert ratio_lower_bound(no_information_record(), 0.7) is None
        assert lower_bound_delta_mu(no_information_record(), 1.0, 0.7) is None

    def test_zero_fraction_gives_infinite_ratio(self):
        # the inverse of the width bound's limit 0: any shift is compatible
        rec = ProbingRecord(rho1=PLUS, rho2=PLUS, phi1_rho1=KET0, phi2_rho2=KET1, delta_mu=1.0)
        assert bound_b1(rec, 0.7) == 0.0
        assert ratio_lower_bound(rec, 0.7) == math.inf
        assert lower_bound_delta_mu(rec, 1.0, 0.7) == math.inf

    def test_classical_gaussian_embedding_recovers_shift(self):
        # evolved states carrying the two discretized lines verbatim make the
        # inequality tight, so the known-width dual returns the true shift
        sigma, dmu = 1.0, 1.5
        s1 = GaussianSpectrum(mu=10.0, sigma=sigma)
        s2 = GaussianSpectrum(mu=10.0 + dmu, sigma=sigma)
        g1, g2 = discretize_pair(s1, s2, span_sigmas=6.0, n=201)
        dim = g1.points.size
        uniform = DensityMatrix(np.eye(dim) / dim)
        rec = ProbingRecord(
            rho1=uniform,
            rho2=uniform,
            phi1_rho1=DensityMatrix(np.diag(g1.weights)),
            phi2_rho2=DensityMatrix(np.diag(g2.weights)),
            delta_mu=dmu,
        )
        # accuracy is capped near alpha = 1/2 by the spectral floor: tail
        # eigenvalues under 1e-12 are zeroed yet would contribute up to
        # sqrt(1e-12) each to the fidelity of a high-dimensional embedding
        for a in (0.5, 0.8):
            got = lower_bound_delta_mu(rec, sigma, a)
            assert got == pytest.approx(dmu, rel=1e-4)

    def test_reference_shift_bound_is_consistent(self):
        rec = reference_record()
        got = lower_bound_delta_mu(rec, REFERENCE_SIGMA_HZ, 0.5)
        assert got is not None
        assert 0.0 < got <= rec.delta_mu

    def test_known_width_validated(self):
        with pytest.raises(ValueError, match="width"):
            lower_bound_delta_mu(reference_record(), 0.0, 0.5)
        with pytest.raises(ValueError, match="width"):
            lower_bound_delta_mu(reference_record(), True, 0.5)


class TestSummaryAndCsv:
    def test_summary_with_reference(self):
        curve = tightest_bound(reference_record())
        s = bound_summary(curve, sigma_reference=REFERENCE_SIGMA_HZ)
        assert s["no_information"] is False
        assert s["b_inf_hz"] == curve.optimum.value
        assert s["alpha_star"] == curve.optimum.alpha
        assert s["family"] == "B2"
        assert s["b_inf_over_sigma"] == pytest.approx(
            curve.optimum.value / REFERENCE_SIGMA_HZ
        )

    def test_summary_no_information(self):
        s = bound_summary(tightest_bound(no_information_record()), sigma_reference=1.0)
        assert s["no_information"] is True
        assert s["b_inf_hz"] is None
        assert s["alpha_star"] is None
        assert s["family"] is None
        assert "b_inf_over_sigma" not in s

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_summary_rejects_a_reference_width_that_is_not_positive_and_finite(self, sigma):
        # with or without an optimum: 0 would divide by zero, -1 and inf give a wrong ratio
        for record in (reference_record(), no_information_record()):
            with pytest.raises(ValueError, match="reference width"):
                bound_summary(tightest_bound(record), sigma_reference=sigma)

    def test_csv_round_trip(self, tmp_path):
        curve = tightest_bound(reference_record(), alpha_grid=np.linspace(0.5, 0.9999, 40))
        path = tmp_path / "curve.csv"
        write_bound_curve_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        for i, row in enumerate(rows):
            assert float(row["alpha"]) == pytest.approx(curve.alphas[i], rel=1e-10)
            assert float(row["b1_hz"]) == pytest.approx(curve.b1[i], rel=1e-10)
            assert float(row["b2_hz"]) == pytest.approx(curve.b2[i], rel=1e-10)
            assert row["valid1"] == "true" and row["valid2"] == "true"

    def test_write_csv_cell_rule(self, tmp_path, monkeypatch):
        columns = [np.array([0.25]), np.array([math.nan]), [""], np.array([True]),
                   np.array([False]), ["B2"]]
        stream = io.StringIO(newline="")
        write_csv(stream, ["a", "b", "c", "d", "e", "f"], columns)
        want = "a,b,c,d,e,f\r\n2.500000000000e-01,,,true,false,B2\r\n"
        assert stream.getvalue() == want
        write_csv(tmp_path / "out.csv", ["a", "b", "c", "d", "e", "f"], columns)
        assert (tmp_path / "out.csv").read_bytes() == want.encode()
        # a write of at most 7 bytes a call leaves the same bytes, over a longer file too
        short_os_writes(monkeypatch)
        write_csv(tmp_path / "out.csv", ["a", "b", "c", "d", "e", "f"], columns)
        assert (tmp_path / "out.csv").read_bytes() == want.encode()
        curve = tightest_bound(reference_record())
        write_bound_curve_csv(curve, tmp_path / "curve.csv")
        want = io.StringIO(newline="")
        oracle_write_csv(want, ["alpha", "b1_hz", "b2_hz", "valid1", "valid2"],
                         (curve.alphas, curve.b1, curve.b2, curve.valid1, curve.valid2))
        assert (tmp_path / "curve.csv").read_bytes() == want.getvalue().encode()

    def test_write_csv_matches_the_row_writer_oracle(self):
        # seeded tables of float, bool and string columns, written by both writers
        rng = np.random.default_rng(20261018)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
        words = ["", "B1", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", '"', ",", "é"]
        for _ in range(60):
            n = int(rng.integers(0, 40))
            columns = []
            for kind in rng.integers(3, size=int(rng.integers(2, 7))):
                if kind == 0:
                    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                    special = rng.random(n) < 0.3
                    values[special] = rng.choice(specials, int(special.sum()))
                    columns.append(values)
                elif kind == 1:
                    columns.append(rng.random(n) < 0.5)
                else:
                    columns.append([words[i] for i in rng.integers(len(words), size=n)])
            header = [words[i] for i in rng.integers(len(words), size=len(columns))]
            got, want = io.StringIO(newline=""), io.StringIO(newline="")
            write_csv(got, header, columns)
            oracle_write_csv(want, header, columns)
            assert got.getvalue() == want.getvalue()

    @staticmethod
    def assert_percent_writer_bytes(header, columns):
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        write_csv(got, header, columns)
        oracle_percent_write_csv(want, header, columns)
        assert got.getvalue() == want.getvalue()

    def test_float_cells_match_percent_formatting(self):
        # seeded: every cell against '%.12e' % v, in one column of each dtype
        rng = np.random.default_rng(20261019)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        round_ups = np.array([float(f"9.9999999999995e{k}") for k in range(-310, 308)])
        edges = np.concatenate((powers, round_ups))
        values = np.concatenate((
            rng.choice([-1.0, 1.0], 60_000) * 10.0 ** rng.uniform(-320.0, 308.25, 60_000),
            (2.0 * rng.integers(0, 2**45, 20_000) + 1.0) * 2.0**-20,  # odd multiples of 2^-20
            rng.integers(10**12, 10**15, 10_000) * 10.0 + 5.0,  # ties: ...5 at 14+ digits
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf), -edges,
            rng.random(5_000) * 2.2250738585072014e-308,  # subnormals
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308,
             1e-310, 9.9999999999995e5, 9.99999999999949e99, 1e308],
        ))
        assert values.size >= 10**5
        singles = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-45.0, 38.0, 20_000)
        singles = np.append(singles, [math.nan, -math.inf, math.inf, -0.0, 1e-45,
                                      9.9999999999995e5]).astype(np.float32)
        for column in (values, singles, rng.integers(-2**63, 2**63, 5_000),
                       np.arange(-1000, 1000)):
            self.assert_percent_writer_bytes(["x"], [column])

    def test_float_cell_word_tables(self):
        # every 4-digit word, lead word and exponent tail word against '%'
        assert [w.tobytes() for w in _WORDS[:10**4]] == [b"%04d" % i for i in range(10**4)]
        for d in range(1, 10):
            assert _WORDS[_LEAD_ROW + d].tobytes() == b"\xff\xff%d." % d
            assert _WORDS[_LEAD_ROW - d].tobytes() == b"\xff-%d." % d
        tails = [(b"e%+03d" % e).ljust(8, b"\xff") for e in _EXPONENTS.tolist()]
        assert [w.tobytes() for w in _TAIL_WORDS] == tails

    @pytest.mark.parametrize("columns", [
        [np.zeros(0), np.zeros(0, dtype=bool), []],  # zero rows
        [np.array([1.5, math.nan, -0.0])],  # one column: a NaN row is an empty line
        [["a\x00b", "x,y", 'say "hi"', "cr\rhere", "two\nlines", "é ∞ 😀", ""]],
        [["\x00", "\xff", ",\x00"], np.array([math.nan, 1e-300, 5e-324]),
         np.array([True, False, True])],
        [],  # no column: the header's empty row alone
    ])
    def test_write_csv_matches_the_percent_writer(self, columns):
        self.assert_percent_writer_bytes([f"h{k},\x00" for k in range(len(columns))], columns)

    def test_key_column_cells_are_a_read_only_memo(self):
        grid = default_alpha_grid()
        cells = _key_cells(grid.dtype, grid.tobytes())
        assert not cells.flags.writeable
        assert _key_cells(grid.dtype, grid.tobytes()) is cells
        # a changed grid, or the same bytes read as another dtype, gets fresh cells
        moved = _key_cells(grid.dtype, (grid * 0.5).tobytes())
        swapped = _key_cells(np.dtype(">f8"), grid.tobytes())
        assert moved is not cells and swapped is not cells and moved is not swapped
        assert not np.array_equal(moved, cells) and not np.array_equal(swapped, cells)
        for got, column in ((cells, grid), (moved, grid * 0.5)):
            assert got.tobytes() == _float_cells(column).tobytes()

    def test_csv_marks_uninformative_rows_empty(self, tmp_path):
        curve = tightest_bound(no_information_record(), alpha_grid=[0.5, 0.7])
        path = tmp_path / "curve.csv"
        write_bound_curve_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["b1_hz"] == "" and row["b2_hz"] == ""
            assert row["valid1"] == "false" and row["valid2"] == "false"
