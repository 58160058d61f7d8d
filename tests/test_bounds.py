import csv
import io
import math

import numpy as np
import pytest

from alphaprobe.bounds import (
    BoundCurve,
    BoundOptimum,
    DegenerateControlError,
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
    _optima,
)
from alphaprobe.channel import WavePlate, WavePlateStack, apply_channel
from alphaprobe.fidelity import alpha_fidelity_curve, default_alpha_grid
from alphaprobe.linalg import DensityMatrix
from alphaprobe.reference import REFERENCE_SIGMA_HZ, reference_record
from alphaprobe.spectra import GaussianSpectrum, discretize_pair
from support import eigvalsh_alpha_fidelity_curve, oracle_alpha_fidelity, rand_state

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
        rec = ProbingRecord(
            rho1=KET0, rho2=MIXED, phi1_rho1=KET0, phi2_rho2=MIXED, delta_mu=0.0
        )
        with pytest.raises(DegenerateControlError):
            bound_b1(rec, 0.7)
        with pytest.raises(DegenerateControlError):
            bound_b2(rec, 0.7)
        with pytest.raises(DegenerateControlError):
            tightest_bound(rec)

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
        assert _optima(bounds, alphas) == [
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
        optima = _optima(bounds, alphas)
        assert optima == [family_scan(b1, b2, alphas) for b1, b2 in bounds]
        assert None in optima


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


class TestQubitKernel:
    """One kernel call per record against one eigvalsh fidelity curve at a time."""

    def test_records_match_per_curve_reference(self):
        rng = np.random.default_rng(2024)
        alphas = default_alpha_grid()
        for i in range(200):
            record = random_qubit_record(rng, evolved=i % 2 == 1)
            curve = tightest_bound(record, alphas)
            reference = per_curve_reference(record, alphas)
            optima = {}
            for family, got, (f, want) in zip(("B1", "B2"), (curve.b1, curve.b2), reference):
                assert np.array_equal(np.isnan(got), np.isnan(want)), (i, family)
                ok = ~np.isnan(want) & (want > 0.0)
                rel = np.abs(got[ok] - want[ok]) / want[ok]
                # b's relative error is that of the fraction over 2|ln f|, so near
                # f = 1 it is held to a 1e-13 relative fraction error instead
                slack = 1e-13 / (2.0 * np.abs(np.log(f[ok])))
                assert np.all(rel <= np.maximum(1e-12, slack)), (i, family, rel.max())
                if not np.isnan(want).all():
                    k = int(np.argmin(np.where(np.isnan(want), math.inf, want)))
                    optima[family] = (want[k], alphas[k])
            if not optima:
                assert curve.optimum is None
                continue
            family = min(optima, key=lambda fam: optima[fam][0])
            assert curve.optimum.alpha == optima[family][1], i
            values = [v for v, _ in optima.values()]
            # at alpha = 1/2 both families are one bound, so rounding picks the family
            if len(values) == 1 or abs(values[0] - values[1]) > 1e-12 * min(values):
                assert curve.optimum.family == family, i


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


class TestDualBounds:
    def test_ratio_is_shift_over_best_bound(self):
        rec = reference_record()
        for a in (0.5, 0.7, 0.9999):
            want = rec.delta_mu / min(bound_b1(rec, a), bound_b2(rec, a))
            assert ratio_lower_bound(rec, a) == pytest.approx(want, rel=1e-12)

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
        dim = g1.size
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

    def test_write_csv_cell_rule(self, tmp_path):
        rows = [[0.25, math.nan, None, True, False, "B2"]]
        stream = io.StringIO(newline="")
        write_csv(stream, ["a", "b", "c", "d", "e", "f"], rows)
        want = "a,b,c,d,e,f\r\n2.500000000000e-01,,,true,false,B2\r\n"
        assert stream.getvalue() == want
        write_csv(tmp_path / "out.csv", ["a", "b", "c", "d", "e", "f"], rows)
        assert (tmp_path / "out.csv").read_bytes() == want.encode()

    def test_csv_marks_uninformative_rows_empty(self, tmp_path):
        curve = tightest_bound(no_information_record(), alpha_grid=[0.5, 0.7])
        path = tmp_path / "curve.csv"
        write_bound_curve_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["b1_hz"] == "" and row["b2_hz"] == ""
            assert row["valid1"] == "false" and row["valid2"] == "false"
