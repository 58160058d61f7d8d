"""Shared generators and independent oracles for the test suite.

Oracles deliberately take different numerical routes than the package:
scipy's Schur-based fractional matrix power and 'evr'-driver eigensolver
cross-check the eigh-based fidelity, the batched `eigvalsh` route and a
50-digit mpmath evaluation check the closed-form qubit sandwich eigenvalues,
the partial trace is redone with explicit index loops, and the
general-dimension eigendecomposition repair checks tomography's closed
Bloch-form repair. The outcome-ket route of the Pauli triple (Born
probabilities <k|rho|k> and the inversion (I + sum_k r_k P_k) / 2 over the
observables P = P_plus - P_minus built from the kets) is the oracle for
tomography's closed Bloch forms. The frequency-quadrature references for the exact channel
and the closed-form line fidelity live here too: a single-line grid, the
discretized classical fidelity, and a brute-force joint-unitary channel.
Noiseless tomography counts, the expected values rounded, live here as well,
and so does the linear-domain `pow` qubit kernel, the reference for the
log-domain kernel that replaced it, split like it into an alpha-free and a
per-alpha half, and so are the `eigh` frames that the closed-form alpha-free half
replaced. The one-piece log-domain kernel, closed-form frames and
per-alpha steps in one call, is the bit-exact reference for that split, and
bound rows built from it are the reference for the full-grid bound route,
and that route for the certified coarse-then-fill search of each record's
least bound. The row CSV writer, `csv.writer` over a per-cell rule, is the
reference for the columnar `scenario.csv_bytes`, and so is
the columnar writer that formats each float by Python's '%.12e' % v, the
reference for the byte-table writer's vectorised float cells; each oracle returns the
file's bytes, as `csv_bytes` does. The per-thickness sweep
(two channel calls, `tightest_bound` and `bound_summary` for each thickness in turn) is
the reference for `sweep_thickness`, which evolves every thickness before it bounds any.
"""
from __future__ import annotations

import csv
import io
import math
import os

import mpmath
import numpy as np
import scipy.linalg as sla

from alphaprobe import fidelity
from alphaprobe.bounds import (
    _PAIR_FIRST,
    _PAIR_SECOND,
    ProbingRecord,
    _bound_curve,
    _bounds_from_fractions,
    _optimum,
    bound_summary,
    tightest_bound,
)
from alphaprobe.channel import (
    WavePlateStack,
    _delay_expansion,
    apply_channel,
    jones_at_frequencies,
)
from alphaprobe.fidelity import _floor_spectrum, check_alpha
from alphaprobe.linalg import EIG_FLOOR, DensityMatrix, check_density_matrices, check_qubit
from alphaprobe.scenario import _truth_sigma
from alphaprobe.spectra import GaussianSpectrum, discretize_pair, kappa
from alphaprobe.tomography import CountRecord, TomographySettings, born_probabilities

ORACLE_MAX_ENV = 256


def rand_state(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a Ginibre factor of the given rank."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_kraus(rng: np.random.Generator, dim: int, rank: int) -> list[np.ndarray]:
    """Random CPTP channel as Kraus blocks of a Haar-random isometry."""
    g = rng.standard_normal((rank * dim, dim)) + 1j * rng.standard_normal((rank * dim, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim : (i + 1) * dim, :] for i in range(rank)]


def apply_kraus(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    out = sum(k @ rho @ k.conj().T for k in kraus)
    return (out + out.conj().T) / 2


def oracle_alpha_fidelity(rho1: np.ndarray, rho2: np.ndarray, alpha: float) -> float:
    """Independent route: Schur-Pade fractional power + scipy eigensolver."""
    p = (1.0 - alpha) / (2.0 * alpha)
    half = sla.fractional_matrix_power(rho2, p)
    sandwich = half @ rho1 @ half
    sandwich = (sandwich + sandwich.conj().T) / 2
    w = sla.eigh(sandwich, eigvals_only=True, driver="evr")
    w = np.clip(w.real, 0.0, None)
    return float(np.sum(w**alpha))


def eigvalsh_alpha_fidelity_curve(rho1: np.ndarray, rho2: np.ndarray, alphas) -> np.ndarray:
    """The general-dimension route: the same sandwich, eigenvalues by `eigvalsh`.

    Mirrors the package's floors (spectral values below EIG_FLOOR are zeros)
    and its clip into [0, 1], without the clamp warning.
    """
    grid = np.asarray(alphas, dtype=float)
    a2 = np.asarray(rho2, dtype=complex)
    w2, v2 = np.linalg.eigh((a2 + a2.conj().T) / 2)
    w2 = np.where(w2 < EIG_FLOOR, 0.0, w2)
    powers = (1.0 - grid) / (2.0 * grid)
    wp = np.where(w2[None, :] == 0.0, 0.0, w2[None, :] ** powers[:, None])
    half = np.einsum("ab,mb,cb->mac", v2, wp, v2.conj())
    sandwich = half @ np.asarray(rho1, dtype=complex) @ half
    sandwich = (sandwich + np.conj(np.swapaxes(sandwich, 1, 2))) / 2
    ws = np.linalg.eigvalsh(sandwich)
    ws = np.where(ws < EIG_FLOOR, 0.0, ws)
    return np.clip(np.sum(ws ** grid[:, None], axis=1), 0.0, 1.0)


def pow_qubit_frames(rho1s: np.ndarray, rho2s: np.ndarray) -> np.ndarray:
    """The alpha-free half of the linear-domain qubit kernel for stacks (n, 2, 2): shape (6, n).

    The rows are rho2's eigenvalues l1 <= l2, det(rho1), |rho1'_01|^2, rho1'_00 and rho1'_11,
    with rho1' = V^dagger rho1 V in rho2's eigenbasis V; the eigenvalues, det(rho1) and the
    populations rho1'_00, rho1'_11 below EIG_FLOOR are taken as 0, and |rho1'_01|^2 beside
    a zero population too.
    """
    w2, v2 = np.linalg.eigh(rho2s)
    w2 = _floor_spectrum(w2)
    r = np.conj(np.swapaxes(v2, 1, 2)) @ rho1s @ v2
    det1 = rho1s[:, 0, 0].real * rho1s[:, 1, 1].real - np.abs(rho1s[:, 0, 1]) ** 2
    r00, r11 = _floor_spectrum(r[:, 0, 0].real), _floor_spectrum(r[:, 1, 1].real)
    b2 = np.abs(r[:, 0, 1]) ** 2 * ((r00 > 0.0) & (r11 > 0.0))
    return np.stack((w2[:, 0], w2[:, 1], _floor_spectrum(det1), b2, r00, r11))


def pow_qubit_fidelity_sums(frames: np.ndarray, q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The per-alpha half of the linear-domain qubit kernel: unclipped F_alpha, shape (m, k).

    It takes `pow_qubit_frames` rows (6, m) and q = (1 - alpha) / alpha, one row (k,) or a
    row per pair (m, k), in the call pattern of `fidelity._qubit_fidelity_sums`, and forms
    the same sandwich roots with four `pow`s and a divide per point: a = l1^q rho1'_00,
    c = l2^q rho1'_11 and |b|^2 = (l1 l2)^q |rho1'_01|^2, the large root
    (a + c + sqrt((a - c)^2 + 4|b|^2)) / 2 and the small one (l1 l2)^q det(rho1) over it,
    neither root floored.
    """
    l1, l2, det1, b2, r00, r11 = frames[:, :, None]
    p1, p2 = l1 ** q, l2 ** q  # 0^q = 0 as q > 0
    a, c, both = p1 * r00, p2 * r11, p1 * p2
    hi = 0.5 * (a + c + np.sqrt((a - c) ** 2 + 4.0 * both * b2))
    lo = np.divide(both * det1, hi, out=np.zeros_like(hi), where=hi > 0.0)
    return lo ** grid + hi ** grid


def eigh_qubit_frames(rho1s: np.ndarray, rho2s: np.ndarray) -> np.ndarray:
    """The alpha-free half of the log-domain qubit kernel by `eigh`, rows (6, n) as its closed form.

    In rho2's eigenbasis V, rho1' = V^dagger rho1 V: log l1 - log l2, log l2, log det(rho1),
    |r'_01|^2, r'_00 / 2 and r'_11 / 2. Eigenvalues l1 <= l2, det(rho1) and the populations
    r'_00, r'_11 below EIG_FLOOR are 0, and so is |r'_01|^2 beside a zero population. This is
    the frames routine that `fidelity._qubit_frames` replaced: a batched eigendecomposition of
    the rho2s and one rotation of each rho1 into its rho2's eigenbasis.
    """
    w2, v2 = np.linalg.eigh(rho2s)
    r = np.conj(np.swapaxes(v2, 1, 2)) @ rho1s @ v2
    det1 = rho1s[:, 0, 0].real * rho1s[:, 1, 1].real - np.abs(rho1s[:, 0, 1]) ** 2
    inputs = _floor_spectrum(np.column_stack((w2, det1, r[:, 0, 0].real, r[:, 1, 1].real)))
    b2 = np.where(inputs[:, 3:].all(axis=1), np.abs(r[:, 0, 1]) ** 2, 0.0)
    with np.errstate(divide="ignore"):
        logs = np.log(inputs[:, :3])
    return np.stack((logs[:, 0] - logs[:, 1], logs[:, 1], logs[:, 2], b2,
                     0.5 * inputs[:, 3], 0.5 * inputs[:, 4]))


def oracle_qubit_fidelity_sums(rho1s: np.ndarray, rho2s: np.ndarray,
                               grid: np.ndarray) -> np.ndarray:
    """The one-piece log-domain qubit kernel: unclipped F_alpha of stacks (n, 2, 2), shape (n, A).

    The closed-form eigensystem of each rho2, rho1's entries in it and every per-alpha
    step in one call, in the operation order that `fidelity._qubit_frames` and
    `fidelity._qubit_fidelity_sums` split between them: the bit-exact reference
    for the split kernel. A bitwise-equal pair is a pure state against itself.
    """
    a, c, b = rho2s[:, 0, 0].real, rho2s[:, 1, 1].real, rho2s[:, 0, 1]
    p, s, e = rho1s[:, 0, 0].real, rho1s[:, 1, 1].real, rho1s[:, 0, 1]
    d = 0.5 * (a - c)
    scale = np.ldexp(1.0, -np.maximum(np.frexp(np.maximum(np.abs(d), np.abs(b)))[1], -1021))
    d, b = d * scale, b * scale
    beta = b.real * b.real + b.imag * b.imag
    big = np.abs(d) + np.sqrt(d * d + beta)
    big = np.where(big == 0.0, 1.0, big)
    big2 = big * big
    norm = beta + big2
    upper = a >= c
    p_b, p_big = np.where(upper, p, s), np.where(upper, s, p)
    cross = 2.0 * big * (b.real * e.real + b.imag * e.imag)
    z = b * (big * (p_b - p_big) + b * np.conj(e)) - big2 * e
    l2 = np.maximum(a, c) + beta / big / scale
    w2 = _floor_spectrum(np.stack((fidelity._qubit_det(a, c, rho2s[:, 0, 1]) / l2, l2), axis=1))
    det1 = p * s - (e.real * e.real + e.imag * e.imag)
    populations = _floor_spectrum(np.stack(((beta * p_b + big2 * p_big - cross) / norm,
                                            (big2 * p_b + beta * p_big + cross) / norm), axis=1))
    b2 = np.where(populations.all(axis=1), (z.real * z.real + z.imag * z.imag) / (norm * norm), 0.0)
    same = (rho1s == rho2s).all(axis=(1, 2))
    w2[same], det1[same], b2[same], populations[same] = (0.0, 1.0), 0.0, 0.0, (0.0, 1.0)
    half00, half11 = 0.5 * populations[:, 0, None], 0.5 * populations[:, 1, None]
    q = (1.0 - grid) / grid
    roots = np.empty((2, len(w2), grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(w2)
        lo = np.multiply.outer(logs[:, 0] - logs[:, 1], q, out=roots[0])
        t = np.exp(lo)
        hi = np.multiply(t, b2[:, None], out=roots[1])
        t *= half00
        d = t - half11
        hi += np.square(d, out=d)
        np.sqrt(hi, out=hi)
        hi += t
        hi += half11
        np.log(hi, out=hi)
        u = np.multiply.outer(logs[:, 1], q, out=t)
        lo += np.add(u, np.log(_floor_spectrum(det1))[:, None], out=d)
        lo -= hi
        hi += u
        np.fmin(lo, hi, out=lo)
    roots *= grid
    np.exp(roots, out=roots)
    lo += hi
    return lo


def record_kernel_halves(monkeypatch, frames=None, sums=None) -> list:
    """Patch the qubit kernel's two halves to record each call as ("frames" or "sums", pairs).

    A "sums" call over a row of points per pair, not one grid row, is ("sums", pairs, points).
    `frames` and `sums` stand in for `fidelity._qubit_frames` and
    `fidelity._qubit_fidelity_sums` when given; the package's halves run otherwise.
    """
    frames = frames or fidelity._qubit_frames
    sums = sums or fidelity._qubit_fidelity_sums
    calls = []
    monkeypatch.setattr(fidelity, "_qubit_frames", lambda rho1s, rho2s:
                        calls.append(("frames", len(rho1s))) or frames(rho1s, rho2s))
    monkeypatch.setattr(fidelity, "_qubit_fidelity_sums", lambda f, q, grid:
                        calls.append(("sums", f.shape[1], *grid.shape[1:])) or sums(f, q, grid))
    return calls


def oracle_bound_rows(states: np.ndarray, alphas: np.ndarray, delta_mu: float) -> list:
    """(fractions (2, A), bounds (2, A), optimum) of qubit records (n, 4, 2, 2), one at a time.

    Each record's four fidelity curves come from one `oracle_qubit_fidelity_sums`
    call, clipped into [0, 1]; a zero denominator gives a fraction of +inf, and the
    package's fraction-to-bound map and tie rule finish the row.
    """
    rows = []
    for record in states:
        f = np.clip(oracle_qubit_fidelity_sums(record[_PAIR_FIRST], record[_PAIR_SECOND], alphas),
                    0.0, 1.0).reshape(2, 2, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(f[:, 1] == 0.0, math.inf, f[:, 0] / f[:, 1])
        bounds = _bounds_from_fractions(fractions, alphas, delta_mu)
        rows.append((fractions, bounds, _optimum(bounds, alphas)))
    return rows


def record_curve(states: np.ndarray, alphas: np.ndarray, delta_mu: float):
    """The full-grid `BoundCurve` of one record's states (4, d, d), by `tightest_bound`'s route."""
    f = fidelity._fidelity_rows(states[_PAIR_FIRST], states[_PAIR_SECOND], alphas)
    return _bound_curve(f, alphas, delta_mu)


def frame_curves(frames: np.ndarray, alphas: np.ndarray, delta_mu: float) -> list:
    """The full-grid `BoundCurve` of each record of qubit frames (6, 4n), by replica 0's route."""
    return [_bound_curve(fidelity._qubit_rows(frames[:, k:k + 4], alphas), alphas, delta_mu)
            for k in range(0, frames.shape[1], 4)]


def full_grid_optima(frames: np.ndarray, alphas: np.ndarray, delta_mu: float) -> np.ndarray:
    """`bounds._search_optima` by the full-grid route, its oracle.

    Each record's least bound, inf for none: the optimum of its `frame_curves` curve.
    """
    optima = [curve.optimum for curve in frame_curves(frames, alphas, delta_mu)]
    return np.array([math.inf if best is None else best.value for best in optima])


def near_pure_stack(rng, n: int) -> np.ndarray:
    """n records (n, 4, 2, 2) of states with one eigenvalue in [1e-16, 1e-2], nearly aligned.

    Their det(rho1) and rho2's small eigenvalues lie on both sides of EIG_FLOOR, and small
    roots of their sandwiches cross it between grid points, where a floor on the roots
    would make the fidelity jump.
    """
    def state():
        small = 10.0 ** rng.uniform(-16.0, -2.0)
        spectrum = [1.0 - small, small] if rng.random() < 0.3 else [small, 1.0 - small]
        t = 10.0 ** rng.uniform(-8.0, -1.0) * rng.standard_normal() if rng.random() < 0.7 else 0.0
        u = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)
        m = u @ np.diag(spectrum) @ u.conj().T
        return (m + m.conj().T) / 2.0

    states = np.array([[state() for _ in range(4)] for _ in range(n)])
    same = rng.random(n) < 0.3
    states[same, 1] = states[same, 0]  # prepared probes alike: F_in = 1
    return check_density_matrices(states)


def _mp_det2(m):
    """Determinant of a 2x2 Hermitian mpmath matrix, from its entries."""
    return mpmath.re(m[0, 0]) * mpmath.re(m[1, 1]) - abs(m[0, 1]) ** 2


def _mp_eig2(m, det) -> tuple:
    """Eigenvalues (low, high) of a 2x2 Hermitian mpmath matrix of determinant det.

    The low one is det / high: (a + c - d) / 2 would cancel every digit of it once it
    lies about 10^-dps below the high one. The zero matrix has (0, 0).
    """
    a, c, b = mpmath.re(m[0, 0]), mpmath.re(m[1, 1]), m[0, 1]
    high = (a + c + mpmath.sqrt((a - c) ** 2 + 4 * abs(b) ** 2)) / 2
    return (det / high if high else mpmath.mpf(0)), high


def mp_qubit_alpha_fidelity(rho1: np.ndarray, rho2: np.ndarray, alpha: float,
                            floored: bool = True) -> float:
    """F_alpha of two qubit matrices in 50-digit arithmetic, taking their entries as exact.

    rho2^w is the Lagrange form f(l-) P- + f(l+) P+ of the 2x2 matrix function.
    With floored, the qubit kernel's floor rule holds: an eigenvalue of rho2 below
    EIG_FLOOR counts as zero, and so does the sandwich's small eigenvalue where det(rho1)
    lies below EIG_FLOOR; where rho2 is not degenerate and a population Tr(P rho1) of rho1
    lies below EIG_FLOOR, it counts as zero with rho1's coherence between P- and P+, so the
    sandwich is diagonal. The reference then differs from the kernel only by its rounding.
    Without floored, only a negative eigenvalue, of rho2 or of the sandwich, counts as zero.
    """
    floor = EIG_FLOOR if floored else 0
    with mpmath.workdps(50):
        m1 = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho1])
        m2 = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho2])
        a = mpmath.mpf(float(alpha))
        p = (1 - a) / (2 * a)
        lo, hi = _mp_eig2(m2, _mp_det2(m2))
        eye = mpmath.eye(2)
        f_lo, f_hi = (0 if x < floor else x**p for x in (lo, hi))
        if hi - lo < mpmath.mpf(10) ** -40:
            half = f_hi * eye
        else:
            half = (f_hi * (m2 - lo * eye) - f_lo * (m2 - hi * eye)) / (hi - lo)
            projected = ((hi * eye - m2) * m1, (m2 - lo * eye) * m1)
            pops = [mpmath.re(m[0, 0] + m[1, 1]) / (hi - lo) for m in projected]
            if min(pops) < floor:
                return float(sum((0 if x < floor else f**2 * x) ** a
                                 for f, x in zip((f_lo, f_hi), pops)))
        s = half * m1 * half
        s = (s + s.H) / 2
        det1 = _mp_det2(m1)  # det(s) = det(half)^2 det(rho1), det(half) = f_lo f_hi
        small, large = (max(x, 0) for x in _mp_eig2(s, (f_lo * f_hi) ** 2 * det1))
        if det1 < floor:
            small = 0
        return float(small**a + large**a)


def project_to_state(m: np.ndarray) -> np.ndarray:
    """Repair an approximate state: Hermitize, clip negative eigenvalues, renormalize.

    Raises ValueError if nothing positive survives the clip.
    """
    a = np.asarray(m, dtype=complex)
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("state estimate has no positive spectral part; cannot renormalize")
    w = w / total
    return (v * w) @ v.conj().T


_SQ2 = 1.0 / math.sqrt(2.0)
# each basis's outcome kets (plus, minus): H/V, D/A and R/L polarization
MUB_KETS = {
    "hv": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "diag": (np.array([_SQ2, _SQ2]), np.array([_SQ2, -_SQ2])),
    "circ": (np.array([_SQ2, _SQ2 * 1j]), np.array([_SQ2, -_SQ2 * 1j])),
}


def ket_observable(name: str) -> np.ndarray:
    """The basis's +/-1 observable P_plus - P_minus, from its outcome kets."""
    plus, minus = MUB_KETS[name]
    return np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())


def ket_born_probabilities(rho, basis) -> tuple[float, float]:
    """(<plus|rho|plus>, <minus|rho|minus>) of the basis, clipped into [0, 1]."""
    a = check_qubit(rho)
    return tuple(min(max(float(np.real(np.conj(k) @ a @ k)), 0.0), 1.0)
                 for k in MUB_KETS[basis.name])


def observable_sum_estimate(counts: CountRecord, repair: bool = True) -> np.ndarray:
    """Linear inversion (I + sum_k r_k P_k) / 2 over the ket observables, in MUB_BASES order.

    r_k = (n_plus - n_minus) / N_k; with repair, r is first scaled to r / max(1, |r|).
    """
    r = [(n_plus - n_minus) / (n_plus + n_minus)
         for n_plus, n_minus in (counts.counts[name] for name in MUB_KETS)]
    scale = max(1.0, math.sqrt(sum(r_k * r_k for r_k in r))) if repair else 1.0
    return (np.eye(2) + sum(r_k / scale * ket_observable(name)
                            for r_k, name in zip(r, MUB_KETS))) / 2.0


def expected_counts(rho, settings: TomographySettings) -> CountRecord:
    """Noiseless counts: expected values rounded to integers."""
    pairs = settings.expected_pairs
    counts: dict[str, tuple[int, int]] = {}
    for basis in settings.bases:
        p_plus, p_minus = born_probabilities(rho, basis)
        counts[basis.name] = (round(pairs * p_plus), round(pairs * p_minus))
    return CountRecord(counts)


def naive_partial_trace(joint: np.ndarray, dim_probe: int, dim_env: int) -> np.ndarray:
    out = np.zeros((dim_probe, dim_probe), dtype=complex)
    for p in range(dim_probe):
        for q in range(dim_probe):
            for e in range(dim_env):
                out[p, q] += joint[p * dim_env + e, q * dim_env + e]
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    w = np.linalg.eigvalsh(np.asarray(a, complex) - np.asarray(b, complex))
    return 0.5 * float(np.sum(np.abs(w)))


def partial_trace_env(joint, dim_probe: int, dim_env: int) -> np.ndarray:
    """Trace out the environment of a probe (x) environment operator.

    The joint index is probe-major: row index = p * dim_env + e.
    """
    a = np.asarray(joint, dtype=complex)
    d = dim_probe * dim_env
    if a.shape != (d, d):
        raise ValueError(
            f"joint operator has dimension {a.shape}, expected "
            f"{dim_probe} * {dim_env} = {d}"
        )
    return np.einsum("peqe->pq", a.reshape(dim_probe, dim_env, dim_probe, dim_env))


def jones_at_frequency(stack: WavePlateStack, omega: float) -> np.ndarray:
    """Stack Jones unitary at a single frequency, shape (2, 2)."""
    return jones_at_frequencies(stack, [float(omega)])[0]


def discretize(spectrum: GaussianSpectrum, span_sigmas: float = 6.0, n: int = 2001):
    """The line's (points, weights) grid of n points within +/- span_sigmas."""
    return discretize_pair(spectrum, spectrum, span_sigmas, n)[0]


def classical_alpha_fidelity(g1, g2, alpha: float) -> float:
    """Discretized classical alpha-fidelity sum_k w1_k^alpha * w2_k^(1-alpha).

    Both grids must share identical points: matching sizes with different
    supports would silently compare unrelated frequency bins.
    """
    a = check_alpha(alpha)
    if not np.array_equal(g1.points, g2.points):
        raise ValueError("grids must share identical frequency points")
    return float(np.sum(g1.weights**a * g2.weights ** (1.0 - a)))


def tensordot_exact_channel(stack: WavePlateStack, spectra, states) -> list[np.ndarray]:
    """The exact channel through np.tensordot, the formula `channel._exact_channel` unrolled."""
    terms, delays = _delay_expansion(stack)
    lags, conj = delays[:, None] - delays[None, :], terms.conj()
    # right_s = sum_t kappa_st conj(A_t); Phi = sum_s A_s rho right_s^T
    rights = [np.tensordot(kappa(spectrum, lags), conj, axes=(1, 0)) for spectrum in spectra]
    return [np.tensordot(terms @ a, r, axes=([0, 2], [0, 2])) for a, r in zip(states, rights)]


def apply_channel_oracle(
    stack: WavePlateStack,
    spectrum: GaussianSpectrum,
    rho,
    n_env: int,
) -> DensityMatrix:
    """Brute-force reference channel via an explicit joint unitary.

    Embeds the environment as an n_env-point frequency pointer (the default
    discretization of the spectrum at that size), applies the controlled
    Jones unitary U = sum_k V(omega_k) (x) |k><k| to rho (x) diag(w), and
    traces the pointer out. Exponentially sized, so n_env is capped.
    """
    if n_env > ORACLE_MAX_ENV:
        raise ValueError(
            f"oracle environment capped at {ORACLE_MAX_ENV} points, got {n_env}"
        )
    a = check_qubit(rho)
    grid = discretize(spectrum, n=n_env)
    v = jones_at_frequencies(stack, grid.points)
    n = grid.points.size
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        rows = np.ix_((k, n + k), (k, n + k))
        u[rows] = v[k]
    joint = np.kron(a, np.diag(grid.weights.astype(complex)))
    evolved = u @ joint @ u.conj().T
    out = partial_trace_env(evolved, 2, n)
    return DensityMatrix((out + out.conj().T) / 2)


def _oracle_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.12e}"
    return "" if value is None else value


def short_os_writes(monkeypatch, limit: int = 7) -> None:
    """Make os.write write at most limit bytes a call, as a pipe or an interrupted call may."""
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:limit]))


def oracle_csv_bytes(header, columns) -> bytes:
    """The row writer `scenario.csv_bytes` replaced: the csv module, one cell at a time.

    Takes the columnar writer's arguments and returns the file's UTF-8 bytes; array columns
    become their `.tolist()` values. Cells: floats as .12e, None and NaN empty, bools as
    true/false, strings unchanged (the csv module quotes them where needed).
    """
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    target = io.StringIO(newline="")
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows([_oracle_cell(v) for v in row] for row in rows)
    return target.getvalue().encode()


def _oracle_percent_cells(column) -> list[str]:
    """One column's cells, each float formatted by Python's '%'."""
    if not isinstance(column, np.ndarray):  # strings, quoted as the csv module quotes them
        return ['"' + c.replace('"', '""') + '"' if any(q in c for q in ',"\r\n') else c
                for c in column]
    values = column.tolist()
    if column.dtype == bool:
        return [("false", "true")[v] for v in values]
    # NaN is the only float that formats to a text holding "nan"
    return ("%.12e\n" * len(values) % tuple(values)).replace("nan", "").split("\n")[:-1]


def oracle_percent_csv_bytes(header, columns) -> bytes:
    """The columnar CSV writer before its byte table: '%' formats every float.

    Takes `scenario.csv_bytes`'s arguments and returns the same bytes, also for one column.
    """
    rows = [_oracle_percent_cells(header), *zip(*map(_oracle_percent_cells, columns))]
    return ("\r\n".join(map(",".join, rows)) + "\r\n").encode()


def oracle_sweep_rows(config) -> list[dict]:
    """The results["thicknesses"] rows of a sweep config, one thickness at a time.

    Each thickness's record comes from one apply_channel call per line, and its
    row from tightest_bound and bound_summary on that record alone.
    """
    (s1, s2), (rho1, rho2) = config.spectra, config.probes
    rows = []
    for thickness_mm, stack in config.sweep_stacks:
        record = ProbingRecord(rho1, rho2, apply_channel(stack, s1, rho1),
                               apply_channel(stack, s2, rho2), abs(s1.mu - s2.mu))
        row = bound_summary(tightest_bound(record, config.alpha_grid), _truth_sigma(config))
        rows.append({**row, "thickness_mm": thickness_mm})
    return rows


def oracle_sweep_csv(config) -> bytes:
    """sweep.csv's bytes of a sweep config, from oracle_sweep_rows through the row writer."""
    rows = oracle_sweep_rows(config)
    numbers = ["thickness_mm", "b_inf_hz", "b_inf_over_sigma", "alpha_star"]
    columns = [[r.get(c) for r in rows] for c in numbers]  # None: an empty cell
    columns += [[r["family"] or "" for r in rows], [r["no_information"] for r in rows]]
    return oracle_csv_bytes([*numbers, "family", "no_information"], columns)
