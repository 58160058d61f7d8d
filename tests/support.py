"""Shared generators and independent oracles for the test suite.

Oracles deliberately take different numerical routes than the package:
scipy's Schur-based fractional matrix power and 'evr'-driver eigensolver
cross-check the eigh-based fidelity, the batched `eigvalsh` route and a
50-digit mpmath evaluation check the closed-form qubit sandwich eigenvalues,
the partial trace is redone with explicit index loops, and the
general-dimension eigendecomposition repair checks tomography's closed
Bloch-form repair. The frequency-quadrature references for the exact channel
and the closed-form line fidelity live here too: a single-line grid, the
discretized classical fidelity, and a brute-force joint-unitary channel.
Noiseless tomography counts, the expected values rounded, live here as well,
and so does the linear-domain `pow` qubit kernel, the reference for the
log-domain kernel that replaced it.
"""
from __future__ import annotations

import mpmath
import numpy as np
import scipy.linalg as sla

from alphaprobe.channel import WavePlateStack, jones_at_frequencies
from alphaprobe.fidelity import _floor_spectrum, check_alpha
from alphaprobe.linalg import EIG_FLOOR, DensityMatrix, check_qubit
from alphaprobe.spectra import FrequencyGrid, GaussianSpectrum, _check_grid_shape
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


def pow_qubit_fidelity_sums(rho1s: np.ndarray, rho2s: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The linear-domain qubit kernel: unclipped F_alpha of stacks (n, 2, 2), shape (n, A).

    The same sandwich roots as `fidelity._qubit_fidelity_sums`, formed with four
    `pow`s and a divide per point: a = l1^q rho1'_00, c = l2^q rho1'_11 and
    |b|^2 = (l1 l2)^q |rho1'_01|^2 in rho2's eigenbasis, the large root
    (a + c + sqrt((a - c)^2 + 4|b|^2)) / 2 and the small one (l1 l2)^q det(rho1)
    over it, each root below EIG_FLOOR taken as 0.
    """
    w2, v2 = np.linalg.eigh(rho2s)
    powers = _floor_spectrum(w2)[:, :, None] ** ((1.0 - grid) / grid)  # 0^q = 0 as q > 0
    r = np.conj(np.swapaxes(v2, 1, 2)) @ rho1s @ v2
    a, c = powers[:, 0] * r[:, 0, 0, None].real, powers[:, 1] * r[:, 1, 1, None].real
    both = powers[:, 0] * powers[:, 1]
    hi = 0.5 * (a + c + np.sqrt((a - c) ** 2 + 4.0 * both * np.abs(r[:, 0, 1, None]) ** 2))
    det1 = rho1s[:, 0, 0].real * rho1s[:, 1, 1].real - np.abs(rho1s[:, 0, 1]) ** 2
    lo = np.divide(both * det1[:, None], hi, out=np.zeros_like(hi), where=hi > 0.0)
    return _floor_spectrum(lo) ** grid + _floor_spectrum(hi) ** grid


def _mp_eig2(m) -> tuple:
    """Eigenvalues (low, high) of a 2x2 Hermitian mpmath matrix."""
    a, c, b = mpmath.re(m[0, 0]), mpmath.re(m[1, 1]), m[0, 1]
    d = mpmath.sqrt((a - c) ** 2 + 4 * abs(b) ** 2)
    return (a + c - d) / 2, (a + c + d) / 2


def mp_qubit_alpha_fidelity(rho1: np.ndarray, rho2: np.ndarray, alpha: float) -> float:
    """F_alpha of two qubit matrices in 50-digit arithmetic, taking their entries as exact.

    rho2^w is the Lagrange form f(l-) P- + f(l+) P+ of the 2x2 matrix function.
    Spectral values below EIG_FLOOR count as zeros, as in the package, so the
    reference differs from the float routes only by their rounding.
    """
    with mpmath.workdps(50):
        m1 = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho1])
        m2 = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho2])
        a = mpmath.mpf(float(alpha))
        p = (1 - a) / (2 * a)
        lo, hi = _mp_eig2(m2)
        eye = mpmath.eye(2)
        f_lo, f_hi = (0 if x < EIG_FLOOR else x**p for x in (lo, hi))
        if hi - lo < mpmath.mpf(10) ** -40:
            half = f_hi * eye
        else:
            half = (f_hi * (m2 - lo * eye) - f_lo * (m2 - hi * eye)) / (hi - lo)
        s = half * m1 * half
        s = (s + s.H) / 2
        return float(sum(0 if x < EIG_FLOOR else x**a for x in _mp_eig2(s)))


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


def discretize(
    spectrum: GaussianSpectrum, span_sigmas: float = 6.0, n: int = 2001
) -> FrequencyGrid:
    """Sample the line on a symmetric grid of n points within +/- span_sigmas."""
    _check_grid_shape(span_sigmas, n)
    pts = np.linspace(
        spectrum.mu - span_sigmas * spectrum.sigma,
        spectrum.mu + span_sigmas * spectrum.sigma,
        n,
    )
    return FrequencyGrid(points=pts, weights=spectrum.density(pts))


def classical_alpha_fidelity(g1: FrequencyGrid, g2: FrequencyGrid, alpha: float) -> float:
    """Discretized classical alpha-fidelity sum_k w1_k^alpha * w2_k^(1-alpha).

    Both grids must share identical points: matching sizes with different
    supports would silently compare unrelated frequency bins.
    """
    a = check_alpha(alpha)
    if g1.size != g2.size or not np.array_equal(g1.points, g2.points):
        raise ValueError("grids must share identical frequency points")
    return float(np.sum(g1.weights**a * g2.weights ** (1.0 - a)))


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
    n = grid.size
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        rows = np.ix_((k, n + k), (k, n + k))
        u[rows] = v[k]
    joint = np.kron(a, np.diag(grid.weights.astype(complex)))
    evolved = u @ joint @ u.conj().T
    out = partial_trace_env(evolved, 2, n)
    return DensityMatrix((out + out.conj().T) / 2)
