"""Alpha-fidelities of density matrices and the derived Renyi divergence.

The central quantity is

    F_alpha(rho1, rho2) = tr[(rho2^w rho1 rho2^w)^alpha],  w = (1 - alpha) / (2 alpha),

defined for alpha in (0, 1). It is symmetric at alpha = 1/2 (square-root
fidelity) and generally asymmetric elsewhere. The data-processing inequality
used by the bound machinery is only guaranteed for alpha in [1/2, 1), so
values below 1/2 are accepted but flagged.
"""
from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .linalg import EIG_FLOOR, check_integer, check_real, state_matrix

CLAMP_EXCESS = 1e-9
DPI_ALPHA_MIN = 0.5
# the least order: the qubit kernel's largest log factor is q log EIG_FLOOR,
# q = (1 - alpha) / alpha, and this is the least float alpha that keeps it finite
ALPHA_MIN = -math.log(EIG_FLOOR) / sys.float_info.max

# the default alpha grid of the library, the CLI and scenario configs
ALPHA_START = 0.5
ALPHA_STOP = 0.9999
ALPHA_COUNT = 500
# every order costs a few 2x2 blocks per qubit curve and a d x d sandwich per curve above
# dim 2 (53.7 MiB traced for 4 pairs of 12-dimensional states at 2,000 alphas); larger grids
# are rejected before allocating
MAX_ALPHA_COUNT = 100_000


def default_alpha_grid() -> np.ndarray:
    """Default evaluation grid, dense up to (but excluding) alpha = 1."""
    return np.linspace(ALPHA_START, ALPHA_STOP, ALPHA_COUNT)


def _check_alpha_grid(alphas, lower: float = 0.0) -> np.ndarray:
    """Validate a grid of order parameters; the one home of the alpha rules.

    Every alpha must lie in [ALPHA_MIN, 1) and at or above `lower`: 0 for
    fidelities, where values below 1/2 are accepted but flagged, and 1/2 for
    width bounds, which need the data-processing inequality.
    """
    a = np.asarray(alphas)
    if a.dtype.kind not in "iuf":  # bools, strings, bytes and objects are not converted
        raise ValueError(f"alpha grid must hold real numbers, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alpha grid must be a nonempty 1-d array")
    least = max(lower, ALPHA_MIN)
    if not (a.min() >= least and a.max() < 1.0):
        got = a[0] if a.size == 1 else f"[{a.min()}, {a.max()}]"
        raise ValueError(f"alpha must lie in [{least}, 1), got {got}")
    if a.min() < DPI_ALPHA_MIN:
        warnings.warn(
            f"alpha = {a.min()} is below 0.5: the data-processing inequality is "
            "not guaranteed in this range",
            stacklevel=3,
        )
    return a


def check_alpha(alpha: float) -> float:
    """Validate a single order parameter: must lie in [ALPHA_MIN, 1)."""
    return float(_check_alpha_grid([alpha])[0])


def alpha_range(start: float, stop: float, count: int, lower: float = 0.0) -> np.ndarray:
    """`count` evenly spaced orders from start to stop, validated like any grid."""
    check_integer(count, "count", 2, MAX_ALPHA_COUNT)
    start, stop = check_real(start, "start"), check_real(stop, "stop")
    if not start < stop:
        raise ValueError(f"start must lie below stop, got [{start}, {stop}]")
    _check_alpha_grid(np.array([start, stop]), lower)  # the ends first: stop - start may overflow
    return np.linspace(start, stop, count)


# Veltkamp's splitter: x = hi + lo in halves of 26 bits, whose products are exact floats
_SPLIT = 2.0**27 + 1.0
# the frames (6, 1) of a pure state against itself: l1 = det(rho1) = r'_00 = 0, l2 = r'_11 = 1
_PURE_SELF = np.array([[-math.inf], [0.0], [-math.inf], [0.0], [0.0], [0.5]])


def _floor_spectrum(w: np.ndarray) -> np.ndarray:
    return np.where(w < EIG_FLOOR, 0.0, w)


def _halves(x: np.ndarray) -> tuple:
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


def _qubit_det(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a c - |b|^2 for real a, c and complex b, to about one rounding where its terms cancel.

    Dekker's error-free products give a c, Re(b)^2 and Im(b)^2 each as a float plus its
    exact error; taking the larger square first, the floats cancel exactly (Sterbenz)
    wherever the result is small beside them, and only the sum of the errors is rounded.
    """
    br, bi = b.real, b.imag
    (ah, al), (ch, cl), (rh, rl), (ih, il) = _halves(a), _halves(c), _halves(br), _halves(bi)
    ac, rr, ii = a * c, br * br, bi * bi
    err = ((ah * ch - ac) + ah * cl + al * ch) + al * cl
    err -= ((rh * rh - rr) + 2.0 * rh * rl) + rl * rl
    err -= ((ih * ih - ii) + 2.0 * ih * il) + il * il
    return ((ac - np.maximum(rr, ii)) - np.minimum(rr, ii)) + err


def _qubit_frames(rho1s: np.ndarray, rho2s: np.ndarray) -> np.ndarray:
    """The alpha-free half of the qubit kernel for validated stacks (n, 2, 2): rows (6, n).

    In rho2's eigenbasis V, rho1' = V^dagger rho1 V: log l1 - log l2, log l2, log det(rho1),
    |r'_01|^2, r'_00 / 2 and r'_11 / 2, in closed form from the entries. With
    rho2 = [[a, b], [b*, c]], d = (a - c) / 2 and big = |d| + sqrt(d^2 + |b|^2), the
    eigenvalues are l2 = max(a, c) + |b|^2 / big and l1 = det(rho2) / l2, both free of
    cancellation (det(rho2) by `_qubit_det`). l1's eigenvector is the row of rho2 - l1 that
    does not cancel: (-b, big) where a >= c, as a - l1 = big, and (big, -b*) otherwise.
    d and b are first scaled by a power of two that brings the larger near 1, which rounds
    nothing and keeps every square in the float range; a multiple of I (big = 0) takes the
    z basis.
    Eigenvalues, det(rho1) and the populations r'_00, r'_11 below EIG_FLOOR are 0, and so is
    |r'_01|^2 beside a zero population, as positivity demands: rounding leaves them about
    1e-17 of either sign where they are 0. A pair of bitwise-equal states takes the frames of
    a pure state against itself, for which the per-alpha half returns F = tr rho = 1 exactly.
    """
    a, c, b = rho2s[:, 0, 0].real, rho2s[:, 1, 1].real, rho2s[:, 0, 1]
    p, s, e = rho1s[:, 0, 0].real, rho1s[:, 1, 1].real, rho1s[:, 0, 1]
    d = 0.5 * (a - c)
    # 2^-k, k the binary exponent of the larger of |d| and |b|, at least -1021 to stay finite
    scale = np.ldexp(1.0, -np.maximum(np.frexp(np.maximum(np.abs(d), np.abs(b)))[1], -1021))
    d, b = d * scale, b * scale
    beta = b.real * b.real + b.imag * b.imag
    big = np.abs(d)
    big += np.sqrt(d * d + beta)
    big[big == 0.0] = 1.0  # a multiple of I takes the z basis
    l2, big2 = np.maximum(a, c) + beta / big / scale, big * big
    norm = beta + big2  # |l1's eigenvector|^2
    # the diagonal entries of rho1 that l1's eigenvector weights by |b|^2 and by big^2
    upper = a >= c
    p_b, p_big = np.where(upper, p, s), np.where(upper, s, p)
    cross = 2.0 * big * (b.real * e.real + b.imag * e.imag)  # the same in both eigenvectors
    z = b * (big * (p_b - p_big) + b * np.conj(e)) - big2 * e  # norm rho1'_01, up to a phase
    det1 = p * s - (e.real * e.real + e.imag * e.imag)
    inputs = _floor_spectrum(np.stack((_qubit_det(a, c, rho2s[:, 0, 1]) / l2, l2, det1,
                                       (beta * p_b + big2 * p_big - cross) / norm,
                                       (big2 * p_b + beta * p_big + cross) / norm)))
    b2 = np.where(inputs[3:].all(axis=0), (z.real * z.real + z.imag * z.imag) / (norm * norm), 0.0)
    with np.errstate(divide="ignore"):
        logs = np.log(inputs[:3])
    frames = np.stack((logs[0] - logs[1], logs[1], logs[2], b2, 0.5 * inputs[3], 0.5 * inputs[4]))
    frames[:, (rho1s == rho2s).all(axis=(1, 2))] = _PURE_SELF
    return frames


def _qubit_fidelity_sums(frames: np.ndarray, q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The per-alpha half: unclipped F_alpha of m pairs' frames (6, m), shape (m, k).

    The grid and q = (1 - alpha) / alpha are one row (k,) for every pair or a row per
    pair (m, k); each point is computed on its own, so its bits do not depend on the others.
    With t = (l1 / l2)^q, the sandwich's large root is hi = l2^q h,
    h = (t r'_00 + r'_11 + sqrt((t r'_00 - r'_11)^2 + 4 t |r'_01|^2)) / 2 (terms of one sign);
    the small one, (l1 l2)^q det(rho1) / hi, keeps its precision near purity.
    Roots stay logs until exp(alpha log root); lo <= hi; unlike the inputs, no root is floored.
    Log roots (then their powers), t and d are (m, k) rows of one work array (4, m, k).
    """
    log_t, log_l2, log_det1, b2, half00, half11 = frames[:, :, None]
    work = np.empty((4, frames.shape[1], grid.shape[-1]))
    roots, t, d = work[:2], work[2], work[3]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf for a zero factor
        lo = np.multiply(log_t, q, out=roots[0])  # log t
        np.exp(lo, out=t)
        hi = np.multiply(t, b2, out=roots[1])
        t *= half00
        np.subtract(t, half11, out=d)
        hi += np.square(d, out=d)
        np.sqrt(hi, out=hi)
        hi += t
        hi += half11
        np.log(hi, out=hi)  # log h
        u = np.multiply(log_l2, q, out=t)  # q log l2
        lo += np.add(u, log_det1, out=d)
        lo -= hi
        hi += u
        np.fmin(lo, hi, out=lo)  # also where h = 0 made log lo NaN or +inf
    roots *= grid
    np.exp(roots, out=roots)
    lo += hi
    return lo


def _warn_clamped(excess: float) -> None:
    """The clamp warning, when a raw F_alpha exceeded 1 by more than CLAMP_EXCESS."""
    if excess > CLAMP_EXCESS:
        warnings.warn(
            f"alpha-fidelity exceeded 1 by up to {excess:.3e}; clamping to 1", stacklevel=4
        )


def _fidelity_rows(rho1s: np.ndarray, rho2s: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Clamped F_alpha (n, A) of validated stacks (n, d, d) of pairs over a checked grid.

    Qubits run both halves of the kernel once (_qubit_rows); higher dimensions cost a
    Hermitian eigenvalue solve of the sandwich per alpha. A call warns of clamping once at most.
    """
    if rho1s.shape[-1] == 2:
        return _qubit_rows(_qubit_frames(rho1s, rho2s), grid)
    q = (1.0 - grid) / grid
    w2, v2 = np.linalg.eigh(rho2s)
    # rho2^((1-alpha)/(2 alpha)) for every alpha at once; 0^p = 0 on the null space
    wp = _floor_spectrum(w2)[:, None, :] ** (q / 2.0)[:, None]
    half = np.einsum("nab,nmb,ncb->nmac", v2, wp, v2.conj())
    sandwich = half @ rho1s[:, None] @ half
    sandwich = (sandwich + np.conj(np.swapaxes(sandwich, -1, -2))) / 2
    # eigvalsh's error is absolute, so unlike the qubit roots its eigenvalues keep the floor
    ws = _floor_spectrum(np.linalg.eigvalsh(sandwich))
    raw = np.sum(ws ** grid[:, None], axis=-1)
    _warn_clamped(raw.max() - 1.0)
    # F is a sum of exponentials or of floored eigenvalue powers: never negative
    return np.minimum(raw, 1.0, out=raw)


def _qubit_rows(frames: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Clamped F_alpha (m, A) of qubit pairs' frames (6, m) over a checked grid; warns once."""
    raw = _qubit_fidelity_sums(frames, (1.0 - grid) / grid, grid)
    _warn_clamped(raw.max() - 1.0)
    return np.minimum(raw, 1.0, out=raw)


def alpha_fidelity(rho1, rho2, alpha: float) -> float:
    """F_alpha(rho1, rho2), clamped into [0, 1].

    Both arguments must be density matrices of equal dimension: DensityMatrix
    instances, or raw arrays that pass its checks. Null-space
    eigenvalues of rho2 are handled as exact zeros, so pure rho2 reduces to
    <phi|rho1|phi>^alpha.
    """
    return float(alpha_fidelity_curve(rho1, rho2, [alpha])[0])


def alpha_fidelity_curve(rho1, rho2, alphas) -> np.ndarray:
    """F_alpha(rho1, rho2) evaluated over a grid of alpha values.

    Qubits take rho2's eigensystem in closed form once for the grid, then cost a few
    elementwise operations per alpha; higher dimensions share one eigh of rho2.
    """
    a1, a2 = state_matrix(rho1), state_matrix(rho2)
    if a1.shape != a2.shape:
        raise ValueError(
            f"density matrices have mismatched shapes {a1.shape} vs {a2.shape}"
        )
    return _fidelity_rows(a1[None], a2[None], _check_alpha_grid(alphas))[0]


def renyi_divergence(rho1, rho2, alpha: float) -> float:
    """Sandwiched Renyi divergence S_alpha = log F_alpha / (alpha - 1).

    Returns +inf for orthogonal states (F_alpha = 0). Satisfies
    exp((alpha - 1) * S_alpha) = F_alpha by construction.
    """
    f = alpha_fidelity(rho1, rho2, alpha)
    if f == 0.0:
        return math.inf
    # + 0.0 turns log 1 / (alpha - 1) = -0.0 into +0.0 and changes no other value
    return math.log(f) / (float(alpha) - 1.0) + 0.0


def dpi_margin(
    rho1, rho2, phi1_rho1, phi2_rho2, xi_fid: float, alpha: float
) -> float:
    """Slack of the generalized data-processing inequality.

    margin = F_alpha(Phi1 rho1, Phi2 rho2) - F_alpha(rho1, rho2) * xi_fid,
    where xi_fid is the alpha-fidelity of the two environment states. The
    inequality holds (margin >= 0) for alpha in [1/2, 1) whenever both
    channels are induced by a common unitary.
    """
    a = check_alpha(alpha)
    if not 0.0 <= check_real(xi_fid, "environment fidelity") <= 1.0:
        raise ValueError(f"environment fidelity must lie in [0, 1], got {xi_fid}")
    return alpha_fidelity(phi1_rho1, phi2_rho2, a) - alpha_fidelity(rho1, rho2, a) * xi_fid
