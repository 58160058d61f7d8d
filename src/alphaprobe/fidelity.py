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
# every order costs a few 2x2 blocks per curve; larger grids are rejected before allocating
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


def _floor_spectrum(w: np.ndarray) -> np.ndarray:
    return np.where(w < EIG_FLOOR, 0.0, w)


def _qubit_frames(rho1s: np.ndarray, rho2s: np.ndarray) -> np.ndarray:
    """The alpha-free half of the qubit kernel for validated stacks (n, 2, 2): rows (6, n).

    In rho2's eigenbasis V, rho1' = V^dagger rho1 V: log l1 - log l2, log l2, log det(rho1),
    |r'_01|^2, r'_00 / 2 and r'_11 / 2. Eigenvalues l1 <= l2, det(rho1) and the populations
    r'_00, r'_11 below EIG_FLOOR are 0, and so is |r'_01|^2 beside a zero population, as
    positivity demands: rounding leaves them about 1e-17 of either sign where they are 0.
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


def _qubit_fidelity_sums(frames: np.ndarray, q: np.ndarray, grid: np.ndarray,
                         scratch: np.ndarray) -> np.ndarray:
    """The per-alpha half: unclipped F_alpha of m pairs' frames (6, m), shape (m, k).

    The grid and q = (1 - alpha) / alpha are one row (k,) for every pair or a row per
    pair (m, k); each point is computed on its own, so its bits do not depend on the others.
    With t = (l1 / l2)^q, the sandwich's large root is hi = l2^q h,
    h = (t r'_00 + r'_11 + sqrt((t r'_00 - r'_11)^2 + 4 t |r'_01|^2)) / 2 (terms of one sign);
    the small one, (l1 l2)^q det(rho1) / hi, keeps its precision near purity.
    Roots stay logs until exp(alpha log root); lo <= hi; unlike the inputs, no root is floored.
    Log roots (then their powers), t and d are (m, k) views of scratch (4, M k), M >= m.
    """
    log_t, log_l2, log_det1, b2, half00, half11 = frames[:, :, None]
    work = scratch[:, :frames.shape[1] * grid.shape[-1]].reshape(4, -1, grid.shape[-1])
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

    Qubits run both halves of the kernel once; higher dimensions cost a Hermitian
    eigenvalue solve of the sandwich per alpha. A call warns of clamping once at most.
    """
    q = (1.0 - grid) / grid
    if rho1s.shape[-1] == 2:
        frames = _qubit_frames(rho1s, rho2s)
        raw = _qubit_fidelity_sums(frames, q, grid, np.empty((4, len(rho1s) * grid.size)))
    else:
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

    One eigendecomposition of rho2 is shared across the grid; qubits then cost
    a few elementwise operations per alpha.
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
    return math.log(f) / (float(alpha) - 1.0)


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
