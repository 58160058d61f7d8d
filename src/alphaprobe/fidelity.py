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
import warnings

import numpy as np

from .linalg import EIG_FLOOR, check_integer, state_matrix

CLAMP_EXCESS = 1e-9
DPI_ALPHA_MIN = 0.5

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

    Every alpha must lie in (0, 1) and at or above `lower`: 0 for fidelities,
    where values below 1/2 are accepted but flagged, and 1/2 for width
    bounds, which need the data-processing inequality.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alpha grid must be a nonempty 1-d array")
    if not (a.min() > 0.0 and a.min() >= lower and a.max() < 1.0):
        interval = f"[{lower}, 1)" if lower > 0.0 else "(0, 1)"
        got = a[0] if a.size == 1 else f"[{a.min()}, {a.max()}]"
        raise ValueError(f"alpha must lie in {interval}, got {got}")
    if a.min() < DPI_ALPHA_MIN:
        warnings.warn(
            f"alpha = {a.min()} is below 0.5: the data-processing inequality is "
            "not guaranteed in this range",
            stacklevel=3,
        )
    return a


def check_alpha(alpha: float) -> float:
    """Validate a single order parameter: must lie strictly inside (0, 1)."""
    return float(_check_alpha_grid([alpha])[0])


def alpha_range(start: float, stop: float, count: int, lower: float = 0.0) -> np.ndarray:
    """`count` evenly spaced orders from start to stop, validated like any grid."""
    check_integer(count, "count", 2, MAX_ALPHA_COUNT)
    if not start < stop:
        raise ValueError(f"start must lie below stop, got [{start}, {stop}]")
    return _check_alpha_grid(np.linspace(start, stop, count), lower)


def _floor_spectrum(w: np.ndarray) -> np.ndarray:
    return np.where(w < EIG_FLOOR, 0.0, w)


def _qubit_fidelity_sums(rho1s: np.ndarray, rho2s: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Unclipped F_alpha of validated qubit pairs, stacks (n, 2, 2), over a grid: shape (n, A).

    In the eigenbasis V of rho2, with q = (1 - alpha) / alpha and
    rho1' = V^dagger rho1 V, the sandwich has a = l1^q rho1'_00, c = l2^q rho1'_11 and
    |b|^2 = (l1 l2)^q |rho1'_01|^2. Its large root (a + c + sqrt((a - c)^2 + 4|b|^2)) / 2
    adds terms of one sign; the small root (l1 l2)^q det(rho1) / lambda_+ takes det(rho1)
    from rho1's own entries, so it keeps its relative precision when both are near pure.
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


def _fidelity_curves(rho1s: np.ndarray, rho2s: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """F_alpha over a checked grid for validated stacks (n, d, d) of pairs: shape (n, A), clamped.

    Qubits go through the scalar kernel; higher dimensions cost a Hermitian
    eigenvalue solve of the sandwich per alpha. All n pairs share one clamp warning.
    """
    if rho1s.shape[-1] == 2:
        raw = _qubit_fidelity_sums(rho1s, rho2s, grid)
    else:
        w2, v2 = np.linalg.eigh(rho2s)
        # rho2^((1-alpha)/(2 alpha)) for every alpha at once; 0^p = 0 on the null space
        wp = _floor_spectrum(w2)[:, None, :] ** ((1.0 - grid) / (2.0 * grid))[:, None]
        half = np.einsum("nab,nmb,ncb->nmac", v2, wp, v2.conj())
        sandwich = half @ rho1s[:, None] @ half
        sandwich = (sandwich + np.conj(np.swapaxes(sandwich, -1, -2))) / 2
        ws = _floor_spectrum(np.linalg.eigvalsh(sandwich))
        raw = np.sum(ws ** grid[:, None], axis=-1)
    excess = raw.max() - 1.0
    if excess > CLAMP_EXCESS:
        warnings.warn(
            f"alpha-fidelity exceeded 1 by up to {excess:.3e}; clamping to 1", stacklevel=3
        )
    return np.clip(raw, 0.0, 1.0)


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
    return _fidelity_curves(a1[None], a2[None], _check_alpha_grid(alphas))[0]


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
    if not 0.0 <= xi_fid <= 1.0:
        raise ValueError(f"environment fidelity must lie in [0, 1], got {xi_fid}")
    return alpha_fidelity(phi1_rho1, phi2_rho2, a) - alpha_fidelity(rho1, rho2, a) * xi_fid
