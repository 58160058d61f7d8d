"""Gaussian frequency spectra, their decoherence factor, and a shared grid.

An environment spectrum is modeled as a Gaussian line |g(omega)|^2 with center
mu and width sigma (both in Hz). For two lines of equal width the classical
alpha-fidelity has the closed form

    F_alpha(xi1, xi2) = exp(-(1 - alpha) * alpha * dmu^2 / (2 sigma^2)),

which is what the analytic width bounds invert; gaussian_alpha_fidelity gives
it for any two widths. Two lines' shared grid is the exact channel's quadrature reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fidelity import check_alpha
from .linalg import check_integer, check_positive

LIGHT_SPEED = 299_792_458.0  # m/s


@dataclass(frozen=True)
class GaussianSpectrum:
    """Gaussian spectral line: center mu and standard deviation sigma, in Hz."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", check_positive(self.mu, "spectrum center"))
        object.__setattr__(self, "sigma", check_positive(self.sigma, "spectrum width"))

    @classmethod
    def from_wavelength(cls, center_nm: float, width_nm: float) -> "GaussianSpectrum":
        """Convert a wavelength description (nm) to frequency (Hz).

        Uses nu = c / lambda and the first-order width mapping
        sigma_nu = c * sigma_lambda / lambda^2. A wavelength whose line
        leaves the float range (a zero, infinite or zero-width line) raises.
        """
        lam = check_positive(center_nm, "center wavelength") * 1e-9
        dlam = check_positive(width_nm, "wavelength width") * 1e-9
        try:
            return cls(mu=LIGHT_SPEED / lam, sigma=LIGHT_SPEED * dlam / lam**2)
        except (ArithmeticError, ValueError):
            raise ValueError(
                f"center wavelength {center_nm} nm (width {width_nm} nm) gives no finite "
                "positive line in Hz"
            ) from None


def gaussian_alpha_fidelity(
    s1: GaussianSpectrum, s2: GaussianSpectrum, alpha: float
) -> float:
    """Closed-form classical alpha-fidelity sum xi1^alpha xi2^(1 - alpha) of two Gaussian lines.

    With r = sigma2 / sigma1 and v = 1 + alpha (r^2 - 1) it is
    r^alpha / sqrt(v) exp(-alpha (1 - alpha) dmu^2 / (2 sigma1^2 v)) (Gil, Alajaji and
    Linder, Information Sciences 249, 124 (2013)). It is evaluated through ln r and
    ln v, so no square leaves the float range at any finite widths and shift.
    """
    a = check_alpha(alpha)
    log_r = math.log(s2.sigma) - math.log(s1.sigma)
    # ln v from r^2 - 1 where r <= 1 and from 1 / r^2 where r > 1: neither overflows
    if log_r <= 0.0:
        log_v = math.log1p(a * math.expm1(2.0 * log_r))
    else:
        log_v = 2.0 * log_r + math.log(a + (1.0 - a) * math.exp(-2.0 * log_r))
    # dmu / (sigma1 sqrt(v)), with sigma1^2 v = (1 - a) sigma1^2 + a sigma2^2
    z = (s1.mu - s2.mu) / math.hypot(math.sqrt(1.0 - a) * s1.sigma, math.sqrt(a) * s2.sigma)
    return math.exp(a * log_r - 0.5 * log_v - (1.0 - a) * a * z * z / 2.0)


def kappa(spectrum: GaussianSpectrum, tau):
    """Characteristic function of the line at delay tau (s), scalar or array.

    kappa(tau) = exp(2 pi i tau mu - (2 pi tau sigma)^2 / 2). A delay channel
    multiplies the probe's upper off-diagonal by conj(kappa). Where the damping
    underflows to 0, kappa is exactly 0, its limit, even if the phase overflows;
    a phase that overflows where the damping does not raises ValueError.
    """
    t = np.asarray(tau)
    if t.dtype.kind not in "iuf":  # bools, strings, bytes and objects are not converted
        raise ValueError(f"tau must hold real delays, got dtype {t.dtype}")
    t = t.astype(float, copy=False)
    with np.errstate(over="ignore"):
        damp = np.exp(-((2.0 * math.pi * t * spectrum.sigma) ** 2) / 2.0)
        phase = np.where(damp == 0.0, 0.0, 2.0 * math.pi * t * spectrum.mu)
    if not np.isfinite(phase).all():
        tau_max = np.abs(t[~np.isfinite(phase)]).max()
        raise ValueError(f"the line phase 2 pi tau mu overflows a float at tau = {tau_max} s, "
                         f"mu = {spectrum.mu} Hz, where the damping is nonzero")
    return damp * (np.cos(phase) + 1j * np.sin(phase))


class _Grid(NamedTuple):
    """One line's quadrature grid: the pair's shared points and weights that sum to 1."""

    points: np.ndarray
    weights: np.ndarray


def _check_grid_shape(span_sigmas: float, n: int) -> None:
    check_positive(span_sigmas, "grid span in sigmas")
    if check_integer(n, "grid size") < 3 or n % 2 == 0:
        raise ValueError(f"grid size must be odd and at least 3, got {n}")


def discretize_pair(
    s1: GaussianSpectrum,
    s2: GaussianSpectrum,
    span_sigmas: float = 8.0,
    n: int = 3001,
) -> tuple[_Grid, _Grid]:
    """Discretize two lines on one shared grid of points, as two (points, weights) grids.

    The span covers [min mu - span * sigma_max, max mu + span * sigma_max], and
    both grids hold one read-only points array; a line's weights are its density
    there over their sum. Channels built from a shared grid are induced by the
    same joint unitary, which keeps the data-processing inequality exact.
    """
    _check_grid_shape(span_sigmas, n)
    sig = max(s1.sigma, s2.sigma)
    lo = min(s1.mu, s2.mu) - span_sigmas * sig
    hi = max(s1.mu, s2.mu) + span_sigmas * sig
    pts = np.linspace(lo, hi, n)
    pts.setflags(write=False)
    grids = []
    for s in (s1, s2):
        z = (pts - s.mu) / s.sigma
        w = np.exp(-0.5 * z * z) / (s.sigma * math.sqrt(2.0 * math.pi))
        if (total := float(w.sum())) <= 0.0:
            raise ValueError("grid weights sum to zero; nothing to normalize")
        grids.append(_Grid(pts, w / total))
    return tuple(grids)
