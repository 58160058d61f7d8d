"""Birefringent wave-plate stacks acting on a polarization qubit.

A stack of plates with thicknesses x_i and in-plane orientations theta_i
applies, at optical frequency omega, the Jones unitary

    V(omega) = J_k(omega) ... J_1(omega),
    J_i(omega) = R(theta_i) diag(1, e^{2 pi i omega dn x_i / c}) R(theta_i)^T,

with the first plate acting first. Averaging V rho V^dagger over the photon's
frequency distribution gives the dephasing channel; the environment here is
the photon's own spectral degree of freedom.

Each plate splits as J_i(omega) = F_i + e^{2 pi i omega tau_i} S_i into its
fast- and slow-axis projectors, so V(omega) = sum_s A_s e^{2 pi i omega s.tau}
over s in {0, 1}^k and the average is exact in the line's decoherence factor:

    Phi(rho) = sum_{s,t} kappa((s - t).tau) A_s rho A_t^dagger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, check_positive, check_qubit, check_real, state_matrix
from .spectra import LIGHT_SPEED, GaussianSpectrum, kappa

QUARTZ_BIREFRINGENCE = 0.00925  # quartz near 810 nm

# the closed form's kappa sum has 4^k terms for k plates; the cap bounds its cost
MAX_PLATES = 8


@dataclass(frozen=True)
class WavePlate:
    """One birefringent plate: thickness in meters, fast-axis angle in radians."""

    thickness: float
    orientation: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "thickness", check_positive(self.thickness, "plate thickness"))
        object.__setattr__(self, "orientation", check_real(self.orientation, "plate orientation"))


@dataclass(frozen=True)
class WavePlateStack:
    """Ordered plates sharing one birefringence dn; plates[0] acts first."""

    plates: tuple[WavePlate, ...]
    birefringence: float = QUARTZ_BIREFRINGENCE

    def __post_init__(self) -> None:
        plates = tuple(self.plates)
        if not plates:
            raise ValueError("stack needs at least one plate")
        birefringence = check_real(self.birefringence, "birefringence")
        if birefringence == 0.0:
            raise ValueError(f"birefringence must be nonzero, got {self.birefringence}")
        object.__setattr__(self, "plates", plates)
        object.__setattr__(self, "birefringence", birefringence)
        # every delay difference of the channel's kappa sum then stays a finite float
        total = sum(map(abs, self.delays().tolist()))
        if math.isinf(total):
            raise ValueError(f"plate delays |dn x_i / c| must have a finite sum, got {total} s")

    def delays(self) -> np.ndarray:
        """Per-plate group delays tau_i = dn * x_i / c, in seconds."""
        return np.array(
            [self.birefringence * p.thickness / LIGHT_SPEED for p in self.plates]
        )


def _plate_projectors(plate: WavePlate) -> tuple[np.ndarray, np.ndarray]:
    """Fast- and slow-axis projectors (F, S) of one plate: J = F + phase * S."""
    c = math.cos(plate.orientation)
    s = math.sin(plate.orientation)
    fast = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    return fast, np.eye(2) - fast


def jones_at_frequencies(stack: WavePlateStack, omegas) -> np.ndarray:
    """Stack Jones unitaries at an array of frequencies, shape (n, 2, 2)."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    out = np.broadcast_to(np.eye(2, dtype=complex), (w.size, 2, 2)).copy()
    for plate, tau in zip(stack.plates, stack.delays()):
        fast, slow = _plate_projectors(plate)
        phase = np.exp(2j * math.pi * w * tau)
        out = (fast + phase[:, None, None] * slow) @ out
    return out


def _delay_expansion(stack: WavePlateStack) -> tuple[np.ndarray, np.ndarray]:
    """Terms (A_s, s.tau) of V(omega) = sum_s A_s e^{2 pi i omega s.tau}."""
    if len(stack.plates) > MAX_PLATES:
        raise ValueError(
            f"the exact channel takes at most {MAX_PLATES} plates, got {len(stack.plates)}"
        )
    terms = np.eye(2, dtype=complex)[None]
    delays = np.zeros(1)
    for plate, tau in zip(stack.plates, stack.delays()):
        fast, slow = _plate_projectors(plate)
        terms = np.concatenate((fast @ terms, slow @ terms))
        delays = np.concatenate((delays, delays + tau))
    return terms, delays


def _exact_channel(stack: WavePlateStack, spectra, states) -> list[np.ndarray]:
    """The exact channel's output for each (spectrum, qubit array) pair, from one expansion."""
    terms, delays = _delay_expansion(stack)
    lags, conj = delays[:, None] - delays[None, :], terms.conj()
    # right_s = sum_t kappa_st conj(A_t); Phi = sum_s A_s rho right_s^T
    rights = [np.tensordot(kappa(spectrum, lags), conj, axes=(1, 0)) for spectrum in spectra]
    return [np.tensordot(terms @ a, r, axes=([0, 2], [0, 2])) for a, r in zip(states, rights)]


def apply_channel(
    stack: WavePlateStack,
    spectrum: GaussianSpectrum,
    rho,
    grid=None,
) -> DensityMatrix:
    """Frequency-averaged action of the stack on a polarization qubit.

    Without a grid the average is exact: the module docstring's kappa sum
    over the stack's 2^k delay terms (at most MAX_PLATES plates). A grid
    (points, weights), as discretize_pair returns, gives the quadrature
    sum_k w_k V(omega_k) rho V(omega_k)^dagger instead, the reference the
    exact channel is tested against. rho must be a qubit density matrix, as
    a DensityMatrix or a raw array that passes its checks.
    """
    a = check_qubit(state_matrix(rho))
    if grid is None:
        (out,) = _exact_channel(stack, [spectrum], [a])
    else:
        v = jones_at_frequencies(stack, grid.points)
        out = np.einsum("n,nab,bc,ndc->ad", grid.weights, v, a, v.conj())
    return DensityMatrix(out)
