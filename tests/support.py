"""Shared generators and independent oracles for the test suite.

Oracles deliberately take different numerical routes than the package:
scipy's Schur-based fractional matrix power and 'evr'-driver eigensolver
cross-check the eigh-based fidelity, the partial trace is redone with
explicit index loops, and the general-dimension eigendecomposition repair
checks tomography's closed Bloch-form repair.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla


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
