"""Dense Hermitian linear algebra for small quantum states.

Every state is checked once, by check_density_matrices, or built valid (a
tomographic estimate), and the kernels downstream trust those stacks, so the
numerical tolerances live in one place: Hermiticity and positivity are
enforced at 1e-9, and eigenvalues below EIG_FLOOR are treated as exact zeros
when taking fractional matrix powers.
"""
from __future__ import annotations

import numbers
import sys

import numpy as np

HERMITICITY_ATOL = 1e-9
PSD_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIG_FLOOR = 1e-12
_FLOAT_MAX = sys.float_info.max


class NotHermitianError(ValueError):
    """Input matrix is further from Hermitian than the tolerance allows."""


class NotPositiveError(ValueError):
    """Input matrix has an eigenvalue below the positivity tolerance."""


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


@np.errstate(over="ignore", invalid="ignore")  # an entry near the float limit fails a rule
def check_density_matrices(m) -> np.ndarray:
    """Validate a density matrix, or a stack (..., d, d) of them; return the Hermitian parts.

    Every entry must be finite, and each matrix Hermitian, positive
    semidefinite and of unit trace within the module tolerances. The rules run
    in that order over the whole stack; a broken rule raises, quoting the
    stack's largest Hermitian defect, its lowest eigenvalue or its first bad
    trace, which for a single bad matrix are that matrix's own.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():  # NaN would slip through every comparison below
        raise ValueError("density matrix entries must be finite")
    adjoint = np.conj(np.swapaxes(a, -1, -2))
    defect = np.abs(a - adjoint).max()
    if defect > HERMITICITY_ATOL:
        raise NotHermitianError(
            f"density matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}"
        )
    a = (a + adjoint) / 2
    if a.shape[-1] == 2:
        d0, d1 = a[..., 0, 0].real, a[..., 1, 1].real
        wmin = 0.5 * (d0 + d1) - np.hypot(0.5 * (d0 - d1), np.abs(a[..., 0, 1]))
    else:
        wmin = np.linalg.eigvalsh(a)[..., 0]
    lowest = wmin.min()
    if lowest < -PSD_ATOL:
        raise NotPositiveError(f"density matrix has negative eigenvalue {lowest:.3e}")
    # the Hermitian part's diagonal is real, so its trace is too; the Hermitian
    # rule above already bounds each |Im m_ii| by HERMITICITY_ATOL / 2
    tr = np.trace(a, axis1=-2, axis2=-1)
    bad = np.abs(tr.real - 1.0) > TRACE_ATOL
    if bad.any():
        raise ValueError(f"density matrix trace is {complex(tr[bad][0])}, expected 1")
    return a


class DensityMatrix:
    """Validated density matrix: Hermitian, positive semidefinite, unit trace.

    Wraps a read-only complex array. Construction raises if an entry is not
    finite or any invariant is violated beyond the module tolerances; the
    rules are those of check_density_matrices.
    """

    __slots__ = ("_mat",)

    def __init__(self, matrix) -> None:
        a = check_density_matrices(_as_square(matrix, "density matrix"))
        a.setflags(write=False)
        self._mat = a

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        """The read-only array itself; a fresh writable one for copy=True or another dtype."""
        if dtype is not None and np.dtype(dtype) != self._mat.dtype:
            if copy is False:
                raise ValueError(f"a {np.dtype(dtype)} array of a state needs a copy")
            return self._mat.astype(dtype)
        return self._mat.copy() if copy else self._mat

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"

    def to_json(self) -> dict:
        return matrix_to_json(self._mat)


def density_matrices(stack) -> tuple[DensityMatrix, ...]:
    """One DensityMatrix per matrix of a stack (n, d, d), all checked in one validator call.

    Each state wraps a read-only slice of the stack's Hermitian parts, bit-equal to its own
    DensityMatrix; a bad matrix raises the exception DensityMatrix would.
    """
    a = check_density_matrices(stack)
    a.setflags(write=False)
    states = []
    for matrix in a:
        state = DensityMatrix.__new__(DensityMatrix)
        state._mat = matrix
        states.append(state)
    return tuple(states)


def state_matrix(m) -> np.ndarray:
    """The validated array of a state: a DensityMatrix's own, a raw array's via DensityMatrix."""
    return (m if isinstance(m, DensityMatrix) else DensityMatrix(m)).matrix


def check_qubit(m) -> np.ndarray:
    """The 2x2 array of a qubit operator; any other shape is a ValueError."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a qubit (2x2) state, got shape {a.shape}")
    return a


def matrix_to_json(m) -> dict:
    """Serialize a complex matrix as {"dim": n, "re": [[...]], "im": [[...]]}."""
    a = _as_square(m)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def check_integer(value, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as an int: an integral number (NumPy integers included, bools not) in bounds.

    An exact int skips the ABC check.
    """
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{what} must be at most {maximum}, got {value}")
    return int(value)


def check_real(value, what: str) -> float:
    """value as a float: a finite real number (NumPy reals included; bools, strings, bytes not).

    An exact float is returned as it is, and an exact int skips the ABC check.
    """
    kind = type(value)
    if kind is float:
        if abs(value) <= _FLOAT_MAX:
            return value
    elif kind is int or (kind is not bool and isinstance(value, numbers.Real)):
        try:
            # float() first: compared as itself, a float32 inf would pass the max cast to float32
            if abs(real := float(value)) <= _FLOAT_MAX:
                return real
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def check_positive(value, what: str) -> float:
    """value as a float: a number that passes check_real and lies above 0."""
    try:
        if (real := check_real(value, what)) > 0.0:
            return real
    except ValueError:
        pass  # reported below, in this rule's words
    raise ValueError(f"{what} must be positive, got {value!r}")


def _json_rows(rows, key: str, dim: int) -> np.ndarray:
    square = isinstance(rows, list) and len(rows) == dim and all(
        isinstance(row, list) and len(row) == dim for row in rows
    )
    if not square:
        raise ValueError(f"matrix payload shape mismatch: {key} is not {dim} rows of {dim}")
    return np.array([[check_real(x, f"matrix {key} entry") for x in row] for row in rows])


def matrix_from_json(payload: dict) -> np.ndarray:
    """Inverse of matrix_to_json; entries and dim are never converted from other types."""
    if not isinstance(payload, dict):
        raise ValueError(f"matrix payload must be a JSON object, got {type(payload).__name__}")
    try:
        dim, re, im = payload["dim"], payload["re"], payload["im"]
    except KeyError as exc:
        raise ValueError(f"matrix payload missing field: {exc}") from exc
    dim = check_integer(dim, "matrix dim", minimum=1)
    return _json_rows(re, "re", dim) + 1j * _json_rows(im, "im", dim)
