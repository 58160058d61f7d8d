"""Dense Hermitian linear algebra for small quantum states.

Every state is checked once, by check_density_matrices, or built valid (a
tomographic estimate), and the kernels downstream trust those stacks, so the
numerical tolerances live in one place: Hermiticity and positivity are
enforced at 1e-9, and eigenvalues below EIG_FLOOR are treated as exact zeros
when taking fractional matrix powers.
"""
from __future__ import annotations

import numbers
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

HERMITICITY_ATOL = 1e-9
PSD_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIG_FLOOR = 1e-12
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


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
    """value as an int: an integral number (NumPy integers included, bools not) in bounds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{what} must be at most {maximum}, got {value}")
    return int(value)


def check_real(value, what: str) -> float:
    """value as a float: a finite real number (NumPy reals included; bools, strings, bytes not)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        # float() first: compared as itself, a float32 inf would pass the max cast to float32
        finite = real and abs(float(value)) <= sys.float_info.max
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def check_positive(value, what: str) -> float:
    """value as a float: a number that passes check_real and lies above 0."""
    try:
        if check_real(value, what) > 0.0:
            return float(value)
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


def _json_float(x: float) -> str:
    if not abs(x) <= sys.float_info.max:
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# the text of a JSON leaf by its type; a subclass of str, float or int (np.float64) as its base
_JSON_LEAVES = {str: _json_str, float: _json_float, int: int.__repr__,
                bool: _JSON_CONSTANTS.__getitem__, type(None): _JSON_CONSTANTS.__getitem__}


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False) at indent, "\\n" and spaces.

    A container formats its items of the types in _JSON_LEAVES inline and recurses only
    into the others: containers, and leaves of other types.
    """
    deeper = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str fails in sorted or _json_str
        items = [_json_str(k) + ": " + (leaf(v) if (leaf := _JSON_LEAVES.get(type(v)))
                                        else _json_text(v, deeper))
                 for k, v in sorted(value.items())]
        return "{" + deeper + ("," + deeper).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [leaf(v) if (leaf := _JSON_LEAVES.get(type(v))) else _json_text(v, deeper)
                 for v in value]
        return "[" + deeper + ("," + deeper).join(items) + indent + "]"
    leaf = _JSON_LEAVES.get(type(value)) or next(
        (_JSON_LEAVES[t] for t in (str, float, int) if isinstance(value, t)), None)
    if leaf is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return leaf(value)


def write_bytes(path, data: bytes) -> None:
    """Create or truncate the file at path and write data to it through os.write.

    One call writes it all, short of a full disk or a signal; the loop writes on after a
    short write. An OSError of the open, a write or the close propagates.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_json(path, payload) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) and a newline.

    Built by _json_text (json is pure Python with an indent before 3.13); keys must be str.
    A NaN or inf is a ValueError, any other value json rejects a TypeError, before opening.
    The file holds the text's UTF-8 bytes, "\\n" line ends on every platform.
    """
    write_bytes(path, (_json_text(payload, "\n") + "\n").encode())
