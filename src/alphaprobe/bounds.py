"""Analytic bounds on an unknown Gaussian spectral width from probe states.

A probing record holds the two prepared probes, the two evolved probes, and
the known control shift dmu between the two environment lines. The
data-processing inequality combined with the closed-form Gaussian fidelity
gives, whenever the evolved-to-initial fidelity fraction f_alpha < 1,

    sigma <= B(alpha) = sqrt( alpha (alpha - 1) dmu^2 / (2 ln f_alpha) ).

Family B1 uses the forward fidelity fraction, family B2 the reversed one
(both fidelity arguments swapped); the reported bound is the minimum over an
alpha grid and both families. A fraction >= 1 carries no width information
(the inequality is satisfied by every sigma), so those grid points are
reported as absent rather than as huge bounds.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fidelity
from .fidelity import (
    DPI_ALPHA_MIN,
    _check_alpha_grid,
    _fidelity_rows,
    _warn_clamped,
    default_alpha_grid,
)
from .linalg import DensityMatrix, check_positive, write_bytes

BOUND_ORDERS = ("forward", "reversed")
BOUND_FAMILIES = ("B1", "B2")  # the bound of each order, in BOUND_ORDERS order
# the fidelity pairs (first, second) behind the fractions, as indices into
# ProbingRecord.states: forward numerator and denominator, then reversed ones
_PAIR_FIRST, _PAIR_SECOND = [2, 0, 3, 1], [3, 1, 2, 0]
# a fill call of _search_optima takes BLOCK_ALPHA_POINTS // (gap width) gaps, two pairs a gap
# (273 gaps of 15 points at A = 500), so the constant bounds a fill call's memory: a Monte-Carlo
# run of 100 replicas at A = 500 traces a 0.80 MiB peak (tracemalloc; 2-vCPU Xeon, numpy 2.4)
BLOCK_ALPHA_POINTS = 4096
# _search_optima's one float allowance: its widening of each computed ln F_alpha, which covers
# an error of a third of it at a gap's end and at a point inside (the kernel's is a few ulp),
# and its relative slack on a bound
SEARCH_ALLOWANCE = 2.0**-20


class NoInformationError(RuntimeError):
    """Raised when a bound was demanded but every grid point is uninformative."""


@dataclass(frozen=True)
class ProbingRecord:
    """Probes before and after the channel pair, plus the control shift dmu > 0 (Hz)."""

    rho1: DensityMatrix
    rho2: DensityMatrix
    phi1_rho1: DensityMatrix
    phi2_rho2: DensityMatrix
    delta_mu: float

    def __post_init__(self) -> None:
        dims = [s.dim for s in self.states]
        if len(set(dims)) != 1:
            raise ValueError(f"states rho1, rho2, phi1_rho1, phi2_rho2 must share one dimension, "
                             f"got {dims}")
        # at dmu = 0 the inequality only says sigma >= 0: such a record is not built
        object.__setattr__(self, "delta_mu", check_positive(self.delta_mu, "control shift"))

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        """(rho1, rho2, phi1_rho1, phi2_rho2): the order of a record's state stack."""
        return (self.rho1, self.rho2, self.phi1_rho1, self.phi2_rho2)


def _ratio(f: np.ndarray) -> np.ndarray:
    """Fractions of F (..., 2, k), numerators then denominators; a zero denominator gives +inf."""
    num, den = f[..., 0, :], f[..., 1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    np.copyto(out, math.inf, where=den == 0.0)
    return out


def fraction_curve(record: ProbingRecord, alphas, order: str = "forward") -> np.ndarray:
    """Evolved-to-initial fidelity fraction over an alpha grid.

    forward: F_alpha(Phi1 rho1, Phi2 rho2) / F_alpha(rho1, rho2); reversed
    swaps both argument pairs. A zero denominator yields +inf.
    """
    if order not in BOUND_ORDERS:
        raise ValueError(f"order must be one of {BOUND_ORDERS}, got {order!r}")
    states, alphas = np.array(record.states), _check_alpha_grid(alphas)
    f = _fidelity_rows(states[_PAIR_FIRST], states[_PAIR_SECOND], alphas)
    return _ratio(f.reshape(2, 2, alphas.size))[BOUND_ORDERS.index(order)]


def fraction(record: ProbingRecord, alpha: float, order: str = "forward") -> float:
    return float(fraction_curve(record, [alpha], order)[0])


def _bounds_from_fractions(
    fractions: np.ndarray, alphas: np.ndarray, delta_mu: float
) -> np.ndarray:
    """Map fidelity fractions to width bounds; NaN marks no-information points.

    Any fraction >= 1 is uninformative, including values a rounding error
    above 1: those come from channels that cannot separate the probes, not
    from a near-infinite width.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log(fractions)
        np.divide(alphas * (alphas - 1.0) / 2.0, out, out=out)
        np.multiply(np.sqrt(out, out=out), delta_mu, out=out)  # dmu unsquared: no overflow
    # a fraction of exactly 0 gives log -inf and a bound of 0, which is the
    # correct limit; a fraction >= 1 (+inf included, whose root is -0.0) and
    # an infinite bound (an overflowing product included) are absent
    np.copyto(out, math.nan, where=(fractions >= 1.0) | (out == math.inf))
    return out


def _family_bound(bounds: np.ndarray) -> float | None:
    """The one entry of a family's bounds on a one-point grid; None when uninformative."""
    return None if math.isnan(bounds[0]) else float(bounds[0])


def bound_b1(record: ProbingRecord, alpha: float) -> float | None:
    """Family-B1 width bound at one alpha; None when uninformative."""
    return _family_bound(tightest_bound(record, [alpha]).b1)


def bound_b2(record: ProbingRecord, alpha: float) -> float | None:
    """Family-B2 width bound at one alpha; None when uninformative."""
    return _family_bound(tightest_bound(record, [alpha]).b2)


@dataclass(frozen=True)
class BoundOptimum:
    """Tightest bound over the grid: value (Hz), its alpha, and the family."""

    value: float
    alpha: float
    family: str


@dataclass(frozen=True)
class BoundCurve:
    """Both bound families over an alpha grid; NaN entries are uninformative."""

    alphas: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    optimum: BoundOptimum | None
    # the forward and reversed fractions behind b1 and b2, written to fig4_fractions.csv
    fractions: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def valid1(self) -> np.ndarray:
        return ~np.isnan(self.b1)

    @property
    def valid2(self) -> np.ndarray:
        return ~np.isnan(self.b2)

    @property
    def no_information(self) -> bool:
        return self.optimum is None


def _optimum(bounds: np.ndarray, alphas: np.ndarray) -> BoundOptimum | None:
    """The least finite bound of one record's rows (2, A); None where there is none.

    B1 wins a tie with B2, and the first grid point a tie within a family, as in a scan
    of B1 and then B2 in grid order that keeps only strict improvements.
    """
    finite = np.fmin(bounds, math.inf).ravel()  # fmin skips a NaN
    k = int(np.argmin(finite))  # the first minimum of B1 followed by B2
    if math.isinf(finite[k]):
        return None
    return BoundOptimum(float(finite[k]), float(alphas[k % alphas.size]),
                        BOUND_FAMILIES[k // alphas.size])


def _bound_curve(f: np.ndarray, alphas: np.ndarray, delta_mu: float) -> BoundCurve:
    """The full-grid BoundCurve of one record's clamped F_alpha (4, A) in _PAIR_FIRST order."""
    fractions = _ratio(f.reshape(2, 2, alphas.size))
    bounds = _bounds_from_fractions(fractions, alphas, delta_mu)
    return BoundCurve(alphas, bounds[0], bounds[1], _optimum(bounds, alphas),
                      fractions=tuple(fractions))


def _record_frames(states: np.ndarray) -> np.ndarray:
    """The qubit frames (6, 4n) of records (n, 4, 2, 2), a record's pairs in _PAIR_FIRST order."""
    return fidelity._qubit_frames(states[:, _PAIR_FIRST].reshape(-1, 2, 2),
                                  states[:, _PAIR_SECOND].reshape(-1, 2, 2))


def _search_optima(frames: np.ndarray, alphas: np.ndarray, delta_mu: float) -> np.ndarray:
    """Each least bound, inf for none, of qubit records' _record_frames (6, 4n) on a checked grid.

    The values of _optimum on the full grid, bit for bit, from a certified part of its
    sorted copy (a least value ignores order). The sandwiched S_a = ln F_a / (a - 1) is
    nondecreasing in a (Mueller-Lennert et al., J. Math. Phys. 54, 122203 (2013)), so inside a
    gap (a_i, a_j) every bound obeys B(a)^2 >= a_i dmu^2 / (2 (S_out(a_j) - S_in(a_i))), and no
    point is informative where that divergence gap is <= 0. A coarse sub-grid, every step-th
    point and both ends, is evaluated first, for every record in one kernel call; then, in
    calls of BLOCK_ALPHA_POINTS // (gap width) gaps, every interior point of each gap of each
    family that may hold a bound at or below the record's least coarse bound, each fill
    folding into the record's least value. Each ln F is widened by SEARCH_ALLOWANCE, a bound
    for the rounding at a gap's end and at a point inside it. The kernel floors only
    alpha-free inputs, which keeps S_a monotone (see the README). The per-alpha half runs
    through the fidelity module; a call warns of clamping once, for the points it evaluated.
    """
    alphas = np.sort(alphas)
    n, count = frames.shape[1] // 4, alphas.size
    step = max(2, 1 << (math.isqrt(count).bit_length() - 1))  # about sqrt(A): 16 at A = 500
    cols = np.minimum(np.arange(0, count + step - 1, step), count - 1)  # and the last point
    gaps = np.minimum(cols[:-1, None] + np.arange(1, step), cols[1:, None])  # end-padded interiors
    q = (1.0 - alphas) / alphas
    peak = -math.inf

    def bound_rows(pairs, index):
        """Clamped F (pairs, k) and bounds, inf for none, of frame-column pairs at grid indices."""
        nonlocal peak
        at = index if index.ndim == 1 else np.repeat(index, 2, axis=0)  # a row per pair
        f = fidelity._qubit_fidelity_sums(frames[:, pairs], q[at], alphas[at])
        peak = max(peak, f.max())
        fractions = _ratio(np.minimum(f, 1.0, out=f).reshape(-1, 2, index.shape[-1]))
        return f, np.fmin(_bounds_from_fractions(fractions, alphas[index], delta_mu), math.inf)

    a = alphas[cols]
    root_half_a = np.sqrt(a[:-1] / 2.0) * (1.0 - SEARCH_ALLOWANCE)
    f, coarse = bound_rows(np.arange(4 * n), cols)
    value = coarse.reshape(n, -1).min(axis=1)  # each record's least coarse bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_f = np.log(f, out=f).reshape(n, 2, 2, -1)  # (record, family, num/den, column)
        spread = ((SEARCH_ALLOWANCE - log_f[:, :, 0, 1:]) / (1.0 - a[1:])
                  + (log_f[:, :, 1, :-1] + SEARCH_ALLOWANCE) / (1.0 - a[:-1]))
        lower = delta_mu * root_half_a / np.sqrt(spread)  # inf only beyond the float range
    pruned = (spread <= 0.0) | (lower > value[:, None, None])
    rec, family, gap = np.nonzero(~pruned)
    del f, log_f  # views of the coarse call's work array: the fills may reuse its memory
    per_call = BLOCK_ALPHA_POINTS // gaps.shape[1]
    for s in range(0, len(rec), per_call):
        part = slice(s, s + per_call)
        num = 4 * rec[part] + 2 * family[part]
        fill = bound_rows(np.stack((num, num + 1), axis=1).ravel(), gaps[gap[part]])[1]
        np.minimum.at(value, rec[part], fill.min(axis=1))
    _warn_clamped(peak - 1.0)
    return value


def _bound_grid(alpha_grid) -> np.ndarray:
    """A bound run's checked grid: the default for None, every alpha in [1/2, 1)."""
    return _check_alpha_grid(
        default_alpha_grid() if alpha_grid is None else alpha_grid, DPI_ALPHA_MIN
    )


def tightest_bound(record: ProbingRecord, alpha_grid=None) -> BoundCurve:
    """Evaluate both families over the grid and locate the minimum bound."""
    states, alphas = np.array(record.states), _bound_grid(alpha_grid)
    f = _fidelity_rows(states[_PAIR_FIRST], states[_PAIR_SECOND], alphas)  # one F call
    return _bound_curve(f, alphas, record.delta_mu)


def ratio_lower_bound(record: ProbingRecord, alpha: float) -> float | None:
    """Lower bound on dmu / sigma at one alpha (independent of both scales).

    The inverse of the tightest width bound at unit shift, the optimum of
    tightest_bound on a one-point grid; None when neither fraction is informative,
    +inf when a fraction is 0 (the width bound's limit 0). The record's own
    shift is not used, so any positive placeholder will do.
    """
    best = tightest_bound(replace(record, delta_mu=1.0), [alpha]).optimum
    if best is None:
        return None
    return math.inf if best.value == 0.0 else 1.0 / best.value


def lower_bound_delta_mu(
    record: ProbingRecord, sigma_known: float, alpha: float
) -> float | None:
    """Lower bound on the control shift at a known width; the record's own shift is unused."""
    check_positive(sigma_known, "known width")
    ratio = ratio_lower_bound(record, alpha)
    return None if ratio is None else sigma_known * ratio


def width_ratio(bound: float, sigma: float) -> float:
    """bound / sigma; a ratio beyond the float range, which no JSON holds, raises ValueError."""
    ratio = bound / sigma
    if math.isinf(ratio):
        raise ValueError(f"a bound of {bound!r} Hz over the width {sigma!r} Hz overflows a float")
    return ratio


def bound_summary(curve: BoundCurve, sigma_reference: float | None = None) -> dict:
    """JSON-ready summary of a bound curve's optimum; see width_ratio for its ValueError."""
    best = curve.optimum
    if sigma_reference is not None:
        check_positive(sigma_reference, "reference width")
    summary = dict(no_information=best is None, b_inf_hz=None, alpha_star=None, family=None)
    if best is not None:
        summary.update(b_inf_hz=best.value, alpha_star=best.alpha, family=best.family)
        if sigma_reference is not None:
            summary["b_inf_over_sigma"] = width_ratio(best.value, sigma_reference)
    return summary


def _quoted(cells) -> list[str]:
    """String cells as they are, quoted like the csv module where one holds , " CR or LF."""
    return ['"' + c.replace('"', '""') + '"' if any(q in c for q in ',"\r\n') else c
            for c in cells]


_PAD = 0xFF  # pads the byte tables; no UTF-8 text holds it, so a cell may hold any other byte


def _byte_cells(cells) -> np.ndarray:
    """Text cells as a (len(cells), width) uint8 table of their UTF-8 bytes, padded with _PAD."""
    data = [c.encode() for c in cells]
    width = max(map(len, data), default=0)
    padded = b"".join(b.ljust(width, bytes([_PAD])) for b in data)
    return np.frombuffer(padded, np.uint8).reshape(len(data), width)


_BOOL_CELLS = np.frombuffer(b"falsetrue" + bytes([_PAD]), np.uint8).reshape(2, 5)
_FLOAT_WIDTH = 20  # the widest '%.12e' cell, "-d.dddddddddddde-ddd"
# a float cell of _float_cells is 24 bytes: a lead word (_PAD, "-" or _PAD, the leading digit,
# "."), three 4-digit words and an 8-byte exponent tail word; bytes 1 to 20 hold its text.
# _WORDS holds the 4-digit word "%04d" % i at row i < 10^4, then at row _LEAD_ROW + d the
# lead word of the signed leading digit d, |d| <= 10 (10, a round-up to the next decade,
# is never kept, nor is 0)
_LEAD_ROW = 10**4 + 10
_LEADS = np.full((21, 4), _PAD, np.uint8)
_LEADS[:10, 1] = ord("-")
_LEADS[:, 2] = ord("0") + np.abs(np.arange(-10, 11))
_LEADS[:, 3] = ord(".")
_WORDS = np.concatenate((
    np.indices((10,) * 4, np.uint8).reshape(4, 10**4).T + np.uint8(ord("0")),  # i's digits
    _LEADS,
)).view(np.uint32).ravel()
_WORD_SCALES = np.array([[1e12], [1e8], [1e4], [1.0]])
# decimal exponents e from _E_MIN keep |v| 10^(12 - e) normal: their scales and their tail
# words "e%+03d" % e padded with _PAD, the digits of |e| from its 4-digit word (two of them
# from e = -99 to 99)
_E_MIN = -296
_EXPONENTS = np.arange(_E_MIN, 309)
_SCALES = 10.0 ** (12 - _EXPONENTS)
_TAIL_WORDS = np.full((_EXPONENTS.size, 8), _PAD, np.uint8)
_TAIL_WORDS[:, 0], _TAIL_WORDS[:, 1] = ord("e"), np.where(_EXPONENTS < 0, ord("-"), ord("+"))
_TAIL_WORDS[:, 2:5] = _WORDS[np.abs(_EXPONENTS)].view(np.uint8).reshape(-1, 4)[:, 1:]
_TAIL_WORDS[-99 - _E_MIN:100 - _E_MIN, 2:5] = _TAIL_WORDS[-99 - _E_MIN:100 - _E_MIN, 3:6]
_TAIL_WORDS = _TAIL_WORDS.view(np.uint64).ravel()


def _float_cells(values: np.ndarray) -> np.ndarray:
    """Each float's '%.12e' % v bytes, NaN empty, as an (n, 20) uint8 view padded with _PAD.

    With e = floor(log10 |v|) the mantissa is s = |v| 10^(12 - e) rounded to an integer.
    The computed s' carries two roundings, the table's (at most 1 ulp) and the product's,
    so |s' - s| < 3 2^-53 s < 3.4e-3 for s < 10^13: where s' lies more than 1/128 from a
    rounding boundary, s rounds to the same integer, and s' >= 10^12 pins the exponent.
    Its leading digit and three 4-digit words come from the exact quotients
    floor(s / 10^k): a rounded s / 10^k reaches the next integer only from within half an
    ulp, far below the gap 10^-k. Each is a row of _WORDS, and e a row of _TAIL_WORDS, in
    row-major 24-byte cells whose bytes 1 to 20 the view shows. Every other value present
    (0, inf, a subnormal or tiny exponent, a round-up to the next decade, a near-tie) is
    formatted by '%' one cell at a time.
    """
    a = np.abs(values)
    regular = np.isfinite(a) & (a > 0.0)
    a[~regular] = 1.0
    row = np.maximum(np.floor(np.log10(a)), _E_MIN).astype(np.intp) - _E_MIN  # e's table row
    scaled = a * _SCALES[row]
    mantissa = np.floor(scaled)
    half = scaled - mantissa - 0.5
    mantissa += half > 0.0
    regular &= (np.abs(half) > 1 / 128) & (scaled >= 1e12) & (mantissa < 1e13)
    words = np.floor(mantissa / _WORD_SCALES)  # the leading digit, then each 4-digit word,
    words[1:] -= 1e4 * words[:-1]  # in exact integers
    np.copysign(words[0], values, out=words[0])
    words[0] += _LEAD_ROW
    cells = np.empty((values.size, 6), np.uint32)  # a row per cell
    cells[:, :4] = _WORDS[words.T.astype(np.intp)]
    cells.view(np.uint64)[:, 2] = _TAIL_WORDS[row]
    text = cells.view(np.uint8)[:, 1:1 + _FLOAT_WIDTH]
    empty = np.isnan(values)
    text[empty] = _PAD
    fallback = np.flatnonzero(~(regular | empty))
    if fallback.size:
        block = b"".join((b"%.12e" % v).ljust(_FLOAT_WIDTH, bytes([_PAD]))
                         for v in values[fallback].tolist())
        text[fallback] = np.frombuffer(block, np.uint8).reshape(-1, _FLOAT_WIDTH)
    return text


@functools.lru_cache(maxsize=4)
def _key_cells(dtype: np.dtype, data: bytes) -> np.ndarray:
    """The _float_cells bytes of a column by its dtype and bytes, read-only, in row order."""
    return np.frombuffer(_float_cells(np.frombuffer(data, dtype).astype(float)).tobytes(), np.uint8)


def write_csv(target, header, columns) -> None:
    """Write a header and equal-length columns, formatted in full, to a path or a text stream.

    Cells: float arrays as %.12e with NaN empty, bool arrays as true/false, string
    sequences as they are. CRLF rows and minimal quoting (a cell holding a comma,
    a quote, CR or LF) give the csv module's bytes for two or more columns. One byte table
    holds the rows, each float cell the 20 text bytes of its _float_cells cell; a path gets
    the bytes through write_bytes, a stream their text. The first float column's cells
    (mostly one alpha grid) come from a memo of 4, and every other float of the file is
    formatted in one call.
    """
    n = len(columns[0]) if columns else 0
    floats = [c for c in columns if isinstance(c, np.ndarray) and c.dtype != bool]
    # zeros(0) makes the concatenation a float array even when no column is float
    float_cells = _float_cells(np.concatenate([np.zeros(0), *floats[1:]]))
    blocks = iter([*(_key_cells(c.dtype, c.tobytes()).reshape(n, _FLOAT_WIDTH) for c in floats[:1]),
                   *float_cells.reshape(len(floats[1:]), n, _FLOAT_WIDTH)])
    cells = [_byte_cells(_quoted(c)) if not isinstance(c, np.ndarray) else next(blocks)
             if c.dtype != bool else _BOOL_CELLS.take(c.view(np.uint8), axis=0) for c in columns]
    starts = np.cumsum([0] + [c.shape[1] + 1 for c in cells])  # each cell's, then the row end
    table = np.full((n, starts[-1] + 1), ord(","), np.uint8)
    for c, start in zip(cells, starts):
        table[:, start:start + c.shape[1]] = c
    table[:, [starts[-1] - 1, starts[-1]]] = (ord("\r"), ord("\n"))  # over the last comma
    head = (",".join(_quoted(header)) + "\r\n").encode()
    body = head + table.tobytes().translate(None, bytes([_PAD]))
    if isinstance(target, (str, os.PathLike)):
        write_bytes(target, body)
    else:
        target.write(body.decode())


def write_bound_curve_csv(curve: BoundCurve, path) -> None:
    """CSV export: alpha,b1_hz,b2_hz,valid1,valid2 (empty cells where invalid)."""
    header = ["alpha", "b1_hz", "b2_hz", "valid1", "valid2"]
    write_csv(path, header, (curve.alphas, curve.b1, curve.b2, curve.valid1, curve.valid2))
