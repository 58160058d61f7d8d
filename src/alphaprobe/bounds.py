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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fidelity
from .fidelity import (
    ALPHA_COUNT,
    ALPHA_START,
    ALPHA_STOP,
    DPI_ALPHA_MIN,
    _check_alpha_grid,
    _fidelity_rows,
    _grid_terms,
    _warn_clamped,
    alpha_range,
)
from .linalg import DensityMatrix, check_positive

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


def _fraction_row(record: ProbingRecord, alphas, order: str) -> np.ndarray:
    """fraction_curve, warning below 1/2 at the caller of its caller."""
    if order not in BOUND_ORDERS:
        raise ValueError(f"order must be one of {BOUND_ORDERS}, got {order!r}")
    states, alphas = np.array(record.states), _check_alpha_grid(alphas, stacklevel=4)
    f = _fidelity_rows(states[_PAIR_FIRST], states[_PAIR_SECOND], alphas)
    return _ratio(f.reshape(2, 2, alphas.size))[BOUND_ORDERS.index(order)]


def fraction_curve(record: ProbingRecord, alphas, order: str = "forward") -> np.ndarray:
    """Evolved-to-initial fidelity fraction over an alpha grid.

    forward: F_alpha(Phi1 rho1, Phi2 rho2) / F_alpha(rho1, rho2); reversed
    swaps both argument pairs. A zero denominator yields +inf. A grid reaching
    below 1/2 warns once, at the caller.
    """
    return _fraction_row(record, alphas, order)


def fraction(record: ProbingRecord, alpha: float, order: str = "forward") -> float:
    """fraction_curve at one alpha; one below 1/2 warns once, at the caller."""
    return float(_fraction_row(record, [alpha], order)[0])


def _bounds_from_fractions(
    fractions: np.ndarray, alphas: np.ndarray, delta_mu: float
) -> np.ndarray:
    """Map fidelity fractions to width bounds; NaN marks no-information points.

    Any fraction >= 1 is uninformative, including values a rounding error
    above 1: those come from channels that cannot separate the probes, not
    from a near-infinite width.
    """
    terms = _grid_terms(alphas)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log(fractions)
        np.divide(alphas * (alphas - 1.0) / 2.0 if terms is None else terms[1], out, out=out)
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

    alphas: np.ndarray  # alpha_range's read-only default grid when tightest_bound had none
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
    """A bound run's checked grid, every alpha in [1/2, 1); for None alpha_range's default.

    An alpha_range grid that starts at 1/2 or above is checked already and is returned as is.
    """
    if alpha_grid is None:
        return alpha_range(ALPHA_START, ALPHA_STOP, ALPHA_COUNT, DPI_ALPHA_MIN)
    if _grid_terms(alpha_grid) is not None and alpha_grid[0] >= DPI_ALPHA_MIN:
        return alpha_grid
    return _check_alpha_grid(alpha_grid, DPI_ALPHA_MIN)


def tightest_bound(record: ProbingRecord, alpha_grid=None) -> BoundCurve:
    """Evaluate both families over the grid (None: the default) and locate the minimum bound."""
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
