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

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fidelity import (
    DPI_ALPHA_MIN,
    _check_alpha_grid,
    _fidelity_curves,
    default_alpha_grid,
)
from .linalg import DensityMatrix, check_positive, check_real

BOUND_ORDERS = ("forward", "reversed")
BOUND_FAMILIES = ("B1", "B2")  # the bound of each order, in BOUND_ORDERS order
# the fidelity pairs (first, second) behind the fractions, as indices into
# ProbingRecord.states: forward numerator and denominator, then reversed ones
_PAIR_FIRST, _PAIR_SECOND = [2, 0, 3, 1], [3, 1, 2, 0]


class DegenerateControlError(ValueError):
    """dmu = 0 makes the bound trivial (sigma >= 0 only)."""


class NoInformationError(RuntimeError):
    """Raised when a bound was demanded but every grid point is uninformative."""


@dataclass(frozen=True)
class ProbingRecord:
    """Probes before and after the channel pair, plus the control shift dmu (Hz)."""

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
        delta_mu = check_real(self.delta_mu, "control shift")
        if delta_mu < 0.0:
            raise ValueError(f"control shift must be nonnegative, got {self.delta_mu}")
        object.__setattr__(self, "delta_mu", delta_mu)

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        """(rho1, rho2, phi1_rho1, phi2_rho2): the order of a record's state stack."""
        return (self.rho1, self.rho2, self.phi1_rho1, self.phi2_rho2)


def _check_order(order: str) -> str:
    if order not in BOUND_ORDERS:
        raise ValueError(f"order must be one of {BOUND_ORDERS}, got {order!r}")
    return order


def _check_control_shift(delta_mu: float) -> None:
    if delta_mu == 0.0:
        raise DegenerateControlError(
            "control shift is zero: the inequality only yields the trivial "
            "condition sigma >= 0"
        )


def _record_states(record: ProbingRecord) -> np.ndarray:
    """The record's four matrices as a stack of one record, shape (1, 4, d, d)."""
    return np.stack([s.matrix for s in record.states])[None]


def _fraction_rows(states: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Fidelity fractions (n, 2, A), in BOUND_ORDERS order, of n records stacked as (n, 4, d, d).

    One fidelity call covers every record and order; a zero denominator gives +inf.
    """
    n, _, d, _ = states.shape
    f = _fidelity_curves(
        states[:, _PAIR_FIRST].reshape(-1, d, d), states[:, _PAIR_SECOND].reshape(-1, d, d), alphas
    ).reshape(n, 2, 2, -1)
    num, den = f[:, :, 0], f[:, :, 1]
    return np.divide(num, den, out=np.full_like(num, math.inf), where=den != 0.0)


def fraction_curve(record: ProbingRecord, alphas, order: str = "forward") -> np.ndarray:
    """Evolved-to-initial fidelity fraction over an alpha grid.

    forward: F_alpha(Phi1 rho1, Phi2 rho2) / F_alpha(rho1, rho2); reversed
    swaps both argument pairs. A zero denominator yields +inf.
    """
    rows = _fraction_rows(_record_states(record), _check_alpha_grid(alphas))
    return rows[0, BOUND_ORDERS.index(_check_order(order))]


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
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(fractions)
        np.divide(alphas * (alphas - 1.0) * delta_mu**2 / 2.0, out, out=out)
        np.sqrt(out, out=out)
    # a fraction of exactly 0 gives log -inf and a bound of 0, which is the
    # correct limit; a fraction >= 1 (+inf included, whose root is -0.0) and
    # an infinite bound are absent
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
    # the forward and reversed fidelity fractions behind b1 and b2; in no artifact
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


def _optima(bounds: np.ndarray, alphas: np.ndarray) -> list:
    """Each record's smallest finite bound in rows (n, 2, A); None where there is none.

    B1 wins a tie with B2, and the first grid point a tie within a family, as
    in a scan of B1 and then B2 in grid order that keeps only strict improvements.
    """
    finite = np.fmin(bounds, math.inf).reshape(len(bounds), -1)  # fmin skips a NaN
    best = np.argmin(finite, axis=1)  # the first minimum of B1 followed by B2
    return [
        None if math.isinf(value) else BoundOptimum(
            value=value, alpha=float(alphas[k % alphas.size]),
            family=BOUND_FAMILIES[k // alphas.size],
        )
        for k, value in zip(best.tolist(), finite[np.arange(len(best)), best].tolist())
    ]


def _bound_rows(states: np.ndarray, alphas: np.ndarray, delta_mu: float):
    """Fractions and bounds (n, 2, A) of n records stacked as (n, 4, d, d), and their optima."""
    fractions = _fraction_rows(states, alphas)
    bounds = _bounds_from_fractions(fractions, alphas, delta_mu)
    return fractions, bounds, _optima(bounds, alphas)


def _bound_curve(alphas, fractions, bounds, optimum) -> BoundCurve:
    """One record's curve from its (2, A) rows of _bound_rows."""
    return BoundCurve(alphas=alphas, b1=bounds[0], b2=bounds[1], optimum=optimum,
                      fractions=(fractions[0], fractions[1]))


def _bound_grid(alpha_grid) -> np.ndarray:
    """A bound run's checked grid: the default for None, every alpha in [1/2, 1)."""
    return _check_alpha_grid(
        default_alpha_grid() if alpha_grid is None else alpha_grid, DPI_ALPHA_MIN
    )


def tightest_bound(record: ProbingRecord, alpha_grid=None) -> BoundCurve:
    """Evaluate both families over the grid and locate the minimum bound."""
    _check_control_shift(record.delta_mu)
    alphas = _bound_grid(alpha_grid)
    (fractions,), (bounds,), (optimum,) = _bound_rows(
        _record_states(record), alphas, record.delta_mu
    )
    return _bound_curve(alphas, fractions, bounds, optimum)


def ratio_lower_bound(record: ProbingRecord, alpha: float) -> float | None:
    """Lower bound on dmu / sigma at one alpha (independent of both scales).

    The inverse of the width bound at unit shift, taking the better (smaller)
    of the two families' bounds; None when neither fraction is informative,
    +inf when a fraction is 0 (the width bound's limit 0).
    """
    a = _check_alpha_grid([alpha], DPI_ALPHA_MIN)
    unit = _bounds_from_fractions(_fraction_rows(_record_states(record), a)[0], a, 1.0)
    best = float(np.fmin(*unit)[0])  # fmin skips a NaN (uninformative) family
    if math.isnan(best):
        return None
    return math.inf if best == 0.0 else 1.0 / best


def lower_bound_delta_mu(
    record: ProbingRecord, sigma_known: float, alpha: float
) -> float | None:
    """Lower bound on the control shift when the width is known instead."""
    check_positive(sigma_known, "known width")
    ratio = ratio_lower_bound(record, alpha)
    return None if ratio is None else sigma_known * ratio


def bound_summary(curve: BoundCurve, sigma_reference: float | None = None) -> dict:
    """JSON-ready summary of a bound curve's optimum."""
    if curve.optimum is None:
        summary: dict = {
            "no_information": True,
            "b_inf_hz": None,
            "alpha_star": None,
            "family": None,
        }
    else:
        summary = {
            "no_information": False,
            "b_inf_hz": curve.optimum.value,
            "alpha_star": curve.optimum.alpha,
            "family": curve.optimum.family,
        }
    if sigma_reference is not None and curve.optimum is not None:
        summary["b_inf_over_sigma"] = curve.optimum.value / sigma_reference
    return summary


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.12e}"
    return "" if value is None else value


def write_csv(target, header, rows) -> None:
    """Write a header and rows to a path or an open text stream.

    Cells: floats as .12e, None and NaN as empty cells, bools as true/false,
    anything else (strings) unchanged. Pass plain Python values (`.tolist()`).
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def write_bound_curve_csv(curve: BoundCurve, path) -> None:
    """CSV export: alpha,b1_hz,b2_hz,valid1,valid2 (empty cells where invalid)."""
    header = ["alpha", "b1_hz", "b2_hz", "valid1", "valid2"]
    columns = (curve.alphas, curve.b1, curve.b2, curve.valid1, curve.valid2)
    write_csv(path, header, zip(*(c.tolist() for c in columns)))
