"""Eigenvalue-window filtering, tail error bounds, and spectrum diagnostics.

A window is a finite union of sub-intervals of [-1, 1] with exact
open/closed endpoint semantics.  Filtering keeps the part of a function
spanned by basis functions whose eigenvalue falls inside the window; the
residual energy obeys Markov- and Chebyshev-type bounds computed here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .jacobi_blocks import band_spectra
from .sphere_basis import BandParams, HarmonicCoeffs, LocalizedCoeffs, _label_columns, mean_value
from .transform import TransformPlan, _shared_analysis, synthesize

__all__ = [
    "Interval",
    "EigenvalueWindow",
    "filter_coeffs",
    "markov_bound",
    "chebyshev_bound",
    "coefficient_variance",
    "localization_variance",
    "SpectralSummary",
    "moment_deviation_bound",
]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    def mask(self, xs: np.ndarray) -> np.ndarray:
        left = xs >= self.lo if self.lo_closed else xs > self.lo
        right = xs <= self.hi if self.hi_closed else xs < self.hi
        return left & right

    def __str__(self):
        return (
            ("[" if self.lo_closed else "(")
            + f"{self.lo:g},{self.hi:g}"
            + ("]" if self.hi_closed else ")")
        )


_INTERVAL_RE = re.compile(r"^([\[\(])([^,]+),([^\]\)]+)([\]\)])$")


@dataclass(frozen=True)
class EigenvalueWindow:
    """Union of eigenvalue intervals with exact endpoint semantics."""

    intervals: tuple[Interval, ...]

    @classmethod
    def lower_tail(cls, a: float) -> "EigenvalueWindow":
        """[-1, -1+a): eigenvalues within distance a of the bottom edge."""
        if not a > 0:
            raise ValueError("tail width must be positive")
        return cls((Interval(-1.0, -1.0 + a, True, False),))

    @classmethod
    def upper_tail(cls, a: float) -> "EigenvalueWindow":
        """(1-a, 1]: eigenvalues within distance a of the top edge."""
        if not a > 0:
            raise ValueError("tail width must be positive")
        return cls((Interval(1.0 - a, 1.0, False, True),))

    @classmethod
    def centered(cls, center: float, a: float) -> "EigenvalueWindow":
        """(center-a, center+a), clipped to [-1, 1]."""
        if not a > 0:
            raise ValueError("half-width must be positive")
        lo, lo_closed = center - a, False
        hi, hi_closed = center + a, False
        if lo < -1.0:
            lo, lo_closed = -1.0, True
        if hi > 1.0:
            hi, hi_closed = 1.0, True
        return cls((Interval(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def from_string(cls, spec: str) -> "EigenvalueWindow":
        """Parse unions like ``[-1,-0.6]u[-0.2,0.2]u[0.6,1]``.

        Brackets choose closed ``[ ]`` or open ``( )`` endpoints and may be
        mixed; whitespace is ignored.
        """
        text = re.sub(r"\s+", "", spec)
        if not text:
            raise ValueError("empty window string")
        intervals = []
        for part in text.lower().split("u"):
            match = _INTERVAL_RE.match(part)
            if not match:
                raise ValueError(f"bad interval {part!r} in window spec {spec!r}")
            try:
                lo, hi = float(match.group(2)), float(match.group(3))
            except ValueError:
                raise ValueError(f"bad number in interval {part!r}") from None
            if lo < -1.0 or hi > 1.0:
                raise ValueError(f"interval {part!r} is not a subset of [-1, 1]")
            intervals.append(
                Interval(lo, hi, match.group(1) == "[", match.group(4) == "]")
            )
        return cls(tuple(intervals))

    def mask(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape, dtype=bool)
        for iv in self.intervals:
            out |= iv.mask(xs)
        return out

    def contains(self, x: float) -> bool:
        return bool(self.mask(np.asarray([x]))[0])

    def tail_shape(self) -> tuple[str, float] | None:
        """Recognize [-1, -1+a) or (1-a, 1]; returns (side, a) or None."""
        if len(self.intervals) != 1:
            return None
        iv = self.intervals[0]
        if iv.lo == -1.0 and iv.lo_closed and not iv.hi_closed:
            return ("lower", iv.hi + 1.0)
        if iv.hi == 1.0 and iv.hi_closed and not iv.lo_closed:
            return ("upper", 1.0 - iv.lo)
        return None

    def centered_shape(self) -> tuple[float, float] | None:
        """Recognize an open interval strictly inside (-1, 1); (center, a) or None."""
        if len(self.intervals) != 1:
            return None
        iv = self.intervals[0]
        if iv.lo_closed or iv.hi_closed or iv.lo <= -1.0 or iv.hi >= 1.0:
            return None
        return (0.5 * (iv.lo + iv.hi), 0.5 * (iv.hi - iv.lo))

    def __str__(self):
        return "u".join(str(iv) for iv in self.intervals)


def filter_coeffs(
    plan: TransformPlan, coeffs: HarmonicCoeffs, window: EigenvalueWindow
) -> tuple[HarmonicCoeffs, HarmonicCoeffs]:
    """Split into (kept, removed): kept spans eigenvalues inside the window.

    Each part is the synthesis of the field's analysis zeroed outside or
    inside the window.  The two parts reconstruct the input and partition
    its energy exactly up to round-off.
    """
    d = _shared_analysis(plan, coeffs)
    inside = window.mask(plan.eigenvalue_vector())
    kept, removed = (
        synthesize(plan, LocalizedCoeffs._adopt(plan.params, np.where(where, d, 0)))
        for where in (inside, ~inside)
    )
    return kept, removed


def _check_unit(coeffs: HarmonicCoeffs) -> None:
    norm = coeffs.norm()
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"input must be unit norm, got {norm}")


def markov_bound(
    plan: TransformPlan, coeffs: HarmonicCoeffs, a: float, tail: str
) -> tuple[float, float]:
    """Tail-window residual bound (1 +/- mean)/a and the realized residual.

    ``tail`` selects the bottom-edge window [-1, -1+a) ("lower") or the
    top-edge window (1-a, 1] ("upper").  Returns (bound, actual) with
    actual <= bound guaranteed.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if tail not in ("lower", "upper"):
        raise ValueError("tail must be 'lower' or 'upper'")
    _check_unit(coeffs)
    w, xs, eps, _ = _weighted_spread(plan, coeffs)
    if tail == "lower":
        window = EigenvalueWindow.lower_tail(a)
        bound = (1.0 + eps) / a
    else:
        window = EigenvalueWindow.upper_tail(a)
        bound = (1.0 - eps) / a
    outside = ~window.mask(xs)
    actual = float(np.sum(w[outside]))
    return bound, actual


def _weighted_spread(plan: TransformPlan, coeffs: HarmonicCoeffs):
    """Weights |d|^2, the eigenvalues, and their weighted mean and variance."""
    d = _shared_analysis(plan, coeffs)
    xs = plan.eigenvalue_vector()
    w = np.abs(d) ** 2
    eps = float(np.sum(w * xs))
    # the centered form is free of the cancellation of x^2 - mean^2
    return w, xs, eps, float(np.sum(w * (xs - eps) ** 2))


def coefficient_variance(plan: TransformPlan, coeffs: HarmonicCoeffs) -> float:
    """Discrete variance of the eigenvalue distribution weighted by |d|^2."""
    return _weighted_spread(plan, coeffs)[3]


def chebyshev_bound(
    plan: TransformPlan, coeffs: HarmonicCoeffs, a: float
) -> tuple[float, float]:
    """Centered-window residual bound var/a^2 and the realized residual."""
    if not a > 0:
        raise ValueError("a must be positive")
    _check_unit(coeffs)
    w, xs, eps, var = _weighted_spread(plan, coeffs)
    window = EigenvalueWindow.centered(eps, a)
    outside = ~window.mask(xs)
    actual = float(np.sum(w[outside]))
    return var / (a * a), actual


def localization_variance(coeffs: HarmonicCoeffs) -> float:
    """(1 - mean^2) / mean^2; +inf when the mean vanishes to working precision."""
    eps = mean_value(coeffs)
    if abs(eps) < 1e-300:
        return math.inf
    return (1.0 - eps * eps) / (eps * eps)


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """All (order, index, eigenvalue) triples of a band plus basic statistics."""

    params: BandParams
    orders: np.ndarray  # orders and indices: the band's read-only label columns
    indices: np.ndarray
    eigenvalues: np.ndarray
    moments: np.ndarray  # raw sums of x^j for j = 0 .. len-1
    hist_counts: np.ndarray
    hist_edges: np.ndarray

    MAX_MOMENT = 8

    @classmethod
    def _from_eigenvalues(cls, params: BandParams, xs: np.ndarray):
        """Summary of the eigenvalues ``xs``, given in the canonical localized order."""
        orders, indices = _label_columns(params, "localized")
        if len(xs) != params.dimension:
            raise AssertionError("eigenvalue count does not match the dimension")
        # running products: x^j as x^(j-1) * x, not a per-element pow
        moments = np.empty(cls.MAX_MOMENT + 1)
        power = np.ones_like(xs)
        for j in range(cls.MAX_MOMENT + 1):
            moments[j] = np.sum(power)
            np.multiply(power, xs, out=power)
        counts, edges = np.histogram(xs, bins=64, range=(-1.0, 1.0))
        return cls(
            params=params,
            orders=orders,
            indices=indices,
            eigenvalues=xs,
            moments=moments,
            hist_counts=counts,
            hist_edges=edges,
        )

    @classmethod
    def from_plan(cls, plan: TransformPlan) -> "SpectralSummary":
        return cls._from_eigenvalues(plan.params, plan.eigenvalue_vector())

    @classmethod
    def from_band(cls, n: int, m: int) -> "SpectralSummary":
        """Eigenvalues-only construction (no eigenvectors are computed)."""
        params = BandParams(n, m)
        spectra = band_spectra(n, m)
        xs = np.concatenate([spectra[abs(k)] for k in params.orders()])
        return cls._from_eigenvalues(params, xs)

    def counting(self, a: float, b: float) -> float:
        """Fraction of eigenvalues in the closed interval [a, b]."""
        xs = self.eigenvalues
        return float(np.count_nonzero((xs >= a) & (xs <= b))) / len(xs)

    def moment(self, j: int) -> float:
        """Raw sum of x^j over the eigenvalues, for 0 <= j <= MAX_MOMENT."""
        if not 0 <= j <= self.MAX_MOMENT:
            raise ValueError(f"moment order {j} outside 0..{self.MAX_MOMENT}")
        return float(self.moments[j])


def moment_deviation_bound(j: int, n: int, m: int) -> float:
    """Explicit bound on |mean of x^j - (1/2) integral x^j dx| from rank counts.

    Combines the three finite-rank correction operators (norm at most 2,
    ranks (2n+1-j)(j-1) and (2m-1)(n+1) - m^2 + m, the latter floored at 0).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    rank_a = max(0, (2 * n + 1 - j) * (j - 1))
    rank_bc = max(0, (2 * m - 1) * (n + 1) - m * m + m)
    dim = BandParams(n, m).dimension  # ValueError unless 0 <= m <= n
    return 2.0 * (rank_a + 2 * rank_bc) / dim
