"""Orthonormal ultraspherical polynomials and their associated variants.

The family with weight exponent ``alpha`` is orthonormal on [-1, 1] with
respect to (1/2) * integral of f * g * (1 - x^2)^alpha.  Everything downstream
(Jacobi blocks, sphere evaluation, fast transforms) is driven by the
three-term recurrence coefficients stored here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UltrasphericalFamily",
    "recurrence_coefficient",
    "christoffel_darboux_sum",
    "christoffel_darboux_closed",
    "chebyshev_connection",
]


def _coefficients(alpha, l) -> np.ndarray:
    """Recurrence coefficients b_l for weight exponents alpha, broadcast together."""
    a, l = np.broadcast_arrays(np.asarray(alpha), np.asarray(l, dtype=float))
    b = np.sqrt(
        l * (l + 2.0 * a) / ((2.0 * l + 2.0 * a + 1.0) * (2.0 * l + 2.0 * a - 1.0))
    )
    # b_0^2 = (1/2) * alpha! / prod_{j=0..alpha}(j + 1/2), evaluated as a
    # running product of ratios so no gamma function is needed.
    j = np.arange(1, a.max(initial=0) + 1, dtype=float)
    b0 = np.sqrt(np.concatenate(([1.0], np.cumprod(j / (j + 0.5)))))
    return np.where(l == 0, b0[a], b)


def _recurrence(b: np.ndarray, start: np.ndarray, x: np.ndarray, lengths):
    """Yield p_j at the points x for j = 0, 1, ... over a batch of recurrences.

    Row r runs p_{-1} = 0, p_0 = start[r] and
    p_j = (x * p_{j-1} - b[r, j-1] * p_{j-2}) / b[r, j] for lengths[r] values;
    ``start`` is (rows, len(x)).  Lengths must not increase: step j advances
    only the prefix of rows still running and yields p_j of that prefix, a
    new (active rows, len(x)) array.  This is the one evaluation loop of the
    three-term recurrence.
    """
    active = len(lengths)
    cur, prev, cols = start, np.zeros_like(start), b.T[:, :, None]
    yield cur
    for j in range(1, lengths[0]):
        if lengths[active - 1] <= j:
            while lengths[active - 1] <= j:
                active -= 1
            cur, prev, cols = cur[:active], prev[:active], cols[:, :active]
        cur, prev = (x * cur - cols[j - 1] * prev) / cols[j], cur
        yield cur


def recurrence_coefficient(alpha: int, l: int) -> float:
    """Recurrence coefficient b_l for the weight exponent ``alpha``."""
    if alpha < 0 or l < 0:
        raise ValueError("alpha and l must be non-negative")
    return float(_coefficients(alpha, l))


@dataclass(frozen=True, eq=False)
class UltrasphericalFamily:
    """Recurrence table b_0 .. b_{max_degree+1} for one weight exponent.

    Immutable after construction; all evaluators are pure functions of the
    stored coefficients and are safe for concurrent use.
    """

    alpha: int
    max_degree: int
    b: np.ndarray

    @classmethod
    def build(cls, alpha: int, max_degree: int) -> "UltrasphericalFamily":
        if alpha < 0 or max_degree < 0:
            raise ValueError("alpha and max_degree must be non-negative")
        b = _coefficients(alpha, np.arange(max_degree + 2))
        b.setflags(write=False)
        return cls(alpha=alpha, max_degree=max_degree, b=b)

    def recurrence_coeff(self, l: int) -> float:
        if not 0 <= l <= self.max_degree + 1:
            raise IndexError(f"coefficient index {l} outside stored range")
        return float(self.b[l])

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 1.0):
            raise ValueError("evaluation points must satisfy |x| <= 1")
        return x

    def eval(self, l: int, x):
        """Evaluate the degree-l orthonormal polynomial by forward recurrence."""
        if l > self.max_degree:
            raise IndexError(f"degree {l} exceeds max_degree {self.max_degree}")
        return self.eval_associated(l, x, 0)

    def eval_associated(self, l: int, x, shift: int):
        """Evaluate the degree-l polynomial of the recurrence shifted by ``shift``.

        ``shift == 0`` reduces to the plain family.  ``l == -1`` returns 0.
        """
        if shift < 0:
            raise ValueError("shift must be non-negative")
        if l < -1:
            raise IndexError("degree below -1 is not defined")
        if shift + max(l, 0) > self.max_degree:
            raise IndexError(
                f"shift {shift} + degree {l} exceeds max_degree {self.max_degree}"
            )
        x = self._check_x(x)
        if l == -1:
            return np.zeros_like(x) if x.ndim else 0.0
        start = np.full((1, x.size), 1.0 / self.b[shift])
        steps = _recurrence(self.b[None, shift:], start, x.reshape(-1), (l + 1,))
        p = deque(steps, maxlen=1)[0][0]
        return p.reshape(x.shape) if x.ndim else float(p[0])


def christoffel_darboux_sum(
    family: UltrasphericalFamily, m: int, n: int, x: float, y: float
) -> float:
    """Direct evaluation of sum_{l=m..n} p_{l-alpha}(x) * p_{l-m}(y, m-alpha).

    The matching closed form is :func:`christoffel_darboux_closed`; the two
    agree away from x == y and this function is primarily a test oracle.
    """
    alpha = family.alpha
    if not alpha <= m <= n:
        raise ValueError("need alpha <= m <= n")
    if abs(x - y) < 1e-12:
        raise ValueError("x and y too close; the confluent limit is not implemented")
    total = 0.0
    for l in range(m, n + 1):
        total += family.eval(l - alpha, x) * family.eval_associated(l - m, y, m - alpha)
    return total


def christoffel_darboux_closed(
    family: UltrasphericalFamily, m: int, n: int, x: float, y: float
) -> float:
    """Closed form of :func:`christoffel_darboux_sum` (single 1/(x-y) kernel)."""
    alpha = family.alpha
    if not alpha <= m <= n:
        raise ValueError("need alpha <= m <= n")
    if abs(x - y) < 1e-12:
        raise ValueError("x and y too close; the confluent limit is not implemented")
    shift = m - alpha
    lead = family.eval_associated(m - alpha - 1, x, 0)
    tail = family.recurrence_coeff(n - alpha + 1) * (
        family.eval(n - alpha + 1, x) * family.eval_associated(n - m, y, shift)
        - family.eval(n - alpha, x) * family.eval_associated(n - m + 1, y, shift)
    )
    return (lead + tail) / (x - y)


def _cheb_times_x(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of x * f given those of f (one extra entry)."""
    out = np.zeros(len(c) + 1, dtype=c.dtype)
    out[1] += c[0]
    out[:-2] += 0.5 * c[1:]
    out[2:] += 0.5 * c[1:]
    return out


def chebyshev_connection(family: UltrasphericalFamily, size: int) -> np.ndarray:
    """Upper-triangular matrix B with p_j = sum_i B[i, j] * T_i.

    Columns are produced by running the three-term recurrence in the
    Chebyshev coefficient domain.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if size > family.max_degree + 1:
        raise IndexError("size exceeds the stored coefficient range")
    b = family.b
    B = np.zeros((size, size))
    B[0, 0] = 1.0 / b[0]
    if size == 1:
        return B
    B[:, 1] = _cheb_times_x(B[:-1, 0])[:size] / b[1]
    for j in range(1, size - 1):
        col = _cheb_times_x(B[: j + 1, j])[: size]
        new = np.zeros(size)
        new[: len(col)] = col
        new -= b[j] * B[:, j - 1]
        B[:, j + 1] = new / b[j + 1]
    return B
