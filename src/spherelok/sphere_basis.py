"""Band-limited spherical expansions and the localized eigenbasis.

Coefficient vectors follow one canonical layout, also the contract for the
text file format written here: blocks ordered by azimuthal order k from +n
down to -n, block k holding the degrees l = max(|k|, m)..n (harmonic side)
or the eigenvalue indices i = 1..N_k (localized side) in ascending order.
:func:`_label_columns` is its one definition; the block slices, the
off-diagonals of :func:`mean_value`, the text labels, ``transform``'s
+-k-paired layout and ``SpectralSummary``'s labels all derive from it.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError
from .ultraspherical import _coefficients, _recurrence

if TYPE_CHECKING:  # jacobi_blocks imports this module
    from .jacobi_blocks import EigenBlock

__all__ = [
    "BandParams",
    "HarmonicCoeffs",
    "LocalizedCoeffs",
    "SphereGrid",
    "eval_harmonic",
    "eval_basis_function",
    "radial_table",
    "mean_value",
    "mean_value_quadrature",
    "embed_block",
    "evaluate_on_grid",
    "evaluate_basis_on_grid",
    "save_coeffs",
    "load_coeffs",
]


@dataclass(frozen=True)
class BandParams:
    """Band-limit pair: degrees m <= l <= n are retained."""

    n: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")

    @property
    def dimension(self) -> int:
        return (self.n + 1) ** 2 - self.m**2

    def orders(self) -> range:
        """Block order: k = n, n-1, ..., -n."""
        return range(self.n, -self.n - 1, -1)

    def block_size(self, k: int) -> int:
        if abs(k) > self.n:
            raise ValueError(f"order {k} outside band limit {self.n}")
        return self.n - self.min_degree(k) + 1

    def min_degree(self, k: int) -> int:
        """Smallest degree l present in block k."""
        return max(abs(k), self.m)

    def block_slice(self, k: int) -> slice:
        size = self.block_size(k)  # ValueError for an order outside the band
        start = _block_starts(self)[self.n - k]
        return slice(start, start + size)


@lru_cache(maxsize=8)
def _label_columns(params: BandParams, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Order k and degree l (harmonic) or index i (localized) of every entry.

    The layout's one definition; cached per (params, kind), both read-only.
    """
    orders = np.arange(params.n, -params.n - 1, -1)
    lowest = np.maximum(np.abs(orders), params.m)
    sizes = params.n - lowest + 1
    first = lowest if kind == "harmonic" else np.ones_like(orders)
    starts = np.cumsum(sizes) - sizes
    labels = np.arange(params.dimension) - np.repeat(starts - first, sizes)
    orders = np.repeat(orders, sizes)
    orders.setflags(write=False)
    labels.setflags(write=False)
    return orders, labels


@lru_cache(maxsize=256)
def _block_starts(params: BandParams) -> list[int]:
    """Position of each block's first entry, for k = n .. -n."""
    orders = _label_columns(params, "harmonic")[0]  # the same for both kinds
    return np.flatnonzero(np.diff(orders, prepend=params.n + 1)).tolist()


class _Coeffs:
    kind = ""

    def __init__(self, params: BandParams, values: np.ndarray | None = None):
        self.params = params
        if values is None:
            values = np.zeros(params.dimension, dtype=complex)
        else:
            values = np.asarray(values, dtype=complex)
            if values.shape != (params.dimension,):
                raise ValueError(
                    f"expected {params.dimension} coefficients, got {values.shape}"
                )
            values = values.copy()
        values.setflags(write=False)
        self.values = values

    @classmethod
    def _adopt(cls, params: BandParams, values: np.ndarray):
        """Wrap a new contiguous complex array that no caller keeps, without a copy."""
        obj = cls.__new__(cls)
        obj.params = params
        values.setflags(write=False)
        obj.values = values
        return obj

    def block(self, k: int) -> np.ndarray:
        return self.values[self.params.block_slice(k)]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.params == other.params
            and np.array_equal(self.values, other.values)
        )


class HarmonicCoeffs(_Coeffs):
    """Spherical-harmonic coefficients c_{l,k} in the canonical block layout."""

    kind = "harmonic"

    def index_of(self, l: int, k: int) -> int:
        lo = self.params.min_degree(k)
        if not lo <= l <= self.params.n:
            raise ValueError(f"degree {l} outside block for order {k}")
        return self.params.block_slice(k).start + (l - lo)

    @classmethod
    def from_blocks(cls, params: BandParams, blocks: dict[int, np.ndarray]):
        """The given blocks, zero elsewhere; each block k must have shape (N_k,)."""
        vals = np.zeros(params.dimension, dtype=complex)
        for k, v in blocks.items():
            rows = params.block_slice(k)  # ValueError for an order outside the band
            size = rows.stop - rows.start
            if np.shape(v) != (size,):
                raise ValueError(
                    f"expected {size} entries for order {k}, got shape {np.shape(v)}"
                )
            vals[rows] = v
        return cls._adopt(params, vals)

    @classmethod
    def random_unit(cls, params: BandParams, rng: np.random.Generator):
        v = rng.standard_normal(params.dimension) + 1j * rng.standard_normal(
            params.dimension
        )
        return cls(params, v / np.linalg.norm(v))


class LocalizedCoeffs(_Coeffs):
    """Coefficients d_{k,i} in the localized eigenbasis (i counts from 1)."""

    kind = "localized"

    def index_of(self, k: int, i: int) -> int:
        if not 1 <= i <= self.params.block_size(k):
            raise ValueError(f"index {i} outside block for order {k}")
        return self.params.block_slice(k).start + (i - 1)


@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre x equispaced-azimuth product grid.

    The discrete inner product is exact for harmonic products of combined
    polynomial degree <= 2D when built with ``for_degree(D)``.
    """

    theta: np.ndarray
    x: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray

    @classmethod
    def for_degree(
        cls, degree: int, theta_res: int | None = None, phi_res: int | None = None
    ) -> "SphereGrid":
        p = theta_res if theta_res is not None else degree + 1
        q = phi_res if phi_res is not None else 2 * degree + 2
        if p < 1 or q < 1:
            raise ValueError("grid resolutions must be positive")
        x, w = np.polynomial.legendre.leggauss(p)
        x, w = x[::-1].copy(), w[::-1].copy()  # theta ascending from the pole
        theta = np.arccos(x)
        phi = np.arange(q) * (2.0 * np.pi / q)
        for a in (theta, x, w, phi):
            a.setflags(write=False)
        return cls(theta=theta, x=x, theta_weights=w, phi=phi)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.theta), len(self.phi)

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Discrete surface inner product of two (P, Q) sample arrays."""
        q = len(self.phi)
        return complex(np.sum(self.theta_weights @ (f * np.conj(g))) / (2.0 * q))

    def integrate(self, f: np.ndarray) -> complex:
        q = len(self.phi)
        return complex(np.sum(self.theta_weights @ f) / (2.0 * q))


def _radial_rows(n: int, alphas: range, theta: np.ndarray):
    """Kernel steps for sin^a(theta) * p_j(cos theta), j = 0 .. n - a, a in ``alphas``.

    Row r holds a = alphas[r]; ``alphas`` ascends, so the row lengths
    n - a + 1 fall.  The starts sin^a / b_0 are one running product over a
    of sin(theta) * sqrt((a + 1/2) / a): folding the power in one factor at
    a time keeps it representable at large a, and a start that underflows to
    zero is zero to working precision.
    """
    s = np.sin(theta)
    starts = [np.ones_like(s)]
    for a in range(1, alphas.stop):
        starts.append(starts[-1] * (s * np.sqrt((a + 0.5) / a)))
    b = _coefficients(np.array(alphas)[:, None], np.arange(n - alphas.start + 1))
    starts = np.array(starts[alphas.start :])
    return _recurrence(b, starts, np.cos(theta), [n - a + 1 for a in alphas])


def radial_table(params: BandParams, k: int, theta: np.ndarray) -> np.ndarray:
    """Matrix S with S[p, j] = sin^|k|(theta_p) * p_{l_j - |k|}(cos theta_p).

    Columns run over the degrees l_j present in block k, so a block
    coefficient vector c_k yields latitude profiles as S @ c_k.  Raises
    ValueError for an order outside the band.
    """
    params.block_size(k)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    alpha = abs(k)
    rows = _radial_rows(params.n, range(alpha, alpha + 1), theta)
    lo = params.min_degree(k) - alpha
    return np.stack([row[0] for row in islice(rows, lo, None)], axis=1)


def eval_harmonic(l: int, k: int, theta, phi):
    """Spherical harmonic sin^|k|(theta) * p_{l-|k|}(cos theta) * e^{i k phi}."""
    if abs(k) > l:
        raise ValueError(f"|k| = {abs(k)} exceeds degree {l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    scalar = theta.ndim == 0 and phi.ndim == 0
    radial = radial_table(BandParams(l, 0), k, np.atleast_1d(theta))[:, -1]
    out = radial * np.exp(1j * k * np.atleast_1d(phi))
    return complex(out[0]) if scalar else out.reshape(np.broadcast(theta, phi).shape)


def eval_basis_function(
    params: BandParams,
    blocks: dict[int, EigenBlock],
    k: int,
    i: int,
    theta,
    phi,
):
    """Localized basis function for order k and eigenvalue index i (1-based)."""
    params.block_size(k)  # ValueError for an order outside the band
    eb = blocks[k]
    if not 1 <= i <= eb.size:
        raise IndexError(f"index {i} outside 1..{eb.size}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    scalar = theta.ndim == 0 and phi.ndim == 0
    table = radial_table(params, k, np.atleast_1d(theta))
    radial = table @ eb.vectors[:, i - 1]
    out = radial * np.exp(1j * k * np.atleast_1d(phi))
    return complex(out[0]) if scalar else out.reshape(np.broadcast(theta, phi).shape)


@lru_cache(maxsize=8)
def _layout_offdiag(params: BandParams) -> np.ndarray:
    """Jacobi off-diagonals laid end to end in the canonical layout.

    Entry j couples coefficients j and j + 1, degrees l and l + 1 of one
    block, with b_{l-|k|+1} of the |k|-family; it is zero where a block ends.
    """
    orders, degrees = _label_columns(params, "harmonic")
    alphas = np.abs(orders[:-1])
    same_block = orders[:-1] == orders[1:]
    off = np.where(same_block, _coefficients(alphas, degrees[:-1] - alphas + 1), 0)
    off.setflags(write=False)
    return off


def mean_value(coeffs: HarmonicCoeffs) -> float:
    """Localization score in (-1, 1): +1 means north-pole concentration.

    The tridiagonal quadratic form 2 Re sum conj(c_j) b_j c_{j+1} over the
    whole layout, O(dimension); the off-diagonals are cached per (n, m).
    """
    c = coeffs.values
    off = _layout_offdiag(coeffs.params)
    return 2.0 * float(np.real(np.vdot(c[:-1], off * c[1:])))


def mean_value_quadrature(coeffs: HarmonicCoeffs, grid: SphereGrid | None = None) -> float:
    """Same score via surface quadrature of cos(theta) |f|^2 (test oracle)."""
    if grid is None:
        grid = SphereGrid.for_degree(coeffs.params.n + 1)
    field = evaluate_on_grid(coeffs, grid)
    q = len(grid.phi)
    w = grid.theta_weights * grid.x
    return float(np.real(np.sum(w @ (field * np.conj(field)))) / (2.0 * q))


def embed_block(params: BandParams, k: int, vec: np.ndarray) -> HarmonicCoeffs:
    """Embed a length-N_k vector as block k of an otherwise zero coefficient set."""
    return HarmonicCoeffs.from_blocks(params, {k: vec})


def evaluate_on_grid(coeffs: HarmonicCoeffs, grid: SphereGrid) -> np.ndarray:
    """Sample the expansion on the grid; returns a (P, Q) complex array.

    One pass of the recurrence kernel runs every |k| at once.  Each step adds
    its values, times that degree's coefficients in blocks +k and -k, into
    the latitude profiles of both orders.  Each profile is then added into
    azimuth column k mod Q, and one inverse FFT over phi sums the orders.
    Profiles are added, not assigned: with Q < 2n + 1 several orders alias
    onto one column.
    """
    p = coeffs.params
    orders, degrees = _label_columns(p, "harmonic")
    alphas = np.abs(orders)
    # weights[a, j]: coefficients of sin^a * p_j in blocks +a and -a, as
    # (re, im, re, im); row 0 has block 0 only
    weights = np.zeros((p.n + 1, p.n + 1, 2), dtype=complex)
    weights[alphas, degrees - alphas, (orders < 0).astype(int)] = coeffs.values
    weights = weights.view(float)
    profiles = np.zeros((p.n + 1, 4, len(grid.theta)))
    for j, values in enumerate(_radial_rows(p.n, range(p.n + 1), grid.theta)):
        rows = len(values)
        profiles[:rows] += weights[:rows, j, :, None] * values[:, None, :]
    profiles = profiles[:, 0::2] + 1j * profiles[:, 1::2]
    q = len(grid.phi)
    spectrum = np.zeros((q, len(grid.theta)), dtype=complex)
    np.add.at(spectrum, np.outer(range(p.n + 1), [1, -1]) % q, profiles)
    return np.fft.ifft(spectrum.T, axis=1, norm="forward")


def evaluate_basis_on_grid(
    params: BandParams, blocks: dict[int, EigenBlock], k: int, i: int, grid: SphereGrid
) -> np.ndarray:
    """Samples of the localized basis function for order k, index i (1-based)."""
    size = params.block_size(k)
    if not 1 <= i <= size:
        raise IndexError(f"index {i} outside 1..{size}")
    profile = radial_table(params, k, grid.theta) @ blocks[k].vectors[:, i - 1]
    return np.outer(profile, np.exp(1j * k * grid.phi))


# ---------------------------------------------------------------------------
# text serialization

_HEADER_RE = re.compile(
    r"^SPHERELOK-COEFF v1 kind=(harmonic|localized) n=(\d+) m=(\d+)$"
)


_ROWS_PER_CHUNK = 4096


def _write_rows(path, header: str, row_format: str, columns) -> None:
    """Write ``header``, then one ``row_format`` line per row of ``columns``.

    ``columns`` are equal-length 1-d arrays.  Each chunk of
    ``_ROWS_PER_CHUNK`` rows is formatted by one ``%`` operation on Python
    ints and floats, which gives the same text as formatting each entry on
    its own with the same conversions.
    """
    rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, rows, _ROWS_PER_CHUNK):
            chunk = [col[start : start + _ROWS_PER_CHUNK].tolist() for col in columns]
            fields = tuple(chain.from_iterable(zip(*chunk)))
            fh.write(row_format * len(chunk[0]) % fields)


def save_coeffs(path, coeffs: _Coeffs) -> None:
    """Write ``coeffs`` in the text format.

    Raises ValueError naming the first non-finite entry, before ``path`` is
    opened: the loader rejects such files.
    """
    params = coeffs.params
    values = coeffs.values
    orders, labels = _label_columns(params, coeffs.kind)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        j = bad[0]
        raise ValueError(
            f"{path}: entry ({orders[j]}, {labels[j]}) has non-finite value "
            f"{values[j]}; coefficient files hold finite values only"
        )
    _write_rows(
        path,
        f"SPHERELOK-COEFF v1 kind={coeffs.kind} n={params.n} m={params.m}",
        "%d %d %.17g %.17g\n",
        (orders, labels, values.real, values.imag),
    )


def load_coeffs(path) -> HarmonicCoeffs | LocalizedCoeffs:
    """Parse a coefficient file, rejecting out-of-order, missing or non-finite entries.

    A file with fewer entries than the header's dimension is rejected before
    any entry is parsed, so the work is bounded by the size of the file.
    ``np.loadtxt`` reads the entries first, as an acceptance path only; when
    it fails or its values would not be accepted, the per-line parser
    :func:`_parse_entries` runs, which defines the format and names every
    error.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    match = _HEADER_RE.match(lines[0].strip())
    if not match:
        raise FormatError(f"{path}: line 1: bad header {lines[0]!r}")
    kind, n, m = match.group(1), int(match.group(2)), int(match.group(3))
    if m > n:
        raise FormatError(f"{path}: line 1: need m <= n")
    params = BandParams(n=n, m=m)
    dim = params.dimension
    count = sum(map(bool, map(str.strip, lines[1:])))
    if count < dim:
        raise FormatError(f"{path}: missing entries; got {count} of {dim}")
    values = _bulk_entries(lines, params, kind) if count == dim else None
    if values is None:
        values = _parse_entries(path, lines, params, kind)
    cls = HarmonicCoeffs if kind == "harmonic" else LocalizedCoeffs
    return cls._adopt(params, values)


@lru_cache(maxsize=None)
def _loadtxt_ints_are_strict() -> bool:
    """Whether ``np.loadtxt`` rejects "1.0" in an integer column, as ``int()`` does.

    numpy 1.23 reads such a field through a float, with a DeprecationWarning
    (ignored by default), and returns 1; :func:`_bulk_entries` would then
    accept a label the per-line parser rejects, so it runs only where this
    holds.  Probing once keeps the process's warning filters untouched.
    """
    try:
        np.loadtxt(["1.0"], dtype=np.int64)
    except ValueError:
        return True
    except DeprecationWarning:  # raised where warnings are errors
        pass
    return False


_ROW_DTYPE = np.dtype([("k", "<i8"), ("idx", "<i8"), ("re", "<f8"), ("im", "<f8")])


def _bulk_entries(lines: list[str], params: BandParams, kind: str) -> np.ndarray | None:
    """The values of the entry lines ``lines[1:]`` as ``np.loadtxt`` reads them, or None.

    Values are returned only when there is one row per entry, both label
    columns equal :func:`_label_columns` and every value is finite; they are
    then the per-line parser's values bit for bit, since both read numbers
    with the same float conversion and ``np.loadtxt`` accepts a subset of
    the spellings ``int()`` and ``float()`` accept.  Any exception or
    mismatch gives None.
    """
    if not _loadtxt_ints_are_strict():
        return None
    try:
        rows = np.loadtxt(lines[1:], dtype=_ROW_DTYPE, comments=None, ndmin=1)
    except Exception:  # noqa: BLE001 - the per-line parser names every error
        return None
    orders, labels = _label_columns(params, kind)
    if not (
        len(rows) == params.dimension
        and np.array_equal(rows["k"], orders)
        and np.array_equal(rows["idx"], labels)
        and np.isfinite(rows["re"]).all()
        and np.isfinite(rows["im"]).all()
    ):
        return None
    values = np.empty(len(rows), dtype=complex)
    values.real = rows["re"]
    values.imag = rows["im"]
    return values


def _parse_entries(path, lines: list[str], params: BandParams, kind: str) -> np.ndarray:
    """Parse the entry lines ``lines[1:]`` one at a time: the format's definition.

    Blank lines are skipped.  Raises FormatError naming the first line that
    is malformed, out of order, non-finite or beyond the dimension.  The
    caller has checked that at least ``params.dimension`` lines are not
    blank.
    """
    dim = params.dimension
    values = np.empty(dim, dtype=complex)
    labels = zip(*(col.tolist() for col in _label_columns(params, kind)))
    pos = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if pos >= dim:
            raise FormatError(f"{path}: line {lineno}: extra entry beyond dimension")
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path}: line {lineno}: expected 'k idx re im'")
        try:
            k, idx = int(parts[0]), int(parts[1])
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
        expected = next(labels)
        if (k, idx) != expected:
            raise FormatError(
                f"{path}: line {lineno}: entry ({k}, {idx}) out of order; "
                f"expected {expected}"
            )
        if not cmath.isfinite(value):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        values[pos] = value
        pos += 1
    return values
