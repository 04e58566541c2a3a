"""Transforms between harmonic and localized coefficients.

Each block is multiplied by its orthogonal eigenvector matrix V, through
the quarter of V that a plan holds (:class:`~spherelok.jacobi_blocks.EigenBlock`):
E, the even rows of its ceil(N / 2) leading columns.  Their odd rows are
B^T E S^-1 for the block's half-size bidiagonal B and singular values S,
and V's other columns are their mirrors.  One kernel, one real product
with E per |k| and a few band-wide elementwise steps for B and S^-1
(:func:`_apply_blocks`), serves analysis, synthesis, filtering and the
tail bounds.  The filter and the bounds of one field share one analysis
per thread (:func:`_shared_analysis`).
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NumericError
from .jacobi_blocks import (
    EigenBlock,
    _band_blocks,
    _check_block,
    _each_block,
    _inverse_values,
    band_eigenblocks,
)
from .sphere_basis import (
    BandParams,
    HarmonicCoeffs,
    LocalizedCoeffs,
    _block_starts,
    _label_columns,
)

__all__ = [
    "TransformPlan",
    "OpCounter",
    "analyze",
    "synthesize",
    "analyze_fast",
    "dense_op_count",
    "save_plan",
    "load_plan",
]

_PLAN_MAGIC = b"SPHERELOK-PLAN v4\n"
_OLD_PLAN_MAGICS = tuple(b"SPHERELOK-PLAN v%d\n" % v for v in (1, 2, 3))
_REBUILD = "; delete the file and rebuild it with `spherelok plan`"


@dataclass
class OpCounter:
    """Accumulates the operation count of dense block multiplies.

    The count is that of a product with the full N x N matrix, (2N - 1) N
    per block: the dense-equivalent count, which :func:`dense_op_count`
    gives in closed form.  The kernel, which multiplies by E, a quarter of
    V, on twice the columns (see :func:`_apply_blocks`), performs about
    half of it.
    """

    ops: int = 0

    def add_matvec(self, size: int) -> None:
        self.ops += (2 * size - 1) * size


def dense_op_count(n: int, m: int) -> int:
    """Closed form of the dense transform operation count, sum_k (2 N_k - 1) N_k.

    A dense-equivalent count, as :class:`OpCounter`'s: the kernel performs
    about half of it.
    """
    total = (n - m + 1) * (4 * n * n + n * (4 * m + 5) + 3 + m - 8 * m * m)
    if total % 3:
        raise AssertionError("operation-count formula must be divisible by 3")
    return total // 3


class TransformPlan:
    """Reusable per-band eigendata.

    Only ``blocks[k]`` for k = 0..n is read: block -k is block +k, the same
    object, since the Jacobi blocks of k and -k are the same matrix.  Each
    block holds its kept eigenvalues and the even rows E of their
    eigenvectors (:class:`~spherelok.jacobi_blocks.EigenBlock`); the plan
    lays out B and S^-1 of every block once, for all its kernels
    (:meth:`_coefficients`).  Unless ``validate`` is
    False, every block k = 0..n must pass
    :func:`~spherelok.jacobi_blocks.check_eigenpairs`; an unpickled plan
    always goes through that check.
    Immutable once built; safe to share across concurrent transforms: each
    thread gets its own work buffers (:class:`_Kernel`).
    """

    def __init__(
        self,
        params: BandParams,
        blocks: dict[int, EigenBlock],
        mode: str = "dense",
        validate: bool = True,
    ):
        if mode not in ("dense", "fast"):
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params
        self.blocks = {}
        for k in range(params.n + 1):
            self.blocks[k] = self.blocks[-k] = blocks[k]
        self.mode = mode
        self._eigs: np.ndarray | None = None
        self._coeffs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._local = threading.local()
        if validate:
            jacobi = _band_blocks(params.n, params.m)
            _each_block(lambda k, block: _check_block(k, block, self.blocks[k]), jacobi)

    @classmethod
    def build(cls, n: int, m: int, mode: str = "dense") -> "TransformPlan":
        # band_eigenblocks has checked every block already
        return cls(BandParams(n=n, m=m), band_eigenblocks(n, m), mode=mode, validate=False)

    def __reduce__(self):
        # a copy goes through the constructor: its eigendata is checked, and
        # it starts without the per-thread work buffers
        blocks = {k: self.blocks[k] for k in range(self.params.n + 1)}
        return type(self), (self.params, blocks, self.mode)

    def _kernel(self) -> "_Kernel":
        """This thread's kernel, built on its first pass."""
        kernel = getattr(self._local, "kernel", None)
        if kernel is None:
            kernel = self._local.kernel = _Kernel(self)
        return kernel

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """B's diagonal and subdiagonal and S^-1, laid out once for every kernel.

        Each is read-only, complex, with two slots (the two signs) per row
        of :class:`_Layout` and 0 on pad rows.  Row i of order alpha holds
        b_{2i} (B[i, i], i < r), b_{2i-1} (B[i, i - 1], i >= 1) and 1 / s_i
        (0 where s = 0), as :func:`~spherelok.jacobi_blocks._odd_rows` takes
        them; complex, so that each step is one ufunc loop.  Threads that
        lay them out at once build equal arrays, and either serves.
        """
        if self._coeffs is None:
            layout = _paired_layout(self.params)
            coeffs = np.zeros((3, len(layout.analysis) // 4))
            for alpha, rows in enumerate(layout.rows):
                eb = self.blocks[alpha]
                r = eb.size // 2
                coeffs[0, rows][:r] = eb.offdiag[0::2]
                coeffs[1, rows][1:] = eb.offdiag[1::2]
                coeffs[2, rows] = _inverse_values(eb.values, r)
            wide = np.repeat(coeffs, 2, axis=1).astype(complex)
            wide.setflags(write=False)
            self._coeffs = tuple(wide)
        return self._coeffs

    def eigenvalue_vector(self) -> np.ndarray:
        """All eigenvalues in the canonical localized-coefficient order."""
        if self._eigs is None:
            eigs = np.concatenate([self.blocks[abs(k)].eigenvalues for k in self.params.orders()])
            eigs.setflags(write=False)
            self._eigs = eigs
        return self._eigs

    def fast_eligible(self, k: int) -> bool:
        """Whether block k takes a factored fast pipeline: never.

        The Chebyshev cascade plus windowed NDCT of ``_fastcheb`` lost to
        the kernel's two paired half-size products of plan format v3 at
        every block size a plan can hold: at |k| = 1, both +-k, best of 7 on a 2-vCPU x86
        host (least of 5 fresh processes), 0.57 ms against 0.006 ms at
        N = 256 and 2.6 ms against 1.6 ms at N = 2048.  It still loses at
        N = 3072 (5.1 ms against 3.5 ms) and wins at N = 4096 (5.7 ms
        against 10.0 ms), whose plan would take about 92 GB.
        """
        return False


def _check_match(plan: TransformPlan, coeffs, kind: type) -> None:
    if not isinstance(coeffs, kind):
        raise ValueError(f"expected {kind.kind} coefficients, got {coeffs.kind}")
    if coeffs.params != plan.params:
        raise ValueError(
            f"coefficients for band {coeffs.params} do not match plan {plan.params}"
        )


class _Layout(NamedTuple):
    """The kernel's working order of a band: rows pair blocks +alpha and -alpha.

    Order alpha = 0..n takes a slab of 1 + c_alpha rows, c_alpha =
    ceil(N_alpha / 2): a pad row, then row i for i < c_alpha, which is row i
    of E; one more pad row ends the band.  The pad rows end B's shift at
    each order's first row and B^T's at its last.  Each row holds four
    complex entries, (sign, column) for sign 0 (+alpha) and 1 (-alpha) and
    two columns: slot 4 row + 2 sign + column of a row-major (rows, 2, 2)
    buffer.  Both gathers list, in that shape, positions of the canonical
    layout (the same position twice for alpha = 0):

    - ``analysis``, for V^T: column 0 of row i holds even entry 2i, column 1
      odd entry 2i + 1;
    - ``synthesis``, for V: column 0 of row i holds entry i, column 1 its
      mirror N - 1 - i; the mirror of an odd block's middle entry is the
      entry itself, at the slots ``middle``.

    A slot that holds no entry, pad rows included, gathers entry 0 of its
    own block, so no non-finite value leaves its block.  The results come
    back from a buffer of 6 x rows complex slots: the (rows, 2, 2) products,
    then a (rows, 2) array T.  Each ``*_inverse`` maps a canonical position
    to its slot there: V^T puts entry i < c in T and its mirror in column 1;
    V puts even entry 2i in column 0 and odd entry 2i + 1 in T, both at
    row i.  ``rows[alpha]`` are the c_alpha rows of order alpha.
    """

    analysis: np.ndarray
    analysis_inverse: np.ndarray
    synthesis: np.ndarray
    synthesis_inverse: np.ndarray
    middle: np.ndarray
    rows: tuple[slice, ...]


@lru_cache(maxsize=8)
def _paired_layout(params: BandParams) -> _Layout:
    orders = _label_columns(params, "harmonic")[0]  # the same for both kinds
    starts = np.array(_block_starts(params))
    # the layout holds blocks 0 .. -n in row order already; each entry of
    # block +alpha sits as far from its block's start as its partner in -alpha
    minus = np.flatnonzero(orders <= 0)
    alphas = -orders[minus]
    j = minus - starts[params.n + alphas]
    pairs = np.stack([j + starts[params.n - alphas], minus], axis=1)
    sizes = np.bincount(alphas, minlength=params.n + 1)
    c = (sizes + 1) // 2
    first = np.concatenate([[0], np.cumsum(c + 1)])  # each slab's pad row, then the last
    n_rows = first[-1] + 1
    row0 = first[alphas] + 1  # row 0 of each entry's order
    size = sizes[alphas]
    kept = 2 * j < size  # j < c; the others are mirrors of entry size - 1 - j
    i = np.where(kept, j, size - 1 - j)
    middle = 2 * j == size - 1
    # every slot starts with entry 0 of its order's blocks; the last pad, n's
    slab = np.minimum(np.repeat(np.arange(params.n + 2), np.append(c + 1, 1)), params.n)
    filler = pairs[j == 0][slab][:, :, None]

    def gather(rows, columns):
        index = np.empty((n_rows, 2, 2), dtype=np.intp)
        index[...] = filler
        index[rows, :, columns] = pairs
        return index

    def inverse(rows, in_t, column):
        # the slot of sign 0 in T or in a column of the products; block 0's
        # two signs share a position, and sign 1 wins
        inv = np.empty(params.dimension, dtype=np.intp)
        for sign in (0, 1):
            in_p = 4 * rows + 2 * sign + column
            inv[pairs[:, sign]] = np.where(in_t, 4 * n_rows + 2 * rows + sign, in_p)
        return inv

    analysis = gather(row0 + j // 2, j % 2)
    synthesis = gather(row0 + i, np.where(kept, 0, 1))
    synthesis[(row0 + i)[middle], :, 1] = pairs[middle]  # its own mirror
    # index arrays stay writable: np.take copies a read-only index array
    return _Layout(
        analysis=analysis.ravel(),
        analysis_inverse=inverse(row0 + i, kept, 1),
        synthesis=synthesis.ravel(),
        synthesis_inverse=inverse(row0 + j // 2, j % 2 == 1, 0),
        middle=(4 * (row0 + i)[middle][:, None] + [1, 3]).ravel(),
        rows=tuple(map(slice, (first[:-1] + 1).tolist(), (first[:-1] + 1 + c).tolist())),
    )


class _Kernel:
    """One thread's work buffers for a plan, every product and ufunc bound.

    ``gathered`` is a (rows, 2, 2) complex buffer in the order of
    :class:`_Layout`, and ``slots`` the products, (rows, 2, 2), followed
    by T, (rows, 2).  Read through their float64 views, row i of order
    alpha is 8 real columns, so one bound ``ndarray.dot`` with its E per
    |k| covers both columns of both signs.  Each column of either buffer
    is a 1-D view of stride 2 and T is contiguous, so each band-wide step
    is one ufunc over two such views and a coefficient array of the same
    shape (:meth:`TransformPlan._coefficients`), with ``out=``; a shift by
    one row is a shift by 2.  Pad rows of the products are zero and stay
    so, which ends B^T at each order's last row.  A pass runs nothing per
    block but its product; the smallest blocks cost little more than that
    call overhead.
    """

    def __init__(self, plan: TransformPlan):
        layout = _paired_layout(plan.params)
        self.layout = layout
        n_rows = len(layout.analysis) // 4
        gathered = np.zeros(4 * n_rows, dtype=complex)
        slots = np.zeros(6 * n_rows, dtype=complex)
        self.gathered, self.slots = gathered, slots
        g0, g1 = gathered[0::2], gathered[1::2]
        p0, p1 = slots[0 : 4 * n_rows : 2], slots[1 : 4 * n_rows : 2]
        t = slots[4 * n_rows :]
        diag, sub, inv = plan._coefficients()
        g = gathered.view(float).reshape(n_rows, 8)
        p = slots[: 4 * n_rows].view(float).reshape(n_rows, 8)
        evens = [plan.blocks[alpha].even for alpha in range(plan.params.n + 1)]
        # analysis: z = B y_odd into column 1, then [a | q] = E^T [y_even | z];
        # entry i is a_i + b_i and its mirror a_i - b_i, b = S^-1 q
        self.analysis_in = [
            (np.multiply, g1[:-2], sub[2:], t[2:]),
            (np.multiply, g1, diag, g1),
            (np.add, g1[2:], t[2:], g1[2:]),
        ]
        self.analysis = [(e.T.dot, g[rows], p[rows]) for e, rows in zip(evens, layout.rows)]
        self.analysis_out = [
            (np.multiply, p1, inv, p1),
            (np.add, p0, p1, t),
            (np.subtract, p0, p1, p1),
        ]
        # synthesis: [s | S^-1 d] from entry and mirror, then [y_even | t] =
        # E [s | S^-1 d], and y_odd = B^T t into T
        self.synthesis_in = [
            (np.subtract, g0, g1, t),
            (np.add, g0, g1, g0),
            (np.multiply, t, inv, g1),
        ]
        self.synthesis = [(e.dot, g[rows], p[rows]) for e, rows in zip(evens, layout.rows)]
        self.synthesis_out = [
            (np.multiply, p1[2:], sub[2:], t[:-2]),
            (np.multiply, p1, diag, p1),
            (np.add, p1[:-2], t[:-2], t[:-2]),
        ]


def _apply_blocks(
    plan: TransformPlan,
    x: np.ndarray,
    transpose: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply every block of one vector by V^T (``transpose``) or V.

    ``x`` is a complex ``(dimension,)`` vector in the canonical layout.  V
    is applied through E alone, the even rows of its c = ceil(N / 2)
    leading columns: their odd rows are O' = B^T E S^-1 (see
    :class:`~spherelok.jacobi_blocks.EigenBlock`) and its other columns are
    their mirrors D v_i.  So, one bound product with E per |k|:

    - V^T y: a = E^T y_even and b = S^-1 E^T (B y_odd), from one product
      with [y_even | B y_odd]; entry i is a_i + b_i and its mirror
      N - 1 - i is a_i - b_i;
    - V z: with s = z_top + z_mirror and d = z_top - z_mirror (the middle
      entry of an odd block has no mirror), [y_even | t] = E [s | S^-1 d]
      from one product, and y_odd = B^T t.

    One gather into the paired layout (:func:`_paired_layout`) puts blocks
    +k and -k, which share V, side by side, and each product reads its
    operand through the float64 view: 8 real columns, the real and
    imaginary parts of both blocks and both halves, with no complex copy
    of V.  That is half the multiply-adds of one product with the full V,
    and a quarter of its bytes.  B, S^-1 and the sums and differences run
    over the whole band (:class:`_Kernel`).  One gather through the inverse
    permutation writes the result to ``out`` (a new array if None; it may
    be ``x`` itself).
    """
    x = np.asarray(x, dtype=complex)
    kernel = plan._kernel()
    layout = kernel.layout
    # every take uses mode="clip": it skips the bounds check that would
    # buffer ``out``, and the layout's indices are in range
    if transpose:
        np.take(x, layout.analysis, out=kernel.gathered, mode="clip")
        steps = (kernel.analysis_in, kernel.analysis, kernel.analysis_out)
        inverse = layout.analysis_inverse
    else:
        np.take(x, layout.synthesis, out=kernel.gathered, mode="clip")
        kernel.gathered[layout.middle] = 0.0
        steps = (kernel.synthesis_in, kernel.synthesis, kernel.synthesis_out)
        inverse = layout.synthesis_inverse
    before, products, after = steps
    for ufunc, a, b, result in before:
        ufunc(a, b, out=result)
    for dot, operand, result in products:
        dot(operand, result)
    for ufunc, a, b, result in after:
        ufunc(a, b, out=result)
    return np.take(kernel.slots, inverse, out=out, mode="clip")


_last = threading.local()  # this thread's last shared analysis


def _shared_analysis(plan: TransformPlan, coeffs: HarmonicCoeffs) -> np.ndarray:
    """The values of ``analyze(plan, coeffs)``, one pass per field and thread.

    The filter and the tail bounds each need the analysis of their input,
    and callers run several of them on one field in a row.  Each thread
    keeps its last: a weak reference to the plan, a copy of the input's
    bits and the result.  A call with the same plan object and bitwise-equal
    input reuses it, so -0.0 against 0.0, an input array edited since, or
    another plan with the same band all run the kernel.  The result is the
    bytes of a fresh pass; each call returns a new read-only view of it,
    which numpy will not make writable.  A miss runs :func:`analyze`, which
    itself keeps nothing, and reuses the key buffer of an entry for the same
    plan.
    """
    _check_match(plan, coeffs, HarmonicCoeffs)
    bits = np.ascontiguousarray(coeffs.values).view(np.int64)
    entry = getattr(_last, "entry", None)
    key = None
    if entry is not None and entry[0]() is plan:
        key = entry[1]
        # the leading word settles most misses before the whole compare
        if key[0] == bits[0] and np.array_equal(key, bits):
            return entry[2].view()
    # no entry while the pass runs: a failed pass leaves none, and the old
    # result is freed before the new one is allocated
    _last.entry = entry = None
    result = analyze(plan, coeffs).values
    if key is None:
        key = np.empty_like(bits)
    np.copyto(key, bits)
    _last.entry = (weakref.ref(plan), key, result)
    return result.view()


def analyze(
    plan: TransformPlan, coeffs: HarmonicCoeffs, counter: OpCounter | None = None
) -> LocalizedCoeffs:
    """Change of basis into localized coefficients, block-orthogonal multiply."""
    _check_match(plan, coeffs, HarmonicCoeffs)
    out = _apply_blocks(plan, coeffs.values, transpose=True)
    if counter is not None:
        for k in plan.params.orders():
            counter.add_matvec(plan.params.block_size(k))
    return LocalizedCoeffs._adopt(plan.params, out)


def synthesize(plan: TransformPlan, coeffs: LocalizedCoeffs) -> HarmonicCoeffs:
    """Inverse of :func:`analyze` (exact orthogonal inverse per block)."""
    _check_match(plan, coeffs, LocalizedCoeffs)
    out = _apply_blocks(plan, coeffs.values, transpose=False)
    return HarmonicCoeffs._adopt(plan.params, out)


def analyze_fast(plan: TransformPlan, coeffs: HarmonicCoeffs) -> LocalizedCoeffs:
    """:func:`analyze` through a plan built with ``mode="fast"``.

    No factored pipeline beats the dense kernel at the sizes a plan can
    hold (see :meth:`TransformPlan.fast_eligible`).
    """
    if plan.mode != "fast":
        raise ValueError("analyze_fast requires a plan built with mode='fast'")
    return analyze(plan, coeffs)


# ---------------------------------------------------------------------------
# binary plan cache


def save_plan(path, plan: TransformPlan) -> None:
    """Serialize eigendata to a v4 cache file of little-endian 8-byte words.

    After the 18-byte magic line come ``n m``, n flag words written as 0,
    then one record per block in the order k = n .. 0: ``k, N_k``, the
    c = ceil(N_k / 2) kept eigenvalues and E, the c x c even rows of their
    eigenvectors, row-major: the block's ``values`` and ``even`` (see
    :class:`~spherelok.jacobi_blocks.EigenBlock`).  The odd rows follow from
    E, the values and the block's off-diagonal, block -k is block +k's
    eigendata and the other N_k - c eigenpairs are the kept ones' mirrors,
    so each |k| is stored once, as a quarter of V, and the file ends in
    eigenvector bytes.  A temporary file beside ``path`` replaces it once
    complete, and is removed on any error: no partial cache is left.
    """
    params = plan.params
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PLAN_MAGIC)
            np.array([params.n, params.m, *[0] * params.n], dtype="<i8").tofile(fh)
            for k in range(params.n, -1, -1):
                eb = plan.blocks[k]
                np.array([k, eb.size], dtype="<i8").tofile(fh)
                for a in (eb.values, eb.even):
                    a.astype("<f8").tofile(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):  # name the file asked for
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def load_plan(path) -> TransformPlan:
    """Load a v4 plan cache, verifying layout and every record's eigendata.

    The file is read once into one 8-byte-aligned buffer; each block's
    ``values`` and ``even`` are read-only views of its record, its
    ``offdiag`` a view of the band's table of recurrence coefficients, and
    block -k is block +k.  v1, v2 and v3 caches are rejected: v1 may hold
    eigenvector signs from before the p_0 > 0 rule, v2 stores all of V and
    v3 half of it.  So is a nonzero flag word, which would announce a
    separate record for some -k.  Every layout error ends in the remedy:
    delete the file and rebuild it.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(_PLAN_MAGIC))
        if magic in _OLD_PLAN_MAGICS:
            raise FormatError(
                f"{path}: plan cache format {magic[-3:-1].decode()} is no longer read" + _REBUILD
            )
        if magic != _PLAN_MAGIC:
            raise FormatError(f"{path}: not a plan cache (bad magic)")
        # the words after the magic line land in an aligned array: views of
        # an unaligned buffer would slow every later product
        nbytes = os.fstat(fh.fileno()).st_size - len(magic)
        words = np.empty(nbytes // 8, dtype="<i8")
        if fh.readinto(words) != words.nbytes:
            raise FormatError(f"{path}: file shrank while being read" + _REBUILD)
        trailing = nbytes % 8 or fh.read(1)
    words.setflags(write=False)
    data = words.view("<f8").astype(float, copy=False)  # a copy on big-endian hosts only
    data.setflags(write=False)
    if len(words) < 2:
        raise FormatError(f"{path}: truncated header" + _REBUILD)
    n, m = int(words[0]), int(words[1])
    if not 0 <= m <= n:
        raise FormatError(f"{path}: invalid band parameters n={n} m={m}")
    if len(words) < 2 + n:
        raise FormatError(f"{path}: truncated header" + _REBUILD)
    if np.any(words[2 : 2 + n]):
        raise FormatError(
            f"{path}: plan cache holds separate -k records, which are no longer read" + _REBUILD
        )
    params = BandParams(n=n, m=m)
    jacobi = _band_blocks(n, m)
    blocks: dict[int, EigenBlock] = {}
    pos = 2 + n
    for k in range(n, -1, -1):
        size = params.block_size(k)
        c = (size + 1) // 2
        end = pos + 2 + c + c * c
        if end > len(words):
            raise FormatError(f"{path}: truncated at block k={k}" + _REBUILD)
        k_read, size_read = int(words[pos]), int(words[pos + 1])
        if (k_read, size_read) != (k, size):
            raise FormatError(
                f"{path}: block record ({k_read}, {size_read}) out of order; "
                f"expected ({k}, {size})" + _REBUILD
            )
        even = data[pos + 2 + c : end].reshape(c, c)
        blocks[k] = EigenBlock(data[pos + 2 : pos + 2 + c], even, jacobi[k].offdiag)
        pos = end
    if pos != len(words) or trailing:
        raise FormatError(f"{path}: trailing bytes after last block" + _REBUILD)
    try:
        return TransformPlan(params, blocks)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from None
