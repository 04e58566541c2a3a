"""Transforms between harmonic and localized coefficients.

Each block is multiplied by its orthogonal eigenvector matrix V, through
the half of V that a plan holds (:class:`~spherelok.jacobi_blocks.EigenBlock`):
its even and odd rows of the ceil(N / 2) leading columns, whose mirrors
are the other columns.  One kernel, two real half-size products per |k|
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
from .jacobi_blocks import EigenBlock, _band_blocks, _check_block, _each_block, band_eigenblocks
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

_PLAN_MAGIC = b"SPHERELOK-PLAN v3\n"
_OLD_PLAN_MAGICS = (b"SPHERELOK-PLAN v1\n", b"SPHERELOK-PLAN v2\n")


@dataclass
class OpCounter:
    """Accumulates the operation count of dense block multiplies.

    The count is that of a product with the full N x N matrix, (2N - 1) N
    per block: the dense-equivalent count, which :func:`dense_op_count`
    gives in closed form.  The kernel, which multiplies by half of V (see
    :func:`_apply_blocks`), performs about half of it.
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
    block holds the kept half of its eigendata
    (:class:`~spherelok.jacobi_blocks.EigenBlock`).  Unless ``validate`` is
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

    def eigenvalue_vector(self) -> np.ndarray:
        """All eigenvalues in the canonical localized-coefficient order."""
        if self._eigs is None:
            eigs = np.concatenate([self.blocks[abs(k)].eigenvalues for k in self.params.orders()])
            eigs.setflags(write=False)
            self._eigs = eigs
        return self._eigs

    def fast_eligible(self, k: int) -> bool:
        """Whether block k takes a factored fast pipeline: never.

        The Chebyshev cascade plus windowed NDCT of ``_fastcheb`` loses to
        the kernel's two paired half-size products at every block size a
        plan can hold: at |k| = 1, both +-k, best of 7 on a 2-vCPU x86
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
    """The +-k-paired, even/odd-split layout of a band, the kernel's working order.

    Every row pairs an entry of block +alpha with the same entry of block
    -alpha: it holds their two positions in the canonical layout (the same
    position twice for alpha = 0).  With c_alpha = ceil(N_alpha / 2):

    - ``split`` lists the harmonic side, the rows of V: the even entries of
      every order alpha = 0..n, c_alpha rows each, then their odd entries;
    - ``half`` lists the localized side, the columns of V: the first
      c_alpha entries of every order, then, row for row, their mirrors
      N_alpha - 1 - i.  The mirror of an odd block's middle entry is the
      entry itself; those rows are ``middle``.

    Each ``*_inverse`` maps a canonical position p to a slot 2 r + s with
    row r of that array holding p in column s (the top row, not the mirror,
    for a middle entry).  ``top[alpha]`` are the rows of order alpha in the
    first part of either array, ``bottom[alpha]`` those in the second part
    of ``half`` and ``low[alpha]`` those in the second part of ``split``.
    """

    split: np.ndarray
    split_inverse: np.ndarray
    half: np.ndarray
    half_inverse: np.ndarray
    middle: np.ndarray
    top: tuple[slice, ...]
    low: tuple[slice, ...]
    bottom: tuple[slice, ...]


def _set_slots(inverse: np.ndarray, index: np.ndarray, first: int) -> None:
    """Map the positions in ``index``, its rows numbered from ``first``, to their slots."""
    rows = 2 * np.arange(first, first + len(index))
    inverse[index[:, 0]] = rows
    inverse[index[:, 1]] = rows + 1  # block 0 keeps slot 1


def _bounds(counts: np.ndarray, base: int = 0) -> tuple[slice, ...]:
    ends = (base + np.concatenate([[0], np.cumsum(counts)])).tolist()
    return tuple(map(slice, ends[:-1], ends[1:]))


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
    n_row = sizes[alphas]
    even = j % 2 == 0
    # rows stay sorted by alpha, then j, under every mask below
    split = np.concatenate([pairs[even], pairs[~even]])
    kept = np.flatnonzero(2 * j < n_row)  # j < c
    mirror = kept + n_row[kept] - 1 - 2 * j[kept]
    half = np.concatenate([pairs[kept], pairs[mirror]])
    n_top = len(kept)
    # index arrays stay writable: np.take copies a read-only index array
    split_inverse = np.empty(params.dimension, dtype=np.intp)
    _set_slots(split_inverse, split, 0)
    half_inverse = np.empty(params.dimension, dtype=np.intp)
    _set_slots(half_inverse, pairs[mirror], n_top)
    _set_slots(half_inverse, pairs[kept], 0)  # a middle entry reads its top row
    return _Layout(
        split=split,
        split_inverse=split_inverse,
        half=half,
        half_inverse=half_inverse,
        middle=n_top + np.flatnonzero(mirror == kept),
        top=_bounds((sizes + 1) // 2),
        low=_bounds(sizes // 2, n_top),
        bottom=_bounds((sizes + 1) // 2, n_top),
    )


def _plus_minus(x: tuple[np.ndarray, np.ndarray], out: tuple[np.ndarray, np.ndarray]) -> None:
    """out = (a + b, a - b) for x = (a, b)."""
    np.add(*x, out=out[0])
    np.subtract(*x, out=out[1])


class _Kernel:
    """One thread's work buffers for a plan, every product bound.

    One buffer holds a vector in the paired layout and one the operands of
    the other side.  Each product of :func:`_apply_blocks` is a bound
    ``ndarray.dot`` with its input and output slices taken here once, so a
    pass runs nothing per block but the two products.  The smallest blocks
    cost little more than that call overhead.
    """

    def __init__(self, plan: TransformPlan):
        layout = _paired_layout(plan.params)
        self.layout = layout
        rows = len(layout.half)  # the longer layout: 2 c_alpha >= N_alpha rows per order
        work = np.empty((rows, 2), dtype=complex)
        w = work.view(float)  # rows x 4: real and imaginary parts of +alpha, -alpha
        p = np.empty_like(w)
        self.work = work
        self.work_split = work[: len(layout.split)]
        self.slots = work.ravel()
        # the two halves [a; b] of each buffer, for the band-wide a + b, a - b
        self.w = (w[: rows // 2], w[rows // 2 :])
        self.prod = (p[: rows // 2], p[rows // 2 :])
        blocks = [plan.blocks[alpha] for alpha in range(plan.params.n + 1)]
        slices = list(zip(blocks, layout.top, layout.low, layout.bottom))
        # analysis: a = E^T y_even into the top rows, b = O^T y_odd below
        self.analysis = [
            (eb.even.T.dot, w[top], p[top], eb.odd.T.dot, w[low], p[bottom])
            for eb, top, low, bottom in slices
        ]
        # synthesis: y_even = E s and y_odd = O d, from s above d
        self.synthesis = [
            (eb.even.dot, p[top], w[top], eb.odd.dot, p[bottom], w[low])
            for eb, top, low, bottom in slices
        ]


def _apply_blocks(
    plan: TransformPlan,
    x: np.ndarray,
    transpose: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply every block of one vector by V^T (``transpose``) or V.

    ``x`` is a complex ``(dimension,)`` vector in the canonical layout.  V
    is applied through its kept half, E (even rows) and O (odd rows) of its
    c = ceil(N / 2) leading columns, since its other columns are their
    mirrors D v_i (see :class:`EigenBlock`):

    - V^T y: a = E^T y_even, b = O^T y_odd; entry i is a_i + b_i and its
      mirror N - 1 - i is a_i - b_i;
    - V z: with s = z_top + z_mirror and d = z_top - z_mirror (the middle
      entry of an odd block has no mirror), y_even = E s and y_odd = O d.

    One gather into the paired layout (:func:`_paired_layout`) puts blocks
    +k and -k, which share V, side by side and splits the input into the
    two halves its products read; each is read through its float64 view,
    so each |k| costs two real half-size products on 4 columns (real and
    imaginary parts of both blocks), with no complex copy of V.  That is
    half the multiply-adds, and half the bytes of V, of one product with
    the full V.  The sums and differences run once over the whole band.
    One gather through the inverse permutation writes the result to ``out``
    (a new array if None; it may be ``x`` itself).
    """
    x = np.asarray(x, dtype=complex)
    kernel = plan._kernel()
    layout = kernel.layout
    # every take uses mode="clip": it skips the bounds check that would
    # buffer ``out``, and the layout's indices are in range
    if transpose:
        np.take(x, layout.split, out=kernel.work_split, mode="clip")
        for dot_e, y_e, a, dot_o, y_o, b in kernel.analysis:
            dot_e(y_e, a)
            dot_o(y_o, b)
        _plus_minus(kernel.prod, kernel.w)
        inverse = layout.half_inverse
    else:
        np.take(x, layout.half, out=kernel.work, mode="clip")
        kernel.work[layout.middle] = 0.0
        _plus_minus(kernel.w, kernel.prod)
        for dot_e, s, y_e, dot_o, d, y_o in kernel.synthesis:
            dot_e(s, y_e)
            dot_o(d, y_o)
        inverse = layout.split_inverse
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
    """Serialize eigendata to a v3 cache file of little-endian 8-byte words.

    After the 18-byte magic line come ``n m``, n flag words written as 0,
    then one record per block in the order k = n .. 0: ``k, N_k``, the
    c = ceil(N_k / 2) kept eigenvalues and the N_k x c kept eigenvectors,
    row-major: the block's ``values`` and ``half`` (see
    :class:`~spherelok.jacobi_blocks.EigenBlock`).  Block -k is block +k's
    eigendata and the other N_k - c eigenpairs are the kept ones' mirrors,
    so each |k| is stored once, as half of V, and the file ends in
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
                for a in (eb.values, eb.half):
                    a.astype("<f8").tofile(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):  # name the file asked for
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def load_plan(path) -> TransformPlan:
    """Load a v3 plan cache, verifying layout and every record's eigendata.

    The file is read once into one 8-byte-aligned buffer; each block's
    ``values`` and ``half`` are read-only views of its record, and block
    -k is block +k.  v1 and v2 caches are rejected: v1 may hold eigenvector
    signs from before the p_0 > 0 rule, and both store all of V.  So is a
    nonzero flag word, which would announce a separate record for some -k.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(_PLAN_MAGIC))
        if magic in _OLD_PLAN_MAGICS:
            raise FormatError(
                f"{path}: plan cache format {magic[-3:-1].decode()} is no longer read; "
                "delete the file and rebuild it with `spherelok plan`"
            )
        if magic != _PLAN_MAGIC:
            raise FormatError(f"{path}: not a plan cache (bad magic)")
        # the words after the magic line land in an aligned array: views of
        # an unaligned buffer would slow every later product
        nbytes = os.fstat(fh.fileno()).st_size - len(magic)
        words = np.empty(nbytes // 8, dtype="<i8")
        if fh.readinto(words) != words.nbytes:
            raise FormatError(f"{path}: file shrank while being read")
        trailing = nbytes % 8 or fh.read(1)
    words.setflags(write=False)
    data = words.view("<f8").astype(float, copy=False)  # a copy on big-endian hosts only
    data.setflags(write=False)
    if len(words) < 2:
        raise FormatError(f"{path}: truncated header")
    n, m = int(words[0]), int(words[1])
    if not 0 <= m <= n:
        raise FormatError(f"{path}: invalid band parameters n={n} m={m}")
    if len(words) < 2 + n:
        raise FormatError(f"{path}: truncated header")
    if np.any(words[2 : 2 + n]):
        raise FormatError(
            f"{path}: plan cache holds separate -k records, which are no longer "
            "read; delete the file and rebuild it with `spherelok plan`"
        )
    params = BandParams(n=n, m=m)
    blocks: dict[int, EigenBlock] = {}
    pos = 2 + n
    for k in range(n, -1, -1):
        size = params.block_size(k)
        c = (size + 1) // 2
        end = pos + 2 + c + size * c
        if end > len(words):
            raise FormatError(f"{path}: truncated at block k={k}")
        k_read, size_read = int(words[pos]), int(words[pos + 1])
        if (k_read, size_read) != (k, size):
            raise FormatError(
                f"{path}: block record ({k_read}, {size_read}) out of order; "
                f"expected ({k}, {size})"
            )
        half = data[pos + 2 + c : end].reshape(size, c)
        blocks[k] = EigenBlock(data[pos + 2 : pos + 2 + c], half)
        pos = end
    if pos != len(words) or trailing:
        raise FormatError(f"{path}: trailing bytes after last block")
    try:
        return TransformPlan(params, blocks)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from None
