"""Tridiagonal Jacobi blocks of the band-limited localization operator.

For a band pair (n, m) the operator decomposes into 2n+1 independent
symmetric tridiagonal blocks, one per azimuthal order k, with zero diagonal
and recurrence coefficients on the off-diagonals.  Orders with |k| <= m get a
truncated (index-shifted) block, larger orders the untruncated one.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import NumericError
from .sphere_basis import BandParams
from .ultraspherical import _coefficients

__all__ = [
    "JacobiBlock",
    "EigenBlock",
    "build_block",
    "check_eigenpairs",
    "eigendecompose",
    "band_eigenblocks",
    "band_spectra",
    "thread_count",
]

_MIN_EIGENVALUE_GAP = 1e-13


@cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS numpy's ``svd`` calls, or None.

    The functions are looked up through ``numpy.linalg._umath_linalg``, whose
    dependencies include that OpenBLAS: ``scipy_openblas_*`` in the numpy 2.x
    wheels, ``openblas_*`` in numpy 1.x's and in system builds, each with or
    without the ``64_`` suffix of the 64-bit integer interface.
    """
    import ctypes  # on first use, so that importing the package does not load it

    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                 "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        try:
            get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold OpenBLAS at one thread, process-wide, while any solve or check is inside.

    The first to enter saves the count and sets 1, the last to leave restores
    it, so builds and loads that overlap in several threads, or nest, restore
    the count the first one found.  Without a get/set pair it does nothing.
    """
    global _blas_depth, _blas_saved
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


def thread_count() -> int:
    """Threads of the band loop, :func:`_each_block`, that builds and loads run.

    It is one per CPU the process may run on if OpenBLAS can be held at
    one thread (:func:`_one_blas_thread`), and 1 otherwise: over OpenBLAS's
    default threads, Python threads only compete (see the README).
    """
    if _blas_threads() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class JacobiBlock:
    """One symmetric tridiagonal block: zero diagonal, positive off-diagonal.

    ``offdiag`` holds b_{m'+1} .. b_{m'+size-1} of the alpha-family, where
    m' = ``truncation_offset``.
    """

    alpha: int
    size: int
    offdiag: np.ndarray
    truncation_offset: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be positive")
        if len(self.offdiag) != self.size - 1:
            raise ValueError("offdiag length must be size - 1")
        if self.size > 1 and not np.all(self.offdiag > 0):
            raise ValueError("off-diagonal entries must be strictly positive")


def _mirror(values: np.ndarray, r: int) -> np.ndarray:
    """A block's full spectrum from its kept half: ``values``, then -x_{r-1} .. -x_0."""
    return np.concatenate([values, -values[:r][::-1]])


@dataclass(frozen=True, eq=False)
class EigenBlock:
    """Eigendata of one Jacobi block, held as its nonnegative half.

    A Jacobi block has a zero diagonal, so D J D = -J for D = diag((-1)^j):
    its eigenvalues come in pairs +-x, and if v is the unit eigenvector of
    x, then D v is that of -x (the even/odd split of Golub and Kahan).  The
    p_0 > 0 sign rule holds for both.  Of the N eigenpairs, sorted by
    decreasing eigenvalue, the c = ceil(N / 2) largest are kept: ``values``
    holds their eigenvalues, and ``half`` (N x c) their eigenvectors, the c
    even rows over the floor(N / 2) odd rows, as a plan record stores them.
    ``even`` and ``odd`` are read-only views of those two parts of ``half``.
    The rest is their exact mirror, x_{N-1-i} = -x_i and v_{N-1-i} = D v_i
    for i < N - c; the middle pair of an odd N is kept once.  Blocks k and
    -k are the same matrix, so one object serves both orders.

    ValueError is raised unless the two shapes are those of one block.  A
    writable array is copied into a read-only one; a read-only float64
    array is kept as given; an unpickled block goes through the same
    constructor.  ``eigenvalues`` and ``vectors`` give the full pair as
    read-only arrays, built on first access and kept.
    ``eigenvalues`` and :func:`spectrum` both come from :func:`_mirror`;
    the eigenvalue check and the plan's eigenvalue vector read
    ``eigenvalues``, and no transform, filter, bound or plan-cache path
    reads ``vectors``.
    Eigenvalues are strictly decreasing; column i of ``vectors`` is the unit
    eigenvector for ``eigenvalues[i]``, signed so that p_0 > 0: it is
    p(x_i) / |p(x_i)| for the block's shifted recurrence p.  Its first entry
    p_0(x_i) / |p(x_i)| may underflow to zero at large |k|; its last entry
    has the sign (-1)^i, since the zeros of p_{N-1} interlace the
    eigenvalues, and that is where the sign is read (:func:`_sign_reading`).
    """

    values: np.ndarray
    half: np.ndarray

    def __post_init__(self):
        for name in ("values", "half"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.flags.writeable:
                a = a.copy()
                a.setflags(write=False)
            object.__setattr__(self, name, a)
        c = len(self.values) if self.values.ndim == 1 else -1
        if self.half.shape not in ((2 * c - 1, c), (2 * c, c)):
            raise ValueError(
                f"shapes {self.values.shape} and {self.half.shape} "
                "are not (c,) and (2c - 1 or 2c, c)"
            )
        object.__setattr__(self, "even", self.half[:c])
        object.__setattr__(self, "odd", self.half[c:])

    def __reduce__(self):
        # through the constructor: numpy unpickles arrays writable, and the
        # derived full pair is rebuilt from the half, not taken on trust
        return type(self), (self.values, self.half)

    @property
    def size(self) -> int:
        return len(self.half)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        vals = _mirror(self.values, len(self.odd))  # N - c mirrored pairs
        vals.setflags(write=False)
        return vals

    @cached_property
    def vectors(self) -> np.ndarray:
        c, r = len(self.even), len(self.odd)
        vecs = np.empty((c + r, c + r))
        vecs[0::2, :c] = self.even
        vecs[1::2, :c] = self.odd
        vecs[0::2, c:] = self.even[:, :r][:, ::-1]
        vecs[1::2, c:] = -self.odd[:, :r][:, ::-1]
        vecs.setflags(write=False)
        return vecs


def _sign_reading(half: np.ndarray) -> np.ndarray:
    """Each kept column's last entry, block row N - 1, times (-1)^i for column i.

    The zeros of p_{N-1} strictly interlace the block's N eigenvalues
    (Szego, Orthogonal Polynomials, Thm 3.3.2; Golub and Welsch 1969), so
    p_{N-1}(x_i) has the sign (-1)^i, and the reading is positive for every
    column that keeps the sign rule p_0 > 0.  Block row N - 1 is even row
    c - 1 of ``half`` for odd N, and its last row, odd row c - 1, for even N.
    """
    c = half.shape[1]
    last = half[c - 1] if len(half) % 2 else half[-1]
    return np.where(np.arange(c) % 2, -last, last)


def _block_shape(params: BandParams, k: int) -> tuple[int, int]:
    """Truncation offset and size of block k, which holds degrees max(|k|, m)..n."""
    return params.min_degree(k) - abs(k), params.block_size(k)


def build_block(n: int, m: int, k: int) -> JacobiBlock:
    """Jacobi block for order k of the band pair (n, m)."""
    alpha = abs(k)
    offset, size = _block_shape(BandParams(n, m), k)
    offdiag = _coefficients(alpha, np.arange(offset + 1, offset + size))
    offdiag.setflags(write=False)
    return JacobiBlock(alpha=alpha, size=size, offdiag=offdiag, truncation_offset=offset)


def _band_blocks(n: int, m: int) -> list[JacobiBlock]:
    """Jacobi blocks for the orders 0..n of the band pair (n, m), index alpha.

    One band-wide table of recurrence coefficients feeds every block: row
    alpha holds b_0 .. b_n of the alpha-family, which covers block alpha's
    last off-diagonal b_{n - alpha}.  Each ``offdiag`` is a read-only view
    of the table, bit for bit equal to :func:`build_block`'s copy.
    """
    params = BandParams(n, m)
    b = _coefficients(np.arange(n + 1)[:, None], np.arange(n + 1))
    b.setflags(write=False)
    blocks = []
    for alpha in range(n + 1):
        offset, size = _block_shape(params, alpha)
        offdiag = b[alpha, offset + 1 : offset + size]
        blocks.append(JacobiBlock(alpha, size, offdiag, offset))
    return blocks


def check_eigenpairs(block: JacobiBlock, eb: EigenBlock) -> None:
    """Raise NumericError unless ``eb`` holds sorted orthonormal eigenpairs of block.

    This is the one definition of valid eigendata, whether it was solved,
    loaded from a plan cache or passed in, and it has no tolerance to set.
    It checks the matrix the transforms apply, the kept half and its exact
    mirror (see :class:`EigenBlock`), against six conditions, in this
    order.  The residual and the Rayleigh quotients are taken on ``half``,
    the orthogonality on its even and odd parts:

    - the eigenvalues are strictly decreasing, with every gap above 1e-13;
    - they lie inside (-1, 1);
    - the residual max |J V - V diag(x)|, one tridiagonal matvec per
      column, is at most 1e-12 * size;
    - every column's Rayleigh quotient is within 1e-13 of its eigenvalue:
      |v^T (J v - x v)| <= 1e-13, which ties each eigenvalue to its block
      far more tightly than the residual does;
    - the orthogonality residual max |V^T V - I| is at most 1e-12;
    - the sign rule p_0 > 0 holds: each kept column i ends in an entry of
      sign (-1)^i, read by :func:`_sign_reading` as in :func:`_solve`.  A
      mirror column D v follows from its partner, so it needs no reading of
      its own.

    The comparisons are written so that NaN fails them.
    """
    if eb.size != block.size:
        raise NumericError(f"{eb.size} eigenpairs for a block of size {block.size}")
    x, e, o = eb.values, eb.even, eb.odd
    if block.size > 1:
        xs = eb.eigenvalues
        gap = (xs[:-1] - xs[1:]).min()
        if not gap > _MIN_EIGENVALUE_GAP:
            raise NumericError(
                f"eigenvalue gap {gap:.3e} not above {_MIN_EIGENVALUE_GAP}: "
                "not strictly decreasing"
            )
    if not np.abs(x).max() < 1.0:
        raise NumericError("eigenvalues escaped the open interval (-1, 1)")
    # J v - x v on the kept columns, in one array split as ``half`` is: J
    # couples row 2j with rows 2j +- 1 only.  b_{2j} joins rows 2j and
    # 2j + 1, and b_{2j+1} rows 2j + 1 and 2j + 2.  A mirror's residual is
    # exactly the negated D-image of its partner's, so it has the same
    # maximum, and its v^T r is its partner's, negated
    res = eb.half * -x
    if block.size > 1:
        res_e, res_o = res[: len(e)], res[len(e) :]
        b_even, b_odd = block.offdiag[0::2, None], block.offdiag[1::2, None]
        res_e[: len(o)] += b_even * o
        res_e[1:] += b_odd * o[: len(e) - 1]
        res_o[: len(e) - 1] += b_odd * e[1:]
        res_o += b_even * e[: len(o)]
    worst = np.abs(res).max()
    if not worst <= 1e-12 * block.size:
        raise NumericError(f"eigenpair residual {worst:.3e} too large")
    worst = np.abs(np.einsum("ij,ij->j", eb.half, res)).max()
    if not worst <= 1e-13:
        raise NumericError(f"Rayleigh quotient off its eigenvalue by {worst:.3e}, above 1e-13")
    # from two half-size Grams: with G_e = E^T E and G_o = O^T O, the kept
    # columns have Gram matrix G_e + G_o, each mirror pair the same, and kept
    # column i against mirror D v_j has (G_e - G_o)[i, j]; so max |V^T V - I|
    # is the larger of max |G_e + G_o - I| and max |(G_e - G_o)[:, :N-c]|
    g_even = np.dot(e.T, e)
    g_odd = np.dot(o.T, o)
    cross = (g_even - g_odd)[:, : len(o)]
    g_even += g_odd
    g_even.flat[:: len(e) + 1] -= 1.0
    worst = np.maximum(np.abs(g_even).max(initial=0.0), np.abs(cross).max(initial=0.0))
    if not worst <= 1e-12:
        raise NumericError(f"orthogonality residual {worst:.3e} exceeds 1e-12")
    sign = _sign_reading(eb.half)
    if not sign.min() > 0:
        i = (sign > 0).argmin()
        raise NumericError(
            f"kept column {i} breaks the sign rule p_0 > 0: "
            f"its last entry times (-1)^{i} is {sign[i]:.3e}"
        )


def _check_block(k: int, block: JacobiBlock, eb: EigenBlock) -> EigenBlock:
    """``eb``, once :func:`check_eigenpairs` passes it as block k; errors name k."""
    try:
        check_eigenpairs(block, eb)
    except NumericError as exc:
        raise NumericError(f"block k={k}: {exc}") from None
    return eb


def _bidiagonal(block: JacobiBlock) -> np.ndarray:
    """The c x r lower bidiagonal B of block, c = ceil(N / 2) and r = floor(N / 2).

    In even/odd order the block is [[0, B], [B^T, 0]] (Golub and Kahan): b_{2i}
    joins even row 2i with odd row 2i + 1, and b_{2i-1} with odd row 2i - 1, so
    B has b_{2i} on its diagonal and b_{2i-1} below it.
    """
    c, r = (block.size + 1) // 2, block.size // 2
    bidiag = np.zeros((c, r))
    bidiag[np.arange(r), np.arange(r)] = block.offdiag[0::2]
    bidiag[np.arange(1, c), np.arange(c - 1)] = block.offdiag[1::2]
    return bidiag


def _solve(block: JacobiBlock) -> EigenBlock:
    """Kept half of the eigendata of block, sorted and signed but not checked.

    It is the SVD B = U diag(s) W^T of the half-size bidiagonal (LAPACK's
    ``gesdd``): B w_i = s_i u_i and B^T u_i = s_i w_i, so x_i = s_i is an
    eigenvalue with unit eigenvector u_i / sqrt(2) in the even rows and
    w_i / sqrt(2) in the odd rows, and the singular values are the c largest
    eigenvalues.  An odd N adds x = 0, whose eigenvector is U's last column
    (B^T u = 0) in the even rows and zero in the odd ones.  U and W^T /
    sqrt(2) are written straight into the block's ``half``, whose columns
    are then signed by :func:`_sign_reading`.
    """
    c, r = (block.size + 1) // 2, block.size // 2
    u, s, wt = np.linalg.svd(_bidiagonal(block))
    vals = np.zeros(c)
    vals[:r] = s
    half = np.zeros((block.size, c))
    half[:c] = u
    half[c:, :r] = wt.T
    half[:, :r] /= np.sqrt(2.0)
    # sign rule p_0 > 0: column i is p(x_i) / |p(x_i)| for the block's
    # shifted recurrence p.  At large |k| the leading entries underflow, so
    # the sign is read at the last entry, p_{N-1}(x_i) of sign (-1)^i
    half *= np.where(_sign_reading(half) < 0, -1.0, 1.0)
    for a in (vals, half):
        a.setflags(write=False)
    return EigenBlock(vals, half)


def eigendecompose(block: JacobiBlock) -> EigenBlock:
    """Full spectrum and orthonormal eigenvectors, sorted by decreasing eigenvalue.

    The result passes :func:`check_eigenpairs` (gap, range, residual,
    Rayleigh quotient, orthogonality and sign), or NumericError is raised.  It is
    solved with OpenBLAS at one thread, as in a band, so it holds the same
    bytes as the block of :func:`band_eigenblocks`.
    """
    with _one_blas_thread():
        eb = _solve(block)
        check_eigenpairs(block, eb)
    return eb


def spectrum(block: JacobiBlock) -> np.ndarray:
    """Eigenvalues only, sorted decreasing.

    They are the singular values s of the block's half-size bidiagonal (see
    :func:`_solve`), an exact 0 for odd N, and their mirror -s.
    """
    s = np.linalg.svd(_bidiagonal(block), compute_uv=False)
    return _mirror(np.append(s, np.zeros(block.size % 2)), len(s))


def _each_block(fn: Callable[[int, JacobiBlock], object], jacobi: list[JacobiBlock]) -> list:
    """``[fn(k, block) for k, block in enumerate(jacobi)]`` on :func:`thread_count` threads.

    The one band loop: a build solves and checks each block here, a load
    checks each, and OpenBLAS is held at one thread throughout.  The
    calling thread and ``thread_count() - 1`` more each take the next
    block, lowest k and so largest first; with one thread, the calling
    thread takes them in turn.  Every thread has ended when this returns
    or raises.  After an error no further block is taken, and the error of
    the lowest k that failed is raised: every lower k was taken first, so
    it is the serial loop's.
    """
    out: list = [None] * len(jacobi)
    errors: dict[int, Exception] = {}
    todo = list(range(len(jacobi)))[::-1]
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                if not todo:
                    return
                k = todo.pop()
            try:
                out[k] = fn(k, jacobi[k])
            except Exception as exc:
                with lock:
                    errors[k] = exc
                    todo.clear()

    threads = []
    with _one_blas_thread():
        try:
            for _ in range(min(thread_count(), len(jacobi)) - 1):
                threads.append(threading.Thread(target=work, name="spherelok-band"))
                threads[-1].start()
            work()
        finally:
            with lock:
                todo.clear()
            for t in threads:
                t.join()
    if errors:
        raise errors[min(errors)]
    return out


def band_eigenblocks(n: int, m: int) -> dict[int, EigenBlock]:
    """Eigendecompositions for every order -n <= k <= n.

    Blocks for k and -k are identical, so each |k| is solved once, as the
    SVD of its half-size bidiagonal (:func:`_solve`), and block -k is
    block +k, the same object.  Each block is solved and then checked
    (:func:`_check_block`) by the same thread of :func:`_each_block`, so
    the error raised is that of a serial "solve, then check" loop over k.
    The check's small elementwise steps hold the GIL, so its threads gain
    at large blocks only (see the README).  OpenBLAS stays at one thread
    for the whole loop, so the bytes of a build depend neither on the
    process's BLAS thread count nor on how many threads solve.
    """
    solved = _each_block(lambda k, b: _check_block(k, b, _solve(b)), _band_blocks(n, m))
    return {k: solved[abs(k)] for k in range(-n, n + 1)}


def band_spectra(n: int, m: int) -> dict[int, np.ndarray]:
    """Eigenvalues for every distinct |k|, sorted decreasing (no eigenvectors).

    Each is :func:`spectrum` of the block, from singular values only,
    solved one block after another with OpenBLAS at one thread.
    """
    with _one_blas_thread():
        return {k: spectrum(block) for k, block in enumerate(_band_blocks(n, m))}
