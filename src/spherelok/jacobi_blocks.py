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
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

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
    """Eigendata of one Jacobi block, held as the even rows of its nonnegative half.

    A Jacobi block has a zero diagonal, so D J D = -J for D = diag((-1)^j):
    its eigenvalues come in pairs +-x, and if v is the unit eigenvector of
    x, then D v is that of -x.  In even/odd order the block is
    [[0, B], [B^T, 0]] for a c x r lower bidiagonal B, c = ceil(N / 2) and
    r = floor(N / 2) (Golub and Kahan 1965), so the c largest eigenvalues are
    the singular values s of B, with an exact 0 for odd N, and the odd rows
    of their eigenvectors follow from the even rows E: O' = B^T E S^-1, with
    0 in the column where s = 0 (:func:`_odd_rows`).

    The block stores three read-only arrays: ``values``, the c kept
    eigenvalues in decreasing order; ``even``, E, the c x c even rows of
    their eigenvectors, as a plan record stores them; and ``offdiag``, the
    block's off-diagonal b_0 .. b_{N-2}, which gives N and B.  In a built or loaded plan ``offdiag`` is a view of the band's table
    of recurrence coefficients (:func:`_band_blocks`), not a copy.  ``odd``
    is O', computed on each access and not kept.  The other N - c eigenpairs
    are the kept ones' exact mirrors, x_{N-1-i} = -x_i and v_{N-1-i} = D v_i
    for i < r; the middle pair of an odd N is kept once.  Blocks k and -k
    are the same matrix, so one object serves both orders.

    ValueError is raised unless the three shapes are those of one block.  A
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
    eigenvalues, and E's last row has the same sign (:func:`_sign_reading`).
    """

    values: np.ndarray
    even: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        for name in ("values", "even", "offdiag"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.flags.writeable:
                a = a.copy()
                a.setflags(write=False)
            object.__setattr__(self, name, a)
        c = len(self.values) if self.values.ndim == 1 else -1
        if (
            self.even.shape != (c, c)
            or self.offdiag.ndim != 1
            or len(self.offdiag) not in (2 * c - 2, 2 * c - 1)
        ):
            raise ValueError(
                f"shapes {self.values.shape}, {self.even.shape} and {self.offdiag.shape} "
                "are not (c,), (c, c) and (2c - 2 or 2c - 1,)"
            )

    def __reduce__(self):
        # through the constructor: numpy unpickles arrays writable, and the
        # derived full pair is rebuilt from the even rows, not taken on trust
        return type(self), (self.values, self.even, self.offdiag)

    @property
    def size(self) -> int:
        return len(self.offdiag) + 1

    @property
    def odd(self) -> np.ndarray:
        """O' = B^T E S^-1, the r x c odd rows of the kept columns (:func:`_odd_rows`)."""
        return _odd_rows(self.values, self.even, self.offdiag)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        vals = _mirror(self.values, self.size // 2)  # N - c mirrored pairs
        vals.setflags(write=False)
        return vals

    @cached_property
    def vectors(self) -> np.ndarray:
        c, r = len(self.values), self.size // 2
        odd = self.odd
        vecs = np.empty((c + r, c + r))
        vecs[0::2, :c] = self.even
        vecs[1::2, :c] = odd
        vecs[0::2, c:] = self.even[:, :r][:, ::-1]
        vecs[1::2, c:] = -odd[:, :r][:, ::-1]
        vecs.setflags(write=False)
        return vecs


def _inverse_values(values: np.ndarray, r: int) -> np.ndarray:
    """S^-1 of a block's kept columns: 1 / s for the r paired ones, 0 for an odd N's s = 0."""
    inv = np.zeros(len(values))
    inv[:r] = 1.0 / values[:r]
    return inv


def _odd_rows(values: np.ndarray, even: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """O' = B^T E S^-1, the one definition of a block's odd rows.

    B^T u_i = s_i w_i for the SVD of :func:`_solve`, so O' is the odd rows of
    the r paired columns; the column of an odd N's s = 0 gets 0, its odd part.
    Row j of B^T t is b_{2j} t_j + b_{2j+1} t_{j+1} (see :func:`_bidiagonal`).
    """
    c, r = len(values), (len(offdiag) + 1) // 2
    t = even * _inverse_values(values, r)
    odd = t[:r] * offdiag[0::2, None]
    odd[: c - 1] += offdiag[1::2, None] * t[1:]
    return odd


def _sign_reading(even: np.ndarray) -> np.ndarray:
    """Each kept column's entry in E's last row, times (-1)^i for column i.

    The zeros of p_{N-1} strictly interlace the block's N eigenvalues
    (Szego, Orthogonal Polynomials, Thm 3.3.2; Golub and Welsch 1969), so
    p_{N-1}(x_i), block row N - 1, has the sign (-1)^i, and the reading is
    positive for every column that keeps the sign rule p_0 > 0.  Block row
    N - 1 is E's last row, even row c - 1, for odd N.  For even N it is the
    last odd row, b_{N-2} E[c - 1] / s, of the sign of E[c - 1] since b > 0
    and s > 0.  So the reading needs no odd rows.
    """
    last = even[-1]
    return np.where(np.arange(len(last)) % 2, -last, last)


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


@lru_cache(maxsize=4)
def _band_blocks(n: int, m: int) -> tuple[JacobiBlock, ...]:
    """Jacobi blocks for the orders 0..n of the band pair (n, m), index alpha.

    One band-wide table of recurrence coefficients feeds every block: the
    off-diagonals of blocks 0..n one after another, each computed once.
    Each ``offdiag`` is a read-only view of the table, bit for bit equal to
    :func:`build_block`'s copy.  The blocks of the last few bands are kept,
    so a build, a load and the check of either share one table, which the
    plan's blocks then hold.
    """
    params = BandParams(n, m)
    offsets, sizes = np.array([_block_shape(params, alpha) for alpha in range(n + 1)]).T
    ends = np.cumsum(sizes - 1)
    starts = ends - (sizes - 1)
    # entry t of block alpha's off-diagonal is b_{offset + 1 + t} of its family
    alphas = np.repeat(np.arange(n + 1), sizes - 1)
    b = _coefficients(alphas, np.arange(len(alphas)) - starts[alphas] + offsets[alphas] + 1)
    b.setflags(write=False)
    return tuple(
        JacobiBlock(alpha, int(sizes[alpha]), b[starts[alpha] : ends[alpha]], int(offsets[alpha]))
        for alpha in range(n + 1)
    )


def check_eigenpairs(block: JacobiBlock, eb: EigenBlock) -> None:
    """Raise NumericError unless ``eb`` holds sorted orthonormal eigenpairs of block.

    This is the one definition of valid eigendata, whether it was solved,
    loaded from a plan cache or passed in, and it has no tolerance to set.
    ``eb`` must hold the block's own off-diagonal.  The check runs on the
    kept columns [E; O'], the stored even rows and the odd rows derived from
    them (:func:`_odd_rows`), and on their exact mirror (see
    :class:`EigenBlock`), against six conditions, in this order:

    - the eigenvalues are strictly decreasing, with every gap above 1e-13;
    - they lie inside (-1, 1);
    - the residual max |J V - V diag(x)|, one tridiagonal matvec per
      column, is at most 1e-12 * size;
    - every column's Rayleigh quotient is within 1e-13 of its eigenvalue:
      |v^T (J v - x v)| <= 1e-13, which ties each eigenvalue to its block
      far more tightly than the residual does;
    - the orthogonality residual max |V^T V - I| is at most 1e-12;
    - the sign rule p_0 > 0 holds: each kept column i ends in an entry of
      sign (-1)^i, read at E's last row by :func:`_sign_reading` as in
      :func:`_solve`.  A mirror column D v follows from its partner, so it
      needs no reading of its own.

    On the r paired columns the odd rows' residual B^T e - s o' is zero up
    to rounding, since o' = B^T e / s, so only the even rows' B o' - x e is
    taken there.  The column of an odd N's s = 0 has o' = 0, and its odd
    residual B^T e is checked: it is zero only for that column.

    The comparisons are written so that NaN fails them.
    """
    if eb.size != block.size:
        raise NumericError(f"{eb.size} eigenpairs for a block of size {block.size}")
    if not np.array_equal(eb.offdiag, block.offdiag):
        raise NumericError("eigendata holds an off-diagonal that is not the block's")
    x, e = eb.values, eb.even
    c, r = len(x), block.size // 2
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
    o = eb.odd
    # B o' - x e on the even rows: J couples row 2j with rows 2j +- 1 only.
    # b_{2j} joins rows 2j and 2j + 1, and b_{2j+1} rows 2j + 1 and 2j + 2.
    # A mirror's residual is exactly the negated D-image of its partner's,
    # so it has the same maximum, and its v^T r is its partner's, negated
    res = e * -x
    worst = 0.0
    if block.size > 1:
        b_even, b_odd = block.offdiag[0::2, None], block.offdiag[1::2, None]
        res[:r] += b_even * o
        res[1:] += b_odd * o[: c - 1]
        if block.size % 2:  # B^T e of the s = 0 column
            mid = e[:, -1:]
            worst = np.abs(b_even * mid[:r] + b_odd * mid[1:]).max()
    worst = np.maximum(np.abs(res).max(), worst)
    if not worst <= 1e-12 * block.size:
        raise NumericError(f"eigenpair residual {worst:.3e} too large")
    worst = np.abs(np.einsum("ij,ij->j", e, res)).max()
    if not worst <= 1e-13:
        raise NumericError(f"Rayleigh quotient off its eigenvalue by {worst:.3e}, above 1e-13")
    # from two half-size Grams: with G_e = E^T E and G_o = O'^T O', the kept
    # columns have Gram matrix G_e + G_o, each mirror pair the same, and kept
    # column i against mirror D v_j has (G_e - G_o)[i, j]; so max |V^T V - I|
    # is the larger of max |G_e + G_o - I| and max |(G_e - G_o)[:, :N-c]|
    g_even = np.dot(e.T, e)
    g_odd = np.dot(o.T, o)
    cross = (g_even - g_odd)[:, :r]
    g_even += g_odd
    g_even.flat[:: c + 1] -= 1.0
    worst = np.maximum(np.abs(g_even).max(initial=0.0), np.abs(cross).max(initial=0.0))
    if not worst <= 1e-12:
        raise NumericError(f"orthogonality residual {worst:.3e} exceeds 1e-12")
    sign = _sign_reading(e)
    if not sign.min() > 0:
        i = (sign > 0).argmin()
        last = sign[i] if block.size % 2 else sign[i] * block.offdiag[-1] / x[i]
        raise NumericError(
            f"kept column {i} breaks the sign rule p_0 > 0: "
            f"its last entry times (-1)^{i} is {last:.3e}"
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
    w_i / sqrt(2) = B^T u_i / (sqrt(2) s_i) in the odd rows, and the singular
    values are the c largest eigenvalues.  An odd N adds x = 0, whose
    eigenvector is U's last column (B^T u = 0) in the even rows and zero in
    the odd ones.  Only E, U with its r paired columns scaled by 1 / sqrt(2),
    is stored; W is dropped, since the odd rows follow from E
    (:func:`_odd_rows`).  E's columns are then signed by :func:`_sign_reading`.
    """
    r = block.size // 2
    even, s, _ = np.linalg.svd(_bidiagonal(block))
    vals = np.zeros(len(even))
    vals[:r] = s
    even[:, :r] /= np.sqrt(2.0)
    # sign rule p_0 > 0: column i is p(x_i) / |p(x_i)| for the block's
    # shifted recurrence p.  At large |k| the leading entries underflow, so
    # the sign is read at E's last row, of the sign of p_{N-1}(x_i), (-1)^i
    even *= np.where(_sign_reading(even) < 0, -1.0, 1.0)
    for a in (vals, even):
        a.setflags(write=False)
    return EigenBlock(vals, even, block.offdiag)


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


def _each_block(fn: Callable[[int, JacobiBlock], object], jacobi: Sequence[JacobiBlock]) -> list:
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
