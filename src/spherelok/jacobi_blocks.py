"""Tridiagonal Jacobi blocks of the band-limited localization operator.

For a band pair (n, m) the operator decomposes into 2n+1 independent
symmetric tridiagonal blocks, one per azimuthal order k, with zero diagonal
and recurrence coefficients on the off-diagonals.  Orders with |k| <= m get a
truncated (index-shifted) block, larger orders the untruncated one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .ultraspherical import UltrasphericalFamily, _coefficients

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


def thread_count() -> int:
    """Worker threads used to build a plan: always 1.

    Blocks are solved one after another: ``scipy.linalg.eigh_tridiagonal``
    holds the GIL, so threads cannot overlap two solves.  Kept public for
    callers that record it.
    """
    return 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class EigenBlock:
    """Sorted spectrum and orthonormal eigenvectors of one Jacobi block.

    Eigenvalues are strictly decreasing; column i of ``vectors`` is the unit
    eigenvector for ``eigenvalues[i]``, signed so that p_0 > 0: it is
    p(x_i) / |p(x_i)| for the block's shifted recurrence p.  Its first entry
    p_0(x_i) / |p(x_i)| may underflow to zero at large |k|.
    """

    k: int
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def with_order(self, k: int) -> "EigenBlock":
        """Same eigendata relabelled for another order (shares the arrays)."""
        return EigenBlock(k=k, eigenvalues=self.eigenvalues, vectors=self.vectors)


def build_block(n: int, m: int, k: int) -> JacobiBlock:
    """Jacobi block for order k of the band pair (n, m)."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if abs(k) > n:
        raise ValueError(f"order {k} outside band limit {n}")
    alpha = abs(k)
    if alpha <= m:
        offset = m - alpha
        size = n - m + 1
    else:
        offset = 0
        size = n - alpha + 1
    family = UltrasphericalFamily.build(alpha, offset + size)
    offdiag = family.b[offset + 1 : offset + size].copy()
    offdiag.setflags(write=False)
    return JacobiBlock(alpha=alpha, size=size, offdiag=offdiag, truncation_offset=offset)


def _band_blocks(n: int, m: int) -> list[JacobiBlock]:
    """Jacobi blocks for the orders 0..n of the band pair (n, m), index alpha.

    One band-wide table of recurrence coefficients feeds every block: row
    alpha holds b_0 .. b_n of the alpha-family, which covers block alpha's
    last off-diagonal b_{n - alpha}.  Each ``offdiag`` is a read-only view
    of the table, bit for bit equal to :func:`build_block`'s copy.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    b = _coefficients(np.arange(n + 1)[:, None], np.arange(n + 1))
    b.setflags(write=False)
    blocks = []
    for alpha in range(n + 1):
        offset = max(m - alpha, 0)
        size = n - max(alpha, m) + 1
        offdiag = b[alpha, offset + 1 : offset + size]
        blocks.append(JacobiBlock(alpha, size, offdiag, offset))
    return blocks


def _eigh_block(block: JacobiBlock, vectors: bool):
    # scipy.linalg is imported here, not at module level: it takes about 0.3 s,
    # and only building a plan or computing band spectra solves a block
    from scipy.linalg import eigh_tridiagonal

    if block.size == 1:
        vals = np.zeros(1)
        vecs = np.ones((1, 1)) if vectors else None
        return vals, vecs
    diag = np.zeros(block.size)
    if vectors:
        vals, vecs = eigh_tridiagonal(diag, np.asarray(block.offdiag))
        return vals, vecs
    vals = eigh_tridiagonal(diag, np.asarray(block.offdiag), eigvals_only=True)
    return vals, None


def check_eigenpairs(block: JacobiBlock, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Raise NumericError unless (vals, vecs) are sorted eigenpairs of block.

    The eigenvalues must be strictly decreasing, with every gap above
    1e-13, and lie inside (-1, 1); the residual max |J V - V diag(vals)|,
    one tridiagonal matvec per column, must stay within 1e-12 * size.  The
    comparisons are written so that NaN fails them.  Orthogonality of V is
    the caller's O(N^3) check.
    """
    if block.size > 1:
        gap = (vals[:-1] - vals[1:]).min()
        if not gap > _MIN_EIGENVALUE_GAP:
            raise NumericError(
                f"eigenvalue gap {gap:.3e} not above {_MIN_EIGENVALUE_GAP}: "
                "not strictly decreasing"
            )
    if not np.abs(vals).max() < 1.0:
        raise NumericError("eigenvalues escaped the open interval (-1, 1)")
    resid = vecs * -vals
    if block.size > 1:
        off = block.offdiag[:, None]
        resid[:-1] += off * vecs[1:]
        resid[1:] += off * vecs[:-1]
    worst = max(resid.max(), -resid.min())
    if not worst <= 1e-12 * block.size:
        raise NumericError(f"eigenpair residual {worst:.3e} too large")


def eigendecompose(block: JacobiBlock, k: int | None = None) -> EigenBlock:
    """Full spectrum and orthonormal eigenvectors, sorted by decreasing eigenvalue."""
    vals, vecs = _eigh_block(block, vectors=True)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    check_eigenpairs(block, vals, vecs)
    # sign convention p_0 > 0: column i is p(x_i) / |p(x_i)| for the block's
    # shifted recurrence p.  At large |k| the leading entries underflow, so
    # the sign is read at idx, the first entry above 1e-14: p_j(x) > 0 up to
    # there for x > 0, and p_j(-x) = (-1)^j p_j(x)
    idx = np.argmax(np.abs(vecs) > 1e-14, axis=0)
    lead = vecs[idx, np.arange(block.size)]
    flip = (lead < 0) != ((vals < 0) & (idx % 2 == 1))
    vecs = vecs * np.where(flip, -1.0, 1.0)[None, :]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenBlock(k=0 if k is None else k, eigenvalues=vals, vectors=vecs)


def spectrum(block: JacobiBlock) -> np.ndarray:
    """Eigenvalues only, sorted decreasing."""
    vals, _ = _eigh_block(block, vectors=False)
    return vals[::-1].copy()


def band_eigenblocks(n: int, m: int) -> dict[int, EigenBlock]:
    """Eigendecompositions for every order -n <= k <= n.

    Blocks for k and -k are identical, so each |k| is solved once, in turn,
    and block -k shares block +k's arrays.
    """
    out: dict[int, EigenBlock] = {}
    for k, block in enumerate(_band_blocks(n, m)):
        out[k] = eigendecompose(block, k)
        if k > 0:
            out[-k] = out[k].with_order(-k)
    return out


def band_spectra(n: int, m: int) -> dict[int, np.ndarray]:
    """Eigenvalues for every distinct |k| (no eigenvectors)."""
    return {k: spectrum(block) for k, block in enumerate(_band_blocks(n, m))}
