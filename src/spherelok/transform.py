"""Transforms between harmonic and localized coefficients.

The dense path multiplies each block by its orthogonal eigenvector matrix:
one real matrix product per |k| (:func:`_apply_blocks`) serves analysis,
synthesis, filtering and the tail bounds.
The fast path factors that product into a Chebyshev change of basis (applied
by a divide-and-conquer cascade), a nonequispaced cosine evaluation at the
eigenvalue angles, and a diagonal scaling.  Blocks that are truncated, small,
or whose polynomial values grow beyond a stability cap fall back to the dense
multiply inside the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _fastcheb as fc
from .errors import FormatError, NumericError
from .jacobi_blocks import EigenBlock, band_eigenblocks, build_block, check_eigenpairs
from .sphere_basis import BandParams, HarmonicCoeffs, LocalizedCoeffs
from .ultraspherical import UltrasphericalFamily, chebyshev_connection

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

FAST_MIN_BLOCK = 64  # below this a dense multiply beats the cascade
GROWTH_CAP = 1e7  # max polynomial value at x=1 tolerated by the cascade
NDCT_DIRECT_MAX = 128  # "auto" switches to the windowed evaluation above this

_PLAN_MAGIC = b"SPHERELOK-PLAN v1\n"


@dataclass
class OpCounter:
    """Accumulates the arithmetic operations of dense block multiplies."""

    ops: int = 0

    def add_matvec(self, size: int) -> None:
        self.ops += (2 * size - 1) * size


def dense_op_count(n: int, m: int) -> int:
    """Closed form of the dense transform operation count, sum_k (2 N_k - 1) N_k."""
    total = (n - m + 1) * (4 * n * n + n * (4 * m + 5) + 3 + m - 8 * m * m)
    if total % 3:
        raise AssertionError("operation-count formula must be divisible by 3")
    return total // 3


def _growth_at_one(alpha: int, degree: int) -> float:
    """Largest value of the family on [-1, 1] up to the given degree."""
    fam = UltrasphericalFamily.build(alpha, degree + 1)
    b = fam.b
    prev, cur = 0.0, 1.0 / b[0]
    top = cur
    for i in range(degree):
        cur, prev = (cur - b[i] * prev) / b[i + 1], cur
        top = max(top, cur)
    return top


def _validate_blocks(
    params: BandParams, blocks: dict[int, EigenBlock], tol: float, eigenpairs: bool = True
) -> None:
    """Check every block against its Jacobi matrix rebuilt from (n, m).

    Runs :func:`check_eigenpairs` (order, range, O(N^2) residual) unless
    ``eigenpairs`` is False, and the O(N^3) orthogonality check
    max |V^T V - I| <= tol.  A block -k that shares its arrays with block +k
    is checked once.
    """
    for alpha in range(params.n + 1):
        jacobi = build_block(params.n, params.m, alpha) if eigenpairs else None
        for k in (alpha, -alpha) if alpha else (0,):
            eb = blocks[k]
            if k < 0 and eb.vectors is blocks[alpha].vectors and (
                eb.eigenvalues is blocks[alpha].eigenvalues
            ):
                continue
            if eigenpairs:
                try:
                    check_eigenpairs(jacobi, eb.eigenvalues, eb.vectors)
                except NumericError as exc:
                    raise NumericError(f"block k={k}: {exc}") from None
            gram = eb.vectors.T @ eb.vectors
            gram.flat[:: eb.size + 1] -= 1.0
            resid = max(gram.max(), -gram.min())
            if not resid <= tol:
                raise NumericError(
                    f"block k={k}: orthogonality residual {resid:.3e} exceeds {tol:g}"
                )


@dataclass(frozen=True)
class _FastBlock:
    eligible: bool
    theta: np.ndarray | None = None
    kappa: np.ndarray | None = None
    cascade: fc.CascadePlan | None = None
    ndct: fc.NdctPlan | None = None


class TransformPlan:
    """Reusable per-band eigendata plus optional fast-path tables.

    Immutable once built; safe to share across concurrent transforms.
    """

    def __init__(
        self,
        params: BandParams,
        blocks: dict[int, EigenBlock],
        mode: str = "dense",
        ndct: str = "auto",
        validate: bool = True,
    ):
        if mode not in ("dense", "fast"):
            raise ValueError(f"unknown mode {mode!r}")
        if ndct not in ("auto", "direct", "windowed"):
            raise ValueError(f"unknown ndct mode {ndct!r}")
        self.params = params
        self.blocks = blocks
        self.mode = mode
        self.ndct = ndct
        self._fast: dict[int, _FastBlock] = {}
        self._conn: dict[int, np.ndarray] = {}
        self._eigs: np.ndarray | None = None
        self._paired: _Layout | None = None
        if validate:
            _validate_blocks(params, blocks, 1e-12)

    @classmethod
    def build(
        cls,
        n: int,
        m: int,
        mode: str = "dense",
        ndct: str = "auto",
        validate: bool = True,
    ) -> "TransformPlan":
        params = BandParams(n=n, m=m)
        plan = cls(params, band_eigenblocks(n, m), mode=mode, ndct=ndct, validate=False)
        if validate:  # eigendecompose has checked every eigenpair already
            _validate_blocks(params, plan.blocks, 1e-12, eigenpairs=False)
        return plan

    def eigenblock(self, k: int) -> EigenBlock:
        return self.blocks[k]

    def eigenvalue_vector(self) -> np.ndarray:
        """All eigenvalues in the canonical localized-coefficient order."""
        if self._eigs is None:
            parts = [self.blocks[k].eigenvalues for k in self.params.orders()]
            eigs = np.concatenate(parts)
            eigs.setflags(write=False)
            self._eigs = eigs
        return self._eigs

    def _layout(self) -> _Layout:
        """The +-k-paired layout of the band, built on first use."""
        if self._paired is None:
            self._paired = _paired_layout(self.params)
        return self._paired

    # -- fast-path plumbing ------------------------------------------------

    def fast_eligible(self, k: int) -> bool:
        """Whether the factored pipeline is used for block k in fast mode."""
        alpha = abs(k)
        size = self.params.block_size(k)
        if alpha <= self.params.m or size < FAST_MIN_BLOCK:
            return False
        return _growth_at_one(alpha, size - 1) <= GROWTH_CAP

    def _fast_block(self, k: int) -> _FastBlock:
        alpha = abs(k)
        fb = self._fast.get(alpha)
        if fb is None:
            if not self.fast_eligible(k):
                fb = _FastBlock(eligible=False)
            else:
                eb = self.blocks[alpha]
                theta = np.arccos(eb.eigenvalues)
                b0 = UltrasphericalFamily.build(alpha, 1).b[0]
                kappa = b0 * eb.vectors[0, :]
                size = eb.size
                fb = _FastBlock(
                    eligible=True,
                    theta=theta,
                    kappa=kappa,
                    cascade=fc.build_cascade(alpha, size),
                    ndct=fc.build_ndct(theta, size),
                )
            self._fast[alpha] = fb
        return fb

    def _connection(self, alpha: int, size: int) -> np.ndarray:
        conn = self._conn.get(alpha)
        if conn is None:
            fam = UltrasphericalFamily.build(alpha, size + 1)
            conn = chebyshev_connection(fam, size)
            self._conn[alpha] = conn
        return conn


def _check_match(plan: TransformPlan, coeffs) -> None:
    if coeffs.params != plan.params:
        raise ValueError(
            f"coefficients for band {coeffs.params} do not match plan {plan.params}"
        )


class _Layout(NamedTuple):
    """The +-k-paired layout of a band, the dense kernel's working order.

    Row r holds entry j of block +alpha next to entry j of block -alpha:
    ``index[r]`` gives their two positions in the canonical layout (the same
    position twice for alpha = 0), and ``inverse`` maps each canonical
    position p to a slot 2 r + s with ``index[r, s] == p``.  ``rows[alpha]``
    is the range of rows of order alpha.
    """

    index: np.ndarray
    inverse: np.ndarray
    rows: tuple[slice, ...]


def _paired_layout(params: BandParams) -> _Layout:
    # one row per entry of blocks 0..n: the dimension counts every block but 0 twice
    index = np.empty(((params.dimension + params.block_size(0)) // 2, 2), dtype=np.intp)
    inverse = np.empty(params.dimension, dtype=np.intp)
    rows, start = [], 0
    for alpha in range(params.n + 1):
        r = slice(start, start + params.block_size(alpha))
        for s, k in enumerate((alpha, -alpha)):
            block = params.block_slice(k)
            index[r, s] = np.arange(block.start, block.stop)
            inverse[block] = 2 * np.arange(r.start, r.stop) + s
        rows.append(r)
        start = r.stop
    # index and inverse stay writable: np.take copies a read-only index array
    return _Layout(index, inverse, tuple(rows))


def _apply_blocks(
    plan: TransformPlan,
    x: np.ndarray,
    transpose: bool,
    alphas=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply every block of a batch of B vectors by V^T (``transpose``) or V.

    ``x`` is a complex ``(B, dimension)`` array, one vector in the canonical
    layout per row.  One gather into the paired layout puts blocks +k and
    -k, which share V, side by side, and the result is read through its
    float64 view: each |k| costs one real matrix product on 4B columns (real
    and imaginary parts of both blocks), with no complex copy of V.  A -k
    block with arrays of its own (an older cache) gets its own product.
    One gather through the inverse permutation writes the result to ``out``
    (a new array if None; it may be ``x`` itself).  ``alphas`` restricts the
    work to those |k|; the entries of the other blocks are left unset.
    """
    layout = plan._layout()
    x = np.asarray(x, dtype=complex)
    batch = x.shape[0]
    gathered = np.take(x.T, layout.index, axis=0)
    pair = gathered.view(float).reshape(len(gathered), 4 * batch)
    half = 2 * batch
    for alpha in range(plan.params.n + 1) if alphas is None else alphas:
        r = layout.rows[alpha]  # each product overwrites its own input rows
        v, w = plan.blocks[alpha].vectors, plan.blocks[-alpha].vectors
        if v is w:  # np.dot: less per-call overhead than np.matmul
            pair[r] = np.dot(v.T if transpose else v, pair[r])
        else:
            pair[r, :half] = (v.T if transpose else v) @ pair[r, :half]
            pair[r, half:] = (w.T if transpose else w) @ pair[r, half:]
    slots = gathered.reshape(2 * len(gathered), batch).T
    # mode="clip" skips the bounds check that would buffer ``out``
    return np.take(slots, layout.inverse, axis=1, out=out, mode="clip")


def analyze(
    plan: TransformPlan, coeffs: HarmonicCoeffs, counter: OpCounter | None = None
) -> LocalizedCoeffs:
    """Change of basis into localized coefficients, block-orthogonal multiply."""
    _check_match(plan, coeffs)
    out = _apply_blocks(plan, coeffs.values[None], transpose=True)
    if counter is not None:
        for k in plan.params.orders():
            counter.add_matvec(plan.params.block_size(k))
    return LocalizedCoeffs._adopt(plan.params, out[0])


def synthesize(plan: TransformPlan, coeffs: LocalizedCoeffs) -> HarmonicCoeffs:
    """Inverse of :func:`analyze` (exact orthogonal inverse per block)."""
    _check_match(plan, coeffs)
    out = _apply_blocks(plan, coeffs.values[None], transpose=False)
    return HarmonicCoeffs._adopt(plan.params, out[0])


def _fast_block_apply(plan: TransformPlan, k: int, c_k: np.ndarray) -> np.ndarray:
    """Factored pipeline for one block that :meth:`fast_eligible` admits."""
    fb = plan._fast_block(k)
    size = len(c_k)
    if plan.ndct == "direct":
        cheb = plan._connection(abs(k), size) @ c_k
        vals = fc.ndct_direct(fb.theta, cheb)
    else:
        cheb = fc.apply_cascade(fb.cascade, c_k)
        if plan.ndct == "windowed" or size > NDCT_DIRECT_MAX:
            vals = fc.apply_ndct(fb.ndct, cheb)
        else:
            vals = fc.ndct_direct(fb.theta, cheb)
    return fb.kappa * vals


def analyze_fast(plan: TransformPlan, coeffs: HarmonicCoeffs) -> LocalizedCoeffs:
    """Fast-path analysis; agrees with :func:`analyze` to 1e-8.

    Requires a plan built with ``mode="fast"``.  Truncated orders (|k| <= m)
    and blocks outside the pipeline's stability range use the dense kernel.
    """
    if plan.mode != "fast":
        raise ValueError("analyze_fast requires a plan built with mode='fast'")
    _check_match(plan, coeffs)
    fast, dense = [], []
    for alpha in range(plan.params.n + 1):
        (fast if plan._fast_block(alpha).eligible else dense).append(alpha)
    out = _apply_blocks(plan, coeffs.values[None], transpose=True, alphas=dense)[0]
    for alpha in fast:  # eligible orders have alpha > m >= 0
        for k in (alpha, -alpha):
            out[plan.params.block_slice(k)] = _fast_block_apply(plan, k, coeffs.block(k))
    return LocalizedCoeffs._adopt(plan.params, out)


# ---------------------------------------------------------------------------
# binary plan cache


def save_plan(path, plan: TransformPlan) -> None:
    """Serialize eigendata (little-endian, per-block records) to a cache file."""
    with open(path, "wb") as fh:
        fh.write(_PLAN_MAGIC)
        np.array([plan.params.n, plan.params.m], dtype="<i8").tofile(fh)
        for k in plan.params.orders():
            eb = plan.blocks[k]
            np.array([k, eb.size], dtype="<i8").tofile(fh)
            eb.eigenvalues.astype("<f8").tofile(fh)
            eb.vectors.astype("<f8").tofile(fh)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def load_plan(path, mode: str = "dense", ndct: str = "auto") -> TransformPlan:
    """Load a plan cache, verifying layout and every block's eigendata.

    A block -k whose record is bit-identical to block +k's shares its
    arrays, so it is stored and validated once.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(_PLAN_MAGIC))
        if magic != _PLAN_MAGIC:
            raise FormatError(f"{path}: not a plan cache (bad magic)")
        header = np.fromfile(fh, dtype="<i8", count=2)
        if len(header) != 2:
            raise FormatError(f"{path}: truncated header")
        n, m = int(header[0]), int(header[1])
        if not 0 <= m <= n:
            raise FormatError(f"{path}: invalid band parameters n={n} m={m}")
        params = BandParams(n=n, m=m)
        blocks: dict[int, EigenBlock] = {}
        for k in params.orders():
            rec = np.fromfile(fh, dtype="<i8", count=2)
            if len(rec) != 2:
                raise FormatError(f"{path}: truncated at block k={k}")
            k_read, size = int(rec[0]), int(rec[1])
            if k_read != k or size != params.block_size(k):
                raise FormatError(
                    f"{path}: block record ({k_read}, {size}) out of order; "
                    f"expected ({k}, {params.block_size(k)})"
                )
            vals = np.fromfile(fh, dtype="<f8", count=size)
            vecs = np.fromfile(fh, dtype="<f8", count=size * size)
            if len(vals) != size or len(vecs) != size * size:
                raise FormatError(f"{path}: truncated eigendata at block k={k}")
            vals = vals.astype(float, copy=False)
            vecs = vecs.astype(float, copy=False).reshape(size, size)
            if k < 0 and _same_bits(vals, blocks[-k].eigenvalues) and _same_bits(
                vecs, blocks[-k].vectors
            ):
                blocks[k] = blocks[-k].with_order(k)
                continue
            vals.setflags(write=False)
            vecs.setflags(write=False)
            blocks[k] = EigenBlock(k=k, eigenvalues=vals, vectors=vecs)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after last block")
    try:
        _validate_blocks(params, blocks, 1e-10)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from None
    return TransformPlan(params, blocks, mode=mode, ndct=ndct, validate=False)
