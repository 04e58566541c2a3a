"""Transforms between harmonic and localized coefficients.

Each block is multiplied by its orthogonal eigenvector matrix: one real
matrix product per |k| (:func:`_apply_blocks`) serves analysis, synthesis,
filtering and the tail bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NumericError
from .jacobi_blocks import EigenBlock, band_eigenblocks, build_block, check_eigenpairs
from .sphere_basis import BandParams, HarmonicCoeffs, LocalizedCoeffs

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


class TransformPlan:
    """Reusable per-band eigendata.

    Immutable once built; safe to share across concurrent transforms.
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
        self.blocks = blocks
        self.mode = mode
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
        validate: bool = True,
    ) -> "TransformPlan":
        params = BandParams(n=n, m=m)
        plan = cls(params, band_eigenblocks(n, m), mode=mode, validate=False)
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

    def fast_eligible(self, k: int) -> bool:
        """Whether block k takes a factored fast pipeline: never.

        The Chebyshev cascade plus windowed NDCT of ``_fastcheb`` loses to
        the paired dense product at every block size a plan can hold: at
        |k| = 1, both +-k, 2.1 ms against 0.02 ms at N = 256 and 6.7 ms
        against 4.5 ms at N = 2048, a tie only near N = 4096, whose dense
        plan would take about 180 GB.
        """
        return False


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
    (a new array if None; it may be ``x`` itself).
    """
    layout = plan._layout()
    x = np.asarray(x, dtype=complex)
    batch = x.shape[0]
    gathered = np.take(x.T, layout.index, axis=0)
    pair = gathered.view(float).reshape(len(gathered), 4 * batch)
    half = 2 * batch
    for alpha in range(plan.params.n + 1):
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


def analyze_fast(plan: TransformPlan, coeffs: HarmonicCoeffs) -> LocalizedCoeffs:
    """Analysis through a plan built with ``mode="fast"``; equals :func:`analyze`.

    Every block runs the dense kernel, which no factored pipeline beats at
    the sizes a plan can hold (see :meth:`TransformPlan.fast_eligible`).
    """
    if plan.mode != "fast":
        raise ValueError("analyze_fast requires a plan built with mode='fast'")
    _check_match(plan, coeffs)
    out = _apply_blocks(plan, coeffs.values[None], transpose=True)
    return LocalizedCoeffs._adopt(plan.params, out[0])


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


def load_plan(path, mode: str = "dense") -> TransformPlan:
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
    return TransformPlan(params, blocks, mode=mode, validate=False)
