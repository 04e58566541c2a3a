"""Transforms between harmonic and localized coefficients.

Each block is multiplied by its orthogonal eigenvector matrix: one real
matrix product per |k| (:func:`_apply_blocks`) serves analysis, synthesis,
filtering and the tail bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NumericError
from .jacobi_blocks import EigenBlock, _band_blocks, band_eigenblocks, check_eigenpairs
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

_PLAN_MAGIC = b"SPHERELOK-PLAN v2\n"
_PLAN_MAGIC_V1 = b"SPHERELOK-PLAN v1\n"


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
    """Check the blocks k = 0..n against their Jacobi matrices rebuilt from (n, m).

    Runs :func:`check_eigenpairs` (order, range, O(N^2) residual) unless
    ``eigenpairs`` is False, and the O(N^3) orthogonality check
    max |V^T V - I| <= tol.  Block -k is block +k's eigendata.
    """
    jacobi = _band_blocks(params.n, params.m) if eigenpairs else None
    for k in range(params.n + 1):
        eb = blocks[k]
        if eigenpairs:
            try:
                check_eigenpairs(jacobi[k], eb.eigenvalues, eb.vectors)
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

    Only ``blocks[k]`` for k = 0..n is read: block -k is block +k relabelled,
    sharing its arrays, since the Jacobi blocks of k and -k are the same
    matrix.  Immutable once built; safe to share across concurrent transforms.
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
            self.blocks[k] = blocks[k]
            if k:
                self.blocks[-k] = blocks[k].with_order(-k)
        self.mode = mode
        self._eigs: np.ndarray | None = None
        if validate:
            _validate_blocks(params, self.blocks, 1e-12)

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


@lru_cache(maxsize=8)
def _paired_layout(params: BandParams) -> _Layout:
    orders = _label_columns(params, "harmonic")[0]  # the same for both kinds
    starts = np.array(_block_starts(params))
    # the layout holds blocks 0 .. -n in row order already; each entry of
    # block +alpha sits as far from its block's start as its partner in -alpha
    minus = np.flatnonzero(orders <= 0)
    alphas = -orders[minus]
    plus = minus - starts[params.n + alphas] + starts[params.n - alphas]
    # index and inverse stay writable: np.take copies a read-only index array
    index = np.stack([plus, minus], axis=1)
    inverse = np.empty(params.dimension, dtype=np.intp)
    inverse[plus] = 2 * np.arange(len(plus))
    inverse[minus] = 2 * np.arange(len(minus)) + 1  # block 0 keeps slot 1
    ends = np.searchsorted(alphas, np.arange(params.n + 2)).tolist()
    return _Layout(index, inverse, tuple(map(slice, ends[:-1], ends[1:])))


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
    and imaginary parts of both blocks), with no complex copy of V.  One
    gather through the inverse permutation writes the result to ``out``
    (a new array if None; it may be ``x`` itself).
    """
    layout = _paired_layout(plan.params)
    x = np.asarray(x, dtype=complex)
    batch = x.shape[0]
    gathered = np.take(x.T, layout.index, axis=0)
    pair = gathered.view(float).reshape(len(gathered), 4 * batch)
    for alpha in range(plan.params.n + 1):
        r = layout.rows[alpha]  # each product overwrites its own input rows
        v = plan.blocks[alpha].vectors
        # np.dot: less per-call overhead than np.matmul
        pair[r] = np.dot(v.T if transpose else v, pair[r])
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
    """Serialize eigendata to a v2 cache file of little-endian 8-byte words.

    After the 18-byte magic line come ``n m``, n flag words written as 0,
    then one record ``k, N_k, eigenvalues, eigenvectors`` (row-major) per
    block in the order k = n .. 0.  Block -k is block +k's eigendata, so
    each |k| is stored once and the file ends in eigenvector bytes.
    """
    params = plan.params
    with open(path, "wb") as fh:
        fh.write(_PLAN_MAGIC)
        np.array([params.n, params.m, *[0] * params.n], dtype="<i8").tofile(fh)
        for k in range(params.n, -1, -1):
            eb = plan.blocks[k]
            np.array([k, eb.size], dtype="<i8").tofile(fh)
            eb.eigenvalues.astype("<f8").tofile(fh)
            eb.vectors.astype("<f8").tofile(fh)


def load_plan(path, mode: str = "dense") -> TransformPlan:
    """Load a v2 plan cache, verifying layout and every record's eigendata.

    The file is read once into one 8-byte-aligned buffer; each block's
    arrays are read-only views of it, and block -k shares block +k's.  A v1
    cache is rejected, since it may hold eigenvector signs from before the
    p_0 > 0 rule, and so is a nonzero flag word, which would announce a
    separate record for some -k.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(_PLAN_MAGIC))
        if magic == _PLAN_MAGIC_V1:
            raise FormatError(
                f"{path}: plan cache format v1 is no longer read; delete the file "
                "and rebuild it with `spherelok plan`"
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
        end = pos + 2 + size + size * size
        if end > len(words):
            raise FormatError(f"{path}: truncated at block k={k}")
        k_read, size_read = int(words[pos]), int(words[pos + 1])
        if (k_read, size_read) != (k, size):
            raise FormatError(
                f"{path}: block record ({k_read}, {size_read}) out of order; "
                f"expected ({k}, {size})"
            )
        vals = data[pos + 2 : pos + 2 + size]
        vecs = data[pos + 2 + size : end].reshape(size, size)
        blocks[k] = EigenBlock(k=k, eigenvalues=vals, vectors=vecs)
        pos = end
    if pos != len(words) or trailing:
        raise FormatError(f"{path}: trailing bytes after last block")
    try:
        _validate_blocks(params, blocks, 1e-10)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from None
    return TransformPlan(params, blocks, mode=mode, validate=False)
