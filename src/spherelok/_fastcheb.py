"""FFT-backed kernels of the factored fast coefficient transform.

No transform uses them (see :meth:`spherelok.transform.TransformPlan.fast_eligible`);
:func:`spherelok.cli.bench_fast_block` times them.  Three pieces live here:

* batched conversion between Chebyshev coefficients and values at
  Chebyshev roots (the DCT-III / DCT-II pair, each one numpy FFT of twice
  the length),
* a divide-and-conquer cascade that rewrites an expansion over the
  recurrence family into Chebyshev coefficients in O(N log^2 N),
* a windowed nonequispaced cosine evaluation (oversampling 2 on a
  power-of-two FFT grid, Gaussian window of half-width 12) plus its direct
  Clenshaw counterpart.

Every FFT is numpy's, so the module needs nothing beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .ultraspherical import UltrasphericalFamily, _recurrence

__all__ = [
    "cheb_values",
    "cheb_coeffs",
    "CascadePlan",
    "build_cascade",
    "apply_cascade",
    "NdctPlan",
    "build_ndct",
    "apply_ndct",
    "ndct_direct",
]


def cheb_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values of the Chebyshev series at the n roots of T_n (batched last axis).

    y_k = sum_j c_j cos(j t_k), t_k = pi (2k + 1) / (2n), is the first n
    entries of 2n times the inverse FFT of a length-2n spectrum holding c_0
    at 0 and c_j e^{+-i pi j / (2n)} / 2 at j and 2n - j.  Real input gives
    real output.
    """
    m = coeffs.shape[-1]
    half = 0.5 * coeffs[..., 1:]
    shift = np.exp(0.5j * np.pi / n * np.arange(1, m))
    spec = np.zeros(coeffs.shape[:-1] + (2 * n,), dtype=complex)
    spec[..., 0] = coeffs[..., 0]
    spec[..., 1:m] = half * shift
    spec[..., : 2 * n - m : -1] = half * shift.conj()
    out = np.fft.ifft(spec, axis=-1, norm="forward")[..., :n]
    return out if np.iscomplexobj(coeffs) else out.real


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the roots of T_n (batched last axis).

    The FFT of the even extension [v, v reversed] is 2 e^{i pi k / (2n)}
    sum_j v_j cos(k t_j); turning that phase back and dividing by n gives
    the coefficients, entry 0 halved.  Real input gives real output.
    """
    n = values.shape[-1]
    even = np.concatenate((values, values[..., ::-1]), axis=-1)
    spec = np.fft.fft(even, axis=-1, norm="forward")[..., :n]
    out = spec * (2.0 * np.exp(-0.5j * np.pi / n * np.arange(n)))
    out[..., 0] *= 0.5
    return out if np.iscomplexobj(values) else out.real


# ---------------------------------------------------------------------------
# divide-and-conquer change of basis into Chebyshev coefficients


@dataclass(frozen=True, eq=False)
class _Level:
    grid: int  # working length 2^(r+2) after this combine
    ta: np.ndarray  # each (n_pairs, grid): transfer values on the grid
    ta2: np.ndarray
    tb: np.ndarray
    tb2: np.ndarray


@dataclass(frozen=True, eq=False)
class CascadePlan:
    alpha: int
    n_coeffs: int
    padded: int
    inv_b0: float
    inv_b0b1: float
    levels: tuple[_Level, ...]


def _assoc_values_batch(
    b: np.ndarray, shifts: np.ndarray, degrees: tuple[int, int], xg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values of the shifted-recurrence polynomials at the grid points.

    Returns the two requested consecutive degrees for every shift at once.
    """
    d1, d2 = degrees
    rows = b[shifts[:, None] + np.arange(d2 + 1)]
    start = np.repeat(1.0 / rows[:, :1], len(xg), axis=1)
    steps = _recurrence(rows, start, xg, [d2 + 1] * len(shifts))
    return tuple(islice(steps, d1, d2 + 1, d2 - d1))


def build_cascade(alpha: int, n_coeffs: int) -> CascadePlan:
    """Precompute the transfer tables for one recurrence family and length."""
    if n_coeffs < 2:
        raise ValueError("cascade needs at least two coefficients")
    q = int(np.ceil(np.log2(n_coeffs)))
    padded = 1 << q
    fam = UltrasphericalFamily.build(alpha, padded + 2)
    b = fam.b
    levels = []
    for r in range(q - 1):
        m_len = 1 << (r + 1)
        grid = 2 * m_len
        n_pairs = padded // (2 * m_len)
        anchors = (2 * np.arange(n_pairs)) * m_len
        xg = np.cos(np.pi * (2.0 * np.arange(grid) + 1.0) / (2.0 * grid))
        scale = b[anchors + 1][:, None]
        a1, a2 = _assoc_values_batch(b, anchors + 2, (m_len - 2, m_len - 1), xg)
        b1, b2 = _assoc_values_batch(b, anchors + 1, (m_len - 1, m_len), xg)
        levels.append(
            _Level(
                grid=grid,
                ta=-scale * a1,
                ta2=-scale * a2,
                tb=scale * b1,
                tb2=scale * b2,
            )
        )
    return CascadePlan(
        alpha=alpha,
        n_coeffs=n_coeffs,
        padded=padded,
        inv_b0=1.0 / b[0],
        inv_b0b1=1.0 / (b[0] * b[1]),
        levels=tuple(levels),
    )


def apply_cascade(plan: CascadePlan, c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of sum_l c[l] * p_l for the planned family."""
    if c.shape != (plan.n_coeffs,):
        raise ValueError("coefficient length does not match the plan")
    buf = np.zeros(plan.padded, dtype=complex)
    buf[: plan.n_coeffs] = c
    # gamma and delta, the even and odd entries, stacked: each level then
    # makes one batched transform of each kind for both
    gd = buf.reshape(-1, 2).T[:, :, None].copy()
    for lv in plan.levels:
        even, odd = gd[:, 0::2], gd[:, 1::2]
        vg, vd = cheb_values(odd, lv.grid)
        gd = cheb_coeffs(np.stack((lv.ta * vg + lv.ta2 * vd, lv.tb * vg + lv.tb2 * vd)))
        gd[..., : even.shape[-1]] += even
    g, d = gd[:, 0]
    out = np.zeros(plan.padded + 1, dtype=complex)
    out[: len(g)] = plan.inv_b0 * g
    # delta multiplies p_1 = x / (b0 b1); fold the x factor in Chebyshev form
    out[1] += plan.inv_b0b1 * d[0]
    out[: len(d) - 1] += 0.5 * plan.inv_b0b1 * d[1:]
    out[2 : len(d) + 1] += 0.5 * plan.inv_b0b1 * d[1:]
    return out[: plan.n_coeffs]


# ---------------------------------------------------------------------------
# nonequispaced cosine evaluation


@dataclass(frozen=True, eq=False)
class NdctPlan:
    n_coeffs: int
    n_over: int
    tau: float
    deconv: np.ndarray  # (n_coeffs,)
    tidx: np.ndarray  # (n_nodes, 2w+1)
    weights: np.ndarray  # (n_nodes, 2w+1)


_WINDOW_HALF_WIDTH = 12
_OVERSAMPLING = 2


def build_ndct(theta: np.ndarray, n_coeffs: int) -> NdctPlan:
    """Precompute spreading tables for evaluation at the given angles."""
    if n_coeffs < 2:
        raise ValueError("need at least two coefficients")
    k_max = n_coeffs - 1
    n_over = 1 << (max(2 * _OVERSAMPLING * k_max, 16) - 1).bit_length()
    w = _WINDOW_HALF_WIDTH
    # balance window truncation against spectral aliasing
    tau = (np.pi * w / n_over) / np.sqrt((n_over - k_max) ** 2 - k_max**2)
    freqs = np.arange(n_coeffs, dtype=float)
    deconv = np.exp(freqs**2 * tau) * np.sqrt(np.pi / tau) / n_over
    delta = 2.0 * np.pi / n_over
    t0 = np.rint(theta / delta).astype(np.int64)
    offs = np.arange(-w, w + 1, dtype=np.int64)
    tidx = (t0[:, None] + offs[None, :]) % n_over
    dist = theta[:, None] - delta * (t0[:, None] + offs[None, :])
    weights = np.exp(-(dist**2) / (4.0 * tau))
    return NdctPlan(
        n_coeffs=n_coeffs,
        n_over=n_over,
        tau=tau,
        deconv=deconv,
        tidx=tidx,
        weights=weights,
    )


def apply_ndct(plan: NdctPlan, ghat: np.ndarray) -> np.ndarray:
    """Evaluate sum_t ghat[t] * cos(t * theta) at the planned angles."""
    if ghat.shape != (plan.n_coeffs,):
        raise ValueError("coefficient length does not match the plan")
    spec = np.zeros(plan.n_over, dtype=complex)
    half = 0.5 * ghat * plan.deconv
    spec[: plan.n_coeffs] = half
    spec[0] = ghat[0] * plan.deconv[0]
    spec[-(plan.n_coeffs - 1) :] += half[1:][::-1]
    u = np.fft.ifft(spec) * plan.n_over
    return np.sum(plan.weights * u[plan.tidx], axis=1)


def ndct_direct(theta: np.ndarray, ghat: np.ndarray) -> np.ndarray:
    """Clenshaw evaluation of the cosine series (quadratic-cost reference)."""
    x = np.cos(theta)
    b1 = np.zeros(len(theta), dtype=ghat.dtype)
    b2 = np.zeros_like(b1)
    for t in range(len(ghat) - 1, 0, -1):
        b1, b2 = ghat[t] + 2.0 * x * b1 - b2, b1
    return ghat[0] + x * b1 - b2
