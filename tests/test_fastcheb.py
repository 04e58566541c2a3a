import numpy as np
import pytest

from spherelok import _fastcheb as fc
from spherelok.jacobi_blocks import build_block, eigendecompose
from spherelok.ultraspherical import UltrasphericalFamily, chebyshev_connection


def test_cheb_value_coefficient_roundtrip(rng):
    c = rng.standard_normal((3, 17))
    vals = fc.cheb_values(c, 24)
    back = fc.cheb_coeffs(vals)
    assert np.abs(back[:, :17] - c).max() < 1e-13
    assert np.abs(back[:, 17:]).max() < 1e-13


def test_cheb_values_against_chebval(rng):
    c = rng.standard_normal(9)
    n = 12
    x = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    ref = np.polynomial.chebyshev.chebval(x, c)
    assert fc.cheb_values(c[None, :], n)[0] == pytest.approx(ref, abs=1e-14)


def test_cheb_transforms_handle_complex(rng):
    c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vals = fc.cheb_values(c[None, :], 8)
    back = fc.cheb_coeffs(vals)[0]
    assert np.abs(back - c).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64, 100])
@pytest.mark.parametrize("complex_input", [False, True])
def test_cheb_transforms_match_scipy_dct(rng, n, complex_input):
    # scipy is only the oracle here: DCT-III and DCT-II, as the transforms
    # were computed before they ran on numpy's FFT
    from scipy.fft import dct

    def batch(m):
        x = rng.standard_normal((3, m))
        return x + 1j * rng.standard_normal((3, m)) if complex_input else x

    for m in sorted({1, (n + 1) // 2, n}):
        c = batch(m)
        w = np.zeros((3, n), dtype=c.dtype)
        w[:, :m] = c
        w[:, 1:] *= 0.5
        ref = dct(w, type=3, axis=-1)
        got = fc.cheb_values(c, n)
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
    v = batch(n)
    ref = dct(v, type=2, axis=-1) / (2.0 * n)
    ref[:, 1:] *= 2.0
    got = fc.cheb_coeffs(v)
    assert got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize(
    "alpha,size,tol",
    [(0, 16, 1e-12), (0, 100, 1e-11), (0, 513, 1e-10), (1, 129, 1e-10), (2, 65, 1e-9), (3, 64, 1e-8)],
)
def test_cascade_matches_dense_connection(rng, alpha, size, tol):
    fam = UltrasphericalFamily.build(alpha, size + 1)
    dense = chebyshev_connection(fam, size)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    plan = fc.build_cascade(alpha, size)
    got = fc.apply_cascade(plan, c)
    assert np.abs(got - dense @ c).max() < tol * np.linalg.norm(c)


def test_cascade_small_and_odd_sizes(rng):
    for size in (2, 3, 5, 9, 33):
        fam = UltrasphericalFamily.build(0, size + 1)
        dense = chebyshev_connection(fam, size)
        c = rng.standard_normal(size)
        got = fc.apply_cascade(fc.build_cascade(0, size), c.astype(complex))
        assert np.abs(got - dense @ c).max() < 1e-12


def test_cascade_rejects_wrong_length(rng):
    plan = fc.build_cascade(0, 8)
    with pytest.raises(ValueError):
        fc.apply_cascade(plan, np.zeros(7, dtype=complex))


@pytest.mark.parametrize("size", [16, 128, 513, 1024])
def test_windowed_ndct_accuracy(rng, size):
    theta = np.sort(rng.uniform(0.0, np.pi, size))
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    ref = fc.ndct_direct(theta, g)
    got = fc.apply_ndct(fc.build_ndct(theta, size), g)
    assert np.abs(got - ref).max() < 1e-10 * np.abs(ref).max()


def test_direct_ndct_is_cosine_series(rng):
    theta = rng.uniform(0.0, np.pi, 11)
    g = rng.standard_normal(7)
    ref = np.polynomial.chebyshev.chebval(np.cos(theta), g)
    assert fc.ndct_direct(theta, g) == pytest.approx(ref, abs=1e-13)


def test_ndct_endpoint_angles(rng):
    # nodes exactly at the poles exercise the wrap-around of the spreading
    theta = np.array([0.0, 0.3, np.pi])
    g = rng.standard_normal(64)
    ref = fc.ndct_direct(theta, g)
    got = fc.apply_ndct(fc.build_ndct(theta, 64), g.astype(complex))
    assert np.abs(got - ref).max() < 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_pipeline_matches_eigenvectors(rng, alpha):
    # V^T c = kappa * (cosine series of the Chebyshev coefficients at arccos(x_i))
    eb = eigendecompose(build_block(256, 0, alpha))
    size = eb.size
    theta = np.arccos(eb.eigenvalues)
    kappa = UltrasphericalFamily.build(alpha, 1).b[0] * eb.vectors[0, :]
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    cheb = fc.apply_cascade(fc.build_cascade(alpha, size), c)
    got = kappa * fc.apply_ndct(fc.build_ndct(theta, size), cheb)
    assert np.abs(got - eb.vectors.T @ c).max() < 1e-8 * np.linalg.norm(c)
