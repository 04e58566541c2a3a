import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spherelok import sphere_basis
from spherelok.errors import FormatError
from spherelok.jacobi_blocks import build_block
from spherelok.sphere_basis import (
    BandParams,
    HarmonicCoeffs,
    LocalizedCoeffs,
    SphereGrid,
    embed_block,
    eval_basis_function,
    eval_harmonic,
    evaluate_basis_on_grid,
    evaluate_on_grid,
    load_coeffs,
    mean_value,
    mean_value_quadrature,
    radial_table,
    save_coeffs,
)
from spherelok.ultraspherical import UltrasphericalFamily


def test_band_params_dimensions():
    p = BandParams(6, 4)
    assert p.dimension == 33
    assert [p.block_size(k) for k in p.orders()] == [1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1]
    assert list(p.orders())[:3] == [6, 5, 4]
    covered = sorted(
        (p.block_slice(k).start, p.block_slice(k).stop) for k in p.orders()
    )
    assert covered[0][0] == 0 and covered[-1][1] == p.dimension
    for (a, b), (c, d) in zip(covered, covered[1:]):
        assert b == c
    with pytest.raises(ValueError):
        BandParams(3, 4)


def test_block_size_formula():
    p = BandParams(9, 3)
    for k in p.orders():
        assert p.block_size(k) == 9 - max(abs(k), 3) + 1


def test_harmonic_point_values():
    assert eval_harmonic(0, 0, 0.7, 1.3) == pytest.approx(1.0)
    theta = 0.9
    assert eval_harmonic(1, 0, theta, 0.0) == pytest.approx(
        math.sqrt(3) * math.cos(theta), rel=1e-14
    )
    assert eval_harmonic(4, 3, math.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        eval_harmonic(2, 3, 0.5, 0.0)


def test_harmonic_phase_and_conjugate_order():
    theta, phi = 1.1, 0.62
    plus = eval_harmonic(5, 2, theta, phi)
    minus = eval_harmonic(5, -2, theta, phi)
    assert minus == pytest.approx(np.conj(plus), rel=1e-14)


def test_scaled_evaluation_matches_naive_product():
    # moderate order where sin^k stays representable either way
    k, l = 20, 26
    fam = UltrasphericalFamily.build(k, 10)
    theta = np.linspace(0.05, np.pi - 0.05, 9)
    naive = np.sin(theta) ** k * fam.eval(l - k, np.cos(theta))
    got = np.array([eval_harmonic(l, k, t, 0.0).real for t in theta])
    assert got == pytest.approx(naive, rel=1e-12, abs=1e-300)


def test_extreme_order_stays_normalized():
    # sin^512 underflows on its own; the interleaved scaling keeps the
    # product finite and the latitude profile exactly normalized
    k = 512
    p = BandParams(k, 0)
    x, w = np.polynomial.legendre.leggauss(k + 1)
    table = radial_table(p, k, np.arccos(x))
    assert np.all(np.isfinite(table))
    norm = np.sum(w / 2 * table[:, 0] ** 2)
    assert norm == pytest.approx(1.0, rel=1e-10)


def test_grid_inner_product_orthonormality():
    n = 8
    p = BandParams(n, 0)
    grid = SphereGrid.for_degree(n)
    labels = [(l, k) for k in p.orders() for l in range(max(abs(k), 0), n + 1)
              if abs(k) <= l]
    fields = {}
    for l, k in labels:
        c = HarmonicCoeffs(p)
        vals = np.zeros(p.dimension, dtype=complex)
        vals[c.index_of(l, k)] = 1.0
        fields[(l, k)] = evaluate_on_grid(HarmonicCoeffs(p, vals), grid)
    for i, a in enumerate(labels):
        for b in labels[i:]:
            ip = grid.inner(fields[a], fields[b])
            ref = 1.0 if a == b else 0.0
            assert abs(ip - ref) < 1e-12


def test_grid_reproduces_analytic_cross_moment():
    # <cos(theta) Y_1^0, Y_0^0> equals the first recurrence coefficient
    p = BandParams(2, 0)
    grid = SphereGrid.for_degree(3)
    y10 = np.zeros(p.dimension, dtype=complex)
    y00 = np.zeros(p.dimension, dtype=complex)
    hc = HarmonicCoeffs(p)
    y10[hc.index_of(1, 0)] = 1.0
    y00[hc.index_of(0, 0)] = 1.0
    f = evaluate_on_grid(HarmonicCoeffs(p, y10), grid) * grid.x[:, None]
    g = evaluate_on_grid(HarmonicCoeffs(p, y00), grid)
    assert grid.inner(f, g) == pytest.approx(1 / math.sqrt(3), rel=1e-13)


def test_mean_value_examples(rng):
    p = BandParams(4, 0)
    hc = HarmonicCoeffs(p)
    unit = np.zeros(p.dimension, dtype=complex)
    unit[hc.index_of(0, 0)] = 1.0
    assert mean_value(HarmonicCoeffs(p, unit)) == 0.0

    mix = np.zeros(p.dimension, dtype=complex)
    mix[hc.index_of(0, 0)] = 1 / math.sqrt(2)
    mix[hc.index_of(1, 0)] = 1 / math.sqrt(2)
    mixed = HarmonicCoeffs(p, mix)
    assert mean_value(mixed) == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert mean_value_quadrature(mixed) == pytest.approx(
        1 / math.sqrt(3), rel=1e-12
    )

    single = np.zeros(p.dimension, dtype=complex)
    single[hc.index_of(3, -2)] = 1.0
    assert mean_value(HarmonicCoeffs(p, single)) == 0.0


def test_mean_value_in_open_interval(rng):
    p = BandParams(6, 2)
    for _ in range(25):
        c = HarmonicCoeffs.random_unit(p, rng)
        eps = mean_value(c)
        assert -1.0 < eps < 1.0
        assert mean_value_quadrature(c) == pytest.approx(eps, abs=1e-12)


def _mean_value_per_block(coeffs):
    """Reference: the tridiagonal quadratic form summed block by block."""
    p = coeffs.params
    total = 0.0
    for k in range(p.n + 1):
        off = build_block(p.n, p.m, k).offdiag
        for kk in (k, -k) if k else (0,):
            c = coeffs.block(kk)
            if len(c) > 1:
                total += 2.0 * float(np.real(np.sum(np.conj(c[:-1]) * off * c[1:])))
    return total


@pytest.mark.parametrize("n,m", [(8, 0), (16, 5), (12, 12)])
def test_mean_value_matches_block_loop_and_quadrature(rng, n, m):
    p = BandParams(n, m)
    for _ in range(5):
        c = HarmonicCoeffs.random_unit(p, rng)
        eps = mean_value(c)
        assert eps == pytest.approx(_mean_value_per_block(c), abs=1e-12)
        assert eps == pytest.approx(mean_value_quadrature(c), abs=1e-12)


def test_embed_block_unitary(rng):
    p = BandParams(5, 0)
    v = rng.standard_normal(p.block_size(2)) + 1j * rng.standard_normal(6 - 2)
    emb = embed_block(p, 2, v)
    assert emb.norm() == pytest.approx(np.linalg.norm(v), rel=1e-15)
    assert np.abs(emb.block(2) - v).max() == 0.0
    assert np.abs(emb.values).sum() == pytest.approx(np.abs(v).sum())
    e1 = embed_block(p, 0, np.eye(p.block_size(0))[:, 0])
    hc = HarmonicCoeffs(p)
    assert e1.values[hc.index_of(0, 0)] == 1.0
    with pytest.raises(ValueError):
        embed_block(p, 2, v[:-1])


@pytest.mark.parametrize("block", [np.ones(1), np.ones(5), np.ones((4, 1)), 1.0])
def test_from_blocks_rejects_a_block_of_the_wrong_shape(block):
    with pytest.raises(ValueError, match="expected 4 entries for order 0"):
        HarmonicCoeffs.from_blocks(BandParams(4, 1), {0: block})
    got = HarmonicCoeffs.from_blocks(BandParams(4, 1), {0: [1, 2, 3, 4]})
    assert np.array_equal(got.block(0), [1, 2, 3, 4])


def test_label_columns_are_cached_and_read_only():
    orders, labels = sphere_basis._label_columns(BandParams(6, 2), "harmonic")
    assert sphere_basis._label_columns(BandParams(6, 2), "harmonic")[0] is orders
    for column in (orders, labels):
        with pytest.raises(ValueError):
            column[0] = 0


def test_embedded_eigenvector_evaluates_to_basis_function(plan_cache):
    plan = plan_cache(10, 3)
    p = plan.params
    grid = SphereGrid.for_degree(p.n)
    for k, i in ((2, 1), (5, 3), (-4, 2)):
        emb = embed_block(p, k, plan.blocks[k].vectors[:, i - 1])
        field = evaluate_on_grid(emb, grid)
        ref = evaluate_basis_on_grid(p, plan.blocks, k, i, grid)
        assert np.abs(field - ref).max() < 1e-12


def test_basis_function_normalized(plan_cache):
    plan = plan_cache(8, 0)
    grid = SphereGrid.for_degree(8)
    for k, i in ((0, 1), (3, 2), (-8, 1)):
        f = evaluate_basis_on_grid(plan.params, plan.blocks, k, i, grid)
        assert grid.inner(f, f) == pytest.approx(1.0, abs=1e-12)


def test_basis_function_block_orthogonality(plan_cache):
    plan = plan_cache(8, 0)
    grid = SphereGrid.for_degree(8)
    f = evaluate_basis_on_grid(plan.params, plan.blocks, 2, 1, grid)
    g = evaluate_basis_on_grid(plan.params, plan.blocks, 3, 1, grid)
    h = evaluate_basis_on_grid(plan.params, plan.blocks, 2, 2, grid)
    assert abs(grid.inner(f, g)) < 1e-13
    assert abs(grid.inner(f, h)) < 1e-12


def test_basis_function_rejects_bad_index(plan_cache):
    plan = plan_cache(8, 0)
    with pytest.raises(IndexError):
        eval_basis_function(plan.params, plan.blocks, 3, 0, 0.5, 0.0)
    with pytest.raises(IndexError):
        eval_basis_function(plan.params, plan.blocks, 3, 7, 0.5, 0.0)
    grid = SphereGrid.for_degree(8)
    for i in (0, plan.params.block_size(3) + 1):  # i = 0 must not wrap to i = N_k
        with pytest.raises(IndexError):
            evaluate_basis_on_grid(plan.params, plan.blocks, 3, i, grid)
    with pytest.raises(ValueError):
        evaluate_basis_on_grid(plan.params, plan.blocks, 9, 1, grid)


@pytest.mark.parametrize("k", [7, -5])
def test_radial_table_rejects_order_outside_band(k):
    with pytest.raises(ValueError, match=f"order {k} outside band limit 4"):
        radial_table(BandParams(4, 0), k, [0.5, 1.0])
    assert radial_table(BandParams(4, 0), -4, [0.5, 1.0]).shape == (2, 1)


_ORDER_LOOKUPS = {
    "block_slice": lambda plan, k: plan.params.block_slice(k),
    "block": lambda plan, k: HarmonicCoeffs(plan.params).block(k),
    "from_blocks": lambda plan, k: HarmonicCoeffs.from_blocks(plan.params, {k: np.ones(1)}),
    "eval_basis_function": lambda plan, k: eval_basis_function(
        plan.params, plan.blocks, k, 1, 0.5, 0.0
    ),
}


@pytest.mark.parametrize("lookup", sorted(_ORDER_LOOKUPS))
@pytest.mark.parametrize("k", [9, -5])
def test_order_outside_band_is_a_value_error(plan_cache, lookup, k):
    with pytest.raises(ValueError, match=f"order {k} outside band limit 4"):
        _ORDER_LOOKUPS[lookup](plan_cache(4, 1), k)


def test_highest_order_basis_function_is_single_harmonic(plan_cache):
    plan = plan_cache(32, 0)
    theta, phi = 0.8, 0.3
    got = eval_basis_function(plan.params, plan.blocks, 32, 1, theta, phi)
    assert plan.blocks[32].eigenvalues[0] == 0.0
    assert got == pytest.approx(eval_harmonic(32, 32, theta, phi), rel=1e-12)


def _quotient_form(params, blocks, k, i, theta, phi):
    """Closed-form evaluation away from cos(theta) == eigenvalue."""
    alpha = abs(k)
    n, m = params.n, params.m
    eb = blocks[k]
    x_i = eb.eigenvalues[i - 1]
    fam = UltrasphericalFamily.build(alpha, n - alpha + 2)
    x = math.cos(theta)
    s = math.sin(theta) ** alpha
    phase = np.exp(1j * k * phi)
    bnp1 = fam.b[n - alpha + 1]
    if alpha > m:
        kappa = 1.0 / math.sqrt(
            sum(fam.eval(l - alpha, x_i) ** 2 for l in range(alpha, n + 1))
        )
        val = (
            kappa
            * bnp1
            * fam.eval(n - alpha, x_i)
            * s
            * fam.eval(n - alpha + 1, x)
            / (x - x_i)
        )
    else:
        shift = m - alpha
        kappa = 1.0 / math.sqrt(
            sum(
                fam.eval_associated(l - m, x_i, shift) ** 2
                for l in range(m, n + 1)
            )
        )
        lead = bnp1 * fam.eval_associated(n - m, x_i, shift) * fam.eval(
            n - alpha + 1, x
        )
        tail = fam.eval(m - alpha - 1, x) if m - alpha - 1 >= 0 else 0.0
        val = kappa * s * (lead + tail) / (x - x_i)
    return val * phase


@pytest.mark.parametrize("n,m,k", [(12, 0, 3), (12, 0, 0), (10, 4, 2), (10, 4, -4)])
def test_basis_function_sum_vs_quotient(plan_cache, n, m, k):
    plan = plan_cache(n, m)
    eb = plan.blocks[k]
    thetas = np.linspace(0.15, math.pi - 0.15, 23)
    for i in (1, eb.size // 2 + 1, eb.size):
        x_i = eb.eigenvalues[i - 1]
        for theta in thetas:
            if abs(math.cos(theta) - x_i) < 1e-3:
                continue
            got = eval_basis_function(plan.params, plan.blocks, k, i, theta, 0.7)
            ref = _quotient_form(plan.params, plan.blocks, k, i, theta, 0.7)
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_coefficient_roundtrip_through_file(tmp_path, rng):
    p = BandParams(7, 2)
    c = HarmonicCoeffs.random_unit(p, rng)
    path = tmp_path / "c.coeff"
    save_coeffs(path, c)
    back = load_coeffs(path)
    assert isinstance(back, HarmonicCoeffs)
    assert np.array_equal(back.values, c.values)  # 17 digits round-trip exactly

    d = LocalizedCoeffs(p, c.values)
    save_coeffs(path, d)
    back = load_coeffs(path)
    assert isinstance(back, LocalizedCoeffs)
    assert np.array_equal(back.values, d.values)


def test_loader_rejects_malformed_files(tmp_path, rng):
    p = BandParams(3, 1)
    c = HarmonicCoeffs.random_unit(p, rng)
    path = tmp_path / "c.coeff"
    save_coeffs(path, c)
    good = path.read_text().splitlines()

    def expect_error(lines, fragment):
        bad = tmp_path / "bad.coeff"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            load_coeffs(bad)
        assert fragment in str(err.value)

    expect_error(["SPHERELOK-COEFF v2 kind=harmonic n=3 m=1"] + good[1:], "line 1")
    swapped = good[:]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    expect_error(swapped, "out of order")
    expect_error(good[:-1], "missing entries")
    expect_error(good + [good[-1]], "extra entry")
    mangled = good[:]
    mangled[4] = "1 2 nope 0"
    expect_error(mangled, "line 5")
    short = good[:]
    short[3] = "1 2 0.5"
    expect_error(short, "expected 'k idx re im'")


def test_coeff_values_are_immutable(rng):
    c = HarmonicCoeffs.random_unit(BandParams(4, 0), rng)
    with pytest.raises(ValueError):
        c.values[0] = 1.0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_loader_rejects_non_finite_values(tmp_path, rng, bad):
    p = BandParams(3, 1)
    path = tmp_path / "c.coeff"
    save_coeffs(path, HarmonicCoeffs.random_unit(p, rng))
    lines = path.read_text().splitlines()
    k, idx, re_v, _ = lines[5].split()
    lines[5] = f"{k} {idx} {re_v} {bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_coeffs(path)
    assert "line 6" in str(err.value) and "non-finite" in str(err.value)


def test_loader_work_is_bounded_by_file_not_header(tmp_path):
    # a one-line file declaring n=2000 (4 million entries) fails at once,
    # without building the header's entry labels or value array
    path = tmp_path / "huge.coeff"
    path.write_text("SPHERELOK-COEFF v1 kind=harmonic n=2000 m=0\n0 0 1 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            load_coeffs(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "missing entries; got 1 of 4004001" in str(err.value)
    assert peak < 1_000_000


def _direct_grid_sum(coeffs, grid):
    """Order-by-order sum of profile x e^{ik phi}, one radial table per k."""
    p = coeffs.params
    field = np.zeros(grid.shape, dtype=complex)
    for k in p.orders():
        profile = radial_table(p, k, grid.theta) @ coeffs.block(k)
        field += np.outer(profile, np.exp(1j * k * grid.phi))
    return field


@pytest.mark.parametrize(
    "n,m,phi_res",
    [pytest.param(10, 2, q, id=str(q)) for q in (4, 8, 21, 40)]
    + [pytest.param(48, 16, q, id=f"48-16-{q}") for q in (4, 8, 97, 100)],
)
def test_evaluate_on_grid_matches_direct_sum_when_orders_alias(rng, n, m, phi_res):
    # Q below the 2n + 1 orders aliases several onto one column.  The second
    # band adds 17 truncated orders |k| <= m, whose first m - |k| recurrence
    # steps carry no coefficient, to the prefix of rows that shrinks per step
    p = BandParams(n, m)
    c = HarmonicCoeffs.random_unit(p, rng)
    grid = SphereGrid.for_degree(p.n, phi_res=phi_res)
    field = evaluate_on_grid(c, grid)
    assert field.shape == (p.n + 1, phi_res)
    assert np.abs(field - _direct_grid_sum(c, grid)).max() < 1e-13


def _per_entry_coeff_text(coeffs):
    """Reference for the chunked writer: the coefficient text, one f-string per entry."""
    params = coeffs.params
    lines = [f"SPHERELOK-COEFF v1 kind={coeffs.kind} n={params.n} m={params.m}"]
    labels = []
    for k in params.orders():
        lo = params.min_degree(k)
        for j in range(params.block_size(k)):
            labels.append((k, lo + j) if coeffs.kind == "harmonic" else (k, j + 1))
    for (k, idx), v in zip(labels, coeffs.values):
        lines.append(f"{k} {idx} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


_SPECIAL_VALUES = [
    complex(-0.0, 0.0),
    complex(5e-324, -5e-324),
    complex(1e308, -1e308),
    complex(0.1 + 0.2, 1.0 / 3.0),
    complex(2.0 / 3.0, -1.0e-300),
    complex(np.nextafter(1.0, 2.0), 123456789.12345679),
]


def _band_with_dimension(dim):
    """Some band (n, m) whose dimension (n + 1 - m)(n + 1 + m) equals dim."""
    for a in range(math.isqrt(dim), 0, -1):
        b, r = divmod(dim, a)
        if r == 0 and (a + b) % 2 == 0:
            return BandParams((a + b) // 2 - 1, (b - a) // 2)
    raise AssertionError(f"no band has dimension {dim}")


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("cls", [HarmonicCoeffs, LocalizedCoeffs])
def test_saved_text_is_byte_identical_to_per_entry_format(tmp_path, rng, offset, cls):
    p = _band_with_dimension(sphere_basis._ROWS_PER_CHUNK + offset)
    values = HarmonicCoeffs.random_unit(p, rng).values.copy()
    values[: len(_SPECIAL_VALUES)] = _SPECIAL_VALUES
    values[-len(_SPECIAL_VALUES) :] = _SPECIAL_VALUES
    coeffs = cls(p, values)
    path = tmp_path / "c.coeff"
    save_coeffs(path, coeffs)
    assert path.read_bytes() == _per_entry_coeff_text(coeffs).encode()
    assert np.array_equal(load_coeffs(path).values, values)


def test_row_writer_matches_per_row_format(tmp_path):
    specials = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0 / 3.0, -2.2250738585072014e-308]
    cols = [np.array(specials * 3), np.array(specials[::-1] * 3)]
    path = tmp_path / "rows.csv"
    sphere_basis._write_rows(path, "a,b", "%.17g,%.17g\n", cols)
    expected = ["a,b"] + [f"{a:.17g},{b:.17g}" for a, b in zip(*cols)]
    assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize(
    "k, l, value", [(3, 3, complex(np.nan, 0.0)), (-1, 2, complex(0.5, -np.inf))]
)
def test_save_rejects_non_finite_values_before_opening(tmp_path, rng, k, l, value):
    p = BandParams(3, 1)
    c = HarmonicCoeffs.random_unit(p, rng)
    values = c.values.copy()
    values[c.index_of(l, k)] = value
    values[-1] = np.inf  # a later non-finite entry is not the one named
    path = tmp_path / "c.coeff"
    with pytest.raises(ValueError) as err:
        save_coeffs(path, HarmonicCoeffs(p, values))
    assert f"entry ({k}, {l})" in str(err.value)
    assert not path.exists()


_MUTATIONS = (
    "drop_field",
    "bad_number",
    "swap_labels",
    "non_finite",
    "blank_line",
    "append_entry",
)
_GOOD_PARAMS = BandParams(4, 1)
_GOOD_COEFFS = HarmonicCoeffs.random_unit(_GOOD_PARAMS, np.random.default_rng(7))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_error_names_the_mutated_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "c.coeff"
    save_coeffs(path, _GOOD_COEFFS)
    lines = path.read_text().splitlines()
    dim = _GOOD_PARAMS.dimension
    mutation = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    entry = data.draw(st.integers(1, dim - 1 if mutation == "swap_labels" else dim))
    fields = lines[entry].split()
    target, fragment = entry, None  # index in `lines` of the line to be named
    if mutation == "drop_field":
        del fields[data.draw(st.integers(0, 3))]
        fragment = "expected 'k idx re im'"
    elif mutation == "bad_number":
        bad = data.draw(st.sampled_from(["nope", "1.2.3", "0x10", "1e", "--1", "1,5"]))
        fields[data.draw(st.integers(0, 3))] = bad
    elif mutation == "swap_labels":
        following = lines[entry + 1].split()
        fields[:2], following[:2] = following[:2], fields[:2]
        lines[entry + 1] = " ".join(following)
        fragment = "out of order"
    elif mutation == "non_finite":
        fields[data.draw(st.integers(2, 3))] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        fragment = "non-finite value"
    elif mutation == "append_entry":
        lines.append(lines[-1])
        target, fragment = len(lines) - 1, "extra entry beyond dimension"
    lines[entry] = " ".join(fields)
    # a blank line anywhere after the header is skipped but still counted
    blank_at = data.draw(st.none() | st.integers(1, len(lines)), label="blank_at")
    if mutation == "blank_line" and blank_at is None:
        blank_at = entry
    if blank_at is not None:
        lines.insert(blank_at, data.draw(st.sampled_from(["", "  ", "\t"])))
        target += blank_at <= target
    path.write_text("\n".join(lines) + "\n")
    if mutation == "blank_line":
        assert np.array_equal(load_coeffs(path).values, _GOOD_COEFFS.values)
        return
    with pytest.raises(FormatError) as err:
        load_coeffs(path)
    assert f"line {target + 1}: " in str(err.value)
    if fragment is not None:
        assert fragment in str(err.value)


# spellings on which np.loadtxt and int() / float() disagree, or agree
_NUMBER_FORMS = ("1_0", "\u0661", "+5", "01", "0x10", "1e400", "infinity", "-0", "+-5", "3.0", "1E5")
_SPACES = ("\t", "  ", " \t ", "\x0c", "\x85", "\xa0", "\u3000")


def _respell(field, draw):
    """Another spelling of a number field, keeping its value where it can."""
    how = draw(st.sampled_from(("form", "plus", "zero", "underscore", "arabic")))
    digits = field.lstrip("-")
    if how == "plus" and digits == field:
        return "+" + field
    if how == "zero":
        return field[: len(field) - len(digits)] + "0" + digits
    if how == "underscore" and len(digits) > 1 and digits[:2].isdigit():
        return field.replace(digits[:2], digits[0] + "_" + digits[1], 1)
    if how == "arabic":
        return field.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"))
    return draw(st.sampled_from(_NUMBER_FORMS))


def _mutate_entry_line(line, draw):
    mutation = draw(st.sampled_from(("number", "separator", "trailing", "inside", "five_fields")))
    fields = line.split()
    if mutation == "number":
        i = draw(st.integers(0, 3))
        fields[i] = _respell(fields[i], draw)
    elif mutation == "five_fields":
        fields.append(draw(st.sampled_from(("0", "x", "1e400"))))
    elif mutation == "inside":
        pos = draw(st.integers(0, len(line)))
        return line[:pos] + draw(st.sampled_from(("\x0c", "\x85"))) + line[pos:]
    seps = [" "] * 3
    if mutation == "separator":
        seps[draw(st.integers(0, 2))] = draw(st.sampled_from(_SPACES))
    out = fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:4])) + " ".join([""] + fields[4:])
    if mutation == "trailing":
        out += draw(st.sampled_from(_SPACES))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bulk_path_returns_the_line_parsers_bits_or_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("grammar") / "c.coeff"
    save_coeffs(path, _GOOD_COEFFS)
    lines = path.read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        entries = [i for i, line in enumerate(lines) if i and len(line.split()) >= 4]
        entry = data.draw(st.sampled_from(entries), label="entry")
        if data.draw(st.booleans(), label="blank line"):
            lines.insert(entry, data.draw(st.sampled_from(["", "  ", "\t", "\x0c"])))
        else:
            lines[entry] = _mutate_entry_line(lines[entry], data.draw)
    path.write_text("\n".join(lines) + "\n")
    lines = path.read_text().splitlines()  # as the loader splits them
    try:
        expected = sphere_basis._parse_entries(path, lines, _GOOD_PARAMS, "harmonic")
    except FormatError as exc:
        expected = exc
    bulk = sphere_basis._bulk_entries(lines, _GOOD_PARAMS, "harmonic")
    event("loop error" if isinstance(expected, FormatError) else f"bulk accepted: {bulk is not None}")
    if isinstance(expected, FormatError):
        assert bulk is None
        with pytest.raises(FormatError) as err:
            load_coeffs(path)
        assert str(err.value) == str(expected)
    else:
        assert load_coeffs(path).values.tobytes() == expected.tobytes()
        if bulk is not None:
            assert bulk.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "edit",
    [
        lambda ls: ls,
        lambda ls: [ls[0]] + [line.replace(" ", "\t") + "  " for line in ls[1:]],
        lambda ls: ls[:3] + ["", " \t "] + ls[3:] + [""],
        lambda ls: [ls[0]] + ["+" + line for line in ls[1:] if not line.startswith("-")]
        + [line for line in ls[1:] if line.startswith("-")],
    ],
    ids=["saved", "tabs-and-trailing-spaces", "blank-lines", "plus-signs"],
)
@pytest.mark.skipif(
    not sphere_basis._loadtxt_ints_are_strict(),
    reason="this numpy's np.loadtxt reads integers through floats; the bulk path is off",
)
def test_bulk_path_accepts_what_the_writer_and_loop_accept(edit):
    lines = _per_entry_coeff_text(_GOOD_COEFFS).splitlines()
    lines = edit(lines)
    values = sphere_basis._bulk_entries(lines, _GOOD_PARAMS, "harmonic")
    assert values is not None
    assert values.tobytes() == _GOOD_COEFFS.values.tobytes()


def test_loader_runs_the_line_parser_alone_where_loadtxt_reads_ints_through_floats(
    tmp_path, monkeypatch
):
    path = tmp_path / "c.coeff"
    save_coeffs(path, _GOOD_COEFFS)
    lines = path.read_text().splitlines()
    monkeypatch.setattr(sphere_basis, "_loadtxt_ints_are_strict", lambda: False)
    assert sphere_basis._bulk_entries(lines, _GOOD_PARAMS, "harmonic") is None
    assert load_coeffs(path).values.tobytes() == _GOOD_COEFFS.values.tobytes()
    lines[3] = "3.0 " + lines[3].split(maxsplit=1)[1]  # a label int() rejects
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 4: invalid literal for int"):
        load_coeffs(path)
