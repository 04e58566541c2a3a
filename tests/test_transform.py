import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherelok as sl
from spherelok.cli import main
from spherelok.errors import FormatError, NumericError
from spherelok.jacobi_blocks import _band_blocks
from spherelok.sphere_basis import (
    BandParams,
    HarmonicCoeffs,
    LocalizedCoeffs,
    _label_columns,
    _layout_offdiag,
    embed_block,
    save_coeffs,
)
from spherelok.transform import (
    OpCounter,
    TransformPlan,
    _apply_blocks,
    _paired_layout,
    analyze,
    analyze_fast,
    dense_op_count,
    load_plan,
    save_plan,
    synthesize,
)


def test_analyze_maps_eigenvector_to_delta(plan_cache):
    plan = plan_cache(16, 3)
    for k, i in ((0, 1), (5, 4), (-16, 1)):
        c = embed_block(plan.params, k, plan.blocks[k].vectors[:, i - 1])
        d = analyze(plan, c)
        ref = np.zeros(plan.params.dimension)
        ref[d.index_of(k, i)] = 1.0
        assert np.abs(d.values - ref).max() < 1e-12


def test_analyze_zero_is_zero(plan_cache):
    plan = plan_cache(16, 3)
    d = analyze(plan, HarmonicCoeffs(plan.params))
    assert not np.any(d.values)


def test_roundtrip_and_parseval(plan_cache, rng):
    for n, m in ((16, 0), (32, 7), (16, 3)):
        plan = plan_cache(n, m)
        for _ in range(10):
            c = HarmonicCoeffs.random_unit(plan.params, rng)
            d = analyze(plan, c)
            assert abs(d.norm() - c.norm()) <= 1e-12 * c.norm()
            back = synthesize(plan, d)
            assert np.abs(back.values - c.values).max() <= 1e-12


def test_synthesize_unit_vector_gives_eigenvector_column(plan_cache):
    plan = plan_cache(16, 3)
    d_vals = np.zeros(plan.params.dimension, dtype=complex)
    d = LocalizedCoeffs(plan.params)
    idx = d.index_of(4, 2)
    d_vals[idx] = 1.0
    c = synthesize(plan, LocalizedCoeffs(plan.params, d_vals))
    assert np.abs(c.block(4) - plan.blocks[4].vectors[:, 1]).max() < 1e-15


def test_synthesize_linearity(plan_cache, rng):
    plan = plan_cache(16, 0)
    d1 = rng.standard_normal(plan.params.dimension) * (1 + 0j)
    d2 = 1j * rng.standard_normal(plan.params.dimension)
    a, b = 0.7, -1.3 + 0.2j
    lhs = synthesize(plan, LocalizedCoeffs(plan.params, a * d1 + b * d2))
    rhs = a * synthesize(plan, LocalizedCoeffs(plan.params, d1)).values + (
        b * synthesize(plan, LocalizedCoeffs(plan.params, d2)).values
    )
    assert np.abs(lhs.values - rhs).max() < 1e-13


def test_energy_partition_over_index_sets(plan_cache, rng):
    plan = plan_cache(16, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    d = analyze(plan, c)
    mask = rng.random(plan.params.dimension) < 0.4
    kept = np.where(mask, d.values, 0)
    rest = np.where(mask, 0, d.values)
    total = np.sum(np.abs(kept) ** 2) + np.sum(np.abs(rest) ** 2)
    assert total == pytest.approx(c.norm() ** 2, rel=1e-12)


def test_dimension_mismatch_rejected(plan_cache, rng):
    plan = plan_cache(16, 0)
    other = HarmonicCoeffs.random_unit(sl.BandParams(16, 3), rng)
    with pytest.raises(ValueError):
        analyze(plan, other)


@pytest.mark.parametrize("n,m", [(6, 4), (16, 0), (32, 7)])
def test_operation_count_matches_closed_formula(plan_cache, rng, n, m):
    plan = plan_cache(n, m)
    counter = OpCounter()
    analyze(plan, HarmonicCoeffs.random_unit(plan.params, rng), counter=counter)
    direct = sum(
        (2 * plan.params.block_size(k) - 1) * plan.params.block_size(k)
        for k in plan.params.orders()
    )
    assert counter.ops == direct == dense_op_count(n, m)


@pytest.mark.parametrize("n,m", [(64, 0), (64, 1), (64, 32), (128, 0), (128, 1), (128, 64)])
def test_fast_matches_dense(plan_cache, rng, n, m):
    plan = plan_cache(n, m, mode="fast")
    for _ in range(3):
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        ref = analyze(plan, c)
        got = analyze_fast(plan, c)
        assert np.array_equal(got.values, ref.values)
    assert not any(plan.fast_eligible(k) for k in plan.params.orders())


def test_fast_requires_fast_plan(plan_cache, rng):
    plan = plan_cache(16, 0)
    with pytest.raises(ValueError):
        analyze_fast(plan, HarmonicCoeffs.random_unit(plan.params, rng))


def test_single_top_order_block_identity(plan_cache, rng):
    # the k = n block is one-dimensional, so analysis returns it unchanged
    plan = plan_cache(16, 0, mode="fast")
    v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    c = embed_block(plan.params, 16, v)
    d = analyze_fast(plan, c)
    assert d.values[d.index_of(16, 1)] == pytest.approx(v[0])


def test_plan_cache_roundtrip(tmp_path, plan_cache, rng):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    loaded = load_plan(path)
    assert loaded.params == plan.params
    for k in plan.params.orders():
        assert np.array_equal(loaded.blocks[k].eigenvalues, plan.blocks[k].eigenvalues)
        assert np.array_equal(loaded.blocks[k].vectors, plan.blocks[k].vectors)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    assert np.array_equal(analyze(loaded, c).values, analyze(plan, c).values)


def test_plan_loader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOT A PLAN")
    with pytest.raises(FormatError):
        load_plan(path)


def test_plan_loader_rejects_truncation(tmp_path, plan_cache):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        load_plan(path)


def test_plan_loader_rejects_nonorthogonal_vectors(tmp_path, plan_cache):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    scaled = {
        k: sl.EigenBlock(
            k=k,
            eigenvalues=eb.eigenvalues,
            vectors=eb.vectors * 1.001,
        )
        for k, eb in plan.blocks.items()
    }
    save_plan(path, TransformPlan(plan.params, scaled, validate=False))
    with pytest.raises(NumericError):
        load_plan(path)


def test_plan_build_validates_orthogonality(plan_cache):
    plan = plan_cache(6, 2)
    scaled = {
        k: sl.EigenBlock(k=k, eigenvalues=eb.eigenvalues, vectors=eb.vectors * 1.001)
        for k, eb in plan.blocks.items()
    }
    with pytest.raises(NumericError):
        TransformPlan(plan.params, scaled)


def test_plan_is_reusable(plan_cache, rng):
    plan = plan_cache(16, 0)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    first = analyze(plan, c).values
    second = analyze(plan, c).values
    assert np.array_equal(first, second)


@st.composite
def _bands(draw, top=40):
    n = draw(st.integers(0, top))
    return n, draw(st.integers(0, n))


@settings(max_examples=40, deadline=None)
@given(
    band=_bands(),
    batch=st.sampled_from([1, 2]),
    transpose=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_blocks_matches_per_block_reference(plan_cache, band, batch, transpose, seed):
    plan = plan_cache(*band)
    rng = np.random.default_rng(seed)
    shape = (batch, plan.params.dimension)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.empty_like(x)
    for k in plan.params.orders():
        v = plan.blocks[k].vectors
        a = v.T if transpose else v
        rows = plan.params.block_slice(k)
        ref[:, rows] = (a @ x[:, rows].real.T + 1j * (a @ x[:, rows].imag.T)).T
    got = _apply_blocks(plan, x, transpose)
    assert np.abs(got - ref).max() <= 1e-14 * np.linalg.norm(x)
    _apply_blocks(plan, x, transpose, out=x)  # in place, as filter_coeffs runs it
    assert np.array_equal(x, got)


@settings(max_examples=60, deadline=None)
@given(band=_bands(top=24))
def test_paired_layout_and_layout_offdiag_follow_the_label_columns(band):
    params = BandParams(*band)
    orders, indices = _label_columns(params, "localized")
    layout = _paired_layout(params)
    plus, minus = layout.index.T
    # row r holds one label (alpha, i) in block +alpha and in block -alpha
    assert np.array_equal(orders[plus], -orders[minus])
    assert np.array_equal(indices[plus], indices[minus])
    assert np.array_equal(layout.index.ravel()[layout.inverse], np.arange(params.dimension))
    covered = np.concatenate([np.arange(r.start, r.stop) for r in layout.rows])
    assert np.array_equal(covered, np.arange(len(layout.index)))
    for alpha, rows in enumerate(layout.rows):
        assert (orders[plus[rows]] == alpha).all()
        assert np.array_equal(indices[plus[rows]], np.arange(1, params.block_size(alpha) + 1))
    # reference: each block's own off-diagonals, laid out with block_slice
    ref = np.zeros(params.dimension - 1)
    for alpha, block in enumerate(_band_blocks(*band)):
        for k in {alpha, -alpha}:
            start = params.block_slice(k).start
            ref[start : start + block.size - 1] = block.offdiag
    assert np.array_equal(_layout_offdiag(params), ref)


def test_apply_blocks_keeps_non_finite_inside_its_block(plan_cache):
    # a bad entry must not leak into the other blocks of the batch
    plan = plan_cache(40, 0)
    x = np.zeros((1, plan.params.dimension), dtype=complex)
    x[0, plan.params.block_slice(36).start] = np.inf
    with np.errstate(invalid="ignore"):
        out = _apply_blocks(plan, x, True)[0]
    outside = np.ones(plan.params.dimension, dtype=bool)
    outside[plan.params.block_slice(36)] = False
    assert not np.any(out[outside])


def test_analyze_matches_complex_block_multiply(plan_cache, rng):
    plan = plan_cache(80, 3)
    for _ in range(3):
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        ref = np.concatenate(
            [plan.blocks[k].vectors.T @ c.block(k) for k in plan.params.orders()]
        )
        assert np.linalg.norm(analyze(plan, c).values - ref) <= 1e-15 * np.linalg.norm(ref)
        back = np.concatenate(
            [plan.blocks[k].vectors @ ref[plan.params.block_slice(k)] for k in plan.params.orders()]
        )
        got = synthesize(plan, LocalizedCoeffs(plan.params, ref)).values
        assert np.linalg.norm(got - back) <= 1e-15 * np.linalg.norm(back)


def test_loaded_plan_shares_identical_mirror_blocks(tmp_path, plan_cache):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    loaded = load_plan(path)
    for k in range(1, 13):
        assert loaded.blocks[-k].vectors is loaded.blocks[k].vectors
        assert loaded.blocks[-k].eigenvalues is loaded.blocks[k].eigenvalues
        assert loaded.blocks[-k].k == -k


def test_plan_reads_only_nonnegative_orders(plan_cache):
    # block -k is block +k relabelled, whatever the caller passes for it
    plan = plan_cache(12, 4)
    blocks = dict(plan.blocks)
    eb = blocks[-5]
    signs = np.where(np.arange(eb.size) % 2, -1.0, 1.0)
    blocks[-5] = sl.EigenBlock(k=-5, eigenvalues=eb.eigenvalues.copy(), vectors=eb.vectors * signs)
    built = TransformPlan(plan.params, blocks)
    assert built.blocks[-5].vectors is built.blocks[5].vectors
    assert built.blocks[-5].eigenvalues is built.blocks[5].eigenvalues
    assert built.blocks[-5].k == -5


def _with_eigenvalue(plan, k, i, value):
    blocks = dict(plan.blocks)
    vals = blocks[k].eigenvalues.copy()
    vals[i] = value
    blocks[k] = sl.EigenBlock(k=k, eigenvalues=vals, vectors=blocks[k].vectors)
    return blocks


def test_plan_loader_rejects_edited_eigenvalue(tmp_path, plan_cache, rng):
    # block k=8 of (12, 4) has five eigenvalues; the middle one is 0
    plan = plan_cache(12, 4)
    assert abs(plan.blocks[8].eigenvalues[2]) < 1e-15
    blocks = _with_eigenvalue(plan, 8, 2, -0.5)
    path = tmp_path / "plan.bin"
    save_plan(path, TransformPlan(plan.params, blocks, validate=False))
    with pytest.raises(NumericError, match="k=8"):
        load_plan(path)
    with pytest.raises(NumericError, match="k=8"):
        TransformPlan(plan.params, blocks)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(plan.params, rng))
    rc = main(["analyze", "--plan", str(path), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 4  # numeric-contract violation


@pytest.mark.parametrize(
    "i,value,message",
    [(0, np.nan, "gap"), (4, np.nan, "gap"), (0, 1.0, "open interval"), (1, 0.9, "gap")],
)
def test_plan_validation_rejects_bad_eigenvalues(plan_cache, i, value, message):
    plan = plan_cache(12, 4)
    with pytest.raises(NumericError, match=message):
        TransformPlan(plan.params, _with_eigenvalue(plan, 8, i, value))


@settings(max_examples=12, deadline=None)
@given(band=_bands(top=12))
def test_plan_cache_v2_roundtrip_sharing_and_truncation(tmp_path_factory, plan_cache, band):
    plan = plan_cache(*band)
    path = tmp_path_factory.mktemp("v2") / "plan.bin"
    save_plan(path, plan)
    loaded = load_plan(path)
    for k in plan.params.orders():
        got, want = loaded.blocks[k], plan.blocks[k]
        assert got.k == k
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert not got.vectors.flags.writeable and got.vectors.ctypes.data % 8 == 0
    for alpha in range(1, plan.params.n + 1):
        for attr in ("eigenvalues", "vectors"):
            assert getattr(loaded.blocks[-alpha], attr) is getattr(loaded.blocks[alpha], attr)
    data = path.read_bytes()
    for cut in [*range(len(data)), len(data) + 1]:
        path.write_bytes(data[:cut] if cut < len(data) else data + b"\0")
        with pytest.raises(FormatError):
            load_plan(path)


def test_plan_cache_stores_each_shared_order_once(tmp_path, plan_cache):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    words = 2 + 12 + sum(2 + s + s * s for s in map(plan.params.block_size, range(13)))
    assert path.stat().st_size == len(b"SPHERELOK-PLAN v2\n") + 8 * words


def _write_v1_plan(path, plan):
    """The v1 layout: magic, n m, then a record for every block k = n .. -n."""
    with open(path, "wb") as fh:
        fh.write(b"SPHERELOK-PLAN v1\n")
        np.array([plan.params.n, plan.params.m], dtype="<i8").tofile(fh)
        for k in plan.params.orders():
            eb = plan.blocks[k]
            np.array([k, eb.size], dtype="<i8").tofile(fh)
            eb.eigenvalues.astype("<f8").tofile(fh)
            eb.vectors.astype("<f8").tofile(fh)


def test_v1_plan_cache_is_rejected_with_rebuild_hint(tmp_path, plan_cache, capsys):
    path = tmp_path / "plan.bin"
    _write_v1_plan(path, plan_cache(12, 4))
    v1 = path.read_bytes()
    hint = "delete the file and rebuild it with `spherelok plan`"
    with pytest.raises(FormatError, match=hint):
        load_plan(path)
    assert main(["plan", "--n", "12", "--m", "4", "--out", str(path)]) == 3
    assert hint in capsys.readouterr().err
    assert path.read_bytes() == v1


def test_plan_cache_with_a_mirror_flag_is_rejected_with_rebuild_hint(tmp_path, plan_cache, capsys):
    # flag word 5 (|k| = 5) set: a separate -5 record, which no release reads
    path = tmp_path / "plan.bin"
    save_plan(path, plan_cache(12, 4))
    data = bytearray(path.read_bytes())
    flag = len(b"SPHERELOK-PLAN v2\n") + 8 * (2 + 4)
    data[flag : flag + 8] = np.array([1], dtype="<i8").tobytes()
    path.write_bytes(bytes(data))
    hint = "delete the file and rebuild it with `spherelok plan`"
    with pytest.raises(FormatError, match=hint):
        load_plan(path)
    assert main(["plan", "--n", "12", "--m", "4", "--out", str(path)]) == 3
    assert hint in capsys.readouterr().err
    assert path.read_bytes() == bytes(data)
