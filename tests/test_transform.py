import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from spherelok import transform
from spherelok.transform import (
    OpCounter,
    TransformPlan,
    _apply_blocks,
    _paired_layout,
    _shared_analysis,
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


def test_transforms_reject_the_other_coefficient_kind(plan_cache, rng):
    # the same numbers read as the other kind mean nothing: each entry point
    # names the kind it takes and the kind it got
    plan = plan_cache(6, 0)
    fast = plan_cache(6, 0, mode="fast")
    harmonic = HarmonicCoeffs.random_unit(plan.params, rng)
    localized = LocalizedCoeffs(plan.params, harmonic.values)
    window = sl.EigenvalueWindow.upper_tail(0.5)
    calls = [
        (lambda: analyze(plan, localized), "harmonic", "localized"),
        (lambda: analyze_fast(fast, localized), "harmonic", "localized"),
        (lambda: sl.filter_coeffs(plan, localized, window), "harmonic", "localized"),
        (lambda: sl.markov_bound(plan, localized, 0.5, "upper"), "harmonic", "localized"),
        (lambda: sl.mean_value(localized), "harmonic", "localized"),
        (lambda: synthesize(plan, harmonic), "localized", "harmonic"),
    ]
    for call, want, got in calls:
        with pytest.raises(ValueError, match=f"expected {want} coefficients, got {got}"):
            call()


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


def test_failed_plan_save_names_its_path_and_leaves_nothing(tmp_path, plan_cache):
    # the write goes through a temporary file, but an error names the path
    # asked for, as a direct write's would, and the temporary file is gone
    plan = plan_cache(12, 4)
    (tmp_path / "dir.bin").mkdir()
    for path in (tmp_path / "missing" / "plan.bin", tmp_path / "dir.bin"):
        with pytest.raises(OSError) as info:
            save_plan(path, plan)
        assert str(info.value).endswith(f": {str(path)!r}")
    assert [p.name for p in tmp_path.iterdir()] == ["dir.bin"]
    assert list((tmp_path / "dir.bin").iterdir()) == []
    path = tmp_path / "plan.bin"
    path.write_bytes(b"an older file")
    save_plan(path, plan)
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["dir.bin", "plan.bin"]
    assert load_plan(path).params == plan.params


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
    scaled = {k: replace(eb, even=eb.even * 1.001) for k, eb in plan.blocks.items()}
    save_plan(path, TransformPlan(plan.params, scaled, validate=False))
    with pytest.raises(NumericError):
        load_plan(path)


@st.composite
def _kept_column(draw):
    """(n, m, k, j): a band, an order k of it and a kept column j of block k."""
    n = draw(st.integers(0, 24))
    m = draw(st.integers(0, n))
    k = draw(st.integers(0, n))
    return n, m, k, draw(st.integers(0, (sl.BandParams(n, m).block_size(k) - 1) // 2))


@settings(max_examples=40, deadline=None)
@given(column=_kept_column())
@example(column=(16, 4, 3, 1))  # a column whose negation loads used to accept
# kept columns whose row-0 entry is below 1e-14: the first of any m = 0
# band (n = 98), and one at n = 100
@example(column=(98, 0, 34, 0))
@example(column=(100, 0, 28, 0))
def test_plan_loader_rejects_a_negated_kept_column(plan_cache, tmp_path_factory, column):
    # a negated column, and with it its mirror, is still an orthonormal
    # eigenvector, so it passes the first five conditions exactly; only the
    # sign rule p_0 > 0 catches it
    n, m, k, j = column
    plan = plan_cache(n, m)
    path = tmp_path_factory.mktemp("negated") / "plan.bin"
    save_plan(path, plan)
    raw = path.read_bytes()
    words = np.frombuffer(raw[18:], dtype="<f8").copy()
    pos = 2 + n  # block records run k = n .. 0 after n m and n flag words
    for kk in range(n, k, -1):
        c = (plan.params.block_size(kk) + 1) // 2
        pos += 2 + c + c * c
    c = (plan.params.block_size(k) + 1) // 2
    start = pos + 2 + c  # the block's E, c x c row-major
    words[start + j : start + c * c : c] *= -1
    path.write_bytes(raw[:18] + words.tobytes())
    with pytest.raises(NumericError, match=rf"block k={k}: kept column {j} breaks the sign rule"):
        load_plan(path)


def test_loaded_blocks_are_views_of_one_file_buffer(tmp_path, plan_cache):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    loaded = load_plan(path)

    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    buffer = owner(loaded.blocks[0].even)
    assert buffer.nbytes == path.stat().st_size - 18  # every word after the magic line
    for k in range(13):
        eb = loaded.blocks[k]
        assert not eb.even.flags.owndata and np.shares_memory(eb.even, buffer)
        for a in (eb.values, eb.even):
            assert owner(a) is buffer
        # the off-diagonal is the band table's, not a copy or the file's
        assert eb.offdiag is _band_blocks(12, 4)[k].offdiag and not eb.offdiag.flags.owndata


def test_loaded_plan_meets_the_same_orthogonality_gate(tmp_path, plan_cache, rng, capsys):
    # kept column 1 of block k=8 scaled by 1 + 5e-12, and so its mirror
    # column 3: orthogonality residual 1e-11, above the 1e-12 that every
    # built, loaded or passed-in block must meet
    plan = plan_cache(12, 4)
    blocks = dict(plan.blocks)
    even = blocks[8].even.copy()
    even[:, 1] *= 1 + 5e-12
    blocks[8] = replace(blocks[8], even=even)
    path = tmp_path / "plan.bin"
    save_plan(path, TransformPlan(plan.params, blocks, validate=False))
    with pytest.raises(NumericError, match="k=8: orthogonality"):
        load_plan(path)
    with pytest.raises(NumericError, match="k=8: orthogonality"):
        TransformPlan(plan.params, blocks)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(plan.params, rng))
    rc = main(["analyze", "--plan", str(path), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 4  # numeric-contract violation
    assert "k=8: orthogonality" in capsys.readouterr().err


def test_plan_build_validates_orthogonality(plan_cache):
    plan = plan_cache(6, 2)
    scaled = {k: replace(eb, even=eb.even * 1.001) for k, eb in plan.blocks.items()}
    with pytest.raises(NumericError):
        TransformPlan(plan.params, scaled)


def test_plan_build_checks_the_solved_blocks(monkeypatch):
    # singular vectors scaled by 1.001 give eigenvectors with a tiny eigenpair
    # residual: only the orthogonality condition of the band check, run on
    # every built plan, catches them
    from spherelok import jacobi_blocks

    solve = jacobi_blocks.np.linalg.svd

    def scaled(a):
        u, s, wt = solve(a)
        return u * 1.001, s, wt * 1.001

    monkeypatch.setattr(jacobi_blocks.np.linalg, "svd", scaled)
    with pytest.raises(NumericError, match="block k=0: orthogonality"):
        sl.band_eigenblocks(6, 2)
    with pytest.raises(NumericError, match="block k=0: orthogonality"):
        TransformPlan.build(6, 2)


def test_plan_is_reusable(plan_cache, rng):
    plan = plan_cache(16, 0)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    first = analyze(plan, c).values
    second = analyze(plan, c).values
    assert np.array_equal(first, second)


def test_analyze_runs_a_pass_on_every_call(plan_cache, rng, shared):
    # only the filter and the bounds share an analysis; analyze keeps nothing
    plan = plan_cache(16, 0, mode="fast")
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    _shared_analysis(plan, c)
    counter = OpCounter()
    for _ in range(2):
        analyze(plan, c, counter=counter)
        analyze_fast(plan, c)
    assert counter.ops == 2 * dense_op_count(16, 0)
    assert shared.passes == 5


def _twin(plan):
    """A second plan object over the same blocks."""
    return TransformPlan(plan.params, {k: plan.blocks[k] for k in range(plan.params.n + 1)})


class _SharedAnalysis:
    """A count of the analysis passes run, and calls that report their own."""

    def __init__(self, monkeypatch):
        self.passes = 0
        kernel = transform._apply_blocks

        def counted(plan, x, transpose, out=None):
            self.passes += transpose
            return kernel(plan, x, transpose, out=out)

        monkeypatch.setattr(transform, "_apply_blocks", counted)

    def ran(self, plan, coeffs):
        """(the analysis, whether it ran a kernel pass)."""
        before = self.passes
        d = _shared_analysis(plan, coeffs)
        return d, self.passes > before


@pytest.fixture
def shared(monkeypatch):
    return _SharedAnalysis(monkeypatch)


def test_shared_analysis_is_the_bytes_of_a_fresh_analysis(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    assert shared.ran(plan, c)[1]
    d, ran = shared.ran(plan, c)
    assert not ran
    assert d.tobytes() == analyze(_twin(plan), c).values.tobytes()


def test_fields_in_turn_each_get_their_own_shared_analysis(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    c1, c2 = (HarmonicCoeffs.random_unit(plan.params, rng) for _ in range(2))
    for c in (c1, c2, c1):
        d, ran = shared.ran(plan, c)
        assert ran
        assert d.tobytes() == _apply_blocks(plan, c.values, True).tobytes()


def test_edited_input_array_runs_a_new_shared_pass(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    before = _shared_analysis(plan, c).copy()
    c.values.setflags(write=True)  # the field owns its array
    c.values[5] += 0.25
    d, ran = shared.ran(plan, c)
    assert ran
    assert d.tobytes() == _apply_blocks(plan, c.values, True).tobytes()
    assert not np.array_equal(d, before)


def test_negative_zero_field_is_not_the_zero_field(plan_cache, shared):
    plan = plan_cache(24, 3)
    zero = HarmonicCoeffs(plan.params)
    assert np.array_equal(_shared_analysis(plan, zero), np.zeros(plan.params.dimension))
    values = np.zeros(plan.params.dimension, dtype=complex)
    values[0] = complex(-0.0, 0.0)
    neg = HarmonicCoeffs(plan.params, values)
    assert neg.values == pytest.approx(zero.values)  # equal as numbers
    d, ran = shared.ran(plan, neg)
    assert ran
    assert d.tobytes() == _apply_blocks(plan, neg.values, True).tobytes()


def test_plans_with_the_same_band_do_not_share_an_analysis(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    twin = _twin(plan)
    assert twin.params == plan.params
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    assert shared.ran(plan, c)[1]
    assert shared.ran(twin, c)[1]
    assert shared.ran(plan, c)[1]


def test_each_thread_keeps_its_own_shared_analysis(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    c, other = (HarmonicCoeffs.random_unit(plan.params, rng) for _ in range(2))
    _shared_analysis(plan, c)
    worker = threading.Thread(target=_shared_analysis, args=(plan, other))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert shared.passes == 2
    assert not shared.ran(plan, c)[1]


def test_shared_analysis_returns_new_read_only_views(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    results = [_shared_analysis(plan, c) for _ in range(3)]
    assert shared.passes == 1
    assert len({id(d) for d in results}) == 3
    for d in results:
        with pytest.raises(ValueError):
            d.setflags(write=True)
        with pytest.raises(ValueError):
            d[0] = 1.0


def test_shared_analysis_keeps_no_plan_alive(plan_cache, rng):
    plan = _twin(plan_cache(24, 3))
    _shared_analysis(plan, HarmonicCoeffs.random_unit(plan.params, rng))
    ref = weakref.ref(plan)
    del plan
    gc.collect()
    assert ref() is None


def test_filter_and_bounds_of_one_field_run_one_analysis(plan_cache, rng, shared):
    plan = plan_cache(24, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    window = sl.EigenvalueWindow.from_string("[-1,-0.6]u[-0.2,0.2]u[0.6,1]")
    calls = [
        lambda: sl.filter_coeffs(plan, c, window),
        lambda: sl.markov_bound(plan, c, 0.4, "lower"),
        lambda: sl.markov_bound(plan, c, 0.4, "upper"),
        lambda: sl.chebyshev_bound(plan, c, 0.3),
        lambda: sl.coefficient_variance(plan, c),
    ]
    results = [call() for call in calls]
    assert shared.passes == 1
    # each the same as a call with no earlier analysis to reuse
    for call, got in zip(calls, results):
        vars(transform._last).clear()
        want = call()
        if isinstance(want, tuple) and isinstance(want[0], HarmonicCoeffs):
            assert [w.values.tobytes() for w in want] == [g.values.tobytes() for g in got]
        else:
            assert want == got
    assert shared.passes == 1 + len(calls)


@st.composite
def _bands(draw, top=40):
    n = draw(st.integers(0, top))
    return n, draw(st.integers(0, n))


@settings(max_examples=40, deadline=None)
@given(
    band=_bands(),
    transpose=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_blocks_matches_per_block_reference(plan_cache, band, transpose, seed):
    plan = plan_cache(*band)
    rng = np.random.default_rng(seed)
    dim = plan.params.dimension
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ref = np.empty_like(x)
    for k in plan.params.orders():
        v = plan.blocks[k].vectors
        a = v.T if transpose else v
        rows = plan.params.block_slice(k)
        ref[rows] = a @ x[rows].real + 1j * (a @ x[rows].imag)
    got = _apply_blocks(plan, x, transpose)
    assert np.abs(got - ref).max() <= 1e-14 * np.linalg.norm(x)
    _apply_blocks(plan, x, transpose, out=x)  # in place, as filter_coeffs runs it
    assert np.array_equal(x, got)


@settings(max_examples=60, deadline=None)
@given(band=_bands(top=24))
def test_paired_layout_and_layout_offdiag_follow_the_label_columns(band):
    params = BandParams(*band)
    orders, indices = _label_columns(params, "localized")  # indices i from 1
    layout = _paired_layout(params)
    n_rows = len(layout.analysis) // 4
    assert layout.rows[0].start == 1 and layout.rows[-1].stop == n_rows - 1
    # what each slot of the two gathers reads, and what each result slot
    # holds, as (order, index) labels; index 0 for a slot that holds no entry
    read = {name: np.zeros((n_rows, 2, 2, 2), dtype=int) for name in ("analysis", "synthesis")}
    held = {name: np.zeros((6 * n_rows, 2), dtype=int) for name in ("analysis", "synthesis")}
    pad = np.ones(n_rows, dtype=bool)
    for alpha, rows in enumerate(layout.rows):
        size = params.block_size(alpha)
        c, r = (size + 1) // 2, size // 2
        assert rows.stop - rows.start == c and rows.start == (layout.rows[alpha - 1].stop + 1 if alpha else 1)
        pad[rows] = False
        i = np.arange(c)
        for sign, k in enumerate((alpha, -alpha)):
            at = np.arange(rows.start, rows.stop)
            read["analysis"][at, sign, 0] = np.stack([np.full(c, k), 2 * i + 1], axis=1)
            read["analysis"][at[:r], sign, 1] = np.stack([np.full(r, k), 2 * i[:r] + 2], axis=1)
            read["synthesis"][at, sign, 0] = np.stack([np.full(c, k), i + 1], axis=1)
            read["synthesis"][at, sign, 1] = np.stack([np.full(c, k), size - i], axis=1)
            t_slot = 4 * n_rows + 2 * at + sign
            held["analysis"][t_slot] = np.stack([np.full(c, k), i + 1], axis=1)
            held["analysis"][4 * at[:r] + 2 * sign + 1] = np.stack([np.full(r, k), size - i[:r]], axis=1)
            held["synthesis"][4 * at + 2 * sign] = np.stack([np.full(c, k), 2 * i + 1], axis=1)
            held["synthesis"][t_slot[:r]] = np.stack([np.full(r, k), 2 * i[:r] + 2], axis=1)
    for name in ("analysis", "synthesis"):
        gathered = getattr(layout, name).reshape(n_rows, 2, 2)
        got = np.stack([orders[gathered], indices[gathered]], axis=-1)
        want = read[name]
        # every slot that holds no entry reads entry 0 of a block of its own
        # order and sign: pad rows that of the next order, the last pad n's
        empty = want[..., 1] == 0
        assert np.array_equal(got[~empty], want[~empty])
        assert (got[..., 1][empty] == 1).all()
        order_of_row = np.minimum(np.cumsum(pad) - 1, params.n)
        expect = np.where(np.arange(2)[None, :, None] == 0, 1, -1) * order_of_row[:, None, None]
        assert np.array_equal(got[..., 0][empty], np.broadcast_to(expect, got[..., 0].shape)[empty])
        # the inverse maps each position to the slot that holds its result
        inverse = getattr(layout, name + "_inverse")
        assert np.array_equal(held[name][inverse], np.stack([orders, indices], axis=1))
    # a middle entry is its own mirror, and only its mirror slot is zeroed
    syn = layout.synthesis.reshape(n_rows, 2, 2)
    middle = np.flatnonzero((syn[:, :, 0] == syn[:, :, 1]) & ~pad[:, None])
    assert np.array_equal(np.sort(layout.middle), np.sort(2 * middle + 1))
    # reference: each block's own off-diagonals, laid out with block_slice
    ref = np.zeros(params.dimension - 1)
    for alpha, block in enumerate(_band_blocks(*band)):
        for k in {alpha, -alpha}:
            start = params.block_slice(k).start
            ref[start : start + block.size - 1] = block.offdiag
    assert np.array_equal(_layout_offdiag(params), ref)


def test_apply_blocks_keeps_non_finite_inside_its_block(plan_cache):
    # a bad entry must not leak into the other blocks of the vector
    plan = plan_cache(40, 0)
    x = np.zeros(plan.params.dimension, dtype=complex)
    x[plan.params.block_slice(36).start] = np.inf
    with np.errstate(invalid="ignore"):
        out = _apply_blocks(plan, x, True)
    outside = np.ones(plan.params.dimension, dtype=bool)
    outside[plan.params.block_slice(36)] = False
    assert not np.any(out[outside])


@pytest.mark.parametrize("transpose", [True, False])
@pytest.mark.parametrize("entry", [0, 1, 2, -2, -1])
def test_apply_blocks_keeps_non_finite_inside_its_block_either_way(plan_cache, transpose, entry):
    # an infinite entry, even or odd, first or last, of block 36 (N = 5)
    # or 35 (N = 6), next to blocks of the other parity, stays inside its
    # block through B, S^-1 and the shifts by one row in both directions
    plan = plan_cache(40, 0)
    for k in (36, 35, -35):
        x = np.zeros(plan.params.dimension, dtype=complex)
        x[np.arange(plan.params.dimension)[plan.params.block_slice(k)][entry]] = np.inf
        with np.errstate(invalid="ignore"):
            for _ in range(2):  # and leaves nothing behind for the next pass
                out = _apply_blocks(plan, x, transpose)
        outside = np.ones(plan.params.dimension, dtype=bool)
        outside[plan.params.block_slice(k)] = False
        assert not np.any(out[outside])
    y = np.ones(plan.params.dimension, dtype=complex)
    assert np.isfinite(_apply_blocks(plan, y, transpose)).all()


def _owners(obj, seen=None):
    """The arrays that own the memory of every array reachable from obj."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while obj.base is not None:
            obj = obj.base
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _owners(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _owners(item, seen)
    elif hasattr(obj, "__self__"):  # a bound method: ``E.T.dot``
        yield from _owners(obj.__self__, seen)
    elif hasattr(obj, "__dict__"):
        yield from _owners(vars(obj), seen)


def test_a_used_plan_holds_values_even_rows_band_table_and_work_buffers(rng):
    # after every kind of pass, what the plan and this thread's kernel hold
    # is the eigenvalues, E, the band's coefficient table and the kernel's
    # buffers, coefficients and layout: no array of odd rows
    plan = TransformPlan.build(64, 0)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    synthesize(plan, analyze(plan, c))
    sl.filter_coeffs(plan, c, sl.EigenvalueWindow.from_string("[0.5,1]"))
    kernel = plan._kernel()
    blocks = [plan.blocks[k] for k in range(65)]
    expected = [
        _band_blocks(64, 0)[0].offdiag.base,
        plan.eigenvalue_vector(),
        kernel.gathered,
        kernel.slots,
        *(next(_owners(a)) for a in plan._coefficients()),
        *(next(_owners(a)) for a in kernel.layout if isinstance(a, np.ndarray)),
        *(next(_owners(a)) for eb in blocks for a in (eb.values, eb.even, eb.eigenvalues)),
    ]
    held = {id(a): a for a in _owners(plan)}
    assert set(held) == {id(a) for a in expected}
    assert all("vectors" not in vars(eb) for eb in blocks)
    # the float arrays of more than one dimension are the blocks' E; the
    # table holds each block's off-diagonal once
    assert expected[0].shape == (sum(eb.size - 1 for eb in blocks),)
    wide = {i for i, a in held.items() if a.ndim > 1 and a.dtype == float}
    assert wide == {id(next(_owners(eb.even))) for eb in blocks}


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
        assert loaded.blocks[-k] is loaded.blocks[k]
    assert loaded.blocks[-5].vectors is loaded.blocks[5].vectors


def test_plan_reads_only_nonnegative_orders(plan_cache):
    # block -k is block +k, whatever the caller passes for it; the block
    # passed here has every other kept column, and so its mirror, flipped
    plan = plan_cache(12, 4)
    blocks = dict(plan.blocks)
    eb = blocks[-5]
    signs = np.where(np.arange(len(eb.values)) % 2, -1.0, 1.0)
    blocks[-5] = replace(eb, even=eb.even * signs)
    built = TransformPlan(plan.params, blocks)
    assert built.blocks[-5] is built.blocks[5] is plan.blocks[5]


def _with_eigenvalue(plan, k, i, value):
    """Eigenvalue i of block k set to value, and its mirror to -value."""
    blocks = dict(plan.blocks)
    vals = blocks[k].values.copy()
    if i < len(vals):  # the middle one of an odd block is its own mirror
        vals[i] = value
    else:  # set through its kept partner
        vals[blocks[k].size - 1 - i] = -value
    blocks[k] = replace(blocks[k], values=vals)
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
    "k,i,value,message",
    [
        # ids name i, value and message; all but the last case edit block 8
        pytest.param(8, 0, np.nan, "gap", id="0-nan-gap"),
        pytest.param(8, 4, np.nan, "gap", id="4-nan-gap"),
        pytest.param(8, 0, 1.0, "open interval", id="0-1.0-open interval"),
        pytest.param(8, 1, 0.9, "gap", id="1-0.9-gap"),
        # block 7 has six eigenvalues: the gap across zero is 2 * 4e-14
        pytest.param(7, 2, 4e-14, "gap", id="2-4e-14-gap"),
    ],
)
def test_plan_validation_rejects_bad_eigenvalues(plan_cache, k, i, value, message):
    plan = plan_cache(12, 4)
    with pytest.raises(NumericError, match=message):
        TransformPlan(plan.params, _with_eigenvalue(plan, k, i, value))


_PLAN_MAGIC_LEN = len(b"SPHERELOK-PLAN v4\n")


def _truncations(params, nbytes):
    """Sampled lengths that cut a v4 plan file short, with load_plan's error.

    Every length inside the magic line; the bytes around each header and
    flag-word boundary and around the start and end of each record's label,
    value and vector regions; one cut inside a word; and 32 lengths drawn
    with a seed.  A cut inside the magic line reads as "bad magic"; one
    inside ``n m`` or the flag words as "truncated header"; any later cut,
    at a record boundary or inside a word, as "truncated at block k=..."
    for the first incomplete record.
    """
    header = _PLAN_MAGIC_LEN + 8 * (2 + params.n)
    edges = list(range(_PLAN_MAGIC_LEN, header, 8))
    pos = header
    for k in range(params.n, -1, -1):
        size = params.block_size(k)
        c = (size + 1) // 2
        for length in (16, 8 * c, 8 * c * c):  # label, values, E
            edges.append(pos)
            pos += length
    assert pos == nbytes
    cuts = {*range(_PLAN_MAGIC_LEN), header + 16 + 4}
    cuts.update(edge + d for edge in edges for d in (-1, 0, 1))
    cuts.update(np.random.default_rng(nbytes).integers(0, nbytes, 32).tolist())
    for cut in sorted(c for c in cuts if 0 <= c < nbytes):
        if cut < _PLAN_MAGIC_LEN:
            yield cut, "bad magic"
        elif cut < header:
            yield cut, "truncated header"
        else:
            yield cut, "truncated at block k=.*; delete the file and rebuild it"


@settings(max_examples=12, deadline=None)
@given(band=_bands(top=12))
def test_plan_cache_v4_roundtrip_sharing_and_truncation(tmp_path_factory, plan_cache, band):
    plan = plan_cache(*band)
    path = tmp_path_factory.mktemp("v4") / "plan.bin"
    save_plan(path, plan)
    loaded = load_plan(path)
    for k in plan.params.orders():
        got, want = loaded.blocks[k], plan.blocks[k]
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        for attr in ("values", "even", "offdiag"):
            a = getattr(got, attr)
            assert a.tobytes() == getattr(want, attr).tobytes()
            assert not a.flags.writeable and a.ctypes.data % 8 == 0
    for alpha in range(1, plan.params.n + 1):
        assert loaded.blocks[-alpha] is loaded.blocks[alpha]
    data = path.read_bytes()
    for cut, message in _truncations(plan.params, len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError, match=message):
            load_plan(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(FormatError, match="trailing bytes.*; delete the file and rebuild it"):
        load_plan(path)


def test_plan_cache_stores_each_shared_order_once(tmp_path, plan_cache):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    # each record holds c = ceil(N / 2) eigenvalues and the c x c words of E
    cs = [(plan.params.block_size(k) + 1) // 2 for k in range(13)]
    words = 2 + 12 + sum(2 + c + c * c for c in cs)
    assert path.stat().st_size == len(b"SPHERELOK-PLAN v4\n") + 8 * words


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


def _write_v2_plan(path, plan):
    """The v2 layout: magic, n m, n zero flag words, then all of V per |k|."""
    with open(path, "wb") as fh:
        fh.write(b"SPHERELOK-PLAN v2\n")
        np.array([plan.params.n, plan.params.m, *[0] * plan.params.n], dtype="<i8").tofile(fh)
        for k in range(plan.params.n, -1, -1):
            eb = plan.blocks[k]
            np.array([k, eb.size], dtype="<i8").tofile(fh)
            eb.eigenvalues.astype("<f8").tofile(fh)
            eb.vectors.astype("<f8").tofile(fh)


def test_v2_plan_cache_exits_3_with_rebuild_hint(tmp_path, plan_cache, rng, capsys):
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    _write_v2_plan(path, plan)
    v2 = path.read_bytes()
    hint = "delete the file and rebuild it with `spherelok plan`"
    with pytest.raises(FormatError, match="format v2 is no longer read; " + hint):
        load_plan(path)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(plan.params, rng))
    rc = main(["analyze", "--plan", str(path), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 3
    assert main(["plan", "--n", "12", "--m", "4", "--out", str(path)]) == 3
    assert capsys.readouterr().err.count(hint) == 2
    assert path.read_bytes() == v2


def _write_v3_plan(path, plan):
    """The v3 layout: magic, n m, n zero flag words, then per |k| the kept
    values and the N x c kept eigenvectors, their even rows over their odd."""
    with open(path, "wb") as fh:
        fh.write(b"SPHERELOK-PLAN v3\n")
        np.array([plan.params.n, plan.params.m, *[0] * plan.params.n], dtype="<i8").tofile(fh)
        for k in range(plan.params.n, -1, -1):
            eb = plan.blocks[k]
            np.array([k, eb.size], dtype="<i8").tofile(fh)
            for a in (eb.values, eb.even, eb.odd):
                a.astype("<f8").tofile(fh)


def test_v3_plan_cache_exits_3_with_rebuild_hint(tmp_path, plan_cache, rng, capsys):
    # a v3 file holds half of each V, twice what v4 stores; it is refused as
    # v1 and v2 are, and `plan` leaves it as it is
    plan = plan_cache(12, 4)
    path = tmp_path / "plan.bin"
    _write_v3_plan(path, plan)
    v3 = path.read_bytes()
    sizes = [plan.params.block_size(k) for k in range(13)]
    assert len(v3) == 18 + 8 * (2 + 12 + sum(2 + (s + 1) // 2 * (s + 1) for s in sizes))
    hint = "delete the file and rebuild it with `spherelok plan`"
    with pytest.raises(FormatError, match="format v3 is no longer read; " + hint):
        load_plan(path)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(plan.params, rng))
    rc = main(["analyze", "--plan", str(path), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 3
    assert main(["plan", "--n", "12", "--m", "4", "--out", str(path)]) == 3
    assert capsys.readouterr().err.count(hint) == 2
    assert path.read_bytes() == v3


def test_plan_cache_with_a_mirror_flag_is_rejected_with_rebuild_hint(tmp_path, plan_cache, capsys):
    # flag word 5 (|k| = 5) set: a separate -5 record, which no release reads
    path = tmp_path / "plan.bin"
    save_plan(path, plan_cache(12, 4))
    data = bytearray(path.read_bytes())
    flag = len(b"SPHERELOK-PLAN v4\n") + 8 * (2 + 4)
    data[flag : flag + 8] = np.array([1], dtype="<i8").tobytes()
    path.write_bytes(bytes(data))
    hint = "delete the file and rebuild it with `spherelok plan`"
    with pytest.raises(FormatError, match=hint):
        load_plan(path)
    assert main(["plan", "--n", "12", "--m", "4", "--out", str(path)]) == 3
    assert hint in capsys.readouterr().err
    assert path.read_bytes() == bytes(data)


@settings(max_examples=30, deadline=None)
@given(band=_bands(top=24), seed=st.integers(0, 2**32 - 1))
@example(band=(0, 0), seed=0)
@example(band=(1, 0), seed=1)
@example(band=(2, 2), seed=2)
def test_half_eigendata_is_an_exact_mirror_and_applies_the_full_matrices(
    tmp_path_factory, plan_cache, band, seed
):
    # a built plan holds half of each V: its full pair, rebuilt on access, is
    # bitwise an exact mirror, and analyze/synthesize apply exactly that V
    plan = plan_cache(*band)
    params = plan.params
    rng = np.random.default_rng(seed)
    c = HarmonicCoeffs.random_unit(params, rng)
    d = LocalizedCoeffs(params, HarmonicCoeffs.random_unit(params, rng).values)
    ref_a, ref_s = [], []
    for k in params.orders():
        eb = plan.blocks[k]
        vals, vecs = eb.eigenvalues, eb.vectors
        r = eb.size // 2
        parity = np.where(np.arange(eb.size) % 2, -1.0, 1.0)[:, None]
        assert vals[::-1][:r].tobytes() == (-vals[:r]).tobytes()
        assert vecs[:, ::-1][:, :r].tobytes() == (parity * vecs[:, :r]).tobytes()
        ref_a.append(vecs.T @ c.block(k))
        ref_s.append(vecs @ d.values[params.block_slice(k)])
    got_a = analyze(plan, c).values
    assert np.abs(got_a - np.concatenate(ref_a)).max() <= 1e-14
    assert np.abs(synthesize(plan, d).values - np.concatenate(ref_s)).max() <= 1e-14
    path = tmp_path_factory.mktemp("half") / "plan.bin"
    save_plan(path, plan)
    loaded = load_plan(path)
    for k in params.orders():
        for attr in ("values", "even", "odd"):
            assert getattr(loaded.blocks[k], attr).tobytes() == getattr(plan.blocks[k], attr).tobytes()
    assert analyze(loaded, c).values.tobytes() == got_a.tobytes()


def test_concurrent_transforms_on_one_plan_use_their_own_buffers(plan_cache):
    # the kernel's work buffers are per thread: threads sharing one plan,
    # each with its own input, must each get the sequential results.  So
    # must the analysis that the filter and the bounds share, which is kept
    # per thread: each thread alternates its own field with one that all
    # threads share
    plan = plan_cache(24, 3)
    rng = np.random.default_rng(5)
    inputs = [rng.standard_normal(plan.params.dimension) * (1 + 0.5j) for _ in range(4)]
    want = [(_apply_blocks(plan, x, True), _apply_blocks(plan, x, False)) for x in inputs]
    shared = HarmonicCoeffs(plan.params, inputs[0][::-1])
    shared_want = _apply_blocks(plan, shared.values, True)
    errors = []

    def work(x, ref):
        own = HarmonicCoeffs(plan.params, x)
        for i in range(50):
            got = (_apply_blocks(plan, x, True), _apply_blocks(plan, x, False))
            field, field_want = (own, ref[0]) if i % 2 else (shared, shared_want)
            if not (
                all(np.array_equal(g, r) for g, r in zip(got, ref))
                and np.array_equal(_shared_analysis(plan, field), field_want)
                and np.array_equal(_shared_analysis(plan, field), field_want)
            ):
                errors.append("mismatch")
                return

    threads = [threading.Thread(target=work, args=pair) for pair in zip(inputs, want)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_plan_pickles_without_its_work_buffers(plan_cache, rng):
    plan = plan_cache(12, 4)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    want = analyze(plan, c).values  # builds this thread's kernel
    vectors = plan.blocks[3].vectors  # built before the round trip
    copy = pickle.loads(pickle.dumps(plan))
    assert np.array_equal(analyze(copy, c).values, want)
    assert np.array_equal(copy.blocks[-3].even, plan.blocks[3].even)
    for k in range(1, 13):
        assert copy.blocks[-k] is copy.blocks[k]
    # the copy's blocks went through the constructor: the full pair is
    # rebuilt from the half, not carried over
    assert "vectors" not in vars(copy.blocks[-3])
    assert np.array_equal(copy.blocks[-3].vectors, vectors)


def test_unpickled_plan_holds_read_only_blocks(rng):
    plan = TransformPlan.build(4, 1)
    copy = pickle.loads(pickle.dumps(plan))
    for k in copy.params.orders():
        for attr in ("values", "even", "offdiag"):
            assert not getattr(copy.blocks[k], attr).flags.writeable
            with pytest.raises(ValueError):
                getattr(copy.blocks[k], attr)[0] = 0.99
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    assert analyze(copy, c).values.tobytes() == analyze(plan, c).values.tobytes()


def test_pickle_with_a_corrupted_eigenvector_entry_is_rejected():
    plan = TransformPlan.build(4, 1)
    data = pickle.dumps(plan)
    even = plan.blocks[2].even
    assert data.count(even.tobytes()) == 1
    bad = even.copy()
    bad[1, 0] += 1e-3
    data = data.replace(even.tobytes(), bad.tobytes())
    with pytest.raises(NumericError, match="block k=2"):
        pickle.loads(data)
