import math
import pickle
import threading
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherelok import _fastcheb as fc
from spherelok import jacobi_blocks as jb
from spherelok.approximation import SpectralSummary
from spherelok.errors import NumericError
from spherelok.jacobi_blocks import (
    EigenBlock,
    _band_blocks,
    band_eigenblocks,
    band_spectra,
    build_block,
    check_eigenpairs,
    eigendecompose,
    spectrum,
    thread_count,
)
from spherelok.sphere_basis import SphereGrid
from spherelok.transform import TransformPlan, load_plan, save_plan
from spherelok.ultraspherical import UltrasphericalFamily, recurrence_coefficient


def test_build_block_examples():
    blk = build_block(6, 4, 6)
    assert blk.size == 1 and len(blk.offdiag) == 0

    blk = build_block(6, 4, 0)
    assert blk.size == 3
    assert blk.truncation_offset == 4
    assert blk.offdiag == pytest.approx(
        [recurrence_coefficient(0, 5), recurrence_coefficient(0, 6)]
    )

    blk = build_block(32, 0, 16)
    assert blk.size == 17 and blk.alpha == 16 and blk.truncation_offset == 0
    assert blk.offdiag == pytest.approx(
        [recurrence_coefficient(16, l) for l in range(1, 17)]
    )


@pytest.mark.parametrize("n,m", [(256, 0), (128, 16), (12, 4), (7, 7), (0, 0)])
def test_band_blocks_equal_build_block_bit_for_bit(n, m):
    blocks = _band_blocks(n, m)
    assert len(blocks) == n + 1
    for alpha, blk in enumerate(blocks):
        ref = build_block(n, m, alpha)
        assert (blk.alpha, blk.size, blk.truncation_offset) == (
            ref.alpha,
            ref.size,
            ref.truncation_offset,
        )
        assert blk.offdiag.tobytes() == ref.offdiag.tobytes()
        assert not blk.offdiag.flags.writeable


def test_build_block_rejects_bad_order():
    with pytest.raises(ValueError):
        build_block(6, 4, 7)
    with pytest.raises(ValueError):
        build_block(6, 7, 0)


def test_trivial_block_eigendecomposition():
    eb = eigendecompose(build_block(4, 4, 2))
    assert eb.eigenvalues[0] == 0.0
    assert eb.vectors == pytest.approx(np.ones((1, 1)))


def test_two_by_two_closed_form():
    # eigenvalues are +-b_1, which are also the two-point quadrature nodes
    eb = eigendecompose(build_block(1, 0, 0))
    assert eb.eigenvalues == pytest.approx([1 / math.sqrt(3), -1 / math.sqrt(3)])
    nodes, _ = np.polynomial.legendre.leggauss(2)
    assert eb.eigenvalues == pytest.approx(nodes[::-1])


def test_largest_band32_eigenvalue():
    eb = eigendecompose(build_block(32, 0, 0))
    assert round(eb.eigenvalues[0], 4) == 0.9974


def test_eigenvalues_match_quadrature_nodes():
    # independent oracle: the alpha=0 untruncated block reproduces the
    # Gauss-Legendre nodes, and first components encode the weights
    for size in (5, 16, 33):
        eb = eigendecompose(build_block(size - 1, 0, 0))
        nodes, weights = np.polynomial.legendre.leggauss(size)
        assert eb.eigenvalues == pytest.approx(nodes[::-1], abs=1e-13)
        assert eb.vectors[0, :] ** 2 == pytest.approx(weights[::-1] / 2, rel=1e-10)


@pytest.mark.parametrize("n,m,k", [(20, 0, 3), (20, 6, 2), (40, 10, 25), (12, 12, 5)])
def test_eigenblock_invariants(n, m, k):
    blk = build_block(n, m, k)
    eb = eigendecompose(blk)
    vals, vecs = eb.eigenvalues, eb.vectors
    size = eb.size
    if size > 1:
        assert np.all(np.diff(vals) < 0)
    assert np.abs(vals).max() < 1.0 or (size == 1 and vals[0] == 0.0)
    assert np.abs(vecs.T @ vecs - np.eye(size)).max() < 1e-12
    assert np.all(vecs[0, :] > 0)
    jv = np.zeros_like(vecs)
    if size > 1:
        jv[:-1] += blk.offdiag[:, None] * vecs[1:]
        jv[1:] += blk.offdiag[:, None] * vecs[:-1]
    assert np.abs(jv - vecs * vals[None, :]).max() <= 1e-12 * size
    # zero trace and the Frobenius second moment
    assert abs(vals.sum()) <= 1e-12 * size
    if size > 1:
        assert np.sum(vals**2) == pytest.approx(
            2 * np.sum(blk.offdiag**2), rel=1e-10
        )


@pytest.mark.parametrize(
    "n,m,k",
    [(24, 0, 2), (20, 6, 2), (16, 5, 9), (256, 0, 50), (256, 0, 120), (256, 200, 50),
     (256, 100, 90)],
)
def test_eigenvectors_match_shifted_recurrence(n, m, k):
    # column i is the shifted-recurrence vector at the root x_i, normalized
    # and signed so that p_0 > 0, whatever entry the solve reads the sign
    # at.  At (256, 0, 50), (256, 0, 120) and in the truncated block
    # (256, 100, 90) the leading entries underflow, so the sign cannot be
    # read off the first entry; (256, 200, 50) is truncated at large |k|
    blk = build_block(n, m, k)
    eb = eigendecompose(blk)
    fam = UltrasphericalFamily.build(blk.alpha, blk.truncation_offset + blk.size + 1)
    raw = np.array(
        [
            fam.eval_associated(j, eb.eigenvalues, blk.truncation_offset)
            for j in range(blk.size)
        ]
    )
    raw /= np.linalg.norm(raw, axis=0)
    assert np.abs(raw - eb.vectors).max() < 1e-8


def test_interlacing_moderate_band():
    n = 24
    for m in (0, 5, 24):
        spectra = band_spectra(n, m)
        for k in range(m, n):
            a, b = spectra[k], spectra[k + 1]
            for i in range(len(b)):
                assert a[i] > b[i] > a[i + 1]


def test_edge_monotonicity_truncated_orders():
    n, m = 24, 7
    spectra = band_spectra(n, m)
    for k in range(m):
        assert spectra[k][0] > spectra[k + 1][0]
        assert spectra[k][-1] < spectra[k + 1][-1]
    tops = [spectra[k][0] for k in range(n + 1)]
    assert np.argmax(tops) == 0
    bots = [spectra[k][-1] for k in range(n + 1)]
    assert np.argmin(bots) == 0


def _scaled_column(eb, i, scale):
    """``eb`` with kept column i scaled, and with it its mirror column."""
    even = eb.even.copy()
    even[:, i] *= scale  # and so the column's odd rows, derived from it
    return replace(eb, even=even)


def test_check_eigenpairs_rejects_non_orthonormal_vectors():
    # a scaled column is still an eigenvector, with a residual far inside
    # 1e-12 * size; only the orthogonality condition catches it.  Kept
    # column 1 of the three is scaled, and with it its mirror, column 3 of
    # the five
    blk = build_block(12, 4, 8)
    eb = eigendecompose(blk)
    for scale in (1 + 5e-12, 1.001):
        with pytest.raises(NumericError, match="orthogonality residual"):
            check_eigenpairs(blk, _scaled_column(eb, 1, scale))
    check_eigenpairs(blk, _scaled_column(eb, 1, 1 + 1e-13))  # within the 1e-12 gate


@pytest.mark.parametrize("part", ["even"])
def test_check_eigenpairs_rejects_nan_vector_entry(part):
    # one NaN entry of a kept column makes its residual NaN, which the
    # residual condition rejects before any later condition runs.  Only the
    # even rows are stored; the odd rows derived from them share the NaN
    blk = build_block(12, 4, 8)
    eb = eigendecompose(blk)
    even = eb.even.copy()
    even[1, 2] = np.nan
    with pytest.raises(NumericError, match="eigenpair residual"):
        check_eigenpairs(blk, replace(eb, even=even))


@settings(max_examples=40, deadline=None)
@given(
    move=st.integers(0, 24)
    .flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
    .flatmap(
        lambda band: st.tuples(
            st.just(band),
            st.integers(0, band[0]),
            st.integers(0, 10**6),
            st.sampled_from([-1.0, 1.0]),
            st.floats(2e-13, 1e-9),
        )
    )
)
@example(move=((3, 0), 3, 0, 1.0, 2e-13))  # size 1: no gap to break
@example(move=((4, 0), 0, 2, -1.0, 2e-13))  # the middle 0 of N = 5
@example(move=((256, 0), 8, 3, 1.0, 1e-10))  # a move the residual lets through
@example(move=((256, 0), 250, 2, -1.0, 2e-13))
def test_check_eigenpairs_rejects_moved_eigenvalues(move):
    # a kept eigenvalue moved by eps leaves a residual of eps * v, far
    # inside 1e-12 * size; the Rayleigh quotient condition catches it
    (n, m), k, index, sign, eps = move
    blk = build_block(n, m, k)
    eb = eigendecompose(blk)
    vals = eb.values.copy()
    vals[index % len(vals)] += sign * eps
    with pytest.raises(NumericError):
        check_eigenpairs(blk, replace(eb, values=vals))


def test_band_eigenblocks_shares_mirror_orders():
    blocks = band_eigenblocks(8, 2)
    assert set(blocks) == set(range(-8, 9))
    for k in range(1, 9):
        assert blocks[-k] is blocks[k]
    assert blocks[3].vectors is blocks[-3].vectors


def test_eigenblock_takes_one_blocks_halves_and_copies_writable_input():
    eb = eigendecompose(build_block(12, 4, 5))  # N = 8: c = 4, r = 4
    c = len(eb.values)
    assert eb.even.shape == (c, c) and eb.offdiag.shape == (7,)
    for values, even, offdiag in [
        (eb.values, eb.even[:-1], eb.offdiag),
        (eb.values, eb.even[:, :-1], eb.offdiag),
        (eb.values, np.vstack([eb.even, eb.even[:1]]), eb.offdiag),
        (eb.values[:-1], eb.even, eb.offdiag),
        (eb.values, eb.even, eb.offdiag[:-2]),
        (eb.values, eb.even, np.append(eb.offdiag, 0.5)),
        (eb.values[None], eb.even, eb.offdiag),
        (eb.values, eb.even[None], eb.offdiag),
        (eb.values, eb.even, eb.offdiag[None]),
    ]:
        with pytest.raises(ValueError, match=r"are not \(c,\)"):
            EigenBlock(values, even, offdiag)
    odd_size = EigenBlock(eb.values, eb.even, eb.offdiag[:-1])
    assert odd_size.size == 2 * c - 1 and odd_size.odd.shape == (c - 1, c)
    # read-only input is kept as given; writable input is copied
    same = EigenBlock(eb.values, eb.even, eb.offdiag)
    assert same.values is eb.values and same.even is eb.even and same.offdiag is eb.offdiag
    mine = [eb.values.copy(), eb.even.copy(), eb.offdiag.copy()]
    held = EigenBlock(*mine)
    for a in mine:
        a[...] = np.nan
    for attr in ("values", "even", "offdiag", "odd"):
        got = getattr(held, attr)
        assert not got.flags.writeable or attr == "odd"
        assert got.tobytes() == getattr(eb, attr).tobytes()
    # the odd rows are derived on each access, and kept by no one
    assert held.odd is not held.odd and not np.shares_memory(held.odd, held.even)
    assert set(vars(held)) == {"values", "even", "offdiag"}
    assert held.vectors.tobytes() == eb.vectors.tobytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_block(8, 0, 3),
        lambda: band_eigenblocks(8, 0)[3],
        lambda: SphereGrid.for_degree(4),
        lambda: SpectralSummary.from_band(4, 0),
        lambda: UltrasphericalFamily.build(1, 8),
        lambda: fc.build_cascade(0, 16).levels[0],
        lambda: fc.build_cascade(0, 16),
        lambda: fc.build_ndct(np.linspace(0.1, 3.0, 5), 16),
    ],
)
def test_array_holding_classes_compare_and_hash_by_identity(make):
    # a field-wise == over numpy arrays would raise instead of answering
    a, b = make(), make()
    assert a == a and not a != a
    assert not a == b and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("n,m", [(120, 0), (40, 7)])
def test_band_eigenblocks_equals_per_block_solves(n, m):
    # the solves of a band, on any number of threads, are bit for bit the
    # per-block eigendecompositions
    blocks = band_eigenblocks(n, m)
    for k in range(n + 1):
        ref = eigendecompose(build_block(n, m, k))
        assert blocks[k].eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert blocks[k].vectors.tobytes() == ref.vectors.tobytes()


def test_solved_bytes_do_not_depend_on_blas_threads(monkeypatch):
    # N = 601: OpenBLAS threads this block's products, and at two threads
    # its SVD differs from one thread's in the last bits.  Solves run at one
    # thread whatever the count outside, alone or in a band
    big = build_block(600, 0, 0)
    get, set_ = jb._blas_threads() or (lambda: None, lambda count: None)
    before = get()
    solved = []
    try:
        for count in (1, 2, 3):
            set_(count)
            solved.append(eigendecompose(big))
    finally:
        set_(before)
    monkeypatch.setattr(jb, "_band_blocks", lambda n, m: [big])
    solved.append(band_eigenblocks(0, 0)[0])
    for eb in solved[1:]:
        for attr in ("values", "even", "odd"):
            assert getattr(eb, attr).tobytes() == getattr(solved[0], attr).tobytes()


@pytest.mark.parametrize("workers", [1, 4])
def test_failed_solves_raise_the_serial_error_and_leave_no_thread(monkeypatch, workers):
    # blocks 3, 5 and 7 fail, and 3 fails last: the lowest k's error is
    # raised, as the serial loop raises it, and every worker has ended
    monkeypatch.setattr(jb, "thread_count", lambda: workers)
    solve = jb._solve

    def failing_solve(block):
        if block.alpha in (3, 5, 7):
            if block.alpha == 3:
                time.sleep(0.05)
            raise NumericError(f"solve of k={block.alpha} failed")
        return solve(block)

    before = set(threading.enumerate())
    ok = band_eigenblocks(12, 1)
    assert set(threading.enumerate()) == before
    monkeypatch.setattr(jb, "_solve", failing_solve)
    with pytest.raises(NumericError, match="^solve of k=3 failed$"):
        band_eigenblocks(12, 1)
    assert set(threading.enumerate()) == before
    monkeypatch.setattr(jb, "_solve", solve)
    again = band_eigenblocks(12, 1)
    assert list(again) == list(ok)
    assert all(again[k].vectors.tobytes() == ok[k].vectors.tobytes() for k in ok)


@pytest.mark.parametrize("workers", [1, 4])
def test_failed_checks_raise_the_serial_error_and_leave_no_thread(
    monkeypatch, tmp_path, plan_cache, workers
):
    # a cache corrupted at blocks 3 and 200, where 3 fails last: the load
    # raises block 3's error, as the serial loop raised it, every check
    # thread has ended, and the BLAS count is what it was
    monkeypatch.setattr(jb, "thread_count", lambda: workers)
    check = jb.check_eigenpairs

    def slow_check(block, eb):
        if block.alpha == 3:
            time.sleep(0.05)
        check(block, eb)

    plan = plan_cache(208, 0)
    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    data = path.read_bytes()
    for k in (3, 200):
        even = plan.blocks[k].even
        assert data.count(even.tobytes()) == 1
        at = data.index(even.tobytes())  # block k's first eigenvector word
        data = data[:at] + (even[0, :1] + 1e-3).tobytes() + data[at + 8 :]
    path.write_bytes(data)
    get = (jb._blas_threads() or (lambda: None,))[0]
    blas_before, before = get(), set(threading.enumerate())
    monkeypatch.setattr(jb, "check_eigenpairs", slow_check)
    with pytest.raises(NumericError, match=r"plan\.bin: block k=3: eigenpair residual"):
        load_plan(path)
    assert set(threading.enumerate()) == before and get() == blas_before


def test_build_holds_blas_at_one_thread_and_restores_it(blas_at_two, monkeypatch, tmp_path):
    # a failed build, a load, a load whose check fails, a plan built from
    # eigendata and an unpickled plan all run at one BLAS thread, and the
    # count is 2 again after each
    get = blas_at_two
    solve, check = jb._solve, jb.check_eigenpairs
    seen = []

    def watched_solve(block):
        seen.append(get())
        if block.alpha == 5:
            raise NumericError("solve failed")
        return solve(block)

    def watched_check(block, eb):
        seen.append(get())
        check(block, eb)

    plan = TransformPlan.build(8, 0)
    assert get() == 2
    monkeypatch.setattr(jb, "_solve", watched_solve)
    with pytest.raises(NumericError):
        band_eigenblocks(8, 0)
    assert seen and set(seen) == {1} and get() == 2

    path = tmp_path / "plan.bin"
    save_plan(path, plan)
    good = path.read_bytes()
    even = plan.blocks[3].even
    assert good.count(even.tobytes()) == 1
    at = good.index(even.tobytes())  # block 3's first eigenvector word
    bad = good[:at] + (even[0, :1] + 1e-3).tobytes() + good[at + 8 :]
    monkeypatch.setattr(jb, "check_eigenpairs", watched_check)
    for data, fails in ((good, nullcontext()), (bad, pytest.raises(NumericError, match="block k=3"))):
        seen.clear()
        path.write_bytes(data)
        with fails:
            load_plan(path)
        assert seen and set(seen) == {1} and get() == 2

    blocks = {k: plan.blocks[k] for k in range(9)}
    for checked in (lambda: TransformPlan(plan.params, blocks), lambda: pickle.loads(pickle.dumps(plan))):
        seen.clear()
        checked()
        assert seen and set(seen) == {1} and get() == 2


def test_overlapping_builds_restore_blas_threads_when_the_last_ends(blas_at_two, monkeypatch):
    # both builds are inside their first check at once; the one still inside
    # after the other has returned keeps one thread, and the count is 2 again
    # after.  Each build runs its band loop on its own thread alone
    get = blas_at_two
    monkeypatch.setattr(jb, "thread_count", lambda: 1)
    check = jb.check_eigenpairs
    both_in = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = []

    def held_check(block, eb):
        if block.alpha == 0:
            both_in.wait()
            if threading.current_thread().name == "second":
                assert first_done.wait(timeout=30)
            seen.append(get())
        check(block, eb)

    monkeypatch.setattr(jb, "check_eigenpairs", held_check)
    built = {}

    def build(name):
        built[name] = band_eigenblocks(24, 3)
        if name == "first":
            first_done.set()

    threads = [threading.Thread(target=build, args=(name,), name=name) for name in ("first", "second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert sorted(built) == ["first", "second"]
    assert seen == [1, 1] and get() == 2


@pytest.mark.parametrize("job", ["solve", "check"])
def test_blocks_are_solved_on_thread_count_threads(monkeypatch, tmp_path, job):
    # blocks 0-2 wait until three threads are inside a solve, or a load's
    # check, at once, so the build or load fails unless it runs on three threads
    monkeypatch.setattr(jb, "thread_count", lambda: 3)
    path = tmp_path / "plan.bin"
    if job == "check":
        save_plan(path, TransformPlan.build(10, 2))
    name = {"solve": "_solve", "check": "check_eigenpairs"}[job]
    run = getattr(jb, name)
    all_in = threading.Barrier(3, timeout=30)
    threads = set()

    def gathered(block, *eb):
        threads.add(threading.get_ident())
        if block.alpha < 3:
            all_in.wait()
        return run(block, *eb)

    monkeypatch.setattr(jb, name, gathered)
    if job == "solve":
        band_eigenblocks(10, 2)
    else:
        load_plan(path)
    assert len(threads) == 3 and threading.get_ident() in threads


def test_a_build_checks_each_block_on_the_thread_that_solved_it(monkeypatch):
    # blocks 0-2 wait until three threads are inside a solve at once, so the
    # build runs on three threads; each block's check follows its solve there
    monkeypatch.setattr(jb, "thread_count", lambda: 3)
    solve, check = jb._solve, jb.check_eigenpairs
    all_in = threading.Barrier(3, timeout=30)
    solved_on, checked_on = {}, {}

    def gathered_solve(block):
        solved_on[block.alpha] = threading.get_ident()
        if block.alpha < 3:
            all_in.wait()
        return solve(block)

    def watched_check(block, eb):
        checked_on[block.alpha] = threading.get_ident()
        check(block, eb)

    monkeypatch.setattr(jb, "_solve", gathered_solve)
    monkeypatch.setattr(jb, "check_eigenpairs", watched_check)
    band_eigenblocks(10, 2)
    assert solved_on == checked_on and len(solved_on) == 11
    assert len(set(solved_on.values())) == 3


def test_a_build_raises_the_lowest_block_error_of_solve_then_check(monkeypatch):
    # block 6's solve fails, and then block 2's check: a serial "solve, then
    # check" loop over k stops at block 2's check, and so does the build
    monkeypatch.setattr(jb, "thread_count", lambda: 3)
    solve, check = jb._solve, jb.check_eigenpairs
    solve_failed = threading.Event()

    def failing_solve(block):
        if block.alpha == 6:
            solve_failed.set()
            raise NumericError("solve failed")
        return solve(block)

    def failing_check(block, eb):
        if block.alpha == 2:
            assert solve_failed.wait(timeout=30)
            raise NumericError("check failed")
        check(block, eb)

    monkeypatch.setattr(jb, "_solve", failing_solve)
    monkeypatch.setattr(jb, "check_eigenpairs", failing_check)
    with pytest.raises(NumericError, match=r"^block k=2: check failed$"):
        band_eigenblocks(10, 2)


def test_without_blas_thread_control_blocks_are_solved_serially(monkeypatch):
    monkeypatch.setattr(jb, "_blas_threads", lambda: None)
    assert thread_count() == 1
    solve = jb._solve
    threads = set()

    def watched_solve(block):
        threads.add(threading.get_ident())
        return solve(block)

    monkeypatch.setattr(jb, "_solve", watched_solve)
    blocks = band_eigenblocks(10, 2)
    assert threads == {threading.get_ident()} and len(blocks) == 21


@pytest.mark.parametrize("n,m", [(12, 4), (9, 0), (3, 3)])
def test_built_blocks_hold_half_of_an_exact_mirror(n, m):
    # the kept half is the c = ceil(N / 2) largest eigenpairs, split into even
    # and odd rows; the full pair rebuilt from it is read-only, and its first
    # c columns, handed back in, are the same half bit for bit
    for eb in band_eigenblocks(n, m).values():
        size = eb.size
        c = (size + 1) // 2
        assert eb.values.shape == (c,) and eb.even.shape == (c, c)
        assert eb.offdiag.shape == (size - 1,) and eb.odd.shape == (size // 2, c)
        vals, vecs = eb.eigenvalues, eb.vectors
        assert not vals.flags.writeable and not vecs.flags.writeable
        parity = np.where(np.arange(size) % 2, -1.0, 1.0)[:, None]
        assert np.array_equal(vals[::-1][: size // 2], -vals[: size // 2])
        assert np.array_equal(vecs[:, ::-1][:, : size // 2], parity * vecs[:, : size // 2])
        again = EigenBlock(vals[:c], vecs[0::2, :c], eb.offdiag)
        assert vecs[1::2, :c].tobytes() == eb.odd.tobytes()
        for attr in ("values", "even", "odd"):
            assert getattr(again, attr).tobytes() == getattr(eb, attr).tobytes()


@pytest.mark.parametrize("n,m", [(12, 4), (9, 0), (3, 3)])
def test_a_column_built_alone_is_that_column_of_the_full_pair(n, m):
    # a basis function builds its one column of V; the block keeps nothing
    for eb in set(band_eigenblocks(n, m).values()):  # k and -k share a block
        single = [eb._columns([i])[:, 0] for i in range(eb.size)]
        assert set(vars(eb)) == {"values", "even", "offdiag"}
        for i, column in enumerate(single):
            assert column.tobytes() == np.ascontiguousarray(eb.vectors[:, i]).tobytes()


def _tridiagonal_reference(block):
    """Eigenpairs from scipy's tridiagonal solver, decreasing and signed p_0 > 0."""
    if block.size == 1:  # not left to eigh_tridiagonal at the scipy floor
        return np.zeros(1), np.ones((1, 1))
    from scipy.linalg import eigh_tridiagonal

    vals, vecs = eigh_tridiagonal(np.zeros(block.size), block.offdiag)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    # the sign at the first entry above 1e-14, with p_j(-x) = (-1)^j p_j(x)
    idx = np.argmax(np.abs(vecs) > 1e-14, axis=0)
    lead = vecs[idx, np.arange(block.size)]
    flip = (lead < 0) != ((vals < 0) & (idx % 2 == 1))
    return vals, vecs * np.where(flip, -1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(band=st.integers(0, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example(band=(0, 0))
@example(band=(1, 0))
@example(band=(2, 2))
@example(band=(3, 1))
def test_bidiagonal_svd_matches_tridiagonal_solver(band):
    # blocks of every size from 1 up, the bands above holding sizes 1-3
    n, m = band
    blocks = band_eigenblocks(n, m)
    spectra = band_spectra(n, m)
    for k, block in enumerate(_band_blocks(n, m)):
        eb = blocks[k]
        vals, vecs = _tridiagonal_reference(block)
        assert np.abs(eb.eigenvalues - vals).max() <= 1e-14
        assert np.abs(eb.vectors - vecs).max() <= 1e-12
        assert np.all(eb.vectors[0] > 0)
        assert np.abs(spectra[k] - eb.eigenvalues).max() <= 1e-14
        assert spectra[k].tobytes() == spectrum(build_block(n, m, k)).tobytes()


@settings(max_examples=40, deadline=None)
@given(band=st.integers(0, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example(band=(0, 0))
@example(band=(24, 0))
@example(band=(24, 24))
def test_vectors_from_the_even_rows_match_a_dense_eigensolve(band):
    # the full V that a block rebuilds from E alone, its odd rows derived as
    # B^T E S^-1, is the dense Jacobi matrix's eigenvector matrix, signed by
    # p_0 > 0 (for n <= 24 no first entry is near underflow)
    n, m = band
    blocks = band_eigenblocks(n, m)
    for k, block in enumerate(_band_blocks(n, m)):
        eb = blocks[k]
        jacobi = np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
        vals, vecs = np.linalg.eigh(jacobi)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        vecs = vecs * np.where(vecs[0] < 0, -1.0, 1.0)
        assert np.abs(vecs[0]).min() > 1e-8
        assert np.abs(eb.eigenvalues - vals).max() <= 1e-13
        assert np.abs(eb.vectors - vecs).max() <= 1e-13


def test_check_rejects_a_changed_middle_column_by_its_odd_residual():
    # the s = 0 column of an odd block has no odd rows, O' sets them to 0,
    # so its residual B^T e is the one odd residual the check still takes:
    # E's middle column turned toward a paired column fails there, before
    # the orthogonality condition, whatever the angle
    blk = build_block(12, 4, 8)  # N = 5: c = 3, the middle column is 2
    eb = eigendecompose(blk)
    assert eb.values[2] == 0.0 and not eb.odd[:, 2].any()
    for angle in (1e-6, 1e-3, 0.3):
        even = eb.even.copy()
        even[:, 2] = np.cos(angle) * eb.even[:, 2] + np.sin(angle) * np.sqrt(2.0) * eb.even[:, 1]
        assert abs(np.linalg.norm(even[:, 2]) - 1.0) < 1e-15
        with pytest.raises(NumericError, match="eigenpair residual"):
            check_eigenpairs(blk, replace(eb, even=even))


def test_check_rejects_eigendata_of_another_off_diagonal():
    # a block's eigendata carries its off-diagonal, which gives the odd
    # rows; one that is not the block's is refused before any condition
    blk = build_block(12, 4, 8)
    eb = eigendecompose(blk)
    assert eb.offdiag is blk.offdiag
    check_eigenpairs(blk, replace(eb, offdiag=blk.offdiag.copy()))
    for offdiag in (blk.offdiag * (1 + 1e-15), build_block(12, 4, 7).offdiag[:4]):
        with pytest.raises(NumericError, match="off-diagonal that is not the block's"):
            check_eigenpairs(blk, replace(eb, offdiag=offdiag))
