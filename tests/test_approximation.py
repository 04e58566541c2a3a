import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spherelok as sl
from spherelok.approximation import (
    EigenvalueWindow,
    Interval,
    SpectralSummary,
    chebyshev_bound,
    coefficient_variance,
    filter_coeffs,
    localization_variance,
    markov_bound,
    moment_deviation_bound,
)
from spherelok import transform
from spherelok.sphere_basis import HarmonicCoeffs, LocalizedCoeffs, embed_block
from spherelok.transform import analyze, synthesize


def test_interval_endpoint_semantics():
    closed = Interval(-0.5, 0.5, True, True)
    opened = Interval(-0.5, 0.5, False, False)
    xs = np.array([-0.5, 0.0, 0.5, 0.7])
    assert list(closed.mask(xs)) == [True, True, True, False]
    assert list(opened.mask(xs)) == [False, True, False, False]
    with pytest.raises(ValueError):
        Interval(0.5, 0.5, True, True)


def test_window_parsing():
    w = EigenvalueWindow.from_string("[-1,-0.6] u [-0.2,0.2] u [0.6,1]")
    assert len(w.intervals) == 3
    assert w.contains(-1.0) and w.contains(0.2) and w.contains(1.0)
    assert not w.contains(0.4)

    mixed = EigenvalueWindow.from_string("[-1,-0.4)")
    assert mixed.contains(-1.0) and not mixed.contains(-0.4)
    assert mixed.tail_shape() == ("lower", pytest.approx(0.6))

    upper = EigenvalueWindow.from_string("(0.4,1]")
    assert upper.tail_shape() == ("upper", pytest.approx(0.6))

    centered = EigenvalueWindow.from_string("(0.1,0.5)")
    assert centered.centered_shape() == (pytest.approx(0.3), pytest.approx(0.2))
    assert centered.tail_shape() is None

    for bad in ("", "[1,2]", "[0.1,0.2", "[0.2,0.1]", "[a,b]", "0.1,0.2"):
        with pytest.raises(ValueError):
            EigenvalueWindow.from_string(bad)


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def _window_specs(draw):
    """A window string of 1-4 intervals and its (lo, hi, lo_closed, hi_closed) list."""
    parts, intervals = [], []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
        assume(lo < hi)
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        tokens = ["[" if lo_closed else "(", "%.17g" % lo, ",", "%.17g" % hi]
        tokens.append("]" if hi_closed else ")")
        parts.append("".join(draw(_SPACE) + t for t in tokens) + draw(_SPACE))
        intervals.append((lo, hi, lo_closed, hi_closed))
    joiners = [draw(st.sampled_from("uU")) for _ in parts[1:]]
    spec = parts[0] + "".join(j + part for j, part in zip(joiners, parts[1:]))
    return spec, intervals


def _reference_mask(intervals, xs):
    def inside(x, lo, hi, lo_closed, hi_closed):
        left = lo < x or (lo_closed and x == lo)
        return left and (x < hi or (hi_closed and x == hi))

    return np.array([any(inside(x, *iv) for iv in intervals) for x in xs])


@settings(max_examples=100, deadline=None)
@given(case=_window_specs())
def test_window_mask_matches_reference_at_endpoints(case):
    spec, intervals = case
    window = EigenvalueWindow.from_string(spec)
    ends = np.array([x for iv in intervals for x in iv[:2]])
    xs = np.concatenate([ends, np.nextafter(ends, -2.0), np.nextafter(ends, 2.0)])
    assert np.array_equal(window.mask(xs), _reference_mask(intervals, xs))


@settings(max_examples=100, deadline=None)
@given(case=_window_specs(), data=st.data())
def test_window_without_a_bracket_comma_or_joiner_is_rejected(case, data):
    spec, _ = case
    where = [i for i, ch in enumerate(spec) if ch in "[]()uU,"]
    cut = data.draw(st.sampled_from(where))
    with pytest.raises(ValueError):
        EigenvalueWindow.from_string(spec[:cut] + spec[cut + 1 :])


@settings(max_examples=150, deadline=None)
@given(case=_window_specs(), data=st.data())
def test_mutated_window_parses_or_raises_value_error(case, data):
    spec, _ = case
    start = data.draw(st.integers(0, len(spec)))
    stop = data.draw(st.integers(start, min(start + 3, len(spec))))
    noise = data.draw(st.text("[]()uU,.-+e0123456789 naif\u0663", max_size=3))
    try:
        window = EigenvalueWindow.from_string(spec[:start] + noise + spec[stop:])
    except ValueError:
        return
    assert all(-1.0 <= iv.lo < iv.hi <= 1.0 for iv in window.intervals)


def test_window_factories_match_strings():
    assert EigenvalueWindow.lower_tail(0.4).tail_shape() == (
        "lower",
        pytest.approx(0.4),
    )
    assert EigenvalueWindow.upper_tail(0.25).tail_shape() == (
        "upper",
        pytest.approx(0.25),
    )
    w = EigenvalueWindow.centered(0.9, 0.5)  # clipped at the top
    assert w.contains(1.0) and not w.contains(0.4)
    with pytest.raises(ValueError):
        EigenvalueWindow.lower_tail(0.0)
    for make in (EigenvalueWindow.lower_tail, EigenvalueWindow.upper_tail):
        with pytest.raises(ValueError, match="tail width must be positive"):
            make(math.nan)
    with pytest.raises(ValueError, match="half-width must be positive"):
        EigenvalueWindow.centered(0.0, math.nan)


def test_filter_full_window_keeps_everything(plan_cache, rng):
    plan = plan_cache(16, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    kept, removed = filter_coeffs(plan, c, EigenvalueWindow.from_string("[-1,1]"))
    assert np.abs(kept.values - c.values).max() < 1e-13
    assert np.abs(removed.values).max() == 0.0


def test_filter_reconstruction_and_energy(plan_cache, rng):
    plan = plan_cache(16, 3)
    window = EigenvalueWindow.from_string("[-0.3,0.41)u(0.7,1]")
    for _ in range(5):
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        kept, removed = filter_coeffs(plan, c, window)
        assert np.abs(kept.values + removed.values - c.values).max() < 1e-13
        assert kept.norm() ** 2 + removed.norm() ** 2 == pytest.approx(
            c.norm() ** 2, abs=1e-12
        )


def test_filter_parts_are_syntheses_of_the_masked_analysis(plan_cache, rng, monkeypatch):
    # one analysis of the field and one synthesis per part, counted where
    # each spherelok module binds the public name, as a tracer wraps them
    plan = plan_cache(16, 3)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    window = EigenvalueWindow.from_string("[-0.3,0.41)u(0.7,1]")
    calls = Counter()
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "spherelok"]
    for fn in (analyze, synthesize):

        def counted(*args, fn=fn):
            calls[fn.__name__] += 1
            return fn(*args)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, counted)
    kept, removed = filter_coeffs(plan, c, window)
    assert calls == {"analyze": 1, "synthesize": 2}
    monkeypatch.undo()
    d = transform._shared_analysis(plan, c)
    inside = window.mask(plan.eigenvalue_vector())
    for part, where in ((kept, inside), (removed, ~inside)):
        want = synthesize(plan, LocalizedCoeffs(plan.params, np.where(where, d, 0)))
        assert part.values.tobytes() == want.values.tobytes()


def test_filter_keeps_pure_eigenfunction(plan_cache):
    plan = plan_cache(16, 0)
    x01 = plan.blocks[0].eigenvalues[0]
    c = embed_block(plan.params, 0, plan.blocks[0].vectors[:, 0])
    window = EigenvalueWindow.centered(x01, 1e-6)
    kept, removed = filter_coeffs(plan, c, window)
    assert np.abs(kept.values - c.values).max() < 1e-13
    assert removed.norm() < 1e-13


def test_markov_bound_eigenfunction_tail(plan_cache):
    plan = plan_cache(16, 0)
    c = embed_block(plan.params, 0, plan.blocks[0].vectors[:, 0])
    x01 = plan.blocks[0].eigenvalues[0]
    a = 1.0 - x01 + 0.01  # window (1-a, 1] contains the eigenvalue
    bound, actual = markov_bound(plan, c, a, "upper")
    assert actual <= 1e-20
    assert bound >= 0.0


def test_markov_bound_south_pole(plan_cache):
    # a south-pole concentrated input has mean near -1, so the lower-tail
    # bound itself is tiny and pins the residual near zero
    plan = plan_cache(16, 0)
    eb = plan.blocks[0]
    c = embed_block(plan.params, 0, eb.vectors[:, -1])
    x_min = eb.eigenvalues[-1]
    bound, actual = markov_bound(plan, c, 0.5, "lower")
    assert bound == pytest.approx((1.0 + x_min) / 0.5, rel=1e-10)
    assert bound < 0.02
    assert actual <= bound + 1e-12
    assert actual < 1e-20


def test_markov_bound_random_inputs(plan_cache, rng):
    plan = plan_cache(16, 0)
    for _ in range(100):
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        bound, actual = markov_bound(plan, c, 0.5, "lower")
        assert actual <= bound + 1e-12
        bound, actual = markov_bound(plan, c, 0.5, "upper")
        assert actual <= bound + 1e-12


def test_markov_bound_validates_input(plan_cache, rng):
    plan = plan_cache(16, 0)
    c = HarmonicCoeffs.random_unit(plan.params, rng)
    with pytest.raises(ValueError):
        markov_bound(plan, c, -1.0, "lower")
    with pytest.raises(ValueError):
        markov_bound(plan, c, 0.5, "sideways")
    big = HarmonicCoeffs(plan.params, 2.0 * c.values)
    with pytest.raises(ValueError):
        markov_bound(plan, big, 0.5, "lower")
    # NaN fails every check, with the message of the check it fails
    nan_field = HarmonicCoeffs(plan.params, np.full_like(c.values, np.nan))
    for bound in (lambda *a: markov_bound(*a, "upper"), chebyshev_bound):
        with pytest.raises(ValueError, match="a must be positive"):
            bound(plan, c, math.nan)
        with pytest.raises(ValueError, match="input must be unit norm, got nan"):
            bound(plan, nan_field, 0.5)
    with pytest.raises(ValueError, match="a must be positive"):
        chebyshev_bound(plan, c, -1.0)


def test_chebyshev_bound_pure_eigenfunction(plan_cache):
    plan = plan_cache(16, 0)
    c = embed_block(plan.params, 3, plan.blocks[3].vectors[:, 2])
    assert coefficient_variance(plan, c) == pytest.approx(0.0, abs=1e-14)
    bound, actual = chebyshev_bound(plan, c, 0.2)
    assert bound <= 1e-12 and actual <= 1e-12


def test_chebyshev_bound_two_point_mixture(plan_cache):
    plan = plan_cache(16, 0)
    eb = plan.blocks[0]
    x1, x2 = eb.eigenvalues[0], eb.eigenvalues[5]
    mix = (eb.vectors[:, 0] + eb.vectors[:, 5]) / math.sqrt(2)
    c = embed_block(plan.params, 0, mix)
    var = coefficient_variance(plan, c)
    assert var == pytest.approx((x1 - x2) ** 2 / 4, rel=1e-12)
    bound, actual = chebyshev_bound(plan, c, 2 * math.sqrt(var))
    assert bound == pytest.approx(0.25, rel=1e-10)
    assert actual <= bound + 1e-12


def test_chebyshev_bound_random_inputs(plan_cache, rng):
    plan = plan_cache(16, 0)
    for _ in range(100):
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        var = coefficient_variance(plan, c)
        a = 2.0 * math.sqrt(var)
        bound, actual = chebyshev_bound(plan, c, a)
        assert actual <= bound + 1e-12
        assert bound == pytest.approx(0.25, rel=1e-9)


def test_variance_forms_agree(plan_cache, rng):
    plan = plan_cache(16, 3)
    xs = plan.eigenvalue_vector()
    for _ in range(10):
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        d = analyze(plan, c)
        w = np.abs(d.values) ** 2
        eps = float(np.sum(w * xs))
        expanded = float(np.sum(w * (xs**2 - eps**2)))
        assert coefficient_variance(plan, c) == pytest.approx(expanded, abs=1e-12)


def test_localization_variance_values(plan_cache):
    plan = plan_cache(32, 0)
    c = embed_block(plan.params, 0, plan.blocks[0].vectors[:, 0])
    x01 = plan.blocks[0].eigenvalues[0]
    lv = localization_variance(c)
    assert lv == pytest.approx((1 - x01**2) / x01**2, rel=1e-12)
    # headline number quoted at four-decimal eigenvalue precision
    assert lv == pytest.approx(0.005222, abs=1e-4)

    single = embed_block(plan.params, 4, np.eye(plan.params.block_size(4))[:, 0])
    assert localization_variance(single) == math.inf


def test_spectral_summary_invariants(plan_cache):
    plan = plan_cache(16, 3)
    summary = SpectralSummary.from_plan(plan)
    dim = plan.params.dimension
    assert len(summary.eigenvalues) == dim
    assert abs(summary.moment(1)) <= 1e-10 * dim
    assert summary.counting(-1.0, 1.0) == 1.0
    assert summary.hist_counts.sum() == dim
    assert summary.moment(0) == pytest.approx(dim)
    for j in (-1, -9, SpectralSummary.MAX_MOMENT + 1):  # -1 and -9 used to wrap around
        with pytest.raises(ValueError, match=f"moment order {j} outside 0..8"):
            summary.moment(j)
    assert np.array_equal(summary.eigenvalues, plan.eigenvalue_vector())
    by_band = SpectralSummary.from_band(16, 3)
    assert by_band.eigenvalues == pytest.approx(summary.eigenvalues, abs=1e-12)
    p = plan.params
    for each in (summary, by_band):
        for k in p.orders():
            rows = p.block_slice(k)
            assert (each.orders[rows] == k).all()
            assert np.array_equal(each.indices[rows], np.arange(1, p.block_size(k) + 1))


def test_moment_bound_is_positive_and_holds():
    for n, m in ((16, 0), (20, 5), (64, 0)):
        bound = moment_deviation_bound(2, n, m)
        assert bound > 0
        summary = SpectralSummary.from_band(n, m)
        dim = summary.params.dimension
        assert abs(summary.moment(2) / dim - 1.0 / 3.0) <= bound


def test_moment_bound_rejects_invalid_band():
    for n, m in ((3, 5), (3, 4)):
        with pytest.raises(ValueError, match="0 <= m <= n"):
            moment_deviation_bound(2, n, m)


def test_weak_limit_trend_toward_uniform():
    # deviation of the counting fraction from 1/4 shrinks with the band limit
    devs = []
    for n in (64, 128, 256):
        summary = SpectralSummary.from_band(n, 0)
        devs.append(abs(summary.counting(0.0, 0.5) - 0.25))
    assert devs[1] <= devs[0] + 0.005
    assert devs[2] <= devs[1] + 0.005


def test_trace_identity_by_quadrature():
    # sum over the harmonic basis of <cos^2 f, f> equals dimension / 3
    n, m = 8, 0
    p = sl.BandParams(n, m)
    grid = sl.SphereGrid.for_degree(n + 1)
    w2 = grid.theta_weights * grid.x**2 / 2.0
    total = 0.0
    for k in p.orders():
        table = sl.radial_table(p, k, grid.theta)
        total += float(np.sum(w2 @ table**2))
    assert total == pytest.approx(p.dimension / 3.0, abs=1e-9)
