"""Command-line interface: plans, transforms, filtering, reports, benchmarks.

A command checks its arguments, computes, then prints; a report's text and
``--json`` forms print one payload.  Every command holds OpenBLAS at one
thread: at its default threads an isolated level-1 call, such as a printed
norm, wakes its pool (about 15 ms at (256, 0)).  So ``bench`` times at one
thread too.

Exit codes: 0 success, 2 usage, 3 malformed file, 4 numeric-contract
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .approximation import (
    EigenvalueWindow,
    SpectralSummary,
    chebyshev_bound,
    filter_coeffs,
    markov_bound,
)
from .errors import FormatError, NumericError
from .jacobi_blocks import _one_blas_thread, build_block, eigendecompose
from .sphere_basis import (
    BandParams,
    HarmonicCoeffs,
    LocalizedCoeffs,
    SphereGrid,
    _write_rows,
    evaluate_basis_on_grid,
    evaluate_on_grid,
    load_coeffs,
    mean_value,
    save_coeffs,
)
from .transform import (
    TransformPlan,
    _check_match,
    analyze,
    dense_op_count,
    load_plan,
    save_plan,
    synthesize,
)

_WINDOW_HELP = (
    "window grammar: intervals '[x,y]' (closed) or '(x,y)' (open), mixed "
    "brackets allowed, joined by 'u'; whitespace ignored. "
    "Example: \"[-1,-0.6]u[-0.2,0.2]u[0.6,1]\""
)


# ---------------------------------------------------------------------------
# benchmark helpers (importable; the bench subcommand prints them)


def time_call(fn) -> float:
    """Best average seconds per call over several timed batches.

    Batch length adapts until a batch lasts at least 1 ms.  Batches then
    repeat at least 3 times and until 0.2 s has been timed in all; the
    minimum discards scheduler noise, whose phases last up to a few hundred
    milliseconds on a shared host.
    """
    fn()  # warm up
    n_iter = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n_iter):
            fn()
        dt = time.perf_counter() - t0
        if dt >= 1e-3:
            break
        n_iter *= 4
    best, spent, batches = dt / n_iter, dt, 1
    while batches < 3 or spent < 0.2:
        t0 = time.perf_counter()
        for _ in range(n_iter):
            fn()
        dt = time.perf_counter() - t0
        best = min(best, dt / n_iter)
        spent += dt
        batches += 1
    return best


def _log_sizes(sizes) -> np.ndarray:
    """log(sizes); ValueError unless they are positive and two or more distinct."""
    if len(set(sizes)) < 2 or min(sizes) <= 0:
        raise ValueError(f"a log-log fit needs two or more distinct positive sizes, not {sizes}")
    return np.log(np.asarray(sizes, float))


def fit_loglog(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size); see :func:`_log_sizes`."""
    return float(np.polyfit(_log_sizes(sizes), np.log(times), 1)[0])


def bench_dense_band(n: int, m: int) -> tuple[float, int]:
    """Seconds per dense analysis of the full band, on a built plan.

    The band's plan is built before timing starts, so its eigensolves are
    excluded.  The timed call is :func:`analyze` itself: one real product
    with E per |k| on the stacked real and imaginary parts of blocks +k and
    -k.  The operation count is the closed form sum_k (2 N_k - 1) N_k of a
    product with all of each V, a dense-equivalent count: the kernel
    performs about half of it.
    """
    plan = TransformPlan.build(n, m)
    c = HarmonicCoeffs.random_unit(plan.params, np.random.default_rng(0))
    return time_call(lambda: analyze(plan, c)), dense_op_count(n, m)


def bench_fast_block(size: int) -> float:
    """Seconds per fast pipeline application for one block of the given size.

    Uses the deepest (alpha = 0) family: nodes and scaling come straight
    from the Gauss-Legendre rule of matching order.  ``_fastcheb`` is
    imported here, so the import stays out of every other CLI call.
    """
    from . import _fastcheb as fc

    rng = np.random.default_rng(0)
    nodes, weights = np.polynomial.legendre.leggauss(size)
    theta = np.arccos(nodes[::-1].copy())
    kappa = np.sqrt(weights[::-1] / 2.0)
    cascade = fc.build_cascade(0, size)
    ndct = fc.build_ndct(theta, size)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def pipeline():
        cheb = fc.apply_cascade(cascade, c)
        return kappa * fc.apply_ndct(ndct, cheb)

    return time_call(pipeline)


# ---------------------------------------------------------------------------
# subcommands


def _load(path, cls):
    """Coefficients read from ``path``; FormatError unless they are a ``cls``."""
    coeffs = load_coeffs(path)
    if not isinstance(coeffs, cls):
        raise FormatError(f"{path}: expected kind={cls.kind} coefficients")
    return coeffs


def cmd_plan(args) -> int:
    out = Path(args.out)
    if out.exists():
        plan = load_plan(out)
        if (plan.params.n, plan.params.m) != (args.n, args.m):
            raise FormatError(
                f"{out}: existing cache is for n={plan.params.n} m={plan.params.m}"
            )
        print(f"verified existing plan cache {out}")
    else:
        plan = TransformPlan.build(args.n, args.m)
        save_plan(out, plan)
        print(f"wrote plan cache {out}")
    params = plan.params
    sizes = " ".join(str(params.block_size(k)) for k in params.orders())
    print(f"n={params.n} m={params.m} dimension={params.dimension}")
    print(f"block sizes (k = {params.n} .. {-params.n}): {sizes}")
    return 0


def cmd_transform(args) -> int:
    """``analyze`` (harmonic to localized) or ``synthesize`` (back), by subcommand."""
    analyzing = args.subcommand == "analyze"
    plan = load_plan(args.plan)
    coeffs = _load(args.input, HarmonicCoeffs if analyzing else LocalizedCoeffs)
    result = (analyze if analyzing else synthesize)(plan, coeffs)
    save_coeffs(args.out, result)
    print(f"{args.subcommand}d {args.input} -> {args.out} (norm {result.norm():.12g})")
    return 0


def cmd_filter(args) -> int:
    plan = load_plan(args.plan)
    coeffs = _load(args.input, HarmonicCoeffs)
    window = EigenvalueWindow.from_string(args.window)
    kept, removed = filter_coeffs(plan, coeffs, window)
    save_coeffs(args.out_kept, kept)
    save_coeffs(args.out_removed, removed)
    print(f"window: {window}")
    print(f"|kept|^2 = {kept.norm() ** 2:.15g}")
    print(f"|removed|^2 = {removed.norm() ** 2:.15g}")
    print(f"|input|^2 = {coeffs.norm() ** 2:.15g}")
    print(f"mean(kept) = {mean_value(kept):.12g}")
    print(f"mean(removed) = {mean_value(removed):.12g}")
    if abs(coeffs.norm() - 1.0) <= 1e-10:
        tail = window.tail_shape()
        centered = window.centered_shape()
        if tail is not None:
            bound, actual = markov_bound(plan, coeffs, tail[1], tail[0])
            print(f"{tail[0]}-tail bound: residual {actual:.6g} <= {bound:.6g}")
        elif centered is not None and abs(centered[0] - mean_value(coeffs)) <= 1e-9:
            bound, actual = chebyshev_bound(plan, coeffs, centered[1])
            print(f"centered bound: residual {actual:.6g} <= {bound:.6g}")
    return 0


def cmd_spectrum(args) -> int:
    plan = load_plan(args.plan)
    summary = SpectralSummary.from_plan(plan)
    n_vals = len(summary.eigenvalues)
    payload = {
        "n": plan.params.n,
        "m": plan.params.m,
        "dimension": plan.params.dimension,
        "count": n_vals,
        "sum_x": summary.moment(1),
        "mean_x2": summary.moment(2) / n_vals,
        "min": float(summary.eigenvalues.min()),
        "max": float(summary.eigenvalues.max()),
        "fraction_in_0_0.5": summary.counting(0.0, 0.5),
        "moments": [float(v) for v in summary.moments],
        "histogram_counts": [int(c) for c in summary.hist_counts],
        "histogram_edges": [float(e) for e in summary.hist_edges],
    }
    lines = (f"{key} = {value}" for key, value in payload.items() if not isinstance(value, list))
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0


def cmd_grid(args) -> int:
    if (args.psi is None) == (args.input is None):
        raise ValueError("grid takes exactly one of --in coefficients or --psi K I")
    plan = load_plan(args.plan)
    params = plan.params
    grid = SphereGrid.for_degree(params.n, theta_res=args.theta_res, phi_res=args.phi_res)
    if args.psi is not None:
        k, i = args.psi
        field = evaluate_basis_on_grid(params, plan.blocks, k, i, grid)
    else:
        coeffs = _load(args.input, HarmonicCoeffs)
        _check_match(plan, coeffs, HarmonicCoeffs)  # the grid is exact to degree n only
        field = evaluate_on_grid(coeffs, grid)
    p, q = grid.shape
    columns = (
        np.repeat(grid.theta, q),
        np.tile(grid.phi, p),
        field.real.ravel(),
        field.imag.ravel(),
    )
    _write_rows(args.out, "theta,phi,re,im", "%.17g,%.17g,%.17g,%.17g\n", columns)
    print(f"wrote {p}x{q} grid to {args.out}")
    return 0


def cmd_bench(args) -> int:
    sizes, ns = ([int(s) for s in a.split(",")] if a else [] for a in (args.blocks, args.n_list))
    if not sizes and not ns:
        raise ValueError("bench needs --n-list and/or --blocks")
    # every size is refused or accepted before anything is timed
    for fitted in (sizes, ns):
        if len(fitted) > 1:
            _log_sizes(fitted)
    if any(sz < 2 for sz in sizes):
        raise ValueError("cascade needs at least two coefficients")
    for n in ns:
        BandParams(n, args.m)
    times = [bench_fast_block(sz) for sz in sizes]
    dense = [bench_dense_band(n, args.m) for n in ns]
    payload: dict = {}
    if sizes:
        payload.update(block_sizes=sizes, block_seconds=times)
        if len(sizes) > 1:
            payload["block_exponent"] = fit_loglog(sizes, times)
    if ns:
        dense_t, ops = map(list, zip(*dense))
        payload.update(n_list=ns, m=args.m, dense_seconds=dense_t, dense_ops=ops)
        if len(ns) > 1:
            payload["dense_exponent"] = fit_loglog(ns, dense_t)
    lines = [f"fast block N={sz:6d}: {t * 1e3:10.4f} ms" for sz, t in zip(sizes, times)]
    if "block_exponent" in payload:
        lines.append(f"fast per-block exponent: {payload['block_exponent']:.3f}")
    lines += [f"dense n={n:4d}: {t * 1e3:10.4f} ms  ops={op}" for n, (t, op) in zip(ns, dense)]
    if "dense_exponent" in payload:
        lines.append(f"dense exponent: {payload['dense_exponent']:.3f}")
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0


def _selftest_checks():
    import math

    from .sphere_basis import embed_block
    from .ultraspherical import (
        UltrasphericalFamily,
        christoffel_darboux_closed,
        christoffel_darboux_sum,
        recurrence_coefficient,
    )

    rng = np.random.default_rng(1234)

    def require(ok) -> None:
        # raised, not asserted: python -O strips assert statements
        if not ok:
            raise AssertionError

    def check_recurrence():
        require(abs(recurrence_coefficient(0, 0) - 1.0) < 1e-15)
        require(abs(recurrence_coefficient(0, 1) - 1.0 / math.sqrt(3)) < 1e-15)
        require(abs(recurrence_coefficient(16, 1) - 1.0 / math.sqrt(35)) < 1e-15)

    def check_eigen():
        eb = eigendecompose(build_block(2, 0, 1))
        target = recurrence_coefficient(1, 1)
        require(np.allclose(np.abs(eb.eigenvalues), target))

    def check_cd_identity():
        fam = UltrasphericalFamily.build(1, 16)
        direct = christoffel_darboux_sum(fam, 3, 6, 0.2, 0.8)
        closed = christoffel_darboux_closed(fam, 3, 6, 0.2, 0.8)
        require(abs(direct - closed) <= 1e-10 * max(1.0, abs(direct)))

    def check_roundtrip():
        plan = TransformPlan.build(12, 3)
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        back = synthesize(plan, analyze(plan, c))
        require(np.abs(back.values - c.values).max() < 1e-12)

    def check_parseval():
        plan = TransformPlan.build(10, 0)
        c = HarmonicCoeffs.random_unit(plan.params, rng)
        require(abs(analyze(plan, c).norm() - 1.0) < 1e-12)

    def check_bounds():
        plan = TransformPlan.build(8, 0)
        for _ in range(25):
            c = HarmonicCoeffs.random_unit(plan.params, rng)
            bound, actual = markov_bound(plan, c, 0.5, "upper")
            require(actual <= bound + 1e-12)
            bound, actual = chebyshev_bound(plan, c, 0.4)
            require(actual <= bound + 1e-12)

    def check_eigenbasis():
        plan = TransformPlan.build(6, 2)
        eb = plan.blocks[3]
        c = embed_block(plan.params, 3, eb.vectors[:, 0])
        d = analyze(plan, c)
        idx = d.index_of(3, 1)
        ref = np.zeros(plan.params.dimension)
        ref[idx] = 1.0
        require(np.abs(d.values - ref).max() < 1e-12)

    def check_mean_value():
        params = BandParams(4, 0)
        c = HarmonicCoeffs.from_blocks(
            params, {0: np.array([1.0, 1.0, 0, 0, 0]) / np.sqrt(2)}
        )
        require(abs(mean_value(c) - 1.0 / math.sqrt(3)) < 1e-14)

    return [
        ("recurrence coefficients", check_recurrence),
        ("two-by-two eigenvalues", check_eigen),
        ("kernel identity", check_cd_identity),
        ("transform round trip", check_roundtrip),
        ("norm preservation", check_parseval),
        ("window bounds", check_bounds),
        ("eigenbasis delta", check_eigenbasis),
        ("mean value quadratic form", check_mean_value),
    ]


def cmd_selftest(args) -> int:
    checks = _selftest_checks()
    passed = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and count
            print(f"FAIL {name}: {exc}")
        else:
            passed += 1
            print(f"ok   {name}")
    print(f"selftest passed {passed}/{len(checks)}")
    return 0 if passed == len(checks) else 4


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelok",
        description="Localized bases for band-limited functions on the sphere.",
        epilog=_WINDOW_HELP,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("plan", help="build or verify a plan cache")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    for name in ("analyze", "synthesize"):
        p = sub.add_parser(name, help=f"{name} coefficients through a plan")
        p.add_argument("--plan", required=True)
        p.add_argument("--in", dest="input", required=True)
        p.add_argument("--out", required=True)
        if name == "analyze":
            p.add_argument(
                "--mode",
                choices=("dense", "fast"),
                default="dense",
                help="accepted for compatibility: both values run the same pass",
            )
        p.set_defaults(func=cmd_transform)

    p = sub.add_parser("filter", help="split by an eigenvalue window")
    p.add_argument("--plan", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--window", required=True, help=_WINDOW_HELP)
    p.add_argument("--out-kept", required=True)
    p.add_argument("--out-removed", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("spectrum", help="eigenvalue-distribution report")
    p.add_argument("--plan", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("grid", help="export samples on a latitude/longitude grid")
    p.add_argument("--plan", required=True)
    p.add_argument("--in", dest="input")
    p.add_argument(
        "--psi",
        nargs=2,
        type=int,
        metavar=("K", "I"),
        help="export one basis function (order K, index I)",
    )
    p.add_argument("--theta-res", type=int)
    p.add_argument("--phi-res", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bench", help="timing and scaling report")
    p.add_argument("--n-list", help="comma-separated band limits for full bands")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--blocks", help="comma-separated sizes for per-block timing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run built-in invariant checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
