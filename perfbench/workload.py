"""One workload process: set-up, a closed loop of timed ops, output checks.

Started by `run.py` with the checkout's `src` on PYTHONPATH.  Writes one
JSON result to `--out`; `run.py` turns it into the benchmark's output line.

Workloads (an *op* is defined per workload; one client, closed loop):

* stream-256  in-process at band (256, 0), plan built with mode="fast".  One
  op puts a seeded random unit field through analyze, analyze_fast,
  synthesize, filter_coeffs, markov_bound (both tails) and chebyshev_bound.
* cli-256     one `python -m spherelok.cli` process per op, rotating
  analyze, analyze --mode fast, synthesize, filter (Markov path) and
  spectrum --json at band (256, 0), then grid --in (a seeded unit field) and
  grid --psi K I (a seeded basis function) at band (128, 16), whose
  truncated blocks (|k| <= m) the (256, 0) calls do not reach.  Set-up
  writes both plan caches with `plan`.

Every output is checked outside the timer against the README's contracts;
a failed check counts the op as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spherelok as sl
from tracing import SETUP, Tracer, layer_metrics, op_span_stats, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # fresh-process set-ups per run; setup_s is their median

STREAM_WINDOW = "[-1,-0.6]u[-0.2,0.2]u[0.6,1]"
MARKOV_A = 0.4
CHEBYSHEV_A = 0.3
CLI_FILTER_WINDOW = "(0.6,1]"  # an upper tail, so `filter` also runs markov_bound
# The CLI prints the Markov bound with 6 significant digits; a printed value
# is within half a unit in its last digit of the exact one.
PRINTED_REL_TOL = 6e-6
# The rows of a traced CLI call's breakdown must account for its wall time to
# within this many seconds; the rest is interpreter exit (about 0.1 s with
# numpy and scipy loaded on a 2-core x86 machine) and the runner's span dump.
CLI_TABLE_TOLERANCE_S = 0.25


def rel_diff(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / max(np.linalg.norm(ref), 1e-300))


def failed_if(bad: bool, message: str) -> str | None:
    return message if bad else None


class StreamWorkload:
    """In-process transform, filter and bounds on one random unit field per op."""

    def __init__(self, seed: int, tiny: bool):
        self.n, self.m = (16, 0) if tiny else (256, 0)
        self.seed, self.rng = seed, np.random.default_rng([seed, 0])
        self.window = sl.EigenvalueWindow.from_string(STREAM_WINDOW)

    def build(self):
        self.plan = sl.TransformPlan.build(self.n, self.m, mode="fast")

    def unit(self, op_id):
        c = sl.HarmonicCoeffs.random_unit(self.plan.params, self.rng)
        return [(op_id, lambda: self.op(c), self.check)]

    def op(self, c):
        plan = self.plan
        d = sl.analyze(plan, c)
        d_fast = sl.analyze_fast(plan, c)
        back = sl.synthesize(plan, d)
        kept, removed = sl.filter_coeffs(plan, c, self.window)
        bounds = [
            sl.markov_bound(plan, c, MARKOV_A, "lower"),
            sl.markov_bound(plan, c, MARKOV_A, "upper"),
            sl.chebyshev_bound(plan, c, CHEBYSHEV_A),
        ]
        return c, d, d_fast, back, kept, removed, bounds

    def check(self, out):
        c, d, d_fast, back, kept, removed, bounds = out
        errors = [
            failed_if(rel_diff(back.values, c.values) > 1e-12, "round trip > 1e-12"),
            failed_if(rel_diff(d_fast.values, d.values) > 1e-8, "analyze_fast vs analyze > 1e-8"),
            failed_if(
                abs(kept.norm() ** 2 + removed.norm() ** 2 - c.norm() ** 2) > 1e-12,
                "filter energy split > 1e-12",
            ),
        ]
        errors += [
            failed_if(not actual <= bound + 1e-12, f"bound {i} violated: {actual} > {bound}")
            for i, (bound, actual) in enumerate(bounds)
        ]
        return "; ".join(e for e in errors if e) or None


class CliWorkload:
    """Client that runs one CLI process per op and checks its output files."""

    ROTATION = ("analyze", "analyze-fast", "synthesize", "filter", "spectrum", "grid", "grid-psi")

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.n, self.m = (16, 0) if tiny else (256, 0)
        self.grid_n, self.grid_m = (16, 4) if tiny else (128, 16)  # band of the grid calls
        self.seed, self.rng = seed, np.random.default_rng([seed, 0])
        self.work = work
        self.plan_path = work / "plan.bin"
        self.grid_plan_path = work / "grid-plan.bin"
        self.tracer: Tracer | None = None  # set: ops run through the traced runner
        self.peak_rss_mb = 0.0
        self.coeff_bytes: dict[int, int] = {}
        self.table = None  # breakdown of the first traced `analyze` call
        self.interpreter_start: dict = {}  # op -> seconds from spawn to the runner's first line

    def spawn(self, args, op, stdout=None):
        """Run one CLI process; returns (exit code, wall seconds)."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "spherelok.cli", *args]
        else:
            spans = self.work / f"spans-{op}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
        with open(stdout or os.devnull, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if self.tracer is not None and proc.returncode == 0:
            dumped = json.loads(spans.read_text())
            self.tracer.merge(dumped, op)
            self.interpreter_start[op] = dumped["started"] - t0
        return proc.returncode, wall

    def setup_once(self) -> float:
        """Both plan caches written by `plan`, then one untimed warm-up op."""
        t_plan = 0.0
        for n, m, path in ((self.n, self.m, self.plan_path),
                           (self.grid_n, self.grid_m, self.grid_plan_path)):
            path.unlink(missing_ok=True)
            rc_plan, t = self.spawn(["plan", "--n", str(n), "--m", str(m), "--out", str(path)], SETUP)
            if rc_plan:
                raise RuntimeError(f"cli set-up failed: plan ({n}, {m}) exit {rc_plan}")
            t_plan += t
        _, run, check = self.unit(SETUP)[0]
        result = run()
        err = check(result)
        if err:
            raise RuntimeError(f"cli set-up failed: warm-up {err}")
        return t_plan + result[1]

    def build(self):
        """Client-side reference plans; not part of the measured set-up."""
        self.ref = sl.load_plan(self.plan_path)
        self.ref_fast = sl.TransformPlan(self.ref.params, self.ref.blocks, mode="fast", validate=False)
        self.spectrum = sl.SpectralSummary.from_plan(self.ref)
        self.grid_ref = sl.load_plan(self.grid_plan_path)
        self.grid = sl.SphereGrid.for_degree(self.grid_n)

    def unit(self, op_id):
        """One rotation of the seven CLI calls on freshly seeded inputs."""
        params = sl.BandParams(self.n, self.m)
        h = sl.HarmonicCoeffs.random_unit(params, self.rng)
        loc = sl.LocalizedCoeffs(params, sl.HarmonicCoeffs.random_unit(params, self.rng).values)
        grid_params = sl.BandParams(self.grid_n, self.grid_m)
        gh = sl.HarmonicCoeffs.random_unit(grid_params, self.rng)
        k = int(self.rng.integers(-self.grid_n, self.grid_n + 1))
        psi = (k, int(self.rng.integers(1, grid_params.block_size(k) + 1)))
        inputs = {"h": h, "loc": loc, "gh": gh}
        paths = {name: self.work / f"in-{name}" for name in inputs}
        for name, coeffs in inputs.items():
            sl.save_coeffs(paths[name], coeffs)
        ops = []
        for j, kind in enumerate(self.ROTATION if op_id != SETUP else ("analyze",)):
            oid = op_id if op_id == SETUP else op_id + j
            ops.append(self.cli_op(oid, kind, inputs, paths, psi))
        return ops

    def cli_op(self, oid, kind, inputs, paths, psi):
        plan, grid_plan = str(self.plan_path), str(self.grid_plan_path)
        h, loc, gh = inputs["h"], inputs["loc"], inputs["gh"]
        h_path, loc_path, gh_path = paths["h"], paths["loc"], paths["gh"]
        out = self.work / f"out-{kind}"
        kept, removed = self.work / "out-kept", self.work / "out-removed"
        stdout = self.work / "stdout.txt"
        args = {
            "analyze": ["analyze", "--plan", plan, "--in", str(h_path), "--out", str(out)],
            "analyze-fast": ["analyze", "--mode", "fast", "--plan", plan, "--in", str(h_path), "--out", str(out)],
            "synthesize": ["synthesize", "--plan", plan, "--in", str(loc_path), "--out", str(out)],
            "filter": ["filter", "--plan", plan, "--in", str(h_path), "--window", CLI_FILTER_WINDOW,
                       "--out-kept", str(kept), "--out-removed", str(removed)],
            "spectrum": ["spectrum", "--plan", plan, "--json"],
            "grid": ["grid", "--plan", grid_plan, "--in", str(gh_path), "--out", str(out)],
            "grid-psi": ["grid", "--plan", grid_plan, "--psi", *map(str, psi), "--out", str(out)],
        }[kind]
        # Coefficient text only; the grid calls' CSV samples are not counted.
        files_in = {"analyze": [h_path], "analyze-fast": [h_path], "synthesize": [loc_path],
                    "filter": [h_path], "spectrum": [], "grid": [gh_path], "grid-psi": []}[kind]
        files_out = {"filter": [kept, removed], "spectrum": [], "grid": [], "grid-psi": []}.get(kind, [out])

        def run():
            return self.spawn(args, oid, stdout)

        def check(result):
            rc, wall = result
            if rc != 0:
                return f"{kind}: exit code {rc}"
            if oid == SETUP:  # the reference plan is loaded after set-up
                return None
            self.coeff_bytes[oid] = sum(p.stat().st_size for p in files_in + files_out)
            if kind == "analyze" and self.tracer is not None and self.table is None:
                self.table = cli_table(self.tracer, oid, wall, self.interpreter_start[oid])
            if kind == "spectrum":
                return self.check_spectrum(json.loads(stdout.read_text()))
            if kind == "filter":
                return self.check_filter(h, kept, removed, stdout.read_text())
            if kind == "grid":
                return self.check_grid(out, sl.evaluate_on_grid(gh, self.grid))
            if kind == "grid-psi":
                return self.check_grid(out, sl.evaluate_basis_on_grid(
                    self.grid_ref.params, self.grid_ref.blocks, *psi, self.grid))
            ref = {"analyze": lambda: sl.analyze(self.ref, h),
                   "analyze-fast": lambda: sl.analyze_fast(self.ref_fast, h),
                   "synthesize": lambda: sl.synthesize(self.ref, loc)}[kind]()
            return coeff_mismatch(out, ref)

        return oid, run, check

    def check_filter(self, h, kept, removed, stdout: str) -> str | None:
        """Output files equal the in-process filter; the printed Markov bound holds."""
        window = sl.EigenvalueWindow.from_string(CLI_FILTER_WINDOW)
        ref_kept, ref_removed = sl.filter_coeffs(self.ref, h, window)
        side, a = window.tail_shape()
        bound, actual = sl.markov_bound(self.ref, h, a, side)
        tail = [ln for ln in stdout.splitlines() if ln.startswith(f"{side}-tail bound")]
        if not tail:
            return "filter: no Markov bound line"
        printed = [float(x) for x in tail[0].split("residual")[1].split("<=")]
        off = any(abs(p - x) > PRINTED_REL_TOL * abs(x) for p, x in zip(printed, (actual, bound)))
        return (coeff_mismatch(kept, ref_kept) or coeff_mismatch(removed, ref_removed)
                or failed_if(not actual <= bound + 1e-12, f"filter: Markov bound violated: {actual} > {bound}")
                or failed_if(off, f"filter: printed bound {printed} != in-process {(actual, bound)}"))

    def check_grid(self, path, ref) -> str | None:
        """CSV equals the in-process samples to 1e-12; unit grid norm to 1e-10.

        The Gauss-Legendre grid is exact at degree 2n, so unit expansions have
        unit grid norm.
        """
        got = np.loadtxt(path, delimiter=",", skiprows=1)
        if got.shape != (ref.size, 4):
            return f"{path.name}: {got.shape} samples, expected {(ref.size, 4)}"
        theta, phi = np.meshgrid(self.grid.theta, self.grid.phi, indexing="ij")
        points = np.column_stack([theta.ravel(), phi.ravel()])
        field = (got[:, 2] + 1j * got[:, 3]).reshape(ref.shape)
        diff = rel_diff(field, ref)
        return (failed_if(np.max(np.abs(got[:, :2] - points)) > 1e-12, f"{path.name}: grid points differ")
                or failed_if(diff > 1e-12, f"{path.name}: differs from in-process grid by {diff:.3e}")
                or failed_if(abs(self.grid.inner(field, field).real - 1.0) > 1e-10,
                             f"{path.name}: grid norm != 1"))

    def check_spectrum(self, payload):
        ref = self.spectrum
        got = np.array([payload["count"], payload["min"], payload["max"], *payload["moments"],
                        *payload["histogram_counts"]], dtype=float)
        want = np.array([len(ref.eigenvalues), ref.eigenvalues.min(), ref.eigenvalues.max(),
                         *ref.moments, *ref.hist_counts], dtype=float)
        bad = np.abs(got - want) > 1e-12 * np.maximum(1.0, np.abs(want))
        return failed_if(bool(bad.any()), "spectrum: JSON differs from in-process summary")


def coeff_mismatch(path, ref) -> str | None:
    got = sl.load_coeffs(path)
    if type(got) is not type(ref) or got.params != ref.params:
        return f"{path.name}: wrong kind or band"
    diff = rel_diff(got.values, ref.values)
    return failed_if(diff > 1e-12, f"{path.name}: differs from in-process result by {diff:.3e}")


def cli_table(tracer: Tracer, op, wall: float, interpreter_start: float) -> dict:
    """Self times of one traced `analyze` call against its process wall time.

    What the rows leave of the wall time is interpreter exit and the runner
    writing its spans; the table holds when that stays within tolerance.
    """
    rows = {
        "cli.import": "import",
        "transform.load_plan": "plan load",
        "sphere_basis.load_coeffs": "text parse",
        "transform.analyze": "transform",
        "sphere_basis.save_coeffs": "text write",
        "cli.analyze": "argument parsing and report",
    }
    table = dict.fromkeys(rows.values(), 0.0)
    table["interpreter start"] = interpreter_start
    for (name, _, _, _, span_op), s in zip(tracer.spans, self_times(tracer.spans)):
        if span_op == op:
            table[rows.get(name, name)] = table.get(rows.get(name, name), 0.0) + s
    unattributed = wall - sum(table.values())
    return {
        "wall_s": wall,
        "self_s": table,
        "unattributed_s": unattributed,
        "tolerance_s": CLI_TABLE_TOLERANCE_S,
        "within_tolerance": 0 <= unattributed <= CLI_TABLE_TOLERANCE_S,
    }


def measure(w, seconds: float, tracer: Tracer | None, first_id: int):
    """Closed loop of whole units (an op, or a CLI rotation) for ~`seconds`.

    A unit starts while at least half of the previous one's wall time still
    fits, so the loop ends within half a unit of `seconds` and the number of
    CLI rotations does not flip with small changes in their length.  Returns
    op latencies by op id and error lines.
    """
    # Inputs depend on the seed and on whether the loop is traced only, so the
    # traced loop of a seed sees the same inputs however long the others ran.
    w.rng = np.random.default_rng([w.seed, 1 if tracer is None else 2])
    lat: dict[int, float] = {}
    errors: list[str] = []
    next_id, est = first_id, 0.0
    t_loop = time.monotonic()
    while not lat or time.monotonic() - t_loop + est / 2 <= seconds:
        t_unit = time.monotonic()
        ops = w.unit(next_id)
        next_id += len(ops)
        for op_id, run, check in ops:
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                out, err = run(), None
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            lat[op_id] = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            if err is None:
                try:
                    err = check(out)
                except Exception as exc:  # noqa: BLE001
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                errors.append(f"op {op_id}: {err}")
        est = time.monotonic() - t_unit
    return lat, errors


def setup_inprocess(w) -> float:
    """Plan build and one untimed warm-up op; returns time.monotonic() when ready."""
    w.build()
    _, run, check = w.unit(-1)[0]
    out = run()
    ready = time.monotonic()
    err = check(out)
    if err:
        raise RuntimeError(f"warm-up op failed: {err}")
    return ready


def fresh_setup_samples(args, count: int) -> list[float]:
    """Set-up time of `count` more fresh processes of this workload."""
    samples = []
    for _ in range(count):
        out = Path(args.out).with_suffix(".setup.json")
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", "0", "--out", str(out), "--setup-only"]
        if args.tiny:
            cmd.append("--tiny")
        cmd += ["--t0", repr(time.monotonic())]
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(json.loads(out.read_text())["setup_s"])
        out.unlink()
    return samples


def latency_metrics(lat: dict, errors: list) -> dict:
    xs = list(lat.values())
    p90 = statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]
    return {
        "latencies_s": xs,
        "ops_per_s": len(xs) / sum(xs),
        "op_p50_s": statistics.median(xs),
        "op_p90_s": p90,
        "samples": len(xs),
        "samples_above_p90": sum(x > p90 for x in xs),
        "error_rate": len(errors) / len(xs),
    }


def plan_bytes(plan) -> int:
    """Bytes of distinct eigendata arrays (a built plan shares +k and -k)."""
    seen = {}
    for eb in plan.blocks.values():
        for a in (eb.eigenvalues, eb.vectors):
            seen[a.__array_interface__["data"][0]] = a.nbytes
    return sum(seen.values())


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "SPHERELOK_THREADS": os.environ.get("SPHERELOK_THREADS"),
        "spherelok_thread_count": sl.jacobi_blocks.thread_count(),
    }


def run_inprocess(w, args) -> dict:
    setup = [setup_inprocess(w) - args.t0]
    if args.setup_only:
        return {"setup_s": setup[0]}
    if not args.trace:
        setup += fresh_setup_samples(args, SETUP_SAMPLES - 1)
        lat, errors = measure(w, args.seconds, None, 0)
        res = latency_metrics(lat, errors)
        res.update(setup_s=statistics.median(setup), setup_samples=setup,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return {"result": res, "errors": errors}
    eligible = sum(bool(w.plan.fast_eligible(k)) for k in w.plan.params.orders())
    bytes_ = plan_bytes(w.plan)
    lat0, errors0 = measure(w, args.seconds / 2, None, 0)
    tracer = Tracer()
    tracer.install()
    t0 = time.monotonic()
    setup_wall = setup_inprocess(w) - t0
    lat1, errors1 = measure(w, args.seconds / 2, tracer, len(lat0))
    return traced_result(w, tracer, lat0, lat1, errors0 + errors1, setup_wall, eligible, bytes_, 0)


def run_cli(w: CliWorkload, args) -> dict:
    if not args.trace:
        setup = [w.setup_once() for _ in range(SETUP_SAMPLES)]
        w.build()
        lat, errors = measure(w, args.seconds, None, 0)
        res = latency_metrics(lat, errors)
        res.update(setup_s=statistics.median(setup), setup_samples=setup, peak_rss_mb=w.peak_rss_mb)
        return {"result": res, "errors": errors}
    w.tracer = tracer = Tracer()
    setup_wall = w.setup_once()
    w.build()
    eligible = sum(bool(w.ref.fast_eligible(k)) for k in w.ref.params.orders())
    w.tracer = None
    lat0, errors0 = measure(w, args.seconds / 2, None, 0)
    w.tracer = tracer
    lat1, errors1 = measure(w, args.seconds / 2, tracer, len(lat0))
    per_op = [w.coeff_bytes.get(op, 0) for op in sorted(lat1)[: len(w.ROTATION)]]
    res = traced_result(w, tracer, lat0, lat1, errors0 + errors1, setup_wall, eligible,
                        plan_bytes(w.ref), sum(per_op) / len(per_op))
    res["cli_analyze_table"] = w.table
    return res


def traced_result(w, tracer, lat0, lat1, errors, setup_wall, eligible, bytes_, coeff_bytes) -> dict:
    """Per-layer metrics of the traced loop `lat1`; `lat0` is the untraced loop."""
    metrics = layer_metrics(tracer, lat1, setup_wall)
    passes, dense_s = op_span_stats(tracer, ("transform.analyze", "transform.synthesize"), lat1)
    dense_ops = sl.dense_op_count(w.n, w.m) * passes
    metrics.update({
        "transform.fast_blocks": (eligible, "count"),
        "transform.dense_fallback_blocks": (2 * w.n + 1 - eligible, "count"),
        "transform.dense_ops": (dense_ops, "flop/op"),
        "transform.dense_gflops": (dense_ops / dense_s / 1e9 if dense_s else 0.0, "GFLOP/s"),
        "transform.plan_bytes": (bytes_, "bytes"),
        "sphere_basis.coeff_bytes": (coeff_bytes, "bytes/op"),
        "trace.overhead": (len(lat0) / sum(lat0.values()) - len(lat1) / sum(lat1.values()), "1/s"),
        "error_rate": (len(errors) / (len(lat0) + len(lat1)), "ratio"),
    })
    return {"traced": metrics, "attempted": len(lat0) + len(lat1), "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("stream-256", "cli-256"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--work", help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="self-check band sizes")
    args = ap.parse_args(argv)
    if Path(sl.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"spherelok imported from {sl.__file__}, not from {ROOT / 'src'}")
    if args.workload == "cli-256":
        w = CliWorkload(args.seed, args.tiny, Path(args.work))
        res = run_cli(w, args)
    else:
        w = StreamWorkload(args.seed, args.tiny)
        res = run_inprocess(w, args)
    if not args.setup_only:
        res.update(band=[w.n, w.m], machine=machine())
    Path(args.out).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
