"""In-memory spans around calls into spherelok's public functions.

A `Tracer` replaces each traced public function with a timing wrapper in
every `spherelok` module namespace that binds it, so nested calls (for
example `approximation.filter_coeffs` -> `approximation.analyze`) are seen as
child spans.  Spans stay in memory; callers dump them when a run ends.

Only public names of the library are touched.  The benchmark's own source
check (`run.py`) rejects any access to a private `spherelok` name.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# (span name, module, public attribute); "Class.method" names a classmethod.
TRACED = (
    ("jacobi_blocks.band_eigenblocks", "spherelok.jacobi_blocks", "band_eigenblocks"),
    ("transform.build", "spherelok.transform", "TransformPlan.build"),
    ("transform.save_plan", "spherelok.transform", "save_plan"),
    ("transform.load_plan", "spherelok.transform", "load_plan"),
    ("transform.analyze", "spherelok.transform", "analyze"),
    ("transform.synthesize", "spherelok.transform", "synthesize"),
    ("transform.analyze_fast", "spherelok.transform", "analyze_fast"),
    ("approximation.filter_coeffs", "spherelok.approximation", "filter_coeffs"),
    ("approximation.markov_bound", "spherelok.approximation", "markov_bound"),
    ("approximation.chebyshev_bound", "spherelok.approximation", "chebyshev_bound"),
    (
        "approximation.SpectralSummary.from_plan",
        "spherelok.approximation",
        "SpectralSummary.from_plan",
    ),
    ("sphere_basis.mean_value", "spherelok.sphere_basis", "mean_value"),
    ("sphere_basis.evaluate_on_grid", "spherelok.sphere_basis", "evaluate_on_grid"),
    (
        "sphere_basis.evaluate_basis_on_grid",
        "spherelok.sphere_basis",
        "evaluate_basis_on_grid",
    ),
    ("sphere_basis.load_coeffs", "spherelok.sphere_basis", "load_coeffs"),
    ("sphere_basis.save_coeffs", "spherelok.sphere_basis", "save_coeffs"),
)

# Spans recorded by the traced CLI runner rather than by a wrapper.
CLI_SUBCOMMANDS = ("plan", "analyze", "synthesize", "filter", "spectrum", "grid")
CLI_SPANS = ("cli.import",) + tuple(f"cli.{s}" for s in CLI_SUBCOMMANDS)

SPAN_NAMES = tuple(name for name, _, _ in TRACED) + CLI_SPANS
FAMILY_BUILDS = "ultraspherical.family_builds"

SETUP = "setup"  # op id of spans recorded while setting up


class Tracer:
    """Span and counter store; `op` tags everything recorded until changed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (counter name, op) -> calls
        self.op = SETUP  # None while the benchmark itself works between ops

    def call(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def record(self, name, start, end):
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, None, self.op])

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(name, self.op)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function in every spherelok namespace binding it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "spherelok"]
        for span, module, attr in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.timed(span, func)))
                continue
            original = getattr(owner, attr)
            wrapper = self.timed(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original and not name.startswith("_"):
                        setattr(mod, name, wrapper)
        family = sys.modules["spherelok.ultraspherical"].UltrasphericalFamily
        build = family.__dict__["build"].__func__
        family.build = classmethod(self.counted(FAMILY_BUILDS, build))

    def dump(self) -> dict:
        counts = [[name, op, n] for (name, op), n in self.counts.items()]
        return {"spans": self.spans, "counts": counts}

    def merge(self, dumped: dict, op) -> None:
        """Append spans and counts written by another traced process."""
        base = len(self.spans)
        for name, start, end, parent, _ in dumped["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base, op])
        for name, _, n in dumped["counts"]:
            self.counts[(name, op)] += n


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its (sequential) children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, op_walls: dict, setup_wall: float) -> dict:
    """Per-span calls per op, median self time per call and share of wall time.

    A span that runs inside measured ops is reported against those ops.  A
    span seen only while setting up (plan build, cache write) has 0 calls
    per op; its self time and its share of the traced set-up are reported.
    A span that never ran reports zeros.
    """
    selfs = self_times(tracer.spans)
    by_name: dict[str, dict] = {name: {"op": [], "setup": []} for name in SPAN_NAMES}
    for (name, _, _, _, op), s in zip(tracer.spans, selfs):
        if op == SETUP:
            by_name[name]["setup"].append(s)
        elif op in op_walls:
            by_name[name]["op"].append(s)
    n_ops = len(op_walls)
    op_wall = sum(op_walls.values())
    out = {}
    for name in SPAN_NAMES:
        per_op, per_setup = by_name[name]["op"], by_name[name]["setup"]
        if per_op:
            calls, sample, share = len(per_op) / n_ops, per_op, sum(per_op) / op_wall
        elif per_setup:
            calls, sample, share = 0.0, per_setup, sum(per_setup) / setup_wall
        else:
            calls, sample, share = 0.0, [0.0], 0.0
        out[f"{name}.calls"] = (calls, "1/op")
        out[f"{name}.self_s"] = (statistics.median(sample), "s")
        out[f"{name}.share"] = (share, "ratio")
    builds = sum(
        n for (name, op), n in tracer.counts.items() if name == FAMILY_BUILDS and op in op_walls
    )
    out[FAMILY_BUILDS] = (builds / n_ops, "1/op")
    return out


def op_span_stats(tracer: Tracer, names, op_walls: dict) -> tuple[float, float]:
    """Calls per op and self seconds per op of the named spans inside ops."""
    selfs = self_times(tracer.spans)
    calls = total = 0.0
    for (name, _, _, _, op), s in zip(tracer.spans, selfs):
        if name in names and op in op_walls:
            calls += 1
            total += s
    return calls / len(op_walls), total / len(op_walls)
