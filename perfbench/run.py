"""spherelok benchmark: named workloads, end-to-end metrics, a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-256 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json; `--trace 1`
runs half the time untraced and half with spans around every traced public
function and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.  A
fuller record (machine, samples, set-up samples, errors, the traced CLI
breakdown) goes to `.perfbench/results/`.  Workload definitions and output
checks are in `workload.py`.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("stream-256", "cli-256")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB"}
# Counters that must repeat exactly for a seed (checked by --self-check).
EXACT = (
    "ultraspherical.family_builds",
    "transform.fast_blocks",
    "transform.dense_fallback_blocks",
    "transform.dense_ops",
    "transform.plan_bytes",
    "sphere_basis.coeff_bytes",
)


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str, filename: str) -> list[str]:
    """Private names reached by a source: `x._y`, private spherelok imports or strings."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spherelok":
            names = node.module.split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [p for a in node.names if a.name.split(".")[0] == "spherelok" for p in a.name.split(".")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"_[A-Za-z]\w*|spherelok(\.\w+)+", node.value):
                names = node.value.split(".")
        found += [f"{filename}:{node.lineno}: {n}" for n in names if is_private(n)]
    return found


def own_private_uses() -> list[str]:
    return [u for p in sorted(HERE.glob("*.py")) for u in private_uses(p.read_text(), p.name)]


def source_identity() -> dict:
    """Git commit when the checkout is a git work tree, and a digest of the library sources."""
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_child(cmd: list[str], timeout: float) -> None:
    """Run a workload process in its own session; kill the session on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))))
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """Run one workload process; returns (output line dict, full record)."""
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work = STATE / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out), "--work", str(work)]
    if tiny:
        cmd.append("--tiny")
    try:
        # Set-up comes on top of the measured seconds; a slow commit still reports.
        run_child(cmd + ["--t0", repr(time.monotonic())], 2 * seconds + 120)
        res = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = res["errors"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["traced"].items()}
        attempted = res["attempted"]
    else:
        r = res["result"]
        metrics = {k: {"value": r[k], "unit": u} for k, u in UNITS.items()}
        attempted = r["samples"]
    line = {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
              "source": source_identity(), "output": line, "details": res}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    (results / f"{tag}-{stamp}.json").write_text(json.dumps(record, indent=1))
    return line, record


def self_check() -> int:
    """Tiny-size run of every workload: names, units, exact counters, CLI breakdown."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = own_private_uses()
    if not private_uses("plan._fast_block(0)\nfrom spherelok.transform import _fast_block_apply\n", "probe"):
        problems.append("private-name check does not flag private names")
    if e2e != UNITS:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != emitted {UNITS}")
    for wl in WORKLOADS:
        line, _ = run_workload(wl, 1, 2, 0, tiny=True)
        traced = [run_workload(wl, 1, 2, 1, tiny=True) for _ in range(2)]
        for label, (ln, _), want in [("untraced", (line, None), e2e)] + [("traced", t, layer) for t in traced]:
            got = {k: v["unit"] for k, v in ln["metrics"].items()}
            if got != want:
                problems.append(f"{wl} {label}: metrics/units differ: {sorted(set(got) ^ set(want))}")
            if not ln["correct"] or ln["failed"]:
                problems.append(f"{wl} {label}: failed ops")
        (a, ra), (b, _) = traced
        exact = [k for k in a["metrics"] if k in EXACT or k.endswith(".calls")]
        diff = [k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if diff:
            problems.append(f"{wl}: counters differ between runs of one seed: {diff}")
        table = ra["details"].get("cli_analyze_table")
        if wl == "cli-256" and not (table and table["within_tolerance"]):
            problems.append(f"cli-256: traced analyze spans do not cover its wall time: {table}")
        print(f"self-check {wl}: done", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-check", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spherelok" / "__init__.py").is_file():
        print(f"error: no spherelok sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    private = own_private_uses()
    if private:
        print("error: benchmark reaches private spherelok names:", *private, sep="\n  ", file=sys.stderr)
        return 3
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    line, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    table = record["details"].get("cli_analyze_table")
    if table:
        print("traced `spherelok analyze` call:", json.dumps(table))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
