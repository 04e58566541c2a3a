"""Summarize paired benchmark runs of two source trees into one BENCH file.

Reads the run records that `perfbench/run.py` writes (`.perfbench/results/*.json`),
keeps the untraced full-size runs of the given seeds, and pairs, per workload
and seed it ran, one run of the parent tree with one run of the changed tree.  Each
side is named by a prefix of its git commit or of its source digest, as the
records store them.  For every end-to-end metric of BENCHMARK.json it writes
both sides' values, medians and quartiles, the wins of the change per pair,
the ratio of the medians, whether the change's median beats the parent's by
more than the parent's quartile spread, whether it is worse than the parent's
by no more than the metric's bound (a fraction of the parent's median), and
whether the comparison is unresolved: the parent's quartile spread is wider
than that bound and not every run of the change beats every run of the parent.

    python3 tools/bench_pairs.py --parent 8081540 --change 1a2b3c4 \
        --seeds 501-510 --results .perfbench/results --out BENCH_7.json
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "1,2,5-8" notation, in the order given.

    A part that is not N or N-M, a reversed range or a seed named twice
    exits with a message, since each seed must count once in the values,
    medians and wins.
    """
    seeds: list[int] = []
    for part in text.split(","):
        spec = re.fullmatch(r"(\d+)(?:-(\d+))?", part.strip())
        if not spec:
            raise SystemExit(f"bad seed {part!r} in {text!r}: expected N or N-M")
        lo, hi = spec.groups()
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise SystemExit(f"reversed seed range {part}")
        for seed in span:
            if seed in seeds:
                raise SystemExit(f"seed {seed} given twice in {text}")
            seeds.append(seed)
    return seeds


def matches(source: dict, rev: str) -> bool:
    return any((source.get(key) or "").startswith(rev) for key in ("git_commit", "src_sha256"))


def summary(values: list[float]) -> dict:
    """Values with their median and quartiles (numpy's default, linear interpolation)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def collect(dirs, seeds, parent: str, change: str) -> dict:
    """{workload: {seed: {"parent": (name, record), "change": (name, record)}}}."""
    runs: dict = {}
    for d in dirs:
        for path in sorted(Path(d).glob("*.json")):
            rec = json.loads(path.read_text())
            if rec.get("trace") != 0 or rec.get("tiny") or rec.get("seed") not in seeds:
                continue
            sides = [s for s, rev in zip(SIDES, (parent, change)) if matches(rec["source"], rev)]
            if len(sides) != 1:
                continue
            slot = runs.setdefault(rec["workload"], {}).setdefault(rec["seed"], {})
            if sides[0] in slot:
                raise SystemExit(f"two {sides[0]} runs of {rec['workload']} seed {rec['seed']}: "
                                 f"{slot[sides[0]][0]} and {path.name}")
            slot[sides[0]] = (path.name, rec)
    return runs


def distinct(items) -> list:
    """The distinct JSON values among ``items``, sorted."""
    return [json.loads(t) for t in sorted({json.dumps(i, sort_keys=True) for i in items})]


def pair_workload(pairs: dict, seeds: list[int], spec: list[dict]) -> dict:
    """Both sides' summaries for the seeds this workload ran; each must have a run per side."""
    seeds = [s for s in seeds if s in pairs]
    missing = [(s, side) for s in seeds for side in SIDES if side not in pairs[s]]
    if missing:
        raise SystemExit(f"missing runs (seed, side): {missing}")

    def outputs(side, *keys):
        return [functools.reduce(dict.get, keys, pairs[s][side][1]["output"]) for s in seeds]

    # a record's file name ends in the time it was written, so names order the runs
    written = {side: [pairs[s][side][0].rsplit("-", 1)[1] for s in seeds] for side in SIDES}
    out = {
        "seeds": seeds,
        "parent_ran_first": [p < c for p, c in zip(written["parent"], written["change"])],
        "seconds": distinct(pairs[s][side][1]["seconds"] for s in seeds for side in SIDES),
        "failed_ops": {side: outputs(side, "failed") for side in SIDES},
        "attempted_ops": {side: outputs(side, "attempted") for side in SIDES},
        "metrics": {},
    }
    for metric in spec:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: outputs(side, "metrics", name, "value") for side in SIDES}
        parent, change = summary(values["parent"]), summary(values["change"])
        gain = sign * (change["median"] - parent["median"])
        allowed = metric["bound"] * abs(parent["median"])
        beats_all = all(sign * (c - p) > 0 for p in values["parent"] for c in values["change"])
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(seeds),
            "median_ratio": change["median"] / parent["median"],
            "beats_parent_spread": gain > parent["q3"] - parent["q1"],
            "within_bound": -gain <= allowed,
            "unresolved": parent["q3"] - parent["q1"] > allowed and not beats_all,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git commit or source digest prefix of the parent runs")
    ap.add_argument("--change", required=True, help="git commit or source digest prefix of the changed runs")
    ap.add_argument("--seeds", required=True, help='seeds of the pairs, as "1,2,5-8"')
    ap.add_argument("--results", action="append", help="directory of run records (repeatable); "
                    "default .perfbench/results")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = collect(args.results or [ROOT / ".perfbench" / "results"], set(seeds), args.parent, args.change)
    if not runs:
        raise SystemExit("no run matches the given seeds and sources")
    records = {side: [pair[side][1] for by_seed in runs.values() for pair in by_seed.values() if side in pair]
               for side in SIDES}
    machines = distinct(r["details"].get("machine") for side in SIDES for r in records[side])
    bench = {
        "summarizes": "paired untraced runs of perfbench/run.py, parent tree against changed tree",
        **{side: distinct(r["source"] for r in records[side]) for side in SIDES},
        "machine": machines[0] if len(machines) == 1 else machines,
        "workloads": {wl: pair_workload(runs[wl], seeds, spec) for wl in sorted(runs)},
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    for wl, res in bench["workloads"].items():
        for name, m in res["metrics"].items():
            print(f"{wl} {name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
                  f"ratio {m['median_ratio']:.3f} wins {m['wins']}/{m['pairs']} "
                  f"within_bound {m['within_bound']} unresolved {m['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
