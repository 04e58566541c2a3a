import importlib.util
import json
import re
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB"}


def _record(directory, name, commit, seed, values, trace=0):
    rec = {
        "workload": "cli-256",
        "seed": seed,
        "seconds": 40,
        "trace": trace,
        "tiny": False,
        "source": {"git_commit": commit, "src_sha256": commit[::-1]},
        "output": {
            "correct": True,
            "attempted": 21,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": _METRICS[k]} for k, v in zip(_METRICS, values)},
        },
        "details": {"machine": {"nproc": 2}},
    }
    (directory / name).write_text(json.dumps(rec))


def test_bench_pairs_summarizes_one_pair(tmp_path):
    _record(tmp_path, "cli-256-seed7-trace0-1-20260101T000000Z.json", "aaaa1111", 7, [4.0, 1.0, 0.9, 1.2, 121.0])
    _record(tmp_path, "cli-256-seed7-trace0-2-20260101T000100Z.json", "bbbb2222", 7, [3.5, 1.5, 0.6, 1.3, 122.0])
    # a traced run and another seed are ignored
    _record(tmp_path, "cli-256-seed7-trace1-3-20260101T000200Z.json", "bbbb2222", 7, [9, 9, 9, 9, 9], trace=1)
    _record(tmp_path, "cli-256-seed8-trace0-4-20260101T000300Z.json", "bbbb2222", 8, [9, 9, 9, 9, 9])
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "aaaa", "--change", "2222bbbb", "--seeds", "7", "--results", str(tmp_path), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    bench = json.loads(out.read_text())
    assert bench["parent"] == [{"git_commit": "aaaa1111", "src_sha256": "1111aaaa"}]
    assert bench["machine"] == {"nproc": 2}
    cli = bench["workloads"]["cli-256"]
    assert cli["seeds"] == [7] and cli["parent_ran_first"] == [True]
    assert cli["failed_ops"] == {"parent": [0], "change": [0]}
    ops = cli["metrics"]["ops_per_s"]
    assert ops["parent"]["median"] == 1.0 and ops["change"]["values"] == [1.5]
    assert ops["wins"] == 1 and ops["median_ratio"] == 1.5 and ops["beats_parent_spread"]
    rss = cli["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["better"] == "lower" and rss["bound"] == 0.05
    assert cli["metrics"]["setup_s"]["wins"] == 1


def test_bench_pairs_refuses_an_unpaired_seed(tmp_path):
    _record(tmp_path, "cli-256-seed7-trace0-1-20260101T000000Z.json", "aaaa1111", 7, [4.0, 1.0, 0.9, 1.2, 121.0])
    _record(tmp_path, "cli-256-seed7-trace0-2-20260101T000100Z.json", "bbbb2222", 7, [3.5, 1.5, 0.6, 1.3, 122.0])
    _record(tmp_path, "cli-256-seed8-trace0-3-20260101T000200Z.json", "bbbb2222", 8, [3.5, 1.5, 0.6, 1.3, 122.0])
    argv = ["--parent", "aaaa", "--change", "bbbb", "--seeds", "7-9", "--results", str(tmp_path),
            "--out", str(tmp_path / "BENCH.json")]
    with pytest.raises(SystemExit, match="missing runs"):
        bench_pairs.main(argv)
    assert bench_pairs.parse_seeds("1,3-5") == [1, 3, 4, 5]
    with pytest.raises(SystemExit, match="seed 502 given twice"):
        bench_pairs.parse_seeds("501-503,502")
    with pytest.raises(SystemExit, match="reversed seed range 510-501"):
        bench_pairs.parse_seeds("510-501")
    for text, part in (("", ""), ("5,x", "x"), ("1,,2", ""), ("-5", "-5")):
        with pytest.raises(SystemExit, match=re.escape(f"bad seed {part!r} in {text!r}")):
            bench_pairs.parse_seeds(text)


def test_bench_pairs_marks_each_metric_against_its_bound(tmp_path, capsys):
    # columns: setup_s, ops_per_s, op_p50_s, op_p90_s, peak_rss_mb, per seed
    parent = [[1.0, 1.0, 1.0, 1.0, 100.0], [1.0, 2.0, 2.0, 1.0, 100.0], [1.0, 3.0, 3.0, 1.0, 100.0]]
    change = [[1.2, 2.0, 0.1, 1.0, 106.0], [1.2, 2.1, 0.2, 1.0, 106.0], [1.2, 2.2, 0.3, 1.0, 106.0]]
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        _record(tmp_path, f"cli-256-seed{seed}-trace0-{2 * seed}-2026010{seed}T000000Z.json", "aaaa1111", seed, p)
        _record(tmp_path, f"cli-256-seed{seed}-trace0-{2 * seed + 1}-2026010{seed}T000100Z.json", "bbbb2222", seed, c)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "aaaa", "--change", "bbbb", "--seeds", "1-3", "--results", str(tmp_path), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    metrics = json.loads(out.read_text())["workloads"]["cli-256"]["metrics"]
    marks = {name: (m["within_bound"], m["unresolved"]) for name, m in metrics.items()}
    assert marks["setup_s"] == (True, False)  # 20% slower, inside its 25% bound
    assert marks["peak_rss_mb"] == (False, False)  # 6% larger, outside its 5% bound
    # the parent's quartile spread, 1.0, is wider than 25% of its median 2.0
    assert marks["ops_per_s"] == (True, True)
    assert marks["op_p50_s"] == (True, False)  # as wide, but every change run is faster
    printed = capsys.readouterr().out
    assert "cli-256 peak_rss_mb:" in printed and "within_bound False unresolved False" in printed
