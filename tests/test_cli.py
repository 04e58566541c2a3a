import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import spherelok as sl
from spherelok import cli, sphere_basis
from spherelok.cli import fit_loglog, main
from spherelok.sphere_basis import HarmonicCoeffs, load_coeffs, save_coeffs
from spherelok.transform import dense_op_count


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.bin"
    assert main(["plan", "--n", "12", "--m", "3", "--out", str(path)]) == 0
    return path


def test_plan_command_prints_dimension(tmp_path, capsys):
    path = tmp_path / "plan.bin"
    assert main(["plan", "--n", "6", "--m", "4", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dimension=33" in out
    assert "1 2 3 3 3 3 3 3 3 3 3 2 1" in out
    # idempotent re-run verifies the existing cache
    assert main(["plan", "--n", "6", "--m", "4", "--out", str(path)]) == 0
    assert "verified existing" in capsys.readouterr().out
    # conflicting parameters are a format error
    assert main(["plan", "--n", "7", "--m", "4", "--out", str(path)]) == 3


def test_plan_band32_block_count(tmp_path, capsys):
    path = tmp_path / "p.bin"
    assert main(["plan", "--n", "32", "--m", "0", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    sizes = out.splitlines()[-1].split(":")[1].split()
    assert len(sizes) == 65
    assert sizes[0] == "1" and sizes[32] == "33" and sizes[-1] == "1"


def test_failed_plan_write_leaves_no_file_and_a_rerun_writes_the_plan(tmp_path):
    # a plan of (64, 0) outgrows a 100,000-byte file size limit; the write
    # fails, and neither the partial cache nor its temporary file is left
    resource = pytest.importorskip("resource")
    import signal

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))

    path = tmp_path / "p.bin"
    code = "import sys\nfrom spherelok.cli import main\nsys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "plan", "--n", "64", "--m", "0", "--out", str(path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=limit_file_size)
    assert run.returncode == 3 and run.stderr.startswith("io error: "), run.stderr
    assert list(tmp_path.iterdir()) == []
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0 and "wrote plan cache" in run.stdout, run.stderr
    assert list(tmp_path.iterdir()) == [path]
    assert sl.load_plan(path).params == sl.BandParams(64, 0)


def test_plan_onto_a_truncated_cache_names_the_block_and_the_remedy(tmp_path, capsys):
    # a cache cut short inside a record, as a killed writer or a full disk
    # leaves it: `plan` refuses it (exit 3), names the record it stops in,
    # and says to delete the file and rebuild it; the file is left as it is
    path = tmp_path / "p.bin"
    assert main(["plan", "--n", "16", "--m", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    params = sl.BandParams(16, 4)
    pos = 18 + 8 * (2 + 16)  # the magic line, n m and the flag words
    for k in range(16, 9, -1):
        c = (params.block_size(k) + 1) // 2
        pos += 8 * (2 + c + c * c)
    path.write_bytes(data[: pos + 8 * 5])  # inside block 9's record
    assert main(["plan", "--n", "16", "--m", "4", "--out", str(path)]) == 3
    err = capsys.readouterr().err
    assert "p.bin: truncated at block k=9; delete the file and rebuild it with `spherelok plan`" in err
    assert path.read_bytes() == data[: pos + 8 * 5]
    path.unlink()
    assert main(["plan", "--n", "16", "--m", "4", "--out", str(path)]) == 0
    assert path.read_bytes() == data


def test_spectrum_refuses_a_header_only_plan_of_a_large_band(tmp_path, capsys):
    # n = 4000 in the header, and no record after the flag words
    path = tmp_path / "big.bin"
    path.write_bytes(b"SPHERELOK-PLAN v4\n" + np.array([4000, 0, *[0] * 4000], "<i8").tobytes())
    assert main(["spectrum", "--plan", str(path)]) == 3
    err = capsys.readouterr().err
    assert "big.bin: truncated at block k=4000; delete the file and rebuild it with `spherelok plan`" in err


def test_analyze_synthesize_roundtrip_files(tmp_path, plan_file, rng):
    params = sl.BandParams(12, 3)
    c = HarmonicCoeffs.random_unit(params, rng)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, c)
    dpath = tmp_path / "d.coeff"
    rpath = tmp_path / "r.coeff"
    assert main(["analyze", "--plan", str(plan_file), "--in", str(cpath), "--out", str(dpath)]) == 0
    assert main(["synthesize", "--plan", str(plan_file), "--in", str(dpath), "--out", str(rpath)]) == 0
    back = load_coeffs(rpath)
    assert np.abs(back.values - c.values).max() < 1e-10


def test_analyze_rejects_wrong_kind(tmp_path, plan_file, rng):
    params = sl.BandParams(12, 3)
    d = sl.LocalizedCoeffs(params, HarmonicCoeffs.random_unit(params, rng).values)
    dpath = tmp_path / "d.coeff"
    save_coeffs(dpath, d)
    assert main(["analyze", "--plan", str(plan_file), "--in", str(dpath), "--out", str(tmp_path / "x.coeff")]) == 3


def test_analyze_fast_mode(tmp_path, rng):
    plan_path = tmp_path / "plan.bin"
    assert main(["plan", "--n", "70", "--m", "0", "--out", str(plan_path)]) == 0
    params = sl.BandParams(70, 0)
    c = HarmonicCoeffs.random_unit(params, rng)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, c)
    out_dense = tmp_path / "dd.coeff"
    out_fast = tmp_path / "df.coeff"
    assert main(["analyze", "--plan", str(plan_path), "--in", str(cpath), "--out", str(out_dense)]) == 0
    assert main(["analyze", "--plan", str(plan_path), "--in", str(cpath), "--out", str(out_fast), "--mode", "fast"]) == 0
    # both values of --mode run the same pass
    assert out_fast.read_bytes() == out_dense.read_bytes()


def test_filter_command(tmp_path, plan_file, rng, capsys):
    params = sl.BandParams(12, 3)
    c = HarmonicCoeffs.random_unit(params, rng)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, c)
    kept_path = tmp_path / "kept.coeff"
    rem_path = tmp_path / "rem.coeff"
    rc = main([
        "filter", "--plan", str(plan_file), "--in", str(cpath),
        "--window", "[-1,-0.6]u[-0.2,0.2]u[0.6,1]",
        "--out-kept", str(kept_path), "--out-removed", str(rem_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|kept|^2" in out and "|removed|^2" in out and "mean(kept)" in out
    kept = load_coeffs(kept_path)
    removed = load_coeffs(rem_path)
    assert kept.norm() ** 2 + removed.norm() ** 2 == pytest.approx(
        c.norm() ** 2, abs=1e-12
    )
    assert np.abs(kept.values + removed.values - c.values).max() < 1e-12


def test_filter_full_window_removes_nothing(tmp_path, plan_file, rng):
    params = sl.BandParams(12, 3)
    c = HarmonicCoeffs.random_unit(params, rng)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, c)
    rem_path = tmp_path / "rem.coeff"
    rc = main([
        "filter", "--plan", str(plan_file), "--in", str(cpath),
        "--window", "[-1,1]",
        "--out-kept", str(tmp_path / "k.coeff"), "--out-removed", str(rem_path),
    ])
    assert rc == 0
    assert load_coeffs(rem_path).norm() == 0.0


def test_filter_prints_tail_bound(tmp_path, plan_file, rng, capsys):
    params = sl.BandParams(12, 3)
    c = HarmonicCoeffs.random_unit(params, rng)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, c)
    rc = main([
        "filter", "--plan", str(plan_file), "--in", str(cpath),
        "--window", "(0.5,1]",
        "--out-kept", str(tmp_path / "k.coeff"),
        "--out-removed", str(tmp_path / "r.coeff"),
    ])
    assert rc == 0
    assert "upper-tail bound" in capsys.readouterr().out


def test_bad_window_is_usage_error(tmp_path, plan_file, rng):
    params = sl.BandParams(12, 3)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(params, rng))
    rc = main([
        "filter", "--plan", str(plan_file), "--in", str(cpath),
        "--window", "[2,3]",
        "--out-kept", str(tmp_path / "k.coeff"),
        "--out-removed", str(tmp_path / "r.coeff"),
    ])
    assert rc == 2


def test_corrupt_coeff_file_is_format_error(tmp_path, plan_file):
    cpath = tmp_path / "c.coeff"
    cpath.write_text("garbage\n")
    rc = main(["analyze", "--plan", str(plan_file), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 3


def test_non_utf8_coefficients_are_format_error(tmp_path, plan_file, rng, capsys):
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(sl.BandParams(12, 3), rng))
    data = cpath.read_bytes()
    cpath.write_bytes(data[:-2] + b"\xff" + data[-1:])  # header and entry count intact
    for bad in (plan_file, cpath):
        rc = main(["analyze", "--plan", str(plan_file), "--in", str(bad), "--out", str(tmp_path / "o.coeff")])
        assert rc == 3
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


def test_text_files_never_use_the_locale_encoding(tmp_path, plan_file):
    code = (
        "import numpy as np, spherelok as s\n"
        "from spherelok.cli import main\n"
        "s.save_coeffs('c.coeff', s.HarmonicCoeffs.random_unit(s.BandParams(12, 3), np.random.default_rng(0)))\n"
        "assert s.load_coeffs('c.coeff').params == s.BandParams(12, 3)\n"
        f"raise SystemExit(main(['grid', '--plan', {str(plan_file)!r}, '--in', 'c.coeff', '--out', 'g.csv']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "g.csv").exists()


def test_non_finite_coefficients_are_format_error(tmp_path, plan_file, rng):
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(sl.BandParams(12, 3), rng))
    lines = cpath.read_text().splitlines()
    lines[1] = "12 12 nan inf"
    cpath.write_text("\n".join(lines) + "\n")
    rc = main(["analyze", "--plan", str(plan_file), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 3


def test_corrupt_plan_is_numeric_error(tmp_path, plan_file, rng):
    data = bytearray(plan_file.read_bytes())
    data[-1] ^= 0xFF  # flip a byte inside the last eigenvector block
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    params = sl.BandParams(12, 3)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(params, rng))
    rc = main(["analyze", "--plan", str(bad), "--in", str(cpath), "--out", str(tmp_path / "o.coeff")])
    assert rc == 4


def test_spectrum_command(tmp_path, plan_file, capsys):
    assert main(["spectrum", "--plan", str(plan_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 13 * 13 - 9
    assert abs(payload["sum_x"]) < 1e-10 * payload["dimension"]
    assert payload["count"] == payload["dimension"]
    assert sum(payload["histogram_counts"]) == payload["count"]


def test_spectrum_reads_a_plan_from_a_pipe(plan_file, piped, capsys):
    assert main(["spectrum", "--plan", str(plan_file)]) == 0
    want = capsys.readouterr().out
    assert main(["spectrum", "--plan", piped(plan_file.read_bytes())]) == 0
    assert capsys.readouterr().out == want


def test_spectrum_text_lines_are_the_json_scalars(plan_file, capsys):
    assert main(["spectrum", "--plan", str(plan_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["spectrum", "--plan", str(plan_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = ["n", "m", "dimension", "count", "sum_x", "mean_x2", "min", "max", "fraction_in_0_0.5"]
    assert [line.split(" = ") for line in lines] == [[key, str(payload[key])] for key in keys]


def test_grid_psi_constant_modulus_in_phi(tmp_path, capsys):
    plan_path = tmp_path / "plan.bin"
    assert main(["plan", "--n", "32", "--m", "0", "--out", str(plan_path)]) == 0
    out_csv = tmp_path / "psi.csv"
    rc = main([
        "grid", "--plan", str(plan_path), "--psi", "32", "1",
        "--theta-res", "9", "--phi-res", "8", "--out", str(out_csv),
    ])
    assert rc == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "theta,phi,re,im"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape == (72, 4)
    mods = np.hypot(data[:, 2], data[:, 3]).reshape(9, 8)
    assert np.abs(mods - mods[:, :1]).max() < 1e-12  # |psi| depends only on theta


def test_grid_psi_zero_order_is_real_and_polar(tmp_path):
    plan_path = tmp_path / "plan.bin"
    assert main(["plan", "--n", "32", "--m", "0", "--out", str(plan_path)]) == 0
    out_csv = tmp_path / "psi.csv"
    rc = main([
        "grid", "--plan", str(plan_path), "--psi", "0", "1",
        "--theta-res", "33", "--phi-res", "4", "--out", str(out_csv),
    ])
    assert rc == 0
    rows = out_csv.read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.abs(data[:, 3]).max() < 1e-14  # purely real
    mods = np.abs(data[:, 2]).reshape(33, 4)
    theta = data[:, 0].reshape(33, 4)[:, 0]
    assert theta[np.argmax(mods[:, 0])] < 0.2  # peak near the pole


def test_grid_zero_coefficients_gives_zero_grid(tmp_path, plan_file):
    params = sl.BandParams(12, 3)
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs(params))
    out_csv = tmp_path / "f.csv"
    rc = main(["grid", "--plan", str(plan_file), "--in", str(cpath), "--out", str(out_csv)])
    assert rc == 0
    rows = out_csv.read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.abs(data[:, 2:]).max() == 0.0


def test_grid_rejects_coefficients_of_another_band(tmp_path, rng, capsys):
    plan_path = tmp_path / "plan.bin"
    assert main(["plan", "--n", "4", "--m", "1", "--out", str(plan_path)]) == 0
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(sl.BandParams(12, 0), rng))
    out_csv = tmp_path / "f.csv"
    rc = main(["grid", "--plan", str(plan_path), "--in", str(cpath), "--out", str(out_csv)])
    assert rc == 2
    assert "do not match plan" in capsys.readouterr().err
    assert not out_csv.exists()


def test_grid_unknown_basis_index_is_usage_error(tmp_path, plan_file):
    rc = main([
        "grid", "--plan", str(plan_file), "--psi", "12", "5",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


def test_grid_rejects_in_with_psi_before_loading_plan(tmp_path, capsys):
    # the plan does not exist: a usage error (2), not an I/O error (3), proves
    # the pair is rejected before the plan is read
    out_csv = tmp_path / "x.csv"
    argv = ["grid", "--plan", str(tmp_path / "missing.bin"), "--in", str(tmp_path / "c.coeff")]
    assert main([*argv, "--psi", "0", "1", "--out", str(out_csv)]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert not out_csv.exists()


def _per_sample_grid_text(grid, field):
    """Reference for the chunked writer: the grid CSV, one f-string per sample."""
    lines = ["theta,phi,re,im"]
    for p, th in enumerate(grid.theta):
        for q, ph in enumerate(grid.phi):
            v = field[p, q]
            lines.append(f"{th:.17g},{ph:.17g},{v.real:.17g},{v.imag:.17g}")
    return "\n".join(lines) + "\n"


# P x Q just below, at and just above one chunk of rows
@pytest.mark.parametrize("res", [(63, 65), (64, 64), (17, 241)])
def test_grid_csv_is_byte_identical_to_per_sample_format(tmp_path, plan_file, plan_cache, res):
    out_csv = tmp_path / "g.csv"
    theta_res, phi_res = res
    assert abs(theta_res * phi_res - sphere_basis._ROWS_PER_CHUNK) <= 1
    argv = ["grid", "--plan", str(plan_file), "--psi", "-2", "3", "--out", str(out_csv)]
    assert main([*argv, "--theta-res", str(theta_res), "--phi-res", str(phi_res)]) == 0
    plan = plan_cache(12, 3)
    grid = sl.SphereGrid.for_degree(12, theta_res=theta_res, phi_res=phi_res)
    field = sl.evaluate_basis_on_grid(plan.params, plan.blocks, -2, 3, grid)
    assert out_csv.read_bytes() == _per_sample_grid_text(grid, field).encode()


@pytest.mark.parametrize("res", [["--theta-res", "0"], ["--phi-res", "0"]])
def test_grid_zero_resolution_is_usage_error(tmp_path, plan_file, res):
    out_csv = tmp_path / "x.csv"
    assert main(["grid", "--plan", str(plan_file), "--psi", "0", "1", *res, "--out", str(out_csv)]) == 2
    assert not out_csv.exists()


def test_bench_single_n_reports_exact_op_count(capsys):
    rc = main(["bench", "--n-list", "12", "--m", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dense_ops"] == [dense_op_count(12, 3)]


def test_bench_both_modes_and_blocks(capsys):
    rc = main(["bench", "--n-list", "12", "--blocks", "64", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dense_seconds"][0] > 0
    assert payload["block_seconds"][0] > 0


@pytest.fixture
def untimed(monkeypatch):
    """Replace the bench timing helpers with ones that fail if called."""

    def timed(*args):
        raise AssertionError("timed before the sizes were checked")

    monkeypatch.setattr(cli, "bench_dense_band", timed)
    monkeypatch.setattr(cli, "bench_fast_block", timed)


def test_bench_without_work_is_usage_error():
    assert main(["bench"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["--n-list", "4,4"], ["--blocks", "2,2"], ["--n-list", "0,4"], ["--n-list", "8,16", "--blocks", "64,64"]],
)
def test_bench_fit_without_two_distinct_positive_sizes_is_usage_error(untimed, capsys, argv):
    # the sizes are refused before anything is timed, with one message
    assert main(["bench", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a log-log fit needs two or more distinct positive sizes")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n-list", "128,8", "--m", "12"], "need 0 <= m <= n"),
        (["--n-list", "16,4", "--m", "6"], "need 0 <= m <= n"),
        (["--blocks", "512,1"], "cascade needs at least two coefficients"),
        (["--n-list", "8", "--blocks", "1"], "cascade needs at least two coefficients"),
    ],
    ids=["band", "band-of-two", "block", "block-and-band"],
)
def test_bench_refuses_a_bad_size_before_timing_any(untimed, capsys, argv, message):
    assert main(["bench", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["--n-list", "8,16,32", "--m", "2", "--blocks", "64,256"], ["--blocks", "64"], ["--n-list", "12"]],
)
def test_bench_text_and_json_report_one_payload(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "bench_fast_block", lambda size: 2e-6 * size**1.5)
    monkeypatch.setattr(cli, "bench_dense_band", lambda n, m: (3e-7 * n**3, dense_op_count(n, m)))
    assert main(["bench", *argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["bench", *argv]) == 0
    text = capsys.readouterr().out
    blocks = re.findall(r"^fast block N= *(\d+): +(\S+) ms$", text, re.M)
    dense = re.findall(r"^dense n= *(\d+): +(\S+) ms  ops=(\d+)$", text, re.M)
    exponents = re.findall(r"^(fast per-block|dense) exponent: (\S+)$", text, re.M)
    assert len(text.splitlines()) == len(blocks) + len(dense) + len(exponents)
    assert [int(sz) for sz, _ in blocks] == payload.get("block_sizes", [])
    assert [float(t) for _, t in blocks] == pytest.approx(
        [1e3 * t for t in payload.get("block_seconds", [])], abs=1e-4
    )
    assert [int(n) for n, _, _ in dense] == payload.get("n_list", [])
    assert [float(t) for _, t, _ in dense] == pytest.approx(
        [1e3 * t for t in payload.get("dense_seconds", [])], abs=1e-4
    )
    assert [int(op) for _, _, op in dense] == payload.get("dense_ops", [])
    fitted = {"fast per-block": payload.get("block_exponent"), "dense": payload.get("dense_exponent")}
    assert {name: float(e) for name, e in exponents} == pytest.approx(
        {name: e for name, e in fitted.items() if e is not None}, abs=5e-4
    )


def test_fit_loglog_needs_two_distinct_positive_sizes():
    assert fit_loglog([2, 4, 8], [1.0, 4.0, 16.0]) == pytest.approx(2.0)
    for sizes in ([4, 4], [4], [0, 4], [-2, 4]):
        with pytest.raises(ValueError, match="two or more distinct positive sizes"):
            fit_loglog(sizes, np.ones(len(sizes)))


def _scipy_modules_after(code, *args):
    """Run ``code`` (which may set ``rc``) in a fresh interpreter with ``args``.

    Returns its exit code ``rc`` and the sorted names of the scipy* modules it loaded.
    """
    listing = "sorted(m for m in sys.modules if m.startswith('scipy'))"
    probe = f"import json, sys\nrc = 0\n{code}\nprint(json.dumps({listing}))\nsys.exit(rc)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True
    )
    return run.returncode, json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["spherelok", "spherelok.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}") == (0, [])


def test_plan_build_loads_no_scipy(tmp_path):
    path = tmp_path / "p.bin"
    code = "from spherelok.cli import main\nrc = main(sys.argv[1:])"
    args = ("plan", "--n", "16", "--m", "4", "--out", str(path))
    assert _scipy_modules_after(code, *args) == (0, [])
    assert sl.load_plan(path).params == sl.BandParams(16, 4)


def test_bench_blocks_loads_no_scipy():
    # the fast pipeline's Chebyshev transforms run on numpy's FFT
    code = "from spherelok.cli import main\nrc = main(sys.argv[1:])"
    assert _scipy_modules_after(code, "bench", "--blocks", "64", "--json") == (0, [])


def test_band_spectra_load_no_scipy():
    code = "from spherelok.approximation import SpectralSummary\nSpectralSummary.from_band(16, 4)"
    assert _scipy_modules_after(code) == (0, [])


def test_analyze_on_existing_plan_loads_no_scipy(tmp_path, plan_file, rng):
    cpath = tmp_path / "c.coeff"
    save_coeffs(cpath, HarmonicCoeffs.random_unit(sl.BandParams(12, 3), rng))
    dpath = tmp_path / "d.coeff"
    code = "from spherelok.cli import main\nrc = main(sys.argv[1:])"
    args = ("analyze", "--plan", str(plan_file), "--in", str(cpath), "--out", str(dpath))
    assert _scipy_modules_after(code, *args) == (0, [])
    assert isinstance(load_coeffs(dpath), sl.LocalizedCoeffs)


def test_commands_hold_one_blas_thread_and_restore_the_count(blas_at_two, monkeypatch, tmp_path, plan_file):
    # a command that succeeds and one that fails both run at one BLAS thread
    get = blas_at_two
    load_plan, seen = cli.load_plan, []

    def watched_load_plan(path):
        seen.append(get())
        return load_plan(path)

    monkeypatch.setattr(cli, "load_plan", watched_load_plan)
    assert main(["spectrum", "--plan", str(plan_file)]) == 0
    assert main(["spectrum", "--plan", str(tmp_path / "missing.bin")]) == 3
    assert seen == [1, 1] and get() == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed 8/8" in out


def test_selftest_fails_under_python_o():
    # python -O strips assert statements; a failed check must still fail
    code = (
        "import sys; from spherelok import cli; "
        "cli.mean_value = lambda coeffs: 42.0; sys.exit(cli.main(['selftest']))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL mean value quadratic form: \n" in run.stdout
    assert "selftest passed 7/8" in run.stdout
