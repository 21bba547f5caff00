import csv
import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11; pytest depends on tomli there
    import tomli as tomllib

import numpy as np
import pytest

import armle
from armle import cli
from armle.cli import main

AR1_KERNEL = '{"family": "ar1", "params": {"a": 0.5}}'
WHITE_KERNEL = '{"family": "white", "params": {}}'
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# Child interpreters import the same armle package as this process, whether it
# comes from src/ or from an install.
CHILD_ENV = {
    "ARMLE_QUIET": "1",
    "PATH": "/usr/local/bin:/usr/bin:/bin",
    "PYTHONPATH": str(Path(armle.__file__).resolve().parents[1]),
}


@pytest.fixture(autouse=True)
def quiet_env(monkeypatch):
    monkeypatch.setenv("ARMLE_QUIET", "1")


def _simulate_file(tmp_path, name, theta, kernel_json, n, seed):
    path = tmp_path / name
    code = main(
        [
            "simulate",
            "--theta",
            ",".join(repr(v) for v in theta),
            "--kernel",
            kernel_json,
            "--n",
            str(n),
            "--seed",
            str(seed),
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_stdout_schema(capsys):
    assert main(["simulate", "--theta", "0.5", "--kernel", WHITE_KERNEL, "--n", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 6
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4", "5"]


def test_simulate_matches_library_and_round_trips(tmp_path):
    path = _simulate_file(tmp_path, "sim.csv", (0.4, 0.2), AR1_KERNEL, 40, 9)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = np.array([float(r["x"]) for r in rows])
    expected = armle.simulate_series((0.4, 0.2), armle.ar1(0.5), 40, 9)
    np.testing.assert_array_equal(got, expected)


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--theta", "0.3", "--kernel", AR1_KERNEL, "--n", "20", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_lag_one_autocorrelation(capsys):
    assert (
        main(["simulate", "--theta", "0.5", "--kernel", WHITE_KERNEL, "--n", "20000"])
        == 0
    )
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    x = np.array([float(line.split(",")[1]) for line in lines])
    acf1 = float(x[1:] @ x[:-1] / (x @ x))
    assert acf1 == pytest.approx(0.5, abs=0.02)


def test_simulate_accepts_repeated_roots(capsys):
    # (z - 0.5)**3: a stable parameter whose characteristic root is triple.
    argv = ["simulate", "--theta", "1.5,-0.75,0.125", "--kernel", WHITE_KERNEL, "--n", "50"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 51


# ---------------------------------------------------------------------------
# filter / validate-kernel
# ---------------------------------------------------------------------------


def test_filter_dumps_pacf_and_variances(capsys):
    assert main(["filter", "--kernel", AR1_KERNEL, "--n", "6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,beta,sigma2"
    beta, sigma2 = armle.pacf_and_variances(armle.ar1(0.5), 6)
    for m, line in enumerate(lines[1:]):
        idx, b, s2 = line.split(",")
        assert int(idx) == m + 1
        assert float(b) == beta[m]
        assert float(s2) == sigma2[m]
    # ar1 closed form: beta_1 = a, beta_m = 0 afterwards; sigma_1 = 1.
    assert float(lines[1].split(",")[1]) == 0.5
    assert float(lines[1].split(",")[2]) == 1.0
    assert float(lines[2].split(",")[1]) == 0.0
    assert float(lines[2].split(",")[2]) == 0.75
    assert float(lines[3].split(",")[2]) == 0.75


def test_validate_kernel_json(capsys):
    assert main(["validate-kernel", "--kernel", AR1_KERNEL, "--horizon", "64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["horizon"] == 64
    assert doc["min_sigma2"] > 0.0


# ---------------------------------------------------------------------------
# estimate / test / lan
# ---------------------------------------------------------------------------


def test_estimate_recovers_theta(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.5,), WHITE_KERNEL, 2000, 1)
    assert (
        main(["estimate", "--in", str(path), "--p", "1", "--kernel", WHITE_KERNEL]) == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "theta_hat",
        "stderr",
        "gram_over_n",
        "cond",
        "n",
        "p",
        "log_likelihood",
    }
    assert doc["n"] == 2000
    assert doc["p"] == 1
    assert abs(doc["theta_hat"][0] - 0.5) < 0.1
    assert len(doc["stderr"]) == 1
    assert doc["stderr"][0] > 0.0
    assert np.array(doc["gram_over_n"]).shape == (1, 1)


def test_estimate_matches_library(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.3, 0.2), AR1_KERNEL, 300, 5)
    assert (
        main(["estimate", "--in", str(path), "--p", "2", "--kernel", AR1_KERNEL]) == 0
    )
    doc = json.loads(capsys.readouterr().out)
    x = armle.simulate_series((0.3, 0.2), armle.ar1(0.5), 300, 5)
    ref = armle.mle(armle.filter_observations(x, armle.ar1(0.5), 2))
    assert doc["theta_hat"] == ref.theta_hat.tolist()
    assert doc["stderr"] == ref.stderr.tolist()
    assert doc["gram_over_n"] == ref.gram_over_n.tolist()


def test_test_matches_library(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.3, 0.2), AR1_KERNEL, 300, 5)
    argv = ["test", "--in", str(path), "--kernel", AR1_KERNEL, "--theta0", "0.25,0.1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    x = armle.simulate_series((0.3, 0.2), armle.ar1(0.5), 300, 5)
    ref = armle.lr_test(armle.filter_observations(x, armle.ar1(0.5), 2), (0.25, 0.1), 0.05)
    assert doc["statistic"] == ref.statistic
    assert doc["pvalue"] == ref.pvalue
    assert doc["reject"] is ref.reject


def test_test_at_the_estimate_accepts(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.4,), WHITE_KERNEL, 500, 3)
    assert (
        main(["estimate", "--in", str(path), "--p", "1", "--kernel", WHITE_KERNEL]) == 0
    )
    theta_hat = json.loads(capsys.readouterr().out)["theta_hat"][0]
    assert (
        main(
            [
                "test",
                "--in",
                str(path),
                "--kernel",
                WHITE_KERNEL,
                "--theta0",
                repr(theta_hat),
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["statistic"] == pytest.approx(0.0, abs=1e-9)
    assert doc["reject"] is False
    assert doc["pvalue"] > 0.99


def test_test_far_null_rejects_with_exit_zero(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.5,), WHITE_KERNEL, 1500, 2)
    assert (
        main(
            [
                "test",
                "--in",
                str(path),
                "--kernel",
                WHITE_KERNEL,
                "--theta0",
                "-0.5",
                "--alpha",
                "0.05",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["reject"] is True
    assert doc["pvalue"] < 1e-6
    assert doc["critical"] == pytest.approx(3.8414588206941285, abs=1e-9)


def test_test_at_the_least_subnormal_level(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.3, 0.1, 0.0), WHITE_KERNEL, 200, 4)
    argv = ["test", "--in", str(path), "--kernel", WHITE_KERNEL, "--theta0", "0.3,0.1,0",
            "--alpha", "5e-324"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical"] == pytest.approx(1495.7402734591207, rel=1e-15)
    assert doc["reject"] is False


def test_lan_identity_via_cli(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.3,), AR1_KERNEL, 200, 8)
    assert (
        main(
            [
                "lan",
                "--in",
                str(path),
                "--kernel",
                AR1_KERNEL,
                "--theta0",
                "0.3",
                "--u",
                "0.7",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    x = armle.simulate_series((0.3,), armle.ar1(0.5), 200, 8)
    fpath = armle.filter_observations(x, armle.ar1(0.5), 1)
    s, i, r = armle.lan_decomposition(fpath, (0.3,), (0.7,))
    assert (doc["score_term"], doc["info_term"], doc["remainder"]) == (s, i, r)
    assert doc["delta_loglik"] == s + i + r


def test_round_trip_within_three_stderr(tmp_path, capsys):
    # simulate -> estimate must recover theta within 3 plug-in standard
    # errors on every one of 20 fixed seeds.
    theta = 0.5
    misses = []
    for seed in range(20):
        path = _simulate_file(
            tmp_path, f"rt{seed}.csv", (theta,), AR1_KERNEL, 600, seed
        )
        assert (
            main(["estimate", "--in", str(path), "--p", "1", "--kernel", AR1_KERNEL])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        err = abs(doc["theta_hat"][0] - theta)
        if err > 3.0 * doc["stderr"][0]:
            misses.append((seed, err, doc["stderr"][0]))
    assert not misses


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _experiment_config(tmp_path, **overrides):
    obj = {
        "experiment": "clt",
        "theta": [0.3],
        "kernel": {"family": "ar1", "params": {"a": 0.5}},
        "sample_sizes": [150, 300],
        "replicates": 8,
        "seed": 11,
    }
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = _experiment_config(tmp_path)
    out_dir = tmp_path / "out"
    assert (
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "clt"
    assert doc["passed"] is True
    for name in ("report.json", "raw.csv", "curves.csv"):
        assert (out_dir / name).is_file()
    with open(out_dir / "report.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == doc
    with open(out_dir / "raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert len(raw) == 16
    assert set(raw[0]) == {"replicate", "n", "ok", "scaled_1"}


def test_experiment_deterministic_across_jobs(tmp_path, capsys):
    cfg = _experiment_config(tmp_path)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out_dir, jobs in ((out1, "1"), (out2, "1"), (out3, "2")):
        assert (
            main(
                [
                    "experiment",
                    "--config",
                    str(cfg),
                    "--out-dir",
                    str(out_dir),
                    "--jobs",
                    jobs,
                ]
            )
            == 0
        )
        capsys.readouterr()
    raw1 = (out1 / "raw.csv").read_bytes()
    assert (out2 / "raw.csv").read_bytes() == raw1
    assert (out3 / "raw.csv").read_bytes() == raw1
    assert (out2 / "curves.csv").read_bytes() == (out1 / "curves.csv").read_bytes()
    docs = []
    for out_dir in (out1, out2, out3):
        with open(out_dir / "report.json") as fh:
            doc = json.load(fh)
        doc.pop("runtime_seconds")
        docs.append(doc)
    assert docs[1] == docs[0]
    assert docs[2] == docs[0]


def test_experiment_progress_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ARMLE_QUIET")
    cfg = _experiment_config(tmp_path, replicates=10)
    assert (
        main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        == 0
    )
    err = capsys.readouterr().err
    assert "config: " in err
    assert "[clt] replicate 10/10" in err


# ---------------------------------------------------------------------------
# exit codes and config echo
# ---------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["simulate", "--theta", "0.5"]) == 2  # missing required args
    assert (
        main(["simulate", "--theta", "0.5", "--kernel", "{bad json", "--n", "5"]) == 2
    )
    extra_key = '{"family": "ar1", "params": {"a": 0.5, "b": 1}}'
    assert main(["simulate", "--theta", "0.5", "--kernel", extra_key, "--n", "5"]) == 2
    assert (
        main(["simulate", "--theta", "abc", "--kernel", WHITE_KERNEL, "--n", "5"]) == 2
    )
    assert (
        main(
            ["simulate", "--theta", "0.5", "--kernel", WHITE_KERNEL, "--n", "0"]
        )
        == 2
    )
    negative_seed = ["--n", "5", "--seed", "-1"]
    assert main(["simulate", "--theta", "0.5", "--kernel", WHITE_KERNEL] + negative_seed) == 2
    capsys.readouterr()
    # A non-finite vector is a usage error naming the value, like a non-number.
    series = ["--in", str(_simulate_file(tmp_path, "x.csv", (0.3,), WHITE_KERNEL, 50, 1))]
    for argv, value in (
        (["simulate", "--theta", "nan", "--n", "5"], "'nan'"),
        (["test", *series, "--theta0", "nan"], "'nan'"),
        (["lan", *series, "--theta0", "0.3", "--u", "inf"], "'inf'"),
    ):
        assert main(argv + ["--kernel", WHITE_KERNEL]) == 2
        assert value in capsys.readouterr().err


def test_lan_dimension_mismatch_exits_2(tmp_path, capsys):
    path = _simulate_file(tmp_path, "x.csv", (0.3,), WHITE_KERNEL, 50, 1)
    code = main(
        [
            "lan",
            "--in",
            str(path),
            "--kernel",
            WHITE_KERNEL,
            "--theta0",
            "0.3",
            "--u",
            "0.1,0.2",
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_data_errors_exit_3(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert (
        main(["estimate", "--in", str(missing), "--p", "1", "--kernel", WHITE_KERNEL])
        == 3
    )
    no_x = tmp_path / "no_x.csv"
    no_x.write_text("t,y\n1,0.5\n")
    assert (
        main(["estimate", "--in", str(no_x), "--p", "1", "--kernel", WHITE_KERNEL]) == 3
    )
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("t,x\n1,0.5\n2,oops\n")
    assert (
        main(["estimate", "--in", str(bad_cell), "--p", "1", "--kernel", WHITE_KERNEL])
        == 3
    )
    empty = tmp_path / "empty.csv"
    empty.write_text("t,x\n")
    assert (
        main(["estimate", "--in", str(empty), "--p", "1", "--kernel", WHITE_KERNEL])
        == 3
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, message",
    [
        # The line number counts blank lines, so it names the bad cell's line.
        ("t,x\n1,0.5\n\n\n2,oops\n", ":5: cannot parse 'oops' as a real"),
        ("t,x\n1,0.5\n2\n", ":3: missing value in column 'x'"),
        ("x,t,x\n1,2,3\n", "names the column 'x' more than once"),
    ],
    ids=["bad-cell-after-blank-lines", "short-row", "duplicate-x"],
)
def test_csv_errors_name_line_and_column(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["estimate", "--in", str(bad), "--p", "1", "--kernel", WHITE_KERNEL]) == 3
    err = capsys.readouterr().err
    assert err.startswith("armle: error: ") and message in err, err


def test_csv_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    # Spreadsheet programs start a UTF-8 CSV with EF BB BF, before the header 'x'.
    data = b"x,t\n0.5,1\n-0.25,2\n1.0,3\n"
    outs = []
    for name, prefix in [("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")]:
        path = tmp_path / name
        path.write_bytes(prefix + data)
        capsys.readouterr()
        assert main(["estimate", "--in", str(path), "--p", "1", "--kernel", WHITE_KERNEL]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_csv_blank_lines_are_skipped(tmp_path, capsys):
    outs = []
    for name, text in [("plain.csv", "t,x\n1,0.5\n2,-0.25\n3,1.0\n"),
                       ("blank.csv", "t,x\n\n1,0.5\n\n2,-0.25\n3,1.0\n\n")]:
        path = tmp_path / name
        path.write_text(text)
        capsys.readouterr()
        assert main(["estimate", "--in", str(path), "--p", "1", "--kernel", WHITE_KERNEL]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["n"] == 3


def test_short_series_exits_3(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("t,x\n1,0.4\n2,0.1\n")
    assert (
        main(["estimate", "--in", str(short), "--p", "3", "--kernel", WHITE_KERNEL])
        == 3
    )
    capsys.readouterr()


def test_degeneracy_exits_4(tmp_path, capsys):
    assert (
        main(["simulate", "--theta", "1.5", "--kernel", WHITE_KERNEL, "--n", "10"]) == 4
    )
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("t,x\n" + "".join(f"{t},0.0\n" for t in range(1, 31)))
    assert (
        main(["estimate", "--in", str(zeros), "--p", "1", "--kernel", WHITE_KERNEL])
        == 4
    )
    capsys.readouterr()
    # A finite series whose Gram overflows to inf: singular, not a data error,
    # reported in one line and without numpy warnings.
    huge = tmp_path / "huge.csv"
    x = np.random.default_rng(0).standard_normal(50) * 1e200
    huge.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    for argv in (["estimate", "--p", "3"], ["test", "--theta0", "0,0,0"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--in", str(huge), "--kernel", WHITE_KERNEL])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("armle: numeric degeneracy") and err.count("\n") == 1


def test_experiment_config_errors(tmp_path, capsys, monkeypatch):
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("armle.experiments._simulated_path", no_replicates)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert (
        main(["experiment", "--config", str(bad_json), "--out-dir", str(tmp_path)])
        == 3
    )
    assert (
        main(
            [
                "experiment",
                "--config",
                str(tmp_path / "missing.json"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        == 3
    )
    zero_reps = _experiment_config(tmp_path, replicates=0)
    assert (
        main(["experiment", "--config", str(zero_reps), "--out-dir", str(tmp_path)])
        == 3
    )
    unstable = _experiment_config(tmp_path, theta=[1.2])
    assert (
        main(["experiment", "--config", str(unstable), "--out-dir", str(tmp_path)])
        == 4
    )
    capsys.readouterr()
    # An unknown key, a non-integral count or a bool as a real is refused, not
    # dropped or coerced; so is an unknown kernel param.
    extra_param = {"family": "ar1", "params": {"a": 0.5, "b": 1}}
    for bad, key in (
        ({"alfa": 0.5}, "alfa"),
        ({"replicates": 2.9}, "replicates"),
        ({"theta": [True]}, "theta"),
        ({"kernel": extra_param}, "unknown params"),
        ({"theta": 0.3}, "theta"),
        ({"sample_sizes": 100}, "sample_sizes"),
        ({"shift": 0.5}, "shift"),
        ({"kernel": "white"}, "kernel"),
        # A non-finite shift or direction is refused before any replicate runs,
        # and so is a finite direction whose lil envelope overflows.
        ({"shift": [math.nan], "experiment": "lan_remainder"}, "shift"),
        ({"direction": [math.inf], "experiment": "lil"}, "direction"),
        ({"direction": [1e200], "experiment": "lil"}, "direction"),
        ({"shift": [math.nan], "experiment": "test_power"}, "shift"),
    ):
        cfg = _experiment_config(tmp_path, **bad)
        out_dir = tmp_path / f"out_{next(iter(bad))}"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 3
        assert key in capsys.readouterr().err
        assert not out_dir.exists()


def test_experiment_filter_breakdown_exits_4(tmp_path, capsys, monkeypatch):
    # No separate kernel check runs: the run's one walk, to the largest size,
    # breaks down at step 2, after the config echo, and is reported in one
    # line naming the config.
    monkeypatch.delenv("ARMLE_QUIET")
    near_unit_root = {"family": "ar1", "params": {"a": 1.0 - 1e-13}}
    cfg = _experiment_config(tmp_path, kernel=near_unit_root)
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out_{jobs}"
        argv = ["experiment", "--config", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs]
        assert main(argv) == 4
        echo, error = capsys.readouterr().err.splitlines()
        assert echo.startswith("config: ")
        assert error.startswith(f"armle: error: {str(cfg)!r}: ")
        assert "at step 2" in error
        assert not out_dir.exists()


def test_experiment_config_with_byte_order_mark(tmp_path, capsys):
    # A config saved with a UTF-8 byte-order mark runs as the config without.
    plain = _experiment_config(tmp_path)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for cfg in (plain, marked):
        out_dir = tmp_path / cfg.stem
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    for name in ("raw.csv", "curves.csv"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()
    capsys.readouterr()


def test_unallocatable_size_exits_3(tmp_path, capsys, monkeypatch):
    # At 10**15 steps numpy refuses the first array at once, so nothing is
    # allocated; fGn's walk asks for its arrays before any covariance.
    def no_covariance(*args):
        raise AssertionError("a covariance was evaluated")

    monkeypatch.setattr("armle.filtering._covariance", no_covariance)
    fgn_kernel = '{"family": "fgn", "params": {"H": 0.7}}'
    cfg = _experiment_config(tmp_path, sample_sizes=[150, 10**15])
    for argv in (
        *(["filter", "--kernel", kernel, "--n", str(10**15)]
          for kernel in (WHITE_KERNEL, AR1_KERNEL, fgn_kernel)),
        ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("armle: cannot allocate: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_non_finite_result_exits_4(tmp_path, capsys, monkeypatch):
    path = _simulate_file(tmp_path, "x.csv", (0.3,), WHITE_KERNEL, 50, 1)
    lr_test = cli.lr_test

    def infinite_estimate(*args):
        return dataclasses.replace(lr_test(*args), theta_hat=np.array([math.inf]))

    monkeypatch.setattr(cli, "lr_test", infinite_estimate)
    out = tmp_path / "t.json"
    argv = ["test", "--in", str(path), "--kernel", WHITE_KERNEL, "--theta0", "0.3"]
    assert main(argv + ["--out", str(out)]) == 4
    assert "refusing to emit non-finite numbers" in capsys.readouterr().err
    assert not out.exists()


def _echo(capsys) -> dict:
    line = capsys.readouterr().err.split("\n")[0]
    assert line.startswith("config: ")
    return json.loads(line[len("config: ") :])


def test_config_echo_and_quiet(tmp_path, capsys, monkeypatch):
    # The echo is the arguments given, unset options omitted.
    x = _simulate_file(tmp_path, "x.csv", (0.3,), WHITE_KERNEL, 40, 1)
    monkeypatch.delenv("ARMLE_QUIET")
    cases = [
        (
            ["simulate", "--theta", "0.3", "--kernel", WHITE_KERNEL, "--n", "4"],
            {"command", "kernel", "n", "out", "seed", "theta"},
        ),
        (
            ["filter", "--kernel", WHITE_KERNEL, "--n", "3"],
            {"command", "kernel", "n", "out"},
        ),
        (
            ["estimate", "--in", str(x), "--p", "1", "--kernel", WHITE_KERNEL],
            {"command", "in", "kernel", "out", "p"},
        ),
        (
            ["test", "--in", str(x), "--kernel", WHITE_KERNEL, "--theta0", "0.3"],
            {"alpha", "command", "in", "kernel", "out", "theta0"},
        ),
        (
            ["lan", "--in", str(x), "--kernel", WHITE_KERNEL, "--theta0", "0.3", "--u", "1"],
            {"command", "in", "kernel", "out", "theta0", "u"},
        ),
        (
            ["validate-kernel", "--kernel", WHITE_KERNEL, "--horizon", "8"],
            {"command", "horizon", "kernel", "out"},
        ),
    ]
    for argv, keys in cases:
        assert main(argv) == 0
        echoed = _echo(capsys)
        assert set(echoed) == keys, argv[0]
        assert echoed["command"] == argv[0]
        assert echoed["kernel"] == {"family": "white", "params": {}}
    assert echoed["horizon"] == 8
    cfg = _experiment_config(tmp_path, replicates=2)
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    echoed = _echo(capsys)
    assert set(echoed) == {"command", "config", "jobs", "out_dir"}
    resolved = armle.ExperimentConfig.from_json_dict(json.loads(cfg.read_text()))
    assert echoed["config"] == resolved.to_json_dict()
    monkeypatch.setenv("ARMLE_QUIET", "1")
    assert main(["filter", "--kernel", WHITE_KERNEL, "--n", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_output_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "validate-kernel",
                "--kernel",
                WHITE_KERNEL,
                "--horizon",
                "16",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def test_module_and_console_entry_points(tmp_path):
    argv_tail = ["simulate", "--theta", "0.5", "--kernel", WHITE_KERNEL, "--n", "4"]
    module = subprocess.run(
        [sys.executable, "-m", "armle"] + argv_tail,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert module.returncode == 0, module.stderr
    assert module.stdout.startswith("t,x\n")
    # Run the console script declared in pyproject.toml the way an installer's
    # launcher does: import the callable, name the program, exit with its result.
    with open(PYPROJECT, "rb") as fh:
        target, attr = tomllib.load(fh)["project"]["scripts"]["armle"].split(":")
    launcher = (
        f"import sys\nfrom {target} import {attr}\n"
        f"sys.argv[0] = 'armle'\nsys.exit({attr}())\n"
    )
    console = subprocess.run(
        [sys.executable, "-c", launcher] + argv_tail,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert console.returncode == 0, console.stderr
    assert console.stdout == module.stdout


_SCIPY_LOADED = (
    "import sys\n"
    "def slow_scipy():\n"
    "    return sorted(m for m in sys.modules\n"
    "                  if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats']))\n"
)


def _loaded_after(code: str) -> set[str]:
    """Modules under scipy, and the process pool's module, that a fresh
    interpreter holds after running ``code``."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                  or m == 'concurrent.futures.process']))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_lazy_scipy_imports(tmp_path):
    """Each command, in a fresh interpreter, loads only the scipy it calls.
    `import armle` and `import armle.cli` load no scipy and no process pool;
    estimate, test, lan, filter and validate-kernel load no scipy (the
    chi-square tail and quantile and the information matrix need numpy and
    math alone); no command loads scipy.signal or scipy.stats; and
    `experiment --jobs 1` starts no pool. apply_ar and the test experiments leave
    scipy.signal and scipy.stats unloaded; the clt aggregate imports scipy.stats
    on first use."""
    fgn = '{"family": "fgn", "params": {"H": 0.7}}'
    white = '{"family": "white", "params": {}}'
    series = str(_simulate_file(tmp_path, "fgn.csv", (0.4, -0.2), fgn, 300, 3))
    config = str(_experiment_config(tmp_path, experiment="test_size", replicates=4))
    out = ["--out", str(tmp_path / "out")]
    argvs = {
        "simulate white": ["simulate", "--theta", "0.4,-0.2", "--kernel", white,
                           "--n", "50"] + out,
        "simulate fgn": ["simulate", "--theta", "0.4,-0.2", "--kernel", fgn, "--n", "50"] + out,
        "estimate white": ["estimate", "--p", "2", "--in", series, "--kernel", white] + out,
        "estimate fgn": ["estimate", "--p", "2", "--in", series, "--kernel", fgn] + out,
        "test": ["test", "--theta0", "0.4,-0.2", "--in", series, "--kernel", fgn] + out,
        "lan": ["lan", "--theta0", "0.4,-0.2", "--u", "1.0,0.5", "--in", series,
                "--kernel", fgn] + out,
        "filter": ["filter", "--kernel", fgn, "--n", "50"] + out,
        "validate-kernel": ["validate-kernel", "--kernel", fgn] + out,
        "experiment --jobs 1": ["experiment", "--config", config, "--out-dir",
                                str(tmp_path / "jobs1"), "--jobs", "1"],
        "experiment --jobs 2": ["experiment", "--config", config, "--out-dir",
                                str(tmp_path / "jobs2"), "--jobs", "2"],
    }
    codes = {"import armle": "import armle\n", "import armle.cli": "import armle.cli\n"}
    for name, argv in argvs.items():
        codes[name] = f"from armle.cli import main\nassert main({argv!r}) == 0\n"
    loaded = {name: _loaded_after(code) for name, code in codes.items()}
    scipy = {name: {".".join(m.split(".")[:2]) for m in mods if m.startswith("scipy")}
             for name, mods in loaded.items()}
    for name in ("import armle", "import armle.cli"):
        assert loaded[name] == set(), (name, loaded[name])
    for name in ("estimate white", "estimate fgn", "test", "lan", "filter", "validate-kernel"):
        assert scipy[name] == set(), (name, scipy[name])
    for name, packages in scipy.items():
        assert not packages & {"scipy.signal", "scipy.stats"}, (name, packages)
    pool = "concurrent.futures.process"
    assert pool not in loaded["experiment --jobs 1"]
    assert pool in loaded["experiment --jobs 2"]
    # First use in a fresh interpreter: only the clt aggregate imports scipy.stats.
    first_use = _SCIPY_LOADED + (
        "import numpy as np\n"
        "from armle import ExperimentConfig, apply_ar, run_experiment, white\n"
        "x = apply_ar((0.5,), np.ones(4))\n"
        "assert x.tolist() == [1.0, 1.5, 1.75, 1.875], x\n"
        "assert slow_scipy() == [], slow_scipy()\n"
        "size = run_experiment(ExperimentConfig(\n"
        "    'test_size', (0.3,), white(), (200,), 8, 1))\n"
        "assert 0.0 <= size.per_n[200]['rejection_rate'] <= 1.0\n"
        "power = run_experiment(ExperimentConfig(\n"
        "    'test_power', (0.3,), white(), (200,), 8, 1, shift=(2.0,)))\n"
        "assert 0.05 < power.summary['predicted_power'] < 1.0\n"
        "assert slow_scipy() == [], slow_scipy()\n"
        "clt = run_experiment(ExperimentConfig('clt', (0.3,), white(), (200,), 8, 1))\n"
        "assert 0.0 <= clt.per_n[200]['ks_pvalue_1'] <= 1.0\n"
        "assert 'scipy.stats' in slow_scipy()\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", first_use], capture_output=True, text=True, env=CHILD_ENV
    )
    assert child.returncode == 0, child.stderr
