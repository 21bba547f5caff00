import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import armle
from armle import (
    ExperimentConfig,
    ExperimentReport,
    Unstable,
    aggregate,
    ar1,
    fgn,
    run_experiment,
    white,
)
from armle import experiments
from armle.cli import main
from armle.experiments import _block_size, _simulate_block
from armle.inference import _solve_gram
from armle.state import _gram_moment, _path_weights


def _base_cfg(**kw):
    args = dict(
        experiment="consistency",
        theta=(0.3,),
        kernel=ar1(0.5),
        sample_sizes=(100, 200),
        replicates=5,
        seed=7,
    )
    args.update(kw)
    return ExperimentConfig(**args)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel", [white(), ar1(0.5), ar1(-0.7), fgn(0.7)], ids=lambda k: k.label()
)
@pytest.mark.parametrize("theta", [(0.3,), (0.5, 0.2), (0.4, 0.2, 0.1)])
def test_score_arrays_match_public_route(kernel, theta):
    p = len(theta)
    n = 120
    eps = np.stack([armle.standard_normals(armle.substream(42, r), n) for r in range(5)])
    w, z1, sigma2 = _simulate_block(np.array(theta), kernel, eps)
    cum_gram, cum_mom = _gram_moment(w, z1, sigma2, range(1, n + 1))
    for r in range(5):
        xi = armle.noise_from_innovations(kernel, eps[r])
        x = armle.apply_ar(theta, xi)
        path = armle.filter_observations(x, kernel, p)
        np.testing.assert_allclose(w[r], _path_weights(path), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(z1[r], path.states[:, 0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sigma2, path.sigma2, rtol=1e-12)
        acc, _ = armle.accumulate(path, theta)
        np.testing.assert_allclose(cum_gram[r, -1], acc.gram, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(cum_mom[r, -1], acc.moment, rtol=1e-11, atol=1e-12)
        theta_hat, _, ok = _solve_gram(cum_gram[r, -1:], cum_mom[r, -1:])
        assert ok[0]
        np.testing.assert_allclose(theta_hat[0], armle.mle(path).theta_hat, rtol=1e-9)
    # A replicate simulated alone agrees with the same replicate inside the
    # block to rounding (BLAS may sum a batch of one in another order).
    w3, z3, _ = _simulate_block(np.array(theta), kernel, eps[3:4])
    assert np.linalg.norm(w3[0] - w[3]) <= 1e-12 * np.linalg.norm(w[3])
    assert np.linalg.norm(z3[0] - z1[3]) <= 1e-12 * np.linalg.norm(z1[3])


@pytest.mark.parametrize("kernel", [ar1(0.5), fgn(0.7)], ids=lambda k: k.label())
@pytest.mark.parametrize("p", [1, 3])
def test_gram_moment_at_sizes_matches_running_sums(kernel, p):
    # The segment-sum branch (ends at the sample sizes) agrees with the
    # running outer-product branch (an end at every k) read at the sizes.
    n, sizes = 300, (7, 50, 51, 200, 300)
    eps = np.stack([armle.standard_normals(armle.substream(11, r), n) for r in range(3)])
    theta = np.resize([0.4, -0.2, 0.1], p)
    w, z1, sigma2 = _simulate_block(theta, kernel, eps)
    gram, moment = _gram_moment(w, z1, sigma2, sizes)
    cum_gram, cum_mom = _gram_moment(w, z1, sigma2, range(1, n + 1))
    assert gram.shape == (3, len(sizes), p, p) and moment.shape == (3, len(sizes), p)
    idx = np.array(sizes) - 1
    for ours, running in ((gram, cum_gram[:, idx]), (moment, cum_mom[:, idx])):
        err = np.linalg.norm((ours - running).reshape(3, len(sizes), -1), axis=-1)
        scale = np.linalg.norm(running.reshape(3, len(sizes), -1), axis=-1)
        assert np.all(err <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_normalizes_sizes():
    cfg = _base_cfg(sample_sizes=(200, 100, 200))
    assert cfg.sample_sizes == (100, 200)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        _base_cfg(replicates=0).validate()
    with pytest.raises(ValueError):
        _base_cfg(experiment="warp").validate()
    with pytest.raises(Unstable):
        _base_cfg(theta=(1.2,)).validate()
    with pytest.raises(ValueError):
        _base_cfg(sample_sizes=(2,), theta=(0.2, 0.1)).validate()
    with pytest.raises(ValueError):
        _base_cfg(alpha=1.5).validate()
    with pytest.raises(ValueError):
        _base_cfg(experiment="test_power").validate()  # missing shift
    with pytest.raises(ValueError):
        _base_cfg(experiment="lan_remainder", shift=(0.1, 0.2)).validate()
    with pytest.raises(ValueError):
        _base_cfg(experiment="lil", sample_sizes=(12,)).validate()
    with pytest.raises(Unstable):
        _base_cfg(
            experiment="test_power", shift=(8.0,), sample_sizes=(100,)
        ).validate()


def test_config_json_round_trip():
    cfg = _base_cfg(
        experiment="test_power", shift=(1.5,), sample_sizes=(300, 600), alpha=0.1
    )
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert back == cfg


def test_config_from_json_rejects_missing_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"experiment": "clt"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict([1, 2])


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def test_report_deterministic_and_job_independent():
    cfg = _base_cfg(replicates=6)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    r3 = run_experiment(cfg, jobs=2)
    for other in (r2, r3):
        a, b = r1.to_json_dict(), other.to_json_dict()
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert r1.rows == other.rows


def test_report_job_independent_across_blocks():
    # Replicates span several blocks, the last one partial.
    cfg = _base_cfg(
        experiment="test_size", kernel=fgn(0.7), sample_sizes=(2048,), replicates=131
    )
    assert _block_size(cfg) == 64
    ref = run_experiment(cfg, jobs=1)
    expected = ref.to_json_dict()
    expected.pop("runtime_seconds")
    for jobs in (2, 3):
        other = run_experiment(cfg, jobs=jobs)
        assert other.rows == ref.rows
        got = other.to_json_dict()
        got.pop("runtime_seconds")
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_aggregate_recomputable_from_rows():
    cfg = _base_cfg(experiment="clt", replicates=8)
    report = run_experiment(cfg)
    per_n, summary = aggregate(cfg, report.rows)
    assert per_n == report.per_n
    assert summary == report.summary
    # Row order must not matter.
    shuffled = list(reversed(report.rows))
    per_n2, summary2 = aggregate(cfg, shuffled)
    assert per_n2 == report.per_n
    assert summary2 == report.summary


def test_progress_callback_streams():
    lines = []
    run_experiment(_base_cfg(replicates=10), progress=lines.append)
    assert lines
    assert all("consistency" in line for line in lines)


def test_consistency_error_shrinks():
    cfg = _base_cfg(sample_sizes=(100, 400, 1600), replicates=30)
    report = run_experiment(cfg)
    meds = [report.per_n[n]["median_err"] for n in (100, 400, 1600)]
    assert meds[0] > meds[2]
    assert report.summary["slope"] < -0.2
    assert report.failures == 0
    assert report.passed


def test_consistency_centered_at_zero_theta():
    cfg = ExperimentConfig(
        experiment="consistency",
        theta=(0.0,),
        kernel=white(),
        sample_sizes=(2000,),
        replicates=60,
        seed=3,
    )
    report = run_experiment(cfg)
    assert report.per_n[2000]["median_err"] < 0.05


def test_clt_studentized_moments():
    cfg = _base_cfg(experiment="clt", sample_sizes=(800,), replicates=120)
    report = run_experiment(cfg)
    entry = report.per_n[800]
    assert entry["count"] == 120
    assert entry["rel_error_fro"] < 0.5
    assert entry["ks_pvalue_1"] > 0.001
    assert entry["target_11"] == pytest.approx(
        float(armle.fisher_info_inverse((0.3,))[0, 0]), rel=1e-12
    )


def test_test_size_near_alpha():
    cfg = _base_cfg(experiment="test_size", sample_sizes=(600,), replicates=400)
    report = run_experiment(cfg)
    rate = report.per_n[600]["rejection_rate"]
    assert abs(rate - 0.05) < 0.04
    assert report.summary["critical"] == pytest.approx(3.8414588206941285, abs=1e-8)


def test_power_with_zero_shift_behaves_like_size():
    size_cfg = _base_cfg(experiment="test_size", sample_sizes=(400,), replicates=300)
    power_cfg = _base_cfg(
        experiment="test_power", shift=(0.0,), sample_sizes=(400,), replicates=300
    )
    size_rate = run_experiment(size_cfg).per_n[400]["rejection_rate"]
    power_report = run_experiment(power_cfg)
    power_rate = power_report.per_n[400]["rejection_rate"]
    assert abs(power_rate - size_rate) < 0.06
    assert power_report.summary["noncentrality"] == 0.0
    assert power_report.summary["predicted_power"] == pytest.approx(0.05, abs=1e-9)


def test_power_exceeds_size_under_shift():
    cfg = _base_cfg(
        experiment="test_power", shift=(1.9,), sample_sizes=(600,), replicates=200
    )
    report = run_experiment(cfg)
    assert report.per_n[600]["rejection_rate"] > 0.3
    assert 0.0 <= report.summary["predicted_power"] <= 1.0


def test_power_checks_stability_at_every_sample_size(tmp_path):
    # For p >= 3 the stability region is not convex: theta + shift/sqrt(n) is
    # stable at n = 100 but explosive (root modulus 1.0074) at n = 1600.
    cfg = _base_cfg(
        experiment="test_power",
        theta=(-1.66361136, -0.67012713, 0.00893431),
        shift=(39.6624161, -10.4378817, 4.0020369),
        sample_sizes=(100, 1600),
    )
    with pytest.raises(Unstable, match="n=1600"):
        cfg.validate()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["experiment", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 4


def test_lan_remainder_zero_shift_is_exact_zero():
    cfg = _base_cfg(
        experiment="lan_remainder", shift=(0.0,), sample_sizes=(100, 200), replicates=4
    )
    report = run_experiment(cfg)
    assert all(row["remainder"] == 0.0 for row in report.rows)


def test_lan_remainder_medians_shrink():
    cfg = _base_cfg(
        experiment="lan_remainder",
        shift=(1.0,),
        sample_sizes=(250, 1000, 4000),
        replicates=30,
        seed=3,
    )
    report = run_experiment(cfg)
    meds = [report.per_n[n]["median_abs_remainder"] for n in (250, 1000, 4000)]
    assert meds[2] < meds[0]
    assert report.summary["medians_monotone_decreasing"] in (True, False)


def test_qsl_single_path():
    cfg = ExperimentConfig(
        experiment="qsl",
        theta=(0.5,),
        kernel=white(),
        sample_sizes=(2000, 4000),
        replicates=1,
        seed=0,
    )
    report = run_experiment(cfg)
    for n in (2000, 4000):
        row = next(r for r in report.rows if r["n"] == n)
        assert row["trace_ratio"] > 0.0
        assert math.isfinite(row["trace_ratio"])
        assert row["k0"] >= 1
    assert report.summary["target_trace"] == pytest.approx(0.75, rel=1e-12)


def test_lil_envelope_fields():
    cfg = ExperimentConfig(
        experiment="lil",
        theta=(0.5,),
        kernel=white(),
        sample_sizes=(500, 2000),
        replicates=12,
        seed=1,
    )
    report = run_experiment(cfg)
    assert report.summary["envelope"] == pytest.approx(math.sqrt(0.75), rel=1e-12)
    entry = report.per_n[2000]
    assert entry["count"] == 12
    assert 0.0 <= entry["within_share"] <= 1.0
    # Running maxima are monotone between the two checkpoints per path.
    by_rep = {}
    for row in report.rows:
        by_rep.setdefault(row["replicate"], {})[row["n"]] = row["running_max_abs_s"]
    for rep_rows in by_rep.values():
        assert rep_rows[2000] >= rep_rows[500] - 1e-12


def test_failed_rows_are_excluded_from_aggregates():
    cfg = _base_cfg(experiment="clt", sample_sizes=(100,), replicates=4)
    report = run_experiment(cfg)
    rows = [dict(r) for r in report.rows]
    rows[0]["ok"] = 0
    rows[0]["scaled_1"] = None
    per_n, _ = aggregate(cfg, rows)
    assert per_n[100]["failures"] == 1
    assert per_n[100]["count"] == 3



def test_failed_replicate_rows_through_harness(tmp_path, monkeypatch):
    # The first replicate of every block fails its solves, as a singular
    # Gram would make it.
    solve = experiments._solve_gram

    def failing_solve(gram, moment):
        theta, cond, ok = solve(gram, moment)
        theta[0], cond[0], ok[0] = np.nan, math.inf, False
        return theta, cond, ok

    monkeypatch.setattr(experiments, "_solve_gram", failing_solve)
    for name in armle.EXPERIMENTS:
        cfg = _base_cfg(
            experiment=name,
            theta=(0.4, 0.2),
            sample_sizes=(40, 60),
            replicates=3,
            shift=(0.5, 0.5),
        )
        report = run_experiment(cfg)
        estimated = report.columns[3:]
        for row in report.rows:
            if name == "lan_remainder" or row["replicate"] != 0:
                assert row["ok"] == 1, (name, row)
                assert all(row[c] is not None for c in estimated), (name, row)
            else:
                # reject and k0 too are None, not 0.
                assert row["ok"] == 0, (name, row)
                assert all(row[c] is None for c in estimated), (name, row)
        report.write(tmp_path / name)
        with open(tmp_path / name / "raw.csv", encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))[1:]
        for line in lines:
            failed = line[0] == "0" and name != "lan_remainder"
            assert (line[2] == "0") == failed, (name, line)
            assert all((cell == "") == failed for cell in line[3:]), (name, line)

# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def test_report_files_round_trip(tmp_path):
    cfg = _base_cfg(experiment="clt", sample_sizes=(150, 300), replicates=6)
    report = run_experiment(cfg)
    report.write(tmp_path)

    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["experiment"] == "clt"
    assert doc["config"] == cfg.to_json_dict()
    assert doc["failures"] == 0
    assert doc["passed"] is True
    assert set(doc["per_n"]) == {"150", "300"}

    with open(tmp_path / "raw.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert list(rows[0]) == report.columns
    parsed = [
        {
            "replicate": int(r["replicate"]),
            "n": int(r["n"]),
            "ok": int(r["ok"]),
            "scaled_1": float(r["scaled_1"]) if r["scaled_1"] else None,
        }
        for r in rows
    ]
    per_n, summary = aggregate(cfg, parsed)
    for n in (150, 300):
        for key, value in report.per_n[n].items():
            assert per_n[n][key] == pytest.approx(value, rel=1e-12, abs=1e-12)
    for key, value in report.summary.items():
        if isinstance(value, float):
            assert summary[key] == pytest.approx(value, rel=1e-12)
        else:
            assert summary[key] == value

    with open(tmp_path / "curves.csv", encoding="utf-8", newline="") as fh:
        curve_rows = list(csv.DictReader(fh))
    assert [r["n"] for r in curve_rows] == ["150", "300"]
    assert float(curve_rows[0]["rel_error_fro"]) == pytest.approx(
        report.per_n[150]["rel_error_fro"]
    )


_P2_HEADERS = {
    "consistency": ["replicate", "n", "ok", "err", "theta_hat_1", "theta_hat_2"],
    "clt": ["replicate", "n", "ok", "scaled_1", "scaled_2"],
    "qsl": ["replicate", "n", "ok", "trace_ratio", "k0"],
    "lil": ["replicate", "n", "ok", "s_n", "running_max_abs_s"],
    "lan_remainder": ["replicate", "n", "ok", "remainder"],
    "test_size": ["replicate", "n", "ok", "statistic", "reject"],
    "test_power": ["replicate", "n", "ok", "statistic", "reject"],
}


def test_raw_csv_headers_of_every_experiment(tmp_path):
    assert set(_P2_HEADERS) == set(armle.EXPERIMENTS)
    for name, header in _P2_HEADERS.items():
        cfg = _base_cfg(
            experiment=name,
            theta=(0.4, 0.2),
            sample_sizes=(40, 60),
            replicates=2,
            shift=(0.5, 0.5),
        )
        report = run_experiment(cfg)
        assert report.columns == header, name
        report.write(tmp_path / name)
        with open(tmp_path / name / "raw.csv", encoding="utf-8") as fh:
            assert fh.readline().rstrip("\n").split(",") == header, name


def _battery():
    """The battery script, loaded as a module, and its directory."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    spec = importlib.util.spec_from_file_location(
        "run_verification", scripts / "run_verification.py"
    )
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    return battery, scripts


def test_verification_battery_script(tmp_path, monkeypatch):
    battery, scripts = _battery()
    written = {}
    write = ExperimentReport.write

    def recording_write(self, out_dir):
        written[Path(out_dir).name] = self.columns
        write(self, out_dir)

    monkeypatch.setattr(ExperimentReport, "write", recording_write)
    assert battery.main(["--quiet", "--out", str(tmp_path)]) == 0
    stems = {p.stem for p in (scripts / "configs").glob("*.json")}
    assert set(written) == stems
    for stem, columns in written.items():
        with open(tmp_path / stem / "raw.csv", encoding="utf-8") as fh:
            assert fh.readline().rstrip("\n").split(",") == columns, stem


def test_verification_battery_prints_missing_headlines(tmp_path, capsys):
    # One sample size leaves no slope; one replicate leaves no covariance.
    battery, _ = _battery()
    configs = tmp_path / "configs"
    configs.mkdir()
    for name, cfg in {
        "consistency": _base_cfg(sample_sizes=(100,)),
        "clt": _base_cfg(experiment="clt", replicates=1),
    }.items():
        (configs / f"{name}.json").write_text(json.dumps(cfg.to_json_dict()))
    argv = ["--quiet", "--configs", str(configs), "--out", str(tmp_path / "out")]
    assert battery.main(argv) == 0
    out = capsys.readouterr().out
    assert "log-log slope n/a" in out
    assert "covariance rel error n/a" in out
