import concurrent.futures
import csv
import dataclasses
import importlib.util
import json
import math
import os
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
from armle.experiments import _block_size, _rows_block
from armle.inference import _solve_gram
from armle.state import FilteredPath, _gram_moment, _simulated_path

from _oracles import dense_state


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
    block = _simulated_path(theta, eps, armle.pacf_and_variances(kernel, n))
    cum_gram, cum_mom = _gram_moment(block, range(1, n + 1))
    for r in range(5):
        xi = armle.noise_from_innovations(kernel, eps[r])
        x = armle.apply_ar(theta, xi)
        path = armle.filter_observations(x, kernel, p)
        ref = dense_state(x, kernel, p)
        tol = 1e-12 * np.max(np.abs(x))
        for z, w in ((block.z[r], block.w[r]), (path.z, path.w)):
            np.testing.assert_allclose(z, ref.z[:, 0], rtol=0, atol=tol)
            np.testing.assert_allclose(w, ref.w, rtol=0, atol=tol)
        np.testing.assert_allclose(block.sigma2, ref.sigma2, rtol=1e-12)
        np.testing.assert_allclose(path.sigma2, ref.sigma2, rtol=1e-12)
        acc, _ = armle.accumulate(path, theta)
        np.testing.assert_allclose(cum_gram[r, -1], acc.gram, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(cum_mom[r, -1], acc.moment, rtol=1e-11, atol=1e-12)
        theta_hat, _, ok = _solve_gram(cum_gram[r, -1:], cum_mom[r, -1:])
        assert ok[0]
        np.testing.assert_allclose(theta_hat[0], armle.mle(path).theta_hat, rtol=1e-9)


_P5_THETA = tuple(-np.real(np.poly([0.9j, -0.9j, 0.6, -0.5, 0.3]))[1:])


@pytest.mark.parametrize(
    "kernel", [white(), ar1(0.5), fgn(0.7)], ids=lambda k: k.label()
)
@pytest.mark.parametrize("theta", [(0.3,), (0.5, 0.2), _P5_THETA], ids=len)
def test_replicate_alone_is_its_row_in_a_block(kernel, theta):
    # A replicate simulated alone is the same replicate inside a block, bit for
    # bit: every step of the recursion is elementwise over the replicates, and
    # the path has one layout for any block, so its Gram and moment, at the
    # sample sizes and at every k, and its estimates are the same calls.
    def arrays(path, ends):
        gram, moment = _gram_moment(path, ends)
        return (path.z, path.w, gram, moment, *_solve_gram(gram, moment))

    n, reps = 1000, 16
    walk = armle.pacf_and_variances(kernel, n)
    eps = np.stack([armle.standard_normals(armle.substream(5, r), n) for r in range(reps)])
    block = _simulated_path(theta, eps, walk)
    for ends in ((40, 333, 1000), range(1, n + 1)):
        in_block = arrays(block, ends)
        for r in (0, 9):
            alone = arrays(_simulated_path(theta, eps[r : r + 1], walk), ends)
            for ours, theirs in zip(alone, in_block, strict=True):
                np.testing.assert_array_equal(ours[0], theirs[r])


@pytest.mark.parametrize("kernel", [white(), ar1(0.5), fgn(0.7)], ids=lambda k: k.label())
@pytest.mark.parametrize("p", [1, 2])
def test_block_columns_are_the_library_statistic_and_remainder(kernel, p):
    # The harness's statistic and remainder columns are lr_statistic and the
    # LAN remainder of lan_decomposition on each replicate's own path, bit for
    # bit: both read the one definition in inference.
    n, reps = 500, 16
    theta, shift = (0.4, -0.2)[:p], (1.0, -0.5)[:p]
    walk = armle.pacf_and_variances(kernel, n)
    eps = np.stack([armle.standard_normals(armle.substream(7, r), n) for r in range(reps)])
    block = _simulated_path(theta, eps, walk)
    columns = {}
    for experiment in ("test_size", "lan_remainder"):
        cfg = _base_cfg(
            experiment=experiment, theta=theta, kernel=kernel, sample_sizes=(n,), shift=shift
        )
        for row in _rows_block(cfg, walk, range(reps)):
            columns.setdefault(row["replicate"], {}).update(row)
    for r in range(reps):
        path = FilteredPath(z=block.z[r], w=block.w[r], sigma2=block.sigma2)
        assert columns[r]["statistic"] == armle.lr_statistic(path, theta)
        assert columns[r]["remainder"] == armle.lan_decomposition(path, theta, shift)[2]


@pytest.mark.parametrize("kernel", [ar1(0.5), fgn(0.7)], ids=lambda k: k.label())
@pytest.mark.parametrize("p", [1, 3])
def test_gram_moment_at_sizes_matches_running_sums(kernel, p):
    # The segment-sum branch (ends at the sample sizes) agrees with the
    # running outer-product branch (an end at every k) read at the sizes.
    n, sizes = 300, (7, 50, 51, 200, 300)
    eps = np.stack([armle.standard_normals(armle.substream(11, r), n) for r in range(3)])
    theta = np.resize([0.4, -0.2, 0.1], p)
    path = _simulated_path(theta, eps, armle.pacf_and_variances(kernel, n))
    gram, moment = _gram_moment(path, sizes)
    cum_gram, cum_mom = _gram_moment(path, range(1, n + 1))
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
    # A finite direction whose envelope v^T I^-1 v overflows: a ValueError, not
    # the RuntimeWarning that the suite turns into an error.
    for direction in ((1e200,), (1e200, -1e200)):
        with pytest.raises(ValueError, match="direction"):
            _base_cfg(experiment="lil", theta=(0.3,) * len(direction),
                      sample_sizes=(50,), direction=direction).validate()
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


def test_config_rejects_other_than_the_config_given():
    # A truncated integer, a bool or a dropped key would run another config.
    base = _base_cfg().to_json_dict()
    for bad, key in (
        ({"sample_sizes": [100.9, 200]}, "sample_sizes"),
        ({"replicates": 2.9}, "replicates"),
        ({"seed": True}, "seed"),
        ({"seed": np.bool_(True)}, "seed"),
        ({"replicates": "5"}, "replicates"),
        ({"alfa": 0.5}, "alfa"),
        ({"theta": 0.3}, "theta"),
        ({"sample_sizes": 100}, "sample_sizes"),
        ({"shift": 0.5}, "shift"),
        ({"kernel": "white"}, "kernel"),
        ({"kernel": '{"family": "white", "params": {}}'}, "kernel"),
    ):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json_dict(base | bad)
    with pytest.raises(ValueError, match="replicates"):
        _base_cfg(replicates=5.5)
    with pytest.raises(ValueError, match="direction"):
        _base_cfg(direction=1.0)
    # Integers of numpy type and integral floats are the same config.
    same = ExperimentConfig.from_json_dict(
        base | {"sample_sizes": [np.int64(100), 200.0], "replicates": np.int32(5)}
    )
    assert same == _base_cfg()
    assert type(same.replicates) is int and type(same.sample_sizes[0]) is int


def test_config_rejects_bools_and_strings_as_reals():
    # float() would read True as 1.0 and "0.1" as 0.1 and run another config.
    base = _base_cfg(experiment="lil").to_json_dict()
    for bad, key in (
        ({"theta": [True]}, "theta"),
        ({"theta": "0.3"}, "theta"),
        ({"alpha": "0.1"}, "alpha"),
        ({"alpha": np.bool_(False)}, "alpha"),
        ({"shift": ["1"]}, "shift"),
        ({"direction": [None]}, "direction"),
    ):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json_dict(base | bad)
    # Integers, floats and numpy numbers are the same config.
    same = ExperimentConfig.from_json_dict(
        base | {"theta": [np.float32(0.25)], "alpha": 0.05, "direction": [np.int64(1)]}
    )
    assert same.theta == (0.25,) and same.direction == (1.0,)
    assert type(same.theta[0]) is float and type(same.direction[0]) is float
    assert ExperimentConfig.from_json_dict(base | {"theta": [0], "alpha": 0.05}).theta == (0.0,)


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
    assert _block_size(armle.pacf_and_variances(cfg.kernel, 2048)) == 8
    ref = run_experiment(cfg, jobs=1)
    expected = ref.to_json_dict()
    expected.pop("runtime_seconds")
    for jobs in (2, 3):
        other = run_experiment(cfg, jobs=jobs)
        assert other.rows == ref.rows
        got = other.to_json_dict()
        got.pop("runtime_seconds")
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("n", [1, 100, 2000, 2**14, 20000])
def test_block_size_is_one_budget_for_every_kernel(n):
    sizes = {_block_size(armle.pacf_and_variances(k, n)) for k in (white(), ar1(0.5), fgn(0.7))}
    assert sizes == {min(64, max(1, 2**14 // n))}


@pytest.mark.parametrize("kernel", [ar1(0.5), fgn(0.7)], ids=lambda k: k.label())
def test_every_experiment_same_files_in_blocks_of_one(tmp_path, monkeypatch, kernel):
    # A replicate's row does not depend on its block: blocks of one replicate
    # write the same raw.csv and curves.csv as the default partition.
    def files(name, partition):
        cfg = _base_cfg(
            experiment=name, kernel=kernel, theta=(0.4, 0.2),
            sample_sizes=(60, 400), replicates=5, shift=(0.5, 0.5),
        )
        out = tmp_path / partition / name
        run_experiment(cfg).write(out)
        return [(out / f).read_bytes() for f in ("raw.csv", "curves.csv")]

    default = {name: files(name, "default") for name in armle.EXPERIMENTS}
    monkeypatch.setattr(experiments, "_block_size", lambda walk: 1)
    for name in armle.EXPERIMENTS:
        assert files(name, "ones") == default[name], name


def test_jobs_split_a_config_of_one_default_block(monkeypatch):
    # test_size_fgn07's 50 replicates at n = 256 fit in one default block;
    # --jobs 2 maps them as two, and the rows are those of the one block.
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "test_size_fgn07.json"
    cfg = ExperimentConfig.from_json_dict(
        {**json.loads(path.read_text()), "sample_sizes": [256]}
    )
    mapped = []
    map_blocks = experiments._map_blocks

    def in_process(fn, blocks, jobs):
        mapped.append((list(blocks), jobs))
        return map_blocks(fn, blocks, 1)

    monkeypatch.setattr(experiments, "_map_blocks", in_process)
    one = run_experiment(cfg, jobs=1)
    two = run_experiment(cfg, jobs=2)
    assert mapped[0] == ([range(50)], 1)
    assert mapped[1] == ([range(25), range(25, 50)], 2)
    assert two.rows == one.rows


def test_pool_starts_one_worker_per_block(monkeypatch):
    workers = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    # _map_blocks imports the pool class where it starts one; four CPUs cap nothing here.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert list(experiments._map_blocks(len, [range(2), range(2, 5)], 4)) == [2, 3]
    assert list(experiments._map_blocks(len, [range(4)], 3)) == [4]
    assert workers == [2, 1]


def test_pool_is_capped_at_the_available_cpus(monkeypatch):
    # --jobs 1000 on 1000 blocks of 2 asks for no more workers than CPUs; the
    # blocks still follow jobs, so the report is that of --jobs 1. The pool
    # maps in process and starts no worker.
    workers = []

    class InProcess:
        def __init__(self, max_workers=None):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    blocks = [range(k, k + 2) for k in range(0, 2000, 2)]
    assert list(experiments._map_blocks(len, blocks, 1000)) == [2] * 1000
    cfg = _base_cfg(kernel=white(), sample_sizes=(20,), replicates=40)
    assert run_experiment(cfg, jobs=40).rows == run_experiment(cfg).rows
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count in (5, None):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        list(experiments._map_blocks(len, blocks, 1000))
    assert workers == [3, 3, 5, 1]


@pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
def test_run_experiment_refuses_jobs_not_a_positive_integer(monkeypatch, jobs):
    def refuse(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(experiments, "pacf_and_variances", refuse)
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(_base_cfg(), jobs=jobs)


def test_verification_battery_refuses_jobs_below_one(tmp_path, capsys):
    battery, _ = _battery()
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_info:
            battery.main(["--quiet", "--jobs", jobs, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("kernel", [white(), ar1(0.5), fgn(0.7)], ids=lambda k: k.label())
def test_power_sizes_read_a_prefix_of_one_walk(monkeypatch, kernel):
    # A run walks the filter once, to its largest size, Markov kernels
    # included. Giving each test_power size a walk of its own length instead
    # leaves the report unchanged.
    cfg = _base_cfg(
        experiment="test_power", kernel=kernel, shift=(1.0,),
        sample_sizes=(60, 151, 400), replicates=5,
    )
    walks = []

    def own_walk(theta, eps, walk):
        walks.append(len(walk[0]))
        n = eps.shape[-1]
        return _simulated_path(theta, eps, armle.pacf_and_variances(kernel, n))

    shared = run_experiment(cfg)
    monkeypatch.setattr(experiments, "_simulated_path", own_walk)
    separate = run_experiment(cfg)
    assert walks == [400, 400, 400]
    assert separate.rows == shared.rows
    for report in (shared, separate):
        report.runtime_seconds = 0.0
    assert separate.to_json_dict() == shared.to_json_dict()


def test_power_checks_stability_at_every_sample_size(tmp_path):
    # For p >= 3 the stability region is not convex: theta + shift/sqrt(n) is
    # stable at n = 100 but explosive (root modulus 1.0074) at n = 1600. The
    # lan_remainder expansion point is checked the same way.
    for experiment in ("test_power", "lan_remainder"):
        cfg = _base_cfg(
            experiment=experiment,
            theta=(-1.66361136, -0.67012713, 0.00893431),
            shift=(39.6624161, -10.4378817, 4.0020369),
            sample_sizes=(100, 1600),
        )
        with pytest.raises(Unstable, match="n=1600"):
            cfg.validate()
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        out_dir = tmp_path / experiment
        assert main(["experiment", "--config", str(path), "--out-dir", str(out_dir)]) == 4
        assert not out_dir.exists()


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


def test_non_finite_report_writes_nothing(tmp_path):
    # report.json is serialized before the out dir or any file is made.
    report = run_experiment(_base_cfg(replicates=2))
    bad = dataclasses.replace(report, summary=report.summary | {"envelope": math.inf})
    with pytest.raises(ValueError):
        bad.write(tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_json_text_lists_arrays_and_refuses_the_rest():
    text = experiments._json_text({"b": np.array([[0.1, -2.0]]), "a": np.array([3])})
    assert json.loads(text) == {"a": [3], "b": [[0.1, -2.0]]}
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            experiments._json_text({"x": np.array([0.0, bad])})
    for other in (object(), {1.0}, np.int64(1)):
        with pytest.raises(TypeError):
            experiments._json_text({"x": other})


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


def test_verification_battery_reads_a_byte_order_mark(tmp_path):
    # A config saved with a UTF-8 byte-order mark runs as the config without.
    battery, _ = _battery()
    text = json.dumps(_base_cfg(replicates=3).to_json_dict()).encode()
    for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "tiny.json").write_bytes(data)
        argv = ["--quiet", "--configs", str(tmp_path / name), "--out", str(tmp_path / f"{name}_out")]
        assert battery.main(argv) == 0
    for f in ("raw.csv", "curves.csv"):
        marked, plain = (tmp_path / f"{name}_out" / "tiny" / f for name in ("marked", "plain"))
        assert marked.read_bytes() == plain.read_bytes()
