"""Acceptance gate: one test per advertised guarantee, one printed line each.

Every test prints ``ACCEPTANCE <name>: PASS/FAIL (detail)`` on the real
stdout (bypassing capture) before asserting, so a full run always shows the
per-criterion scoreboard. Heavy Monte Carlo runs are shared between criteria
through a module-level cache; all seeds are fixed, so every number below is
reproducible bit for bit.
"""
import math
import time

import numpy as np
import scipy.stats

import armle
from armle import (
    ExperimentConfig,
    accumulate,
    aggregate,
    apply_ar,
    ar1,
    companion,
    fgn,
    filter_observations,
    fisher_info,
    fisher_info_inverse,
    kernel_rows,
    lan_decomposition,
    log_likelihood,
    lr_statistic,
    mle,
    noise_from_innovations,
    pacf_and_variances,
    run_experiment,
    standard_normals,
    substream,
    white,
)

from _oracles import dense_whitening, ols_ar, random_stable_theta, series_fisher

#: Seed of the heavy Monte Carlo acceptance runs.
HEAVY_SEED = 20260823

#: Grace multiplier on the advertised wall-clock budgets of the cheap
#: criteria, absorbing slow CI hosts without touching the math tolerances.
RUNTIME_GRACE = 5.0

_KERNELS = (white(), ar1(0.5), ar1(-0.7), fgn(0.7), fgn(0.3))

_cache: dict = {}


def _report(capsys, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def _shared(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def _size_report():
    cfg = ExperimentConfig(
        experiment="test_size",
        theta=(0.3,),
        kernel=ar1(0.5),
        sample_sizes=(2000,),
        replicates=2000,
        seed=HEAVY_SEED,
    )
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# 1. Whitening filter against the dense Toeplitz oracle
# ---------------------------------------------------------------------------


def test_durbin_levinson_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    n = 50
    for kernel in _KERNELS:
        rows = kernel_rows(kernel, n)
        _, sigma2 = pacf_and_variances(kernel, n)
        oracle_rows, oracle_sigma2 = dense_whitening(kernel, n)
        for m in range(n):
            got = rows[m, : m + 1]
            want = oracle_rows[m, : m + 1]
            worst = max(worst, float(np.max(np.abs(got - want)) / np.abs(want).max()))
        worst = max(
            worst, float(np.max(np.abs(sigma2 - oracle_sigma2) / oracle_sigma2))
        )
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-10 and runtime <= 1.0 * RUNTIME_GRACE
    _report(
        capsys,
        "durbin_levinson_oracle",
        ok,
        f"max rel err {worst:.3e} over {len(_KERNELS)} kernels at n={n}, "
        f"{runtime:.2f}s",
    )
    assert worst <= 1e-10
    assert runtime <= 1.0 * RUNTIME_GRACE


# ---------------------------------------------------------------------------
# 2. White-noise reduction: identity filter, MLE == OLS
# ---------------------------------------------------------------------------


def test_white_noise_reduction(capsys):
    t0 = time.perf_counter()
    beta, sigma2 = pacf_and_variances(white(), 60)
    filter_ok = bool(np.all(beta == 0.0) and np.all(sigma2 == 1.0))
    worst = 0.0
    for i in range(20):
        p = (i % 3) + 1
        theta = random_stable_theta(np.random.default_rng(300 + i), p, 0.8)
        x = apply_ar(theta, standard_normals(substream(77, i), 240))
        path = filter_observations(x, white(), p)
        ours = mle(path).theta_hat
        ref = ols_ar(x, p)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    runtime = time.perf_counter() - t0
    ok = filter_ok and worst <= 1e-12 and runtime <= 1.0 * RUNTIME_GRACE
    _report(
        capsys,
        "white_noise_reduction",
        ok,
        f"identity filter {filter_ok}, max |mle - ols| {worst:.3e} "
        f"over 20 datasets, {runtime:.2f}s",
    )
    assert filter_ok
    assert worst <= 1e-12
    assert runtime <= 1.0 * RUNTIME_GRACE


# ---------------------------------------------------------------------------
# 3. Fisher information: closed form, series oracle, fixed point
# ---------------------------------------------------------------------------


def test_lyapunov_fisher(capsys):
    t0 = time.perf_counter()
    closed = 0.0
    for th in (-0.8, -0.3, 0.0, 0.4, 0.9):
        got = float(fisher_info((th,))[0, 0])
        closed = max(closed, abs(got - 1.0 / (1.0 - th * th)))
    series = 0.0
    gen = np.random.default_rng(31)
    for p in (2, 3):
        for _ in range(5):
            theta = random_stable_theta(gen, p, 0.85)
            got = fisher_info(theta)
            ref = series_fisher(theta, terms=500)
            series = max(series, float(np.max(np.abs(got - ref) / np.abs(ref).max())))
    residual = 0.0
    gen = np.random.default_rng(32)
    for i in range(100):
        p = (i % 4) + 1
        theta = random_stable_theta(gen, p, 0.9)
        info = fisher_info(theta)
        a = companion(theta)
        b = np.zeros((p, 1))
        b[0, 0] = 1.0
        res = info - a @ info @ a.T - b @ b.T
        residual = max(residual, float(np.max(np.abs(res))))
    runtime = time.perf_counter() - t0
    ok = (
        closed <= 1e-12
        and series <= 1e-10
        and residual <= 1e-10
        and runtime <= 1.0 * RUNTIME_GRACE
    )
    _report(
        capsys,
        "lyapunov_fisher",
        ok,
        f"closed-form err {closed:.3e}, series err {series:.3e}, "
        f"fixed-point residual {residual:.3e} over 100 thetas, {runtime:.2f}s",
    )
    assert closed <= 1e-12
    assert series <= 1e-10
    assert residual <= 1e-10
    assert runtime <= 1.0 * RUNTIME_GRACE


# ---------------------------------------------------------------------------
# 4. Exact finite-n local expansion identity
# ---------------------------------------------------------------------------


def test_lan_identity(capsys):
    t0 = time.perf_counter()
    gen = np.random.default_rng(99)
    kernels = (white(), ar1(0.6), fgn(0.7))
    worst = 0.0
    checked = 0
    while checked < 100:
        p = int(gen.integers(1, 4))
        theta0 = random_stable_theta(gen, p, 0.7)
        n = int(gen.integers(50, 400))
        u = gen.normal(scale=0.3, size=p)
        if not armle.is_stable(theta0 + u / math.sqrt(n)):
            continue
        kernel = kernels[checked % 3]
        eps = standard_normals(substream(1000 + checked, 0), n)
        x = apply_ar(theta0, noise_from_innovations(kernel, eps))
        path = filter_observations(x, kernel, p)
        s, i, r = lan_decomposition(path, theta0, u)
        delta = log_likelihood(path, theta0 + u / math.sqrt(n)) - log_likelihood(
            path, theta0
        )
        worst = max(worst, abs(delta - (s + i + r)))
        checked += 1
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-9 and runtime <= 5.0 * RUNTIME_GRACE
    _report(
        capsys,
        "lan_identity",
        ok,
        f"max |delta_loglik - expansion| {worst:.3e} over 100 instances, "
        f"{runtime:.2f}s",
    )
    assert worst <= 1e-9
    assert runtime <= 5.0 * RUNTIME_GRACE


# ---------------------------------------------------------------------------
# 5. LR statistic identity and its null chi-square law
# ---------------------------------------------------------------------------


def test_lr_identity_and_null_law(capsys):
    gen = np.random.default_rng(55)
    identity_err = 0.0
    for i in range(30):
        p = (i % 3) + 1
        theta0 = random_stable_theta(gen, p, 0.7)
        kernel = (white(), ar1(0.6), fgn(0.7))[i % 3]
        eps = standard_normals(substream(2000 + i, 0), 300)
        x = apply_ar(theta0, noise_from_innovations(kernel, eps))
        path = filter_observations(x, kernel, p)
        stat = lr_statistic(path, theta0)
        theta_hat = mle(path).theta_hat
        loglik_diff = 2.0 * (
            log_likelihood(path, theta_hat) - log_likelihood(path, theta0)
        )
        acc, score = accumulate(path, theta0)
        quad = float(score @ np.linalg.solve(acc.gram, score))
        identity_err = max(identity_err, abs(stat - loglik_diff), abs(stat - quad))

    report = _shared("size", _size_report)
    stats = np.array([row["statistic"] for row in report.rows if row["ok"]])
    ks = scipy.stats.kstest(stats, scipy.stats.chi2(1).cdf)
    ok = identity_err <= 1e-8 and ks.pvalue > 0.01
    _report(
        capsys,
        "lr_identity_null_law",
        ok,
        f"max |lr - 2 delta loglik|, |lr - score quad form| {identity_err:.3e} "
        f"over 30 instances; "
        f"KS vs chi2(1) pvalue {ks.pvalue:.4f} on {stats.size} null statistics, "
        f"mc runtime {report.runtime_seconds:.1f}s",
    )
    assert identity_err <= 1e-8
    assert ks.pvalue > 0.01


# ---------------------------------------------------------------------------
# 6. CLT: empirical covariance of sqrt(n)(theta_hat - theta)
# ---------------------------------------------------------------------------


def test_clt_covariance(capsys):
    cfg = ExperimentConfig(
        experiment="clt",
        theta=(0.3,),
        kernel=ar1(0.5),
        sample_sizes=(2000,),
        replicates=2000,
        seed=HEAVY_SEED,
    )
    report = _shared("clt", lambda: run_experiment(cfg))
    entry = report.per_n[2000]
    target = float(fisher_info_inverse((0.3,))[0, 0])
    rel = entry["rel_error_fro"]
    ok = rel <= 0.15 and report.passed
    _report(
        capsys,
        "clt_covariance",
        ok,
        f"var {entry['cov_11']:.4f} vs target {target:.4f}, rel err {rel:.4f} "
        f"<= 0.15, {entry['count']} replicates, "
        f"runtime {report.runtime_seconds:.1f}s",
    )
    assert report.passed
    assert rel <= 0.15


# ---------------------------------------------------------------------------
# 7. Test size and local power calibration
# ---------------------------------------------------------------------------


def test_size_and_power(capsys):
    size_report = _shared("size", _size_report)
    size = size_report.per_n[2000]["rejection_rate"]
    size_ok = abs(size - 0.05) <= 0.015

    u = 2.0 * math.sqrt(0.91)  # makes u' I(0.3) u = 4
    cfg = ExperimentConfig(
        experiment="test_power",
        theta=(0.3,),
        kernel=ar1(0.5),
        sample_sizes=(2000,),
        replicates=2000,
        seed=HEAVY_SEED,
        shift=(u,),
    )
    power_report = _shared("power", lambda: run_experiment(cfg))
    power = power_report.per_n[2000]["rejection_rate"]
    predicted = power_report.summary["predicted_power"]
    lam = power_report.summary["noncentrality"]
    power_ok = abs(power - predicted) <= 0.05

    ok = size_ok and power_ok and size_report.passed and power_report.passed
    _report(
        capsys,
        "test_size_power",
        ok,
        f"size {size:.4f} in 0.05+-0.015; power {power:.4f} vs noncentral "
        f"chi2 prediction {predicted:.4f} (lambda {lam:.3f}), diff "
        f"{abs(power - predicted):.4f} <= 0.05, 2000 replicates each, "
        f"runtimes {size_report.runtime_seconds:.1f}s/"
        f"{power_report.runtime_seconds:.1f}s",
    )
    assert size_report.passed and power_report.passed
    assert size_ok
    assert power_ok
    assert abs(lam - 4.0) <= 1e-12


# ---------------------------------------------------------------------------
# 8. Consistency rate: log-log slope of the median error
# ---------------------------------------------------------------------------


def test_consistency_rate(capsys):
    cfg = ExperimentConfig(
        experiment="consistency",
        theta=(0.3,),
        kernel=ar1(0.5),
        sample_sizes=(500, 1000, 2000, 4000, 8000),
        replicates=200,
        seed=HEAVY_SEED,
    )
    report = _shared("consistency", lambda: run_experiment(cfg))
    slope = report.summary["slope"]
    ok = -0.65 <= slope <= -0.35 and report.passed
    meds = ", ".join(
        f"{n}:{report.per_n[n]['median_err']:.4f}" for n in cfg.sample_sizes
    )
    _report(
        capsys,
        "consistency_rate",
        ok,
        f"slope {slope:.4f} in [-0.65, -0.35]; median err by n {{{meds}}}, "
        f"200 replicates, runtime {report.runtime_seconds:.1f}s",
    )
    assert report.passed
    assert -0.65 <= slope <= -0.35


# ---------------------------------------------------------------------------
# 9. Quadratic strong law and iterated-logarithm diagnostics
# ---------------------------------------------------------------------------


def test_qsl_and_lil(capsys):
    qsl_cfg = ExperimentConfig(
        experiment="qsl",
        theta=(0.5,),
        kernel=white(),
        sample_sizes=(20000,),
        replicates=15,
        seed=0,
    )
    qsl = _shared("qsl", lambda: run_experiment(qsl_cfg))
    median_ratio = qsl.per_n[20000]["median_trace_ratio"]
    ratios = [row["trace_ratio"] for row in qsl.rows if row["ok"]]
    inside = sum(1 for v in ratios if 0.5 <= v <= 2.0)
    qsl_ok = 0.5 <= median_ratio <= 2.0

    lil_cfg = ExperimentConfig(
        experiment="lil",
        theta=(0.5,),
        kernel=white(),
        sample_sizes=(1000, 20000),
        replicates=50,
        seed=0,
    )
    lil = _shared("lil", lambda: run_experiment(lil_cfg))
    envelope = lil.summary["envelope"]
    share = lil.per_n[20000]["within_share"]
    lil_ok = bool(lil.summary["majority_within"])

    ok = qsl_ok and lil_ok and qsl.passed and lil.passed
    _report(
        capsys,
        "qsl_lil",
        ok,
        f"qsl median trace ratio {median_ratio:.4f} in [0.5, 2.0] "
        f"({inside}/{len(ratios)} single paths inside); lil share within "
        f"2x envelope {share:.2f} of 50 paths (envelope {envelope:.4f}, "
        f"max running {lil.per_n[20000]['max_running']:.3f}), runtimes "
        f"{qsl.runtime_seconds:.1f}s/{lil.runtime_seconds:.1f}s",
    )
    assert qsl.passed and lil.passed
    assert qsl_ok
    assert lil_ok


# ---------------------------------------------------------------------------
# 10. Determinism of the whole harness
# ---------------------------------------------------------------------------


def test_determinism(capsys, tmp_path):
    cfg = ExperimentConfig(
        experiment="clt",
        theta=(0.4, 0.2),
        kernel=fgn(0.7),
        sample_sizes=(150, 300),
        replicates=20,
        seed=5,
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    r3 = run_experiment(cfg, jobs=2)
    docs = []
    for r in (r1, r2, r3):
        doc = r.to_json_dict()
        doc.pop("runtime_seconds")
        docs.append(doc)
    rerun_ok = docs[1] == docs[0] and r2.rows == r1.rows
    jobs_ok = docs[2] == docs[0] and r3.rows == r1.rows

    shuffled = list(r1.rows)
    rng = np.random.default_rng(0)
    rng.shuffle(shuffled)
    per_n, summary = aggregate(cfg, shuffled)
    shuffle_ok = per_n == r1.per_n and summary == r1.summary

    r1.write(tmp_path / "a")
    r2.write(tmp_path / "b")
    files_ok = (tmp_path / "a" / "raw.csv").read_bytes() == (
        tmp_path / "b" / "raw.csv"
    ).read_bytes() and (tmp_path / "a" / "curves.csv").read_bytes() == (
        tmp_path / "b" / "curves.csv"
    ).read_bytes()

    ok = rerun_ok and jobs_ok and shuffle_ok and files_ok
    _report(
        capsys,
        "determinism",
        ok,
        f"rerun identical {rerun_ok}, jobs=2 identical {jobs_ok}, shuffled "
        f"aggregation identical {shuffle_ok}, written files identical {files_ok}",
    )
    assert rerun_ok
    assert jobs_ok
    assert shuffle_ok
    assert files_ok