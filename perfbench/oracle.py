"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls armle. The model is x = AR(theta) applied to stationary
Gaussian noise xi with Toeplitz covariance T, zero pre-sample values. Because
the AR map has unit Jacobian, the exact MLE of theta is generalized least
squares: theta_hat = G^{-1} X^T T^{-1} x with G = X^T T^{-1} X, X the lag matrix
of x. The likelihood-ratio statistic at theta0 is (theta_hat - theta0)^T G
(theta_hat - theta0). The noise is L eps with L the Cholesky factor of T, and
eps are the documented substream normals of ``armle.rng``.

Tolerances admit rounding-level differences and nothing more: a wrong answer
moves these quantities by many orders of magnitude more.
"""
from __future__ import annotations

import functools
import json
import math

import numpy as np
import scipy.linalg
import scipy.signal
import scipy.stats
from scipy.special import ndtri

# Measured deviations from the oracle: CLI outputs on fGn at n = 16000 up to
# 6e-11 relative (8e-10 for the LR statistic, a difference of two
# log-likelihoods), white and ar1 at rounding level; harness rows up to 6e-13.
# The tolerances sit at least 100 times above those.
RTOL = 1e-8
ATOL = 1e-10
#: Headline results must lie within this many Monte Carlo standard errors of
#: their target. A benchmark campaign makes thousands of these checks, some
#: with bootstrap errors from 15 replicates, so the bar sits far out in the
#: tail; a wrong computation lands tens of standard errors away.
Z_MAX = 8.0
#: Gram matrices beyond this condition number count as singular (the harness rule).
COND_CAP = 1e12
#: Largest n at which noise is rebuilt by a dense Cholesky factor.
DENSE_MAX = 2000
#: Leading values of a simulated CLI series compared with the dense construction.
PREFIX = 1000
#: Harness replicates whose rows are recomputed.
CHECKED_REPLICATES = (0, 1)


def close(a, b, rtol=RTOL, atol=ATOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def normals(seed: int, path: tuple, n: int) -> np.ndarray:
    """Standard normals of substream ``path`` under ``seed``: PCG64 keyed by
    SeedSequence(seed, spawn_key=path), 53-bit uniforms offset by one half,
    mapped through the normal quantile."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in path))
    gen = np.random.Generator(np.random.PCG64(seq))
    u = (gen.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) / float(1 << 53)
    return ndtri(u)


def autocovariance(kernel: dict, n: int) -> np.ndarray:
    """r(0..n-1) of a kernel given in its JSON form."""
    k = np.arange(n, dtype=float)
    family, params = kernel["family"], kernel.get("params", {})
    if family == "white":
        return (k == 0).astype(float)
    if family == "ar1":
        return float(params["a"]) ** k
    h2 = 2.0 * float(params["H"])
    return 0.5 * ((k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2)


def inv_cov(kernel: dict, cols: np.ndarray) -> np.ndarray:
    """T^{-1} cols. White noise: identity. ar1: the closed-form tridiagonal
    precision matrix. fGn: Levinson's Toeplitz solver."""
    family = kernel["family"]
    if family == "white":
        return cols
    if family == "ar1":
        a = float(kernel["params"]["a"])
        out = (1 + a * a) * cols
        out[0] = cols[0]
        out[-1] = cols[-1]
        out[:-1] -= a * cols[1:]
        out[1:] -= a * cols[:-1]
        return out / (1 - a * a)
    return scipy.linalg.solve_toeplitz(autocovariance(kernel, cols.shape[0]), cols)


def noise_prefix(kernel: dict, eps: np.ndarray, m: int) -> np.ndarray:
    """First m noise values L_m eps[:m]; L_m is the leading block of one
    dense Cholesky factor per kernel."""
    if kernel["family"] == "white":
        return eps[:m].copy()
    if m > DENSE_MAX:
        raise ValueError(f"dense noise is limited to n <= {DENSE_MAX}")
    return _cholesky(json.dumps(kernel, sort_keys=True))[:m, :m] @ eps[:m]


@functools.lru_cache(maxsize=2)
def _cholesky(kernel_json: str) -> np.ndarray:
    toeplitz = scipy.linalg.toeplitz(autocovariance(json.loads(kernel_json), DENSE_MAX))
    return np.linalg.cholesky(toeplitz)


def lags(x: np.ndarray, p: int) -> np.ndarray:
    """Lag matrix (n, p): column j holds x shifted down by j + 1, zero padded."""
    out = np.zeros((x.size, p))
    for j in range(p):
        out[j + 1 :, j] = x[: x.size - j - 1]
    return out


def ar_filter(theta, xi: np.ndarray) -> np.ndarray:
    return scipy.signal.lfilter([1.0], np.concatenate(([1.0], -np.asarray(theta))), xi)


def gls(kernel: dict, x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta_hat, G) for order p from the full series x."""
    return _solve(lags(x, p), inv_cov(kernel, np.column_stack([x, lags(x, p)])))


def _solve(xl: np.ndarray, tinv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GLS from the lag matrix and T^{-1} [x, xl]."""
    gram = xl.T @ tinv[:, 1:]
    gram = 0.5 * (gram + gram.T)
    return np.linalg.solve(gram, xl.T @ tinv[:, 0]), gram


def fisher_info(theta) -> np.ndarray:
    """I(theta): the autocovariance matrix of the AR(p) process with unit
    innovations, from its truncated impulse response."""
    th = np.asarray(theta, dtype=float)
    impulse = np.zeros(20000)
    impulse[0] = 1.0
    psi = ar_filter(th, impulse)
    p = th.size
    gamma = [float(psi[: psi.size - h] @ psi[h:]) for h in range(p)]
    return scipy.linalg.toeplitz(gamma)


def cumulative_ols(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimates from the first k observations for every k (white noise only),
    with the validity mask of the harness rule."""
    xl = lags(x, p)
    grams = np.cumsum(xl[:, :, None] * xl[:, None, :], axis=0)
    moments = np.cumsum(xl * x[:, None], axis=0)
    evals = np.linalg.eigvalsh(grams)
    lo, hi = evals[:, 0], evals[:, -1]
    ok = lo > 0
    ok[ok] &= hi[ok] / lo[ok] <= COND_CAP
    theta = np.full(moments.shape, np.nan)
    theta[ok] = np.linalg.solve(grams[ok], moments[ok][:, :, None])[:, :, 0]
    return theta, ok


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def check_session(kernel: dict, x: np.ndarray, sim: dict, est: dict,
                  test: dict) -> dict[str, list[str]]:
    """Check one CLI session: the simulated series, the estimate and the test.

    ``sim`` holds the simulate arguments (theta, seed); ``est`` and ``test``
    the parsed JSON outputs with the requested order p, theta0 and alpha
    added under ``_p``, ``_theta0``, ``_alpha``. One Toeplitz solve with the
    series and its first three lags serves every check.
    """
    xl = lags(x, 3)
    tinv = inv_cov(kernel, np.column_stack([x, xl]))
    errs = {"simulate": [], "estimate": [], "test": []}

    theta = np.asarray(sim["theta"], dtype=float)
    eps = normals(sim["seed"], (), x.size)
    xi = x - xl[:, : theta.size] @ theta
    m = min(PREFIX, x.size)
    if not close(xi[:m], noise_prefix(kernel, eps, m)):
        errs["simulate"].append("simulate: noise prefix differs from the Cholesky construction")
    quad = float(xi @ (tinv[:, 0] - tinv[:, 1 : theta.size + 1] @ theta))
    if not close(quad, float(eps @ eps)):
        errs["simulate"].append(f"simulate: xi' T^-1 xi = {quad!r}, |eps|^2 = {float(eps @ eps)!r}")

    def fit(p):
        return _solve(xl[:, :p], tinv[:, : p + 1])

    p = est["_p"]
    that, gram = fit(p)
    if not close(est["theta_hat"], that):
        errs["estimate"].append(f"estimate: theta_hat {est['theta_hat']} != GLS {that.tolist()}")
    if not close(est["gram_over_n"], gram / x.size):
        errs["estimate"].append("estimate: gram_over_n differs from X' T^-1 X / n")
    if est["n"] != x.size or est["p"] != p:
        errs["estimate"].append("estimate: wrong n or p")

    theta0 = np.asarray(test["_theta0"], dtype=float)
    q = theta0.size
    that, gram = fit(q)
    d = that - theta0
    stat = float(d @ gram @ d)
    crit = float(scipy.stats.chi2.isf(test["_alpha"], q))
    bad = errs["test"]
    if not close(test["theta_hat"], that):
        bad.append(f"test: theta_hat {test['theta_hat']} != GLS {that.tolist()}")
    if not close(test["statistic"], stat, rtol=1e-7, atol=1e-9):
        bad.append(f"test: statistic {test['statistic']!r} != quadratic form {stat!r}")
    if not close(test["critical"], crit):
        bad.append(f"test: critical {test['critical']!r} != chi2 quantile {crit!r}")
    if not close(test["pvalue"], scipy.stats.chi2.sf(stat, q), rtol=1e-6, atol=1e-12):
        bad.append("test: pvalue differs from the chi-square tail")
    if abs(stat - crit) > 1e-6 * crit and test["reject"] != (stat >= crit):
        bad.append("test: reject flag contradicts statistic and critical value")
    return errs


# ---------------------------------------------------------------------------
# Harness rows and headlines
# ---------------------------------------------------------------------------


def _expected_row(cfg: dict, rep: int, n: int, size_index: int) -> dict | None:
    """Recompute the harness row of replicate ``rep`` at sample size ``n``;
    None when the row is beyond the reach of the dense oracle."""
    kernel, theta, p = cfg["kernel"], np.asarray(cfg["theta"], dtype=float), len(cfg["theta"])
    exp = cfg["experiment"]
    white = kernel["family"] == "white"
    if exp == "test_power":  # one path per sample size, at the local alternative
        theta_sim = theta + np.asarray(cfg["shift"]) / math.sqrt(n)
        eps = normals(cfg["seed"], (size_index, rep), n)
    else:  # one path per replicate; smaller sizes use its prefix
        theta_sim = theta
        eps = normals(cfg["seed"], (rep,), max(cfg["sample_sizes"]))
    if exp in ("qsl", "lil"):
        if not white:
            return None
        x = ar_filter(theta_sim, eps)
        est, ok = cumulative_ols(x, p)
        return _path_row(cfg, theta, est, ok, n)
    if n > DENSE_MAX and not white:
        return None
    x = ar_filter(theta_sim, noise_prefix(kernel, eps, n))
    that, gram = gls(kernel, x, p)
    d = that - theta
    row = {"ok": 1}
    if exp == "consistency":
        row["err"] = float(np.linalg.norm(d))
        row.update({f"theta_hat_{j + 1}": that[j] for j in range(p)})
    elif exp == "clt":
        row.update({f"scaled_{j + 1}": math.sqrt(n) * d[j] for j in range(p)})
    elif exp in ("test_size", "test_power"):
        row["statistic"] = max(float(d @ gram @ d), 0.0)
    elif exp == "lan_remainder":
        u = np.asarray(cfg["shift"])
        row["remainder"] = -0.5 * float(u @ (gram / n - fisher_info(theta)) @ u)
    return row


def _path_row(cfg, theta, est, ok, n) -> dict:
    ks = np.arange(1, est.shape[0] + 1)
    if cfg["experiment"] == "qsl":
        err2 = np.where(ok, np.sum((np.nan_to_num(est) - theta) ** 2, axis=1), 0.0)
        target = float(np.trace(np.linalg.inv(fisher_info(theta))))
        return {"ok": 1, "trace_ratio": err2[:n].sum() / math.log(n) / target,
                "k0": int(np.argmax(ok)) + 1}
    v = np.asarray(cfg.get("direction") or np.eye(theta.size)[0])
    valid = ok & (ks >= max(16, min(cfg["sample_sizes"])))
    proj = np.where(valid, (np.nan_to_num(est) - theta) @ v, 0.0)
    s = np.zeros_like(proj)
    s[valid] = np.sqrt(ks[valid] / (2 * np.log(np.log(np.maximum(ks[valid], 3))))) * proj[valid]
    return {"ok": int(valid[n - 1]), "s_n": s[n - 1],
            "running_max_abs_s": float(np.abs(s[:n][valid[:n]]).max())}


def check_rows(cfg: dict, rows: list[dict]) -> list[tuple[int, str]]:
    """Compare the rows of the checked replicates with the oracle; returns
    (replicate, message) per mismatch."""
    errs = []
    sizes = sorted(set(cfg["sample_sizes"]))
    for row in rows:
        if row["replicate"] not in CHECKED_REPLICATES:
            continue
        want = _expected_row(cfg, row["replicate"], row["n"], sizes.index(row["n"]))
        for key, value in (want or {}).items():
            got = row.get(key)
            if got is None or not close(got, value, rtol=1e-9, atol=1e-12):
                errs.append((row["replicate"], f"{cfg['experiment']} rep {row['replicate']} "
                             f"n {row['n']}: {key} = {got!r}, oracle {value!r}"))
    return errs


def headline_z(cfg: dict, report: dict, rows: list[dict], seed: int) -> tuple[str, float]:
    """(description, z) of a report's headline against its target, in Monte
    Carlo standard errors. For ``lil`` the claim is one-sided (a majority of
    paths within the envelope), so only a negative z counts against it."""
    exp, per_n = cfg["experiment"], report["per_n"]
    last = per_n[str(max(cfg["sample_sizes"]))]
    good = [r for r in rows if r["ok"]]
    theta = np.asarray(cfg["theta"], dtype=float)
    boot = np.random.default_rng(seed)
    if exp in ("test_size", "test_power"):
        if exp == "test_size":
            target = cfg.get("alpha", 0.05)
        else:
            target = report["summary"]["predicted_power"]
        rate = last["rejection_rate"]
        se = math.sqrt(target * (1 - target) / last["count"])
        return f"rejection rate {rate:.4f} vs {target:.4f}", (rate - target) / se
    if exp == "clt":
        target = np.linalg.inv(fisher_info(theta))
        rel_se = math.sqrt(2 / (last["count"] - 1))  # of a normal sample variance
        zs = [(last[f"cov_{j + 1}{j + 1}"] / target[j, j] - 1) / rel_se for j in range(theta.size)]
        z = max(zs, key=abs)
        return f"variance vs inverse information, worst z {z:.2f}", z
    if exp == "consistency":
        sizes = sorted(cfg["sample_sizes"])
        reps = sorted({r["replicate"] for r in good})
        err = {(r["replicate"], r["n"]): r["err"] for r in good}
        table = np.array([[err[(rep, n)] for n in sizes] for rep in reps])
        draws = table[boot.integers(0, len(reps), size=(200, len(reps)))]
        meds = np.median(draws, axis=1)
        slopes = np.polyfit(np.log(sizes), np.log(meds.T), 1)[0]
        slope = report["summary"]["slope"]
        return f"log-log slope {slope:.4f} vs -0.5", (slope + 0.5) / float(np.std(slopes))
    if exp == "qsl":
        ratios = np.array([r["trace_ratio"] for r in good if r["n"] == max(cfg["sample_sizes"])])
        meds = np.median(ratios[boot.integers(0, ratios.size, size=(200, ratios.size))], axis=1)
        med = last["median_trace_ratio"]
        return f"median trace ratio {med:.4f} vs 1", (med - 1.0) / float(np.std(meds))
    if exp == "lil":
        share, count = last["within_share"], last["count"]
        z = (share - 0.5) / math.sqrt(0.25 / count)
        return f"share within 2x envelope {share:.3f} vs majority", min(z, 0.0)
    if exp == "lan_remainder":
        rems = np.array([r["remainder"] for r in good if r["n"] == max(cfg["sample_sizes"])])
        mean = float(rems.mean())
        se = float(rems.std(ddof=1)) / math.sqrt(rems.size)
        return f"mean remainder {mean:.2e} vs 0", mean / se
    raise ValueError(f"no headline for {exp!r}")
