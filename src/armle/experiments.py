"""Monte Carlo verification harness for the asymptotic guarantees.

Available experiments, all driven by one :class:`ExperimentConfig`:

``consistency``
    Median estimation error against sample size, with a log-log slope fit.
``clt``
    Empirical covariance of sqrt(n)(theta_hat - theta) against the inverse
    information matrix, with per-coordinate normality KS statistics.
``qsl``
    Sequential estimates along one trajectory: the log-scaled running sum of
    squared errors against the trace of the inverse information matrix.
``lil``
    Per-path running maxima of the iterated-logarithm-scaled error projection
    against the 2x theoretical envelope.
``lan_remainder``
    The curvature remainder of the local likelihood expansion per sample size.
``test_size`` / ``test_power``
    Rejection frequency of the likelihood-ratio test under the null, or under
    a local alternative theta + shift/sqrt(n), against its chi-square and
    noncentral chi-square calibration.

Each experiment is declared once, in ``_TABLE``: a column function, which
turns a whole block's Gram and estimates into its ok mask and named
(replicates, sample sizes) columns, an aggregate function over the ok rows of
each n, and whether the columns read the Gram and moment at every k (qsl,
lil) or only at the sizes. ``state._gram_moment`` sums them in one step, at
exactly those ends; the library's ``mle`` and ``accumulate`` use the same
step. Everything else is shared: ``_rows_block`` solves the normal equations
of a simulation once for the whole block and ``_raw_rows`` turns the columns
into raw rows, a missing value becoming None. ``_draws`` lists the
simulations of a block: one trajectory per replicate from substream
(seed, r), evaluated at every sample size, or, for ``test_power`` whose
simulated parameter depends on n, one per size index c from (seed, c, r).
Replicates are simulated in blocks that share one pass of the innovations
filter. The raw.csv header is the keys of the first row.
Failed replicates (singular Gram) are recorded, excluded from aggregates and
counted; a report passes only when the failure rate stays within 1 percent.
Aggregates are recomputable from the raw rows and are bit-identical under any
replicate execution order.
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import chain
from typing import Callable

import numpy as np
from scipy.special import chdtri

from . import rng
from .ar import apply_ar, fisher_info, fisher_info_inverse, require_stable
from .exceptions import Unstable
from .filtering import MARKOV_FAMILIES, _generate, _whiten
from .inference import _solve_gram
from .noise import CovarianceKernel, kernel_from_json, validate_kernel
from .state import _gram_moment, _lags

#: A report passes when at most this fraction of raw rows failed.
FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one Monte Carlo experiment.

    ``shift`` is the local-alternative direction u (required by ``test_power``
    and ``lan_remainder``); ``direction`` is the projection vector v of the
    ``lil`` experiment (defaults to the first coordinate).
    """

    experiment: str
    theta: tuple[float, ...]
    kernel: CovarianceKernel
    sample_sizes: tuple[int, ...]
    replicates: int
    seed: int
    alpha: float = 0.05
    shift: tuple[float, ...] | None = None
    direction: tuple[float, ...] | None = None

    def __post_init__(self):
        def floats(v):
            return None if v is None else tuple(float(x) for x in v)

        coerce = {"experiment": str, "theta": floats, "replicates": int, "seed": int,
                  "alpha": float, "shift": floats, "direction": floats}
        for name, to in coerce.items():
            object.__setattr__(self, name, to(getattr(self, name)))
        object.__setattr__(
            self, "sample_sizes", tuple(sorted({int(n) for n in self.sample_sizes}))
        )

    @property
    def p(self) -> int:
        return len(self.theta)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.kernel, CovarianceKernel):
            raise ValueError("kernel must be a CovarianceKernel")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.sample_sizes:
            raise ValueError("sample_sizes must be nonempty")
        require_stable(self.theta)
        if min(self.sample_sizes) < self.p + 2:
            raise ValueError("every sample size must be at least p + 2")
        if self.experiment in ("test_power", "lan_remainder"):
            if self.shift is None:
                raise ValueError(f"{self.experiment} needs a shift vector")
            if len(self.shift) != self.p:
                raise ValueError("shift must have the same length as theta")
        if self.experiment == "test_power":
            # The stability region is not convex for p >= 3: check every n.
            for theta, n, _, _ in _draws(self):
                try:
                    require_stable(theta)
                except Unstable as exc:
                    raise Unstable(
                        f"theta + shift/sqrt(n) leaves the stability region at n={n}: {exc}"
                    ) from exc
        if self.experiment == "lil":
            if min(self.sample_sizes) < 16:
                raise ValueError("lil needs sample sizes of at least 16")
            if self.direction is not None and len(self.direction) != self.p:
                raise ValueError("direction must have the same length as theta")
        # Cheap early positive-definiteness check of the kernel.
        validate_kernel(self.kernel, min(200, max(self.sample_sizes)))

    def to_json_dict(self) -> dict:
        """Fields in declaration order, tuples as lists, unset options left out."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in out.items()
            if v is not None
        } | {"kernel": self.kernel.to_json_dict()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        """Inverse of ``to_json_dict``: the fields by name, unset options left out."""
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be a JSON object")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
        if missing:
            raise ValueError(f"experiment config is missing keys: {sorted(missing)}")
        args = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
        return cls(**args | {"kernel": kernel_from_json(obj["kernel"])})


@dataclass(eq=False)
class ExperimentReport:
    """Outcome of one experiment run.

    ``rows`` hold one record per replicate per sample size (the raw data);
    ``per_n`` and ``summary`` are aggregates recomputable from the rows via
    :func:`aggregate`. ``passed`` means the failure rate stayed within budget.
    """

    experiment: str
    config: dict
    columns: list[str]
    rows: list[dict]
    per_n: dict[int, dict]
    summary: dict
    failures: int
    failure_rate: float
    passed: bool
    runtime_seconds: float

    def to_json_dict(self) -> dict:
        """Every field except the raw ``columns`` and ``rows``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["columns"], out["rows"]
        return out | {"per_n": {str(n): self.per_n[n] for n in sorted(self.per_n)}}

    def write(self, out_dir: str) -> None:
        """Write report.json, raw.csv and curves.csv into ``out_dir``."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(_json_text(self.to_json_dict()))
        with open(os.path.join(out_dir, "raw.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt_cell(row.get(c)) for c in self.columns) + "\n")
        ns = sorted(self.per_n)
        keys = sorted({k for n in ns for k in self.per_n[n]})
        with open(os.path.join(out_dir, "curves.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(["n"] + keys) + "\n")
            for n in ns:
                cells = [str(n)] + [_fmt_cell(self.per_n[n].get(k)) for k in keys]
                fh.write(",".join(cells) + "\n")


def _json_text(obj) -> str:
    """Indented JSON with sorted keys and a trailing newline; NaN raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


# ---------------------------------------------------------------------------
# Block engine
# ---------------------------------------------------------------------------


def _block_size(cfg: ExperimentConfig) -> int:
    """Replicates per block: up to 64, within a budget of time steps.

    A block shares one filter walk, O(n) Python steps for an fgn kernel, so
    its budget is 2**17 steps. White and ar1 kernels have no walk to share;
    their budget of 2**14 steps keeps each (R, n) array of a block within
    128 KiB, in cache and on the heap rather than in freshly mapped pages, and
    the (R, n, p) score weights within 128 p KiB. The Gram at the sample sizes is
    (R, len(sizes), p, p); only qsl and lil, which read it at every k, hold an
    (R, n, p, p) Gram of up to 128 p**2 KiB. The size depends on the config
    alone, so the partition into blocks, and with it every report, is the
    same for any job count.
    """
    steps = 2**14 if cfg.kernel.family in MARKOV_FAMILIES else 2**17
    return min(64, max(1, steps // max(cfg.sample_sizes)))


def _simulate_block(theta, kernel: CovarianceKernel, eps: np.ndarray):
    """Simulate a block of replicates from innovations eps, shape (R, n).

    Returns (w, z1, sigma2): score weights, lags 1..p of the whitened series
    (R, n, p); the whitened series (R, n); prediction variances (n,). Each
    filter pass walks once per block (not at all for white and ar1 kernels).
    """
    x = apply_ar(theta, _generate(kernel, eps))
    z, sigma2, pacf = _whiten(kernel, x)
    del x
    return _lags(z, pacf, len(theta)), z, sigma2


def _draws(cfg: ExperimentConfig) -> list[tuple]:
    """The simulations of one block: (theta, n, substream prefix, sample sizes).

    One trajectory per replicate serves every sample size, except under the
    local alternative of ``test_power``, whose simulated theta depends on n:
    there each size index c simulates afresh from substreams (seed, c, rep).
    """
    if cfg.experiment != "test_power":
        return [(cfg.theta, max(cfg.sample_sizes), (cfg.seed,), cfg.sample_sizes)]
    th0, u = np.array(cfg.theta), np.array(cfg.shift)
    return [
        (th0 + u / math.sqrt(n), n, (cfg.seed, c), (n,))
        for c, n in enumerate(cfg.sample_sizes)
    ]


def _rows_block(cfg: ExperimentConfig, reps: range) -> list[dict]:
    """Raw rows of a block of replicates (a pure function of (cfg, reps))."""
    columns_of, _, every_k = _TABLE[cfg.experiment]
    rows = []
    for theta, n, prefix, sizes in _draws(cfg):
        eps = np.empty((len(reps), n))
        for k, rep in enumerate(reps):
            eps[k] = rng.standard_normals(rng.substream(*prefix, rep), n)
        w, z1, sigma2 = _simulate_block(theta, cfg.kernel, eps)
        del eps  # block-sized arrays are dropped once used, to bound peak memory
        gram, moment = _gram_moment(w, z1, sigma2, range(1, n + 1) if every_k else sizes)
        theta_hat, _, solved = _solve_gram(gram, moment)
        ok, columns = columns_of(cfg, np.array(sizes), gram, theta_hat, solved)
        rows += _raw_rows(reps, sizes, ok, columns)
    return rows


def _raw_rows(reps: range, sizes, ok: np.ndarray, columns: dict) -> list[dict]:
    """One row per replicate and sample size from (R, len(sizes)) columns.

    A NaN in a real column, and every cell of an integer column in a row that
    is not ok, becomes None (an empty raw.csv cell).
    """
    cells = {
        name: np.where(
            np.isnan(col) if col.dtype.kind == "f" else ~ok, None, col.astype(object)
        ).tolist()
        for name, col in columns.items()
    }
    flags = ok.astype(int).tolist()
    return [
        {"replicate": rep, "n": n, "ok": flags[r][c]}
        | {name: v[r][c] for name, v in cells.items()}
        for r, rep in enumerate(reps)
        for c, n in enumerate(sizes)
    ]


# ---------------------------------------------------------------------------
# Columns of a block from its Gram and estimates
# ---------------------------------------------------------------------------
#
# Each function takes the block's Gram (R, K, p, p), estimates (R, K, p) and
# solve flags (R, K), where K is the number of sample sizes, or every k up to
# the largest size for qsl and lil, and returns the ok mask and the named
# columns, each of shape (R, len(sizes)). Quadratic forms and norms use
# stacked matmuls, which sum in the order of the 1-d products.


def _quad(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T m b over the leading axes, in the product order of 1-d a @ m @ b."""
    return ((a[..., None, :] @ m) @ b[..., None])[..., 0, 0]


def _cols_consistency(cfg: ExperimentConfig, sizes, gram, theta_hat, solved):
    d = theta_hat - cfg.theta
    columns = {"err": np.sqrt((d[..., None, :] @ d[..., None])[..., 0, 0])}
    for j in range(cfg.p):
        columns[f"theta_hat_{j + 1}"] = theta_hat[..., j]
    return solved, columns


def _cols_clt(cfg: ExperimentConfig, sizes, gram, theta_hat, solved):
    scaled = np.sqrt(sizes)[:, None] * (theta_hat - cfg.theta)
    return solved, {f"scaled_{j + 1}": scaled[..., j] for j in range(cfg.p)}


def _cols_test(cfg: ExperimentConfig, sizes, gram, theta_hat, solved):
    """LR statistic d^T gram d against the null theta, d = theta_hat - theta."""
    d = theta_hat - cfg.theta
    stat = np.maximum(_quad(d, gram, d), 0.0)
    reject = (stat >= chdtri(cfg.p, cfg.alpha)).astype(int)
    return solved, {"statistic": stat, "reject": reject}


def _cols_lan_remainder(cfg: ExperimentConfig, sizes, gram, theta_hat, solved):
    u = np.array(cfg.shift)
    curvature = gram / sizes[:, None, None] - fisher_info(cfg.theta)
    rem = -0.5 * _quad(u, curvature, u)
    return np.ones(rem.shape, dtype=bool), {"remainder": rem}


def _cols_qsl(cfg: ExperimentConfig, sizes, gram, theta_hat, solved):
    err2 = np.where(solved, np.sum((theta_hat - cfg.theta) ** 2, axis=-1), 0.0)
    logs = np.array([math.log(n) for n in sizes])
    target = float(np.trace(fisher_info_inverse(cfg.theta)))
    ratio = np.cumsum(err2, axis=-1)[:, sizes - 1] / logs / target
    ok = np.broadcast_to(solved.any(axis=-1)[:, None], ratio.shape)
    k0 = np.broadcast_to(np.argmax(solved, axis=-1)[:, None] + 1, ratio.shape)
    return ok, {"trace_ratio": np.where(ok, ratio, np.nan), "k0": k0}


def _cols_lil(cfg: ExperimentConfig, sizes, gram, theta_hat, solved):
    ks = np.arange(1, max(sizes) + 1)
    valid = solved & (ks >= max(16, min(sizes)))
    proj = np.where(solved, (theta_hat - cfg.theta) @ _direction(cfg), 0.0)
    scale = np.sqrt(ks / (2.0 * np.log(np.log(np.maximum(ks, 3)))))
    s = np.where(valid, scale * proj, np.nan)
    running = np.maximum.accumulate(np.where(valid, np.abs(s), -np.inf), axis=-1)
    running[np.isinf(running)] = np.nan
    idx = sizes - 1
    return valid[:, idx], {"s_n": s[:, idx], "running_max_abs_s": running[:, idx]}


def _direction(cfg: ExperimentConfig) -> np.ndarray:
    """The lil projection vector v; the first coordinate unless configured."""
    if cfg.direction is not None:
        return np.array(cfg.direction)
    v = np.zeros(cfg.p)
    v[0] = 1.0
    return v


# ---------------------------------------------------------------------------
# Aggregation (pure function of config and sorted rows)
# ---------------------------------------------------------------------------


def aggregate(cfg: ExperimentConfig, rows: list[dict]) -> tuple[dict, dict]:
    """Recompute (per_n, summary) aggregates from raw rows.

    Deterministic given the config and the rows sorted by (replicate, n);
    rows flagged not ok are excluded and counted as failures.
    """
    rows = sorted(rows, key=lambda r: (r["replicate"], r["n"]))
    by_n: dict[int, list[dict]] = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append(row)
    good = {n: [r for r in rows_n if r["ok"]] for n, rows_n in sorted(by_n.items())}
    per_n, summary = _TABLE[cfg.experiment][1](cfg, good)
    for n, rows_n in by_n.items():
        counts = {"count": len(good[n]), "failures": len(rows_n) - len(good[n])}
        per_n[n] = {**counts, **per_n[n]}
    return per_n, summary


def _agg_consistency(cfg, good):
    per_n = {}
    for n, rows_n in good.items():
        errs = np.array([r["err"] for r in rows_n])
        per_n[n] = {
            "median_err": float(np.median(errs)) if errs.size else None,
            "mean_err": float(np.mean(errs)) if errs.size else None,
        }
    ns = [n for n in sorted(per_n) if per_n[n]["median_err"] not in (None, 0.0)]
    slope = None
    if len(ns) >= 2:
        logs = np.log(np.array(ns, dtype=float))
        meds = np.log(np.array([per_n[n]["median_err"] for n in ns]))
        slope = float(np.polyfit(logs, meds, 1)[0])
    return per_n, {"slope": slope, "sample_sizes": list(cfg.sample_sizes)}


def _agg_clt(cfg, good):
    # Lazy: scipy.stats costs ~0.7 CPU-s to import (guard: test_cli::test_lazy_scipy_imports).
    import scipy.stats

    p = cfg.p
    target = fisher_info_inverse(cfg.theta)
    per_n = {}
    rel_max = None
    for n, rows_n in good.items():
        entry = {}
        if len(rows_n) >= 2:
            scaled = np.array(
                [[r[f"scaled_{j + 1}"] for j in range(p)] for r in rows_n]
            )
            cov = np.cov(scaled, rowvar=False, ddof=1).reshape(p, p)
            rel = float(
                np.linalg.norm(cov - target) / np.linalg.norm(target)
            )
            entry["rel_error_fro"] = rel
            rel_max = rel if rel_max is None else max(rel_max, rel)
            for j in range(p):
                for k in range(j, p):
                    entry[f"cov_{j + 1}{k + 1}"] = float(cov[j, k])
                    entry[f"target_{j + 1}{k + 1}"] = float(target[j, k])
            for j in range(p):
                stud = scaled[:, j] / math.sqrt(target[j, j])
                ks = scipy.stats.kstest(stud, "norm")
                entry[f"ks_stat_{j + 1}"] = float(ks.statistic)
                entry[f"ks_pvalue_{j + 1}"] = float(ks.pvalue)
        per_n[n] = entry
    return per_n, {"rel_error_max": rel_max}


def _agg_qsl(cfg, good):
    per_n = {}
    for n, rows_n in good.items():
        ratios = np.array([r["trace_ratio"] for r in rows_n])
        per_n[n] = {
            "median_trace_ratio": float(np.median(ratios)) if ratios.size else None,
        }
    target = float(np.trace(fisher_info_inverse(cfg.theta)))
    return per_n, {"target_trace": target}


def _agg_lil(cfg, good):
    v = _direction(cfg)
    inv = fisher_info_inverse(cfg.theta)
    envelope = float(math.sqrt(v @ inv @ v))
    per_n = {}
    for n, rows_n in good.items():
        runmax = np.array([r["running_max_abs_s"] for r in rows_n])
        per_n[n] = {
            "within_share": float(np.mean(runmax <= 2.0 * envelope)) if runmax.size else None,
            "max_running": float(runmax.max()) if runmax.size else None,
        }
    n_last = max(per_n) if per_n else None
    final_share = per_n[n_last]["within_share"] if n_last is not None else None
    return per_n, {
        "envelope": envelope,
        "final_within_share": final_share,
        "majority_within": bool(final_share is not None and final_share > 0.5),
    }


def _agg_lan_remainder(cfg, good):
    per_n = {}
    for n, rows_n in good.items():
        rems = np.array([abs(r["remainder"]) for r in rows_n])
        per_n[n] = {
            "median_abs_remainder": float(np.median(rems)) if rems.size else None,
        }
    meds = [
        per_n[n]["median_abs_remainder"]
        for n in sorted(per_n)
        if per_n[n]["median_abs_remainder"] is not None
    ]
    monotone = bool(
        len(meds) >= 2 and all(b <= a for a, b in zip(meds, meds[1:]))
    )
    return per_n, {"medians_monotone_decreasing": monotone}


def _agg_test(cfg, good):
    # Lazy: scipy.stats costs ~0.7 CPU-s to import (guard: test_cli::test_lazy_scipy_imports).
    import scipy.stats

    crit = float(chdtri(cfg.p, cfg.alpha))
    per_n = {}
    for n, rows_n in good.items():
        rejects = np.array([r["reject"] for r in rows_n], dtype=float)
        rate = float(np.mean(rejects)) if rejects.size else None
        per_n[n] = {
            "rejection_rate": rate,
            "rate_stderr": (
                float(math.sqrt(max(rate * (1.0 - rate), 0.0) / rejects.size))
                if rejects.size
                else None
            ),
        }
    summary = {"alpha": cfg.alpha, "critical": float(crit)}
    if cfg.experiment == "test_power":
        u = np.array(cfg.shift)
        lam = float(u @ fisher_info(cfg.theta) @ u)
        summary["noncentrality"] = lam
        summary["predicted_power"] = float(scipy.stats.ncx2.sf(crit, cfg.p, lam))
    return per_n, summary


#: Every experiment, declared once: the ok mask and columns of a block at the
#: sample sizes of a simulation, the aggregate of the ok rows grouped by n,
#: and whether the columns read the Gram and moment at every k (else at the
#: sizes).
_TABLE: dict[str, tuple[Callable[..., tuple], Callable[..., tuple[dict, dict]], bool]] = {
    "consistency": (_cols_consistency, _agg_consistency, False),
    "clt": (_cols_clt, _agg_clt, False),
    "qsl": (_cols_qsl, _agg_qsl, True),
    "lil": (_cols_lil, _agg_lil, True),
    "lan_remainder": (_cols_lan_remainder, _agg_lan_remainder, False),
    "test_size": (_cols_test, _agg_test, False),
    "test_power": (_cols_test, _agg_test, False),
}
EXPERIMENTS = tuple(_TABLE)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_experiment(
    cfg: ExperimentConfig,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> ExperimentReport:
    """Run the configured experiment and return its report.

    Replicates run in blocks, each simulated in one pass; ``jobs > 1``
    distributes the blocks over a process pool. The partition into blocks
    depends on the config alone and rows are merged in replicate order, so
    reports are identical for any job count.
    """
    cfg.validate()
    t0 = time.perf_counter()
    reps = cfg.replicates
    size = _block_size(cfg)
    blocks = [range(start, min(start + size, reps)) for start in range(0, reps, size)]
    tick = max(1, reps // 10)
    chunks: list[list[dict]] = []
    for block, result in zip(blocks, _map_blocks(partial(_rows_block, cfg), blocks, jobs)):
        chunks.append(result)
        for r in block:
            if progress is not None and (r + 1) % tick == 0:
                progress(f"[{cfg.experiment}] replicate {r + 1}/{reps}")
    rows = sorted(chain.from_iterable(chunks), key=lambda r: (r["replicate"], r["n"]))
    per_n, summary = aggregate(cfg, rows)
    failures = sum(1 for r in rows if not r["ok"])
    failure_rate = failures / len(rows) if rows else 0.0
    report = ExperimentReport(
        experiment=cfg.experiment,
        config=cfg.to_json_dict(),
        columns=list(rows[0]),
        rows=rows,
        per_n=per_n,
        summary=summary,
        failures=failures,
        failure_rate=failure_rate,
        passed=bool(failure_rate <= FAILURE_BUDGET),
        runtime_seconds=time.perf_counter() - t0,
    )
    return report


def _map_blocks(fn, blocks: list[range], jobs: int):
    """Yield fn(block) in block order, in process or over a pool of ``jobs``."""
    if jobs <= 1:
        yield from map(fn, blocks)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, blocks)
