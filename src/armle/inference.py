"""Estimation and testing from a filtered path.

The log-likelihood is exactly quadratic in theta, so the maximizer solves the
normal equations gram @ theta = moment, the likelihood-ratio statistic equals
the quadratic form d^T gram d with d = theta_hat - theta_0 (and so
score^T gram^{-1} score), and the expansion of
log L(theta_0 + u/sqrt(n)) - log L(theta_0) in u is an algebraic identity with
empirical curvature gram/n. Critical values and p-values come from the
chi-square distribution with p degrees of freedom, whose tail at integer p is a
finite sum of exp/erfc terms; it and its quantile are computed here with the
standard library alone, so a test loads no scipy.

The local alternative theta_0 + u/sqrt(n), the statistic max(d^T gram d, 0)
and the LAN remainder -<u, (gram/n - I(theta_0)) u>/2 are defined here once,
for the library and the harness alike; the last two take Gram stacks of any
leading shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar import as_theta, fisher_info, require_stable
from .exceptions import SingularGram, Unstable
from .state import FilteredPath, _check_theta, _gram_moment, accumulate

#: Gram matrices with a larger 2-norm condition number are rejected as singular.
GRAM_CONDITION_CAP = 1e12


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Maximum-likelihood estimate with its empirical curvature.

    ``gram`` is the Gram matrix of the normal equations and ``cond`` its
    2-norm condition number; ``gram_over_n`` is the information plug-in.
    """

    theta_hat: np.ndarray
    gram: np.ndarray
    n: int
    cond: float

    @property
    def p(self) -> int:
        return self.theta_hat.size

    @property
    def gram_over_n(self) -> np.ndarray:
        return self.gram / self.n

    @property
    def stderr(self) -> np.ndarray:
        """Plug-in standard errors sqrt(diag((n * gram_over_n)^{-1}))."""
        cov = np.linalg.inv(self.n * self.gram_over_n)
        return np.sqrt(np.diag(cov))


def _solve_gram(
    gram: np.ndarray, moment: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched normal-equation solves of gram[i] @ theta[i] = moment[i].

    ``gram`` has shape (..., p, p) and ``moment`` shape (..., p), over any
    leading batch axes. Returns (theta, cond, ok) of shapes (..., p), (...)
    and (...): ``cond`` is the 2-norm condition number (inf when a Gram matrix
    is not positive definite) and ``ok`` flags the solves with cond within the
    cap; theta is NaN where ``ok`` is false. A Gram matrix with a non-finite
    entry, on which ``eigvalsh`` may not converge, is read as the zero matrix.
    """
    finite = np.isfinite(gram)
    if not finite.all():
        gram = np.where(finite.all(axis=(-2, -1))[..., None, None], gram, 0.0)
    evals = np.linalg.eigvalsh(gram)
    lo, hi = evals[..., 0], evals[..., -1]
    ok = np.isfinite(lo) & np.isfinite(hi) & (lo > 0.0)
    cond = np.where(ok, hi / np.where(ok, lo, 1.0), math.inf)
    ok &= cond <= GRAM_CONDITION_CAP
    theta = np.full(moment.shape, np.nan)
    if ok.any():
        theta[ok] = np.linalg.solve(gram[ok], moment[ok][:, :, None])[:, :, 0]
    return theta, cond, ok


def mle(path: FilteredPath) -> EstimationResult:
    """Exact maximum-likelihood estimate of theta from a filtered path.

    Raises
    ------
    SingularGram
        If the Gram matrix is singular or its condition number exceeds the cap.
    """
    gram, moment = _gram_moment(path, (path.n,))
    theta, cond, ok = _solve_gram(gram, moment)
    if not ok[0]:
        raise SingularGram(cond[0])
    return EstimationResult(theta_hat=theta[0], gram=gram[0], n=path.n, cond=float(cond[0]))


def _quad(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T m b over the leading axes, in the product order of 1-d a @ m @ b."""
    return ((a[..., None, :] @ m) @ b[..., None])[..., 0, 0]


def _local_alternative(theta0, u, n: int) -> np.ndarray:
    """theta_0 + u/sqrt(n), or Unstable naming n (the stable region is not convex)."""
    try:
        return require_stable(as_theta(theta0) + as_theta(u) / math.sqrt(n))
    except Unstable as exc:
        raise Unstable(f"theta0 + u/sqrt(n) is unstable at n={n}: {exc}") from exc


def _lr_statistic(d: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """max(d^T gram d, 0) over stacks of d = theta_hat - theta_0 and Grams."""
    return np.maximum(_quad(d, gram, d), 0.0)


def _lan_remainder(u: np.ndarray, gram: np.ndarray, n, info: np.ndarray) -> np.ndarray:
    """-<u, (gram/n - info) u>/2 over a Gram stack, n broadcasting against it."""
    return -0.5 * _quad(u, gram / n - info, u)


def _lr(path: FilteredPath, theta0) -> tuple[float, np.ndarray, EstimationResult]:
    """(statistic, theta_0, estimate) of the likelihood-ratio test of theta_0."""
    th0 = _check_theta(path, theta0)
    est = mle(path)
    return float(_lr_statistic(est.theta_hat - th0, est.gram)), th0, est


def lr_statistic(path: FilteredPath, theta0) -> float:
    """Likelihood-ratio statistic 2 (log L(theta_hat) - log L(theta_0))."""
    return _lr(path, theta0)[0]


@dataclass(frozen=True, eq=False)
class TestResult:
    statistic: float
    critical: float
    alpha: float
    pvalue: float
    reject: bool
    theta_hat: np.ndarray
    theta0: np.ndarray


def _log_term(a: float, y: float) -> float:
    """log(y^a e^-y / Gamma(a + 1)) for y > 0."""
    return a * math.log(y) - math.lgamma(a + 1.0) - y


def _log_erfc(y: float) -> float:
    """log erfc(sqrt(y)) for y > 0; from y = 700, where erfc nears underflow,
    nine terms of its asymptotic series, which there are exact to rounding."""
    if y < 700.0:
        return math.log(math.erfc(math.sqrt(y)))
    s = term = 1.0
    for k in range(1, 10):
        term *= (0.5 - k) / y
        s += term
    return math.log(s) - y - 0.5 * math.log(math.pi * y)


def _chi2_logsf(p: int, x: float) -> float:
    """log P(chi2_p > x) for integer p >= 1, finite for every finite x.

    At y = x/2 the tail is (Abramowitz & Stegun 26.4.4-5) the sum of the
    terms y^a e^-y / Gamma(a + 1) for a = p/2 - 1, p/2 - 2, ... down to 0 or
    1/2, plus erfc(sqrt(y)) when p is odd. The terms are summed from their logs.
    """
    y = 0.5 * x
    if y <= 0.0:
        return 0.0
    if y == math.inf:
        return -math.inf
    logs = [_log_term(0.5 * p - 1.0 - i, y) for i in range(p // 2)]
    if p % 2:
        logs.append(_log_erfc(y))
    top = max(logs)
    return top + math.log(math.fsum(math.exp(t - top) for t in logs))


def _chi2_sf(p: int, x: float) -> float:
    """P(chi2_p > x), the p-value of a statistic x."""
    return math.exp(_chi2_logsf(p, x))


def _chi2_isf(p: int, alpha: float) -> float:
    """The x with P(chi2_p > x) = alpha, for integer p >= 1 and 0 < alpha < 1.

    Newton's method on log P(chi2_p > x) = log(alpha), whose derivative is
    minus the hazard pdf/sf, kept inside a bracket of the root, until the two
    sides agree within 1e-15 (1 + |log alpha|); every alpha down to the least
    subnormal gives a finite x. Above alpha = 1/2 it starts from the lower
    bound (Gamma(p/2 + 1) (1 - alpha))^(2/p) of y = x/2, which is also as
    near as the tail's rounding can tell when 1 - alpha nears 1e-16.
    """
    a = 0.5 * p
    log_alpha = math.log(alpha)
    if alpha > 0.5:
        x = 2.0 * math.exp((math.log1p(-alpha) + math.lgamma(a + 1.0)) / a)
    else:
        x = max(float(p), -2.0 * log_alpha)
    lo, hi = 0.0, math.inf
    for _ in range(64):
        logsf = _chi2_logsf(p, x)
        gap = logsf - log_alpha
        if abs(gap) <= 1e-15 * (1.0 - log_alpha):
            break
        if gap > 0.0:
            lo = x
        else:
            hi = x
        new = x + 2.0 * gap * math.exp(logsf - _log_term(a - 1.0, 0.5 * x))
        if not lo < new < hi:  # bisect the bracket, or double x until it closes
            new = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        x = new
    return x


def lr_test(path: FilteredPath, theta0, alpha: float) -> TestResult:
    """Likelihood-ratio test of theta = theta0 at level ``alpha``.

    Rejects when the statistic reaches the upper-alpha chi-square quantile
    with p degrees of freedom.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    stat, th0, est = _lr(path, theta0)
    crit = _chi2_isf(th0.size, alpha)
    return TestResult(
        statistic=stat,
        critical=crit,
        alpha=float(alpha),
        pvalue=_chi2_sf(th0.size, stat),
        reject=bool(stat >= crit),
        theta_hat=est.theta_hat,
        theta0=th0,
    )


def lan_decomposition(path: FilteredPath, theta0, u) -> tuple[float, float, float]:
    """Split log L(theta_0 + u/sqrt(n)) - log L(theta_0) into three parts.

    Returns
    -------
    (score_term, info_term, remainder)
        score_term = <u, score/sqrt(n)>, info_term = -<u, I(theta_0) u>/2 with
        the asymptotic information matrix, and remainder
        -<u, (gram/n - I(theta_0)) u>/2. The three sum to the exact likelihood
        difference.

    Raises
    ------
    Unstable
        If theta_0 or theta_0 + u/sqrt(n) is outside the stability region.
    """
    info = fisher_info(theta0)
    u = as_theta(u)
    if u.size != len(info):
        raise ValueError("u must have the same length as theta0")
    _local_alternative(theta0, u, path.n)
    acc, score = accumulate(path, theta0)
    score_term = float(u @ score) / math.sqrt(path.n)
    info_term = -0.5 * float(_quad(u, info, u))
    return score_term, info_term, float(_lan_remainder(u, acc.gram, path.n, info))
