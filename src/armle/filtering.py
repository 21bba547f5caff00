"""Durbin-Levinson innovations filter for stationary Gaussian noise.

For a kernel r with r(0) = 1 the filter produces, step by step, the whitening
rows k(n, i), the partial autocorrelations beta_n and the one-step prediction
variances sigma_n**2 of the best linear predictor:

    sigma_1**2 = 1,                 k(n, n) = 1,
    beta_n = sum_{i<=n} k(n, i) r(i) / sigma_n**2,
    sigma_{n+1}**2 = sigma_n**2 * (1 - beta_n**2),
    k(n+1, n+1-i) = k(n, n-i) - beta_n * k(n, i)   for 1 <= i <= n-1,
    k(n+1, 1) = -beta_n,            k(n+1, n+1) = 1.

The whitened innovations of a path xi are
``eps_n = sum_{i<=n} k(n, i) xi_i / sigma_n``.

`_levinson` is the one loop of the recursion. It keeps two row buffers, O(n)
memory, and may apply each row to one series as it goes; materializing all
rows (`kernel_rows`) costs O(n^2).

The walk (beta_1..beta_n, sigma_1**2..sigma_n**2) of `pacf_and_variances`
depends on the kernel and n only, never on data, and its first m steps do
not depend on n either. It is the one description of a kernel's filter: the
Monte Carlo harness reads nothing else, once per run
(`state._simulated_path`), and `kernel_rows` rebuilds the rows from it.
`_walk` is the one place that chooses how to compute it: the Markov kernels
(white, ar1) give it in closed form, every other kernel calls `_levinson`.
The library filters one series by one `_walk` call that also whitens it
(`filter_observations`) or generates it from innovations
(`noise_from_innovations`). Only the series itself is whitened, one dot
product per step: lag j + 1 of the whitened state Z_m is lag j of the score
weight w_m, so `state._filtered_path` derives the lags.
"""
from __future__ import annotations

import math

import numpy as np

from .ar import apply_ar
from .exceptions import NotPositiveDefinite
from .noise import CovarianceKernel, _covariance
from .rng import _integer

#: Floor under which a one-step prediction variance (or the factor
#: 1 - beta_n**2 producing it) is treated as numerically degenerate.
VARIANCE_FLOOR = 1e-12


def _check_positive(beta: float, sigma2: float, step: int) -> float:
    gap = 1.0 - beta * beta
    new_sigma2 = sigma2 * gap
    if gap <= VARIANCE_FLOOR or new_sigma2 <= VARIANCE_FLOOR:
        raise NotPositiveDefinite(step, new_sigma2)
    return new_sigma2


def _levinson(kernel: CovarianceKernel, n: int, x=None, eps=None):
    """Walk the recursion n >= 1 steps: (beta_1..beta_{n-1}, sigma_1**2..sigma_n**2, out).

    Two row buffers alternate, so memory is O(n). Given ``x``, ``out`` is the
    whitened series z_m = sum_{i<=m} k(m, i) x_i; given ``eps``, it is the path
    xi_m = sigma_m * eps_m - sum_{i<m} k(m, i) xi_i; otherwise None.
    """
    beta, sigma2 = np.empty(n - 1), np.empty(n)  # first: a size too large fails at once
    r = np.array([_covariance(kernel, k) for k in range(1, n)])
    out = None if x is None and eps is None else np.empty(n)
    row, spare = np.empty((2, n))
    s2 = 1.0
    for m in range(1, n + 1):
        if m > 1:
            b = float(row[: m - 1] @ r[: m - 1]) / s2
            s2 = _check_positive(b, s2, m)
            beta[m - 2] = b
            if m > 2:
                body = spare[1 : m - 1]
                np.multiply(row[m - 3 :: -1], b, out=body)
                np.subtract(row[: m - 2], body, out=body)
            row, spare = spare, row
            row[0] = -b
        row[m - 1] = 1.0
        sigma2[m - 1] = s2
        if x is not None:
            out[m - 1] = row[:m] @ x[:m]
        elif eps is not None:
            out[m - 1] = math.sqrt(s2) * eps[m - 1] - row[: m - 1] @ out[: m - 1]
    return beta, sigma2, out


def _walk(kernel: CovarianceKernel, n: int, x=None, eps=None):
    """The filter's walk of n >= 1 steps, as `_levinson` returns it.

    For ar1 (and white, the case a = 0) it is closed form: beta_1 = a and
    beta_m = 0 afterwards, so every row from the second on is
    (0, ..., 0, -a, 1), sigma_1**2 = 1 and sigma_m**2 = 1 - a**2; the
    positivity check runs at every n. ``out`` is then x minus a times x
    shifted by one, or the AR(1) filter of sigma * eps. Other kernels walk
    the recursion.
    """
    if kernel.family not in ("white", "ar1"):
        return _levinson(kernel, n, x=x, eps=eps)
    a = kernel.param if kernel.family == "ar1" else 0.0
    beta = np.zeros(n - 1)
    beta[:1] = a
    sigma2 = np.full(n, _check_positive(a, 1.0, 2))
    sigma2[0] = 1.0
    out = None
    if x is not None:
        out = x.copy()
        out[1:] -= a * x[:-1]
    elif eps is not None:
        out = apply_ar((a,), np.sqrt(sigma2) * eps)
    return beta, sigma2, out


def kernel_rows(kernel: CovarianceKernel, n: int) -> np.ndarray:
    """All whitening rows up to ``n`` as a lower-triangular (n, n) array.

    ``rows[m-1, i-1] = k(m, i)`` for 1 <= i <= m <= n; zeros above the diagonal.
    Built from the walk alone: row m + 1 is row m and its reverse, mixed by beta_m.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    beta = _walk(kernel, n)[0]
    rows = np.zeros((n, n))
    rows[0, 0] = 1.0
    for m, b in enumerate(beta.tolist(), start=1):
        prev, row = rows[m - 1, :m], rows[m, : m + 1]
        row[1:m] = prev[:-1] - prev[::-1][1:] * b
        row[0], row[m] = -b, 1.0
    return rows


def pacf_and_variances(kernel: CovarianceKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The filter's walk: (beta_1..beta_n, sigma_1**2..sigma_n**2).

    The Monte Carlo harness reads a run's walk and nothing else of the filter;
    `armle filter` dumps it. It is the first n steps of `_walk` to n + 1, so
    white and ar1 give their closed form without the O(n**2) recursion.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    beta, sigma2, _ = _walk(kernel, n + 1)
    return beta, sigma2[:n]
