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

Everything is O(n) memory in streaming form; materializing all rows
(`kernel_rows`) costs O(n^2).
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .exceptions import NotPositiveDefinite
from .noise import CovarianceKernel, covariance

#: Floor under which a one-step prediction variance (or the factor
#: 1 - beta_n**2 producing it) is treated as numerically degenerate.
VARIANCE_FLOOR = 1e-12


class StreamStep(NamedTuple):
    """One step of the streaming filter.

    ``row`` is a live view into an internal buffer, valid only until the next
    step is consumed; copy it if it must survive. ``beta_prev`` is beta_{m-1}
    (zero at the first step by convention).
    """

    index: int
    row: np.ndarray
    beta_prev: float
    sigma2: float


def _check_positive(beta: float, sigma2: float, step: int) -> float:
    gap = 1.0 - beta * beta
    new_sigma2 = sigma2 * gap
    if gap <= VARIANCE_FLOOR or new_sigma2 <= VARIANCE_FLOOR:
        raise NotPositiveDefinite(step, new_sigma2)
    return new_sigma2


def _stream(kernel: CovarianceKernel, n: int) -> Iterator[StreamStep]:
    """Yield filter steps 1..n with O(n) memory (single shared row buffer)."""
    if n < 1:
        return
    row = np.empty(n)
    row[0] = 1.0
    rvals = np.empty(max(n - 1, 1))
    sigma2 = 1.0
    yield StreamStep(1, row[:1], 0.0, sigma2)
    for m in range(2, n + 1):
        rvals[m - 2] = covariance(kernel, m - 1)
        beta = float(row[: m - 1] @ rvals[: m - 1]) / sigma2
        sigma2 = _check_positive(beta, sigma2, m)
        if m > 2:
            body = row[: m - 2] - beta * row[m - 3 :: -1]
            row[1 : m - 1] = body
        row[m - 1] = 1.0
        row[0] = -beta
        yield StreamStep(m, row[:m], beta, sigma2)


def kernel_rows(kernel: CovarianceKernel, n: int) -> np.ndarray:
    """All whitening rows up to ``n`` as a lower-triangular (n, n) array.

    ``rows[m-1, i-1] = k(m, i)`` for 1 <= i <= m <= n; zeros above the diagonal.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    out = np.zeros((n, n))
    for step in _stream(kernel, n):
        out[step.index - 1, : step.index] = step.row
    return out


def pacf_and_variances(kernel: CovarianceKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (beta_1..beta_n, sigma_1**2..sigma_n**2) for diagnostics and dumps."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    beta = np.empty(n)
    sigma2 = np.empty(n)
    for step in _stream(kernel, n + 1):
        if step.index >= 2:
            beta[step.index - 2] = step.beta_prev
        if step.index <= n:
            sigma2[step.index - 1] = step.sigma2
    return beta, sigma2
