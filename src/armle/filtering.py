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

The stream depends on the kernel and n only, never on data, and its first m
steps do not depend on n either. Its scalar part, the walk
(beta_1..beta_n, sigma_1**2..sigma_n**2) of `pacf_and_variances`, is the one
description of a kernel's filter: the Markov kernels (white, ar1) give it in
closed form (`_markov`), and the Monte Carlo harness reads nothing else, once
per run (`state._simulated_path`). The library filters one series:
`_generate` (for `noise_from_innovations`) and `_whiten` (for
`filter_observations`) read beta_1 and sigma**2 of a Markov walk, or apply
the stream's rows. `_whiten` whitens the series alone, one dot product per
step: lag j + 1 of the whitened state Z_m is lag j of the score weight w_m, so
`state._filtered_path` derives the lags.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .ar import apply_ar
from .exceptions import NotPositiveDefinite
from .noise import CovarianceKernel, _covariance
from .rng import _integer

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
    """Yield filter steps 1..n with O(n) memory (two row buffers, alternating)."""
    if n < 1:
        return
    row, spare = np.empty((2, n))
    row[0] = 1.0
    rvals = np.empty(max(n - 1, 1))
    sigma2 = 1.0
    yield StreamStep(1, row[:1], 0.0, sigma2)
    for m in range(2, n + 1):
        rvals[m - 2] = _covariance(kernel, m - 1)
        beta = float(row[: m - 1] @ rvals[: m - 1]) / sigma2
        sigma2 = _check_positive(beta, sigma2, m)
        if m > 2:
            body = spare[1 : m - 1]
            np.multiply(row[m - 3 :: -1], beta, out=body)
            np.subtract(row[: m - 2], body, out=body)
        row, spare = spare, row
        row[m - 1] = 1.0
        row[0] = -beta
        yield StreamStep(m, row[:m], beta, sigma2)


def _markov(kernel: CovarianceKernel, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The closed-form walk (beta, sigma2) of a Markov kernel, else None.

    For ar1 (and white, the case a = 0) beta_1 = a and beta_m = 0 afterwards,
    so every row from the second on is (0, ..., 0, -a, 1), sigma_1**2 = 1 and
    sigma_m**2 = 1 - a**2; the positivity check runs at every n.
    """
    if kernel.family not in ("white", "ar1"):
        return None
    a = kernel.a if kernel.family == "ar1" else 0.0
    beta = np.zeros(n)
    beta[:1] = a
    sigma2 = np.full(n, _check_positive(a, 1.0, 2))
    sigma2[:1] = 1.0
    return beta, sigma2


def _generate(kernel: CovarianceKernel, eps: np.ndarray) -> np.ndarray:
    """Map innovations eps_1..eps_n of one series to a stationary path.

    Inverts the whitening map, xi_m = sigma_m * eps_m - sum_{i<m} k(m, i) * xi_i.
    """
    n = eps.size
    walk = _markov(kernel, n)
    if walk is not None:
        beta, sigma2 = walk
        return apply_ar(beta[:1], np.sqrt(sigma2) * eps)
    xi = np.empty(n)
    for step in _stream(kernel, n):
        i = step.index - 1
        xi[i] = math.sqrt(step.sigma2) * eps[i] - step.row[:i] @ xi[:i]
    return xi


def _whiten(kernel: CovarianceKernel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whiten one series x_1..x_n.

    Returns (z, beta, sigma2): ``z[m-1] = sum_{i<=m} k(m, i) x_i``,
    beta_1..beta_{n-1} and sigma_1**2..sigma_n**2.
    """
    n = x.size
    walk = _markov(kernel, n)
    if walk is not None:
        beta, sigma2 = walk
        z = x.copy()
        z[1:] -= beta[0] * x[:-1]
        return z, beta[:-1], sigma2
    z = np.empty(n)
    pacf = np.empty(n)  # pacf[m - 1] = beta_{m-1}, pacf[0] = 0
    sigma2 = np.empty(n)
    for step in _stream(kernel, n):
        m = step.index
        sigma2[m - 1] = step.sigma2
        pacf[m - 1] = step.beta_prev
        z[m - 1] = step.row @ x[:m]
    return z, pacf[1:], sigma2


def kernel_rows(kernel: CovarianceKernel, n: int) -> np.ndarray:
    """All whitening rows up to ``n`` as a lower-triangular (n, n) array.

    ``rows[m-1, i-1] = k(m, i)`` for 1 <= i <= m <= n; zeros above the diagonal.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    out = np.zeros((n, n))
    for step in _stream(kernel, n):
        out[step.index - 1, : step.index] = step.row
    return out


def pacf_and_variances(kernel: CovarianceKernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The filter's walk: (beta_1..beta_n, sigma_1**2..sigma_n**2).

    The Monte Carlo harness reads a run's walk and nothing else of the filter;
    `armle filter` dumps it. White and ar1 give their closed form (`_markov`)
    without the O(n**2) stream.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    walk = _markov(kernel, n)
    if walk is not None:
        return walk
    beta = np.empty(n)
    sigma2 = np.empty(n)
    for step in _stream(kernel, n + 1):
        if step.index >= 2:
            beta[step.index - 2] = step.beta_prev
        if step.index <= n:
            sigma2[step.index - 1] = step.sigma2
    return beta, sigma2
