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

The stream depends on the kernel and n only, never on data. `_generate` and
`_whiten` therefore apply one walk to every series of a batch at once (time
along the last axis). The Markov kernels (white, ar1) skip the walk for
their O(n) closed form there and in `pacf_and_variances`. `_whiten` whitens
the series alone, one dot product per step: lag j + 1 of the whitened state
Z_m is lag j of the score weight w_m, so `state._lags` derives the lags.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .ar import apply_ar
from .exceptions import NotPositiveDefinite
from .noise import CovarianceKernel, covariance

#: Floor under which a one-step prediction variance (or the factor
#: 1 - beta_n**2 producing it) is treated as numerically degenerate.
VARIANCE_FLOOR = 1e-12

#: Kernel families whose filter has a closed form (no stream walk).
MARKOV_FAMILIES = ("white", "ar1")


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
        rvals[m - 2] = covariance(kernel, m - 1)
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


def _markov(kernel: CovarianceKernel, n: int) -> tuple[float, np.ndarray] | None:
    """Closed-form filter of a Markov kernel: (a, sigma_1..sigma_n), else None.

    For ar1 (and white, the case a = 0) beta_1 = a and beta_m = 0 afterwards,
    so every row from the second on is (0, ..., 0, -a, 1) and
    sigma_m = sqrt(1 - a**2) for m >= 2.
    """
    if kernel.family not in MARKOV_FAMILIES:
        return None
    a = kernel.a if kernel.family == "ar1" else 0.0
    sigma = np.ones(n)
    if n > 1:
        sigma[1:] = math.sqrt(_check_positive(a, 1.0, 2))
    return a, sigma


def _generate(kernel: CovarianceKernel, eps: np.ndarray) -> np.ndarray:
    """Map innovations eps, shape (..., n), to stationary paths of the same shape.

    Inverts the whitening map along the last axis,
    xi_m = sigma_m * eps_m - sum_{i<m} k(m, i) * xi_i,
    with one stream walk for all leading indices.
    """
    eps = np.asarray(eps, dtype=float)
    n = eps.shape[-1]
    markov = _markov(kernel, n)
    if markov is not None:
        a, sigma = markov
        return apply_ar((a,), sigma * eps)
    xi = np.empty_like(eps)
    # Time-first views: xi_t[:i] is the (i, R) slab the row multiplies.
    xi_t, eps_t = xi.T, eps.T
    for step in _stream(kernel, n):
        i = step.index - 1
        xi_t[i] = math.sqrt(step.sigma2) * eps_t[i] - step.row[:i] @ xi_t[:i]
    return xi


def _whiten(
    kernel: CovarianceKernel, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whiten observations x, shape (..., n), along the last axis.

    Returns (z, sigma2, pacf): ``z[..., m-1] = sum_{i<=m} k(m, i) x_i``, shape
    (..., n); sigma_1**2..sigma_n**2; and pacf[m] = beta_m for 1 <= m <= n-1
    with pacf[0] = 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    pacf = np.zeros(n)
    markov = _markov(kernel, n)
    if markov is not None:
        a, sigma = markov
        pacf[1:2] = a
        z = x.copy()
        z[..., 1:] -= a * x[..., :-1]
        return z, sigma**2, pacf
    z = np.empty_like(x)
    sigma2 = np.empty(n)
    x_t, z_t = x.T, z.T
    for step in _stream(kernel, n):
        m = step.index
        sigma2[m - 1] = step.sigma2
        pacf[m - 1] = step.beta_prev
        z_t[m - 1] = step.row @ x_t[:m]
    return z, sigma2, pacf


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
    """Return (beta_1..beta_n, sigma_1**2..sigma_n**2) for diagnostics and dumps.

    White and ar1 give beta_1 = a, beta_m = 0 and sigma_m**2 = 1 - a**2
    (m >= 2) exactly, without the O(n**2) walk.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    markov = _markov(kernel, 2)  # 2 steps: the positivity check runs at n = 1 too
    if markov is not None:
        a = markov[0]
        beta = np.zeros(n)
        beta[0] = a
        sigma2 = np.full(n, 1.0 - a * a)
        sigma2[0] = 1.0
        return beta, sigma2
    beta = np.empty(n)
    sigma2 = np.empty(n)
    for step in _stream(kernel, n + 1):
        if step.index >= 2:
            beta[step.index - 2] = step.beta_prev
        if step.index <= n:
            sigma2[step.index - 1] = step.sigma2
    return beta, sigma2
