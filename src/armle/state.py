"""The 2p-dimensional filtered state process and the exact log-likelihood.

From observations x_1..x_n and a noise kernel, each lag vector
Y_m = (x_m, ..., x_{m-p+1}) (zero padded below index 1) is whitened
componentwise with the current filter row,

    Z_m = sum_{i<=m} k(m, i) Y_i,

and paired with the PACF-weighted running sum to form the state

    zeta_m = (Z_m, sum_{k<m} beta_k Z_k),        zeta_0 = 0.

Along the true model the state is Markov:
zeta_m = T(theta, beta_{m-1}) zeta_{m-1} + e_1 sigma_m eps_m, where T is the
block transition [[A, beta*A], [beta*I, I]]. Writing w_m for the score weight
(first block of zeta_{m-1} plus beta_{m-1} times the second), the innovation
at parameter theta is eps_m(theta) = (Z_m[0] - w_m . theta) / sigma_m and the
exact log-likelihood is Gaussian in these innovations. The lower rows of T say
that lag j + 1 of Z_m is lag j of w_m, so only the series itself is whitened
and `_lags` derives lags 1..p from it.

The construction depends only on the data and the kernel, never on theta; all
theta-dependence enters through the quadratic form in (gram, moment).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar import as_theta
from .exceptions import DimensionMismatch, TooShort
from .filtering import _whiten
from .noise import CovarianceKernel

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class FilteredPath:
    """Filtered state path built from one observation series.

    Fields
    ------
    states : ndarray, shape (n, 2p)
        Rows are zeta_1 .. zeta_n.
    sigma2 : ndarray, shape (n,)
        Prediction variances sigma_1**2 .. sigma_n**2.
    pacf : ndarray, shape (n,)
        pacf[m] = beta_m for 1 <= m <= n-1 and pacf[0] = 0; pacf[m] weights
        the transition from state m to state m+1 and the score weight w_{m+1}.
    p : int
        Model order.
    """

    states: np.ndarray
    sigma2: np.ndarray
    pacf: np.ndarray
    p: int

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def whitened(self) -> np.ndarray:
        """First block Z_1..Z_n, shape (n, p)."""
        return self.states[:, : self.p]

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.sigma2)


def filter_observations(x, kernel: CovarianceKernel, p: int) -> FilteredPath:
    """Build the filtered state path from observations.

    Parameters
    ----------
    x : array_like
        Observations x_1..x_n with n >= p + 1.
    kernel : CovarianceKernel
        Noise covariance kernel.
    p : int
        Model order (>= 1).
    """
    x = np.ascontiguousarray(x, dtype=float)
    p = int(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if x.ndim != 1:
        raise ValueError("observations must be a 1-d series")
    n = x.size
    if n < p + 1:
        raise TooShort(f"need at least p + 1 = {p + 1} observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    z0, sigma2, pacf = _whiten(kernel, x)
    z = np.column_stack([z0, _lags(z0, pacf, p - 1)])
    return FilteredPath(
        states=np.hstack([z, _carry(z, pacf)]), sigma2=sigma2, pacf=pacf, p=p
    )


def _carry(z: np.ndarray, pacf: np.ndarray) -> np.ndarray:
    """Second state block sum_{k<m} beta_k Z_k of whitened lags z, shape (..., n, p)."""
    carry = np.zeros_like(z)
    body = carry[..., 1:, :]
    np.multiply(pacf[1:, None], z[..., :-1, :], out=body)
    np.cumsum(body, axis=-2, out=body)
    return carry


def _lags(z0: np.ndarray, pacf: np.ndarray, k: int) -> np.ndarray:
    """Lags 1..k, shape (..., n, k), of a whitened series z0, shape (..., n).

    Lag j + 1 of Z_m is lag j of the score weight w_m, so each lag is the weight
    map W(u)_m = u_{m-1} + beta_{m-1} sum_{i<m-1} beta_i u_i (W(u)_1 = 0) of the
    one before, and lags 1..p are the score weights w_1..w_n.
    """
    lags = np.zeros(z0.shape + (k,))
    u = z0[..., None]
    for j in range(k):
        body = lags[..., 1:, j : j + 1]
        np.multiply(pacf[1:, None], _carry(u, pacf)[..., :-1, :], out=body)
        body += u[..., :-1, :]
        u = lags[..., j : j + 1]
    return lags


# Sums that overflow give a non-finite Gram, which _solve_gram reads as singular
# and the caller reports in one line, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _gram_moment(w: np.ndarray, z1: np.ndarray, sigma2: np.ndarray, ends):
    """Gram sum_{i<=k} w_i w_i^T / sigma_i**2, shape (..., len(ends), p, p), and
    moment sum_{i<=k} w_i z1_i / sigma_i**2, shape (..., len(ends), p), over the
    first k terms for each k in ``ends``, increasing integers in 1..n.

    With an end at every k (len(ends) == n) the sums are running cumsums of the
    outer products. Otherwise each segment between consecutive ends is summed
    by one batched matmul and the segment sums are cumsummed, so nothing of
    size n * p * p is formed; for one series and ends = (n,) the Gram is
    sw^T sw with sw = w / sigma.
    """
    sw = w / np.sqrt(sigma2)[:, None]
    y = z1 / sigma2
    if len(ends) == w.shape[-2]:
        gram = sw[..., :, None] * sw[..., None, :]
        del sw
        np.cumsum(gram, axis=-3, out=gram)
        moment = w * y[..., None]
        np.cumsum(moment, axis=-2, out=moment)
        return gram, moment
    cuts = list(zip((0, *ends[:-1]), ends))
    gram = np.stack(
        [sw[..., a:b, :].swapaxes(-1, -2) @ sw[..., a:b, :] for a, b in cuts], axis=-3
    )
    moment = np.stack(
        [(w[..., a:b, :].swapaxes(-1, -2) @ y[..., a:b, None])[..., 0] for a, b in cuts],
        axis=-2,
    )
    return np.cumsum(gram, axis=-3), np.cumsum(moment, axis=-2)


def _path_weights(path: FilteredPath) -> np.ndarray:
    """Score weights w_1..w_n of a path, shape (n, p); w_1 = 0 since zeta_0 = 0."""
    return _lags(path.states[:, 0], path.pacf, path.p)


def innovations(path: FilteredPath, theta) -> np.ndarray:
    """Innovation sequence eps_1(theta)..eps_n(theta) of the path."""
    th = _check_theta(path, theta)
    return (path.states[:, 0] - _path_weights(path) @ th) / path.sigma


def log_likelihood(path: FilteredPath, theta) -> float:
    """Exact Gaussian log-likelihood of the observations at ``theta``."""
    eps = innovations(path, theta)
    n = path.n
    return float(
        -0.5 * float(eps @ eps) - 0.5 * n * _LOG_2PI - 0.5 * float(np.log(path.sigma2).sum())
    )


@dataclass(frozen=True, eq=False)
class ScoreAccumulator:
    """Accumulated score statistics: the Gram matrix
    sum_i w_i w_i^T / sigma_i**2, the theta-free moment vector
    sum_i w_i Z_i[0] / sigma_i**2, and the number of terms.
    """

    gram: np.ndarray
    moment: np.ndarray
    count: int


def accumulate(path: FilteredPath, theta) -> tuple[ScoreAccumulator, np.ndarray]:
    """Return the accumulator together with the score vector at ``theta``.

    The score is sum_i w_i eps_i(theta) / sigma_i, which equals
    moment - gram @ theta up to rounding.
    """
    th = _check_theta(path, theta)
    w = _path_weights(path)
    gram, moment = _gram_moment(w, path.states[:, 0], path.sigma2, (path.n,))
    eps = (path.states[:, 0] - w @ th) / path.sigma
    score = w.T @ (eps / path.sigma)
    return ScoreAccumulator(gram=gram[0], moment=moment[0], count=path.n), score


def _check_theta(path: FilteredPath, theta) -> np.ndarray:
    th = as_theta(theta)
    if th.size != path.p:
        raise DimensionMismatch(
            f"theta has length {th.size}, path was built with p = {path.p}"
        )
    return th
