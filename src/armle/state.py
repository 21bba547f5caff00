"""The filtered path and the exact log-likelihood.

From observations x_1..x_n and a noise kernel, each lag vector
Y_m = (x_m, ..., x_{m-p+1}) (zero padded below index 1) is whitened
componentwise with the current filter row,

    Z_m = sum_{i<=m} k(m, i) Y_i,

and paired with the PACF-weighted running sum to form the 2p-dimensional state

    zeta_m = (Z_m, sum_{k<m} beta_k Z_k),        zeta_0 = 0.

Along the true model the state is Markov:
zeta_m = T(theta, beta_{m-1}) zeta_{m-1} + e_1 sigma_m eps_m, where T is the
block transition [[A, beta*A], [beta*I, I]]. Writing w_m for the score weight
(first block of zeta_{m-1} plus beta_{m-1} times the second), the innovation
at parameter theta is eps_m(theta) = (Z_m[0] - w_m . theta) / sigma_m and the
exact log-likelihood is Gaussian in these innovations. The lower rows of T say
that lag j + 1 of Z_m is lag j of w_m, so only the series itself is whitened
and `_filtered_path` derives lags 1..p from it.

The state zeta_m is the derivation: the likelihood, score and Gram read only
Z_m[0], w_m and sigma_m**2, which is all `FilteredPath` keeps. It depends only
on the data and the kernel, never on theta; all theta-dependence enters
through the quadratic form in (gram, moment).

`filter_observations` builds the path of one series from data
(`_filtered_path`). A simulation needs no data: along the true model
Z_m[0] = theta . w_m + sigma_m eps_m, so `_simulated_path` runs the
transition from the innovations eps_m of a block, reading beta and sigma**2
of the filter's walk alone and never forming the series. Its coefficients
are 1, theta and beta_m, so all n steps are one unit lower band system that
LAPACK solves for every replicate of the block in one call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar import apply_ar, as_theta
from .exceptions import DimensionMismatch, TooShort
from .filtering import _walk
from .noise import CovarianceKernel
from .rng import _integer

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class FilteredPath:
    """Filtered path of one series, or of a block of replicates along the
    leading axes of ``z`` and ``w``, both C-contiguous. The state zeta_m is the
    derivation; the path keeps its first entry Z_m[0] and the score weights w_m.

    Fields
    ------
    z : ndarray, shape (..., n)
        Whitened series Z_1[0] .. Z_n[0].
    w : ndarray, shape (..., n, p)
        Score weights w_1 .. w_n, w_1 = 0; w_m holds lags 1..p of Z_m.
    sigma2 : ndarray, shape (n,)
        Prediction variances sigma_1**2 .. sigma_n**2.
    """

    z: np.ndarray
    w: np.ndarray
    sigma2: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[-1]

    @property
    def p(self) -> int:
        return self.w.shape[-1]

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.sigma2)


def filter_observations(x, kernel: CovarianceKernel, p: int) -> FilteredPath:
    """Build the filtered path from observations.

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
    p = _integer("p", p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if x.ndim != 1:
        raise ValueError("observations must be a 1-d series")
    n = x.size
    if n < p + 1:
        raise TooShort(f"need at least p + 1 = {p + 1} observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    return _filtered_path(kernel, x, p)


def _filtered_path(kernel: CovarianceKernel, x: np.ndarray, p: int) -> FilteredPath:
    """Whiten one series x and derive the score weights w, shape (n, p), from
    the whitened series z.

    w_m holds lags 1..p of Z_m, and lag j + 1 of Z_m is lag j of w_m, so each
    lag is the weight map W(u)_m = u_{m-1} + beta_{m-1} c_{m-1} of the one
    before, with the carry c_m = sum_{i<m} beta_i u_i (c_1 = 0, W(u)_1 = 0),
    starting from u = z.
    """
    beta, sigma2, z = _walk(kernel, x.size, x=x)
    w = np.zeros((z.size, p))
    carry = np.zeros_like(z)
    u = z
    for j in range(p):
        np.multiply(beta, u[:-1], out=carry[1:])
        np.cumsum(carry, out=carry)
        lag = w[:, j]
        np.multiply(beta, carry[:-1], out=lag[1:])
        lag[1:] += u[:-1]
        u = lag
    return FilteredPath(z=z, w=w, sigma2=sigma2)


def _markov_walk(beta: np.ndarray) -> bool:
    """True when beta vanish past lag 1 (white, ar1): the recursion is the AR filter."""
    return not beta[1:].any()


def _simulated_path(theta, eps: np.ndarray, walk) -> FilteredPath:
    """Filtered path of AR(theta) series driven by the noise of the filter walk
    ``walk`` with innovations eps, shape (R, n), by the state recursion along
    the true model; the series itself is never formed.

    With Z_m = (z_m, w_m[0..p-2]), the carry C_1 = 0 and w_1 = 0, each step is

        z_m = theta . w_m + sigma_m eps_m,
        w_{m+1} = Z_m + beta_m C_m,      C_{m+1} = C_m + beta_m Z_m,

    a unit lower band system in the unknowns (w_m, C_m, z_m) of m = 1..n, in
    that order, whose band holds -theta, -1 and -beta_m. LAPACK tbtrs solves
    it in one call with one replicate per right-hand side column, so a
    replicate's path does not depend on R. The right-hand side, sigma_m eps_m
    in the z slots and zero elsewhere, is stored replicate-major and the
    solution overwrites it; z and w are read off the solution. ``walk`` is
    (beta, sigma2) of ``pacf_and_variances(kernel, N)`` for any N >= n, of
    which the recursion reads a prefix. Where beta vanish past lag 1
    (`_markov_walk`) w holds the lags of z and z = apply_ar(theta, sigma * eps).
    """
    import scipy.linalg.lapack

    th = as_theta(theta)
    p = th.size
    reps, n = eps.shape
    beta, sigma2 = walk[0][:n], walk[1][:n]
    if _markov_walk(beta):
        z = apply_ar(th, np.sqrt(sigma2) * eps)
        w = np.zeros((reps, n, p))
        for j in range(p):
            w[:, j + 1 :, j] = z[:, : n - j - 1]
        return FilteredPath(z=z, w=w, sigma2=sigma2)
    # Step m holds w_m[j] at slot j, C_m[j] at p + j and z_m at 2p; band[m, s, d]
    # is the coefficient of the unknown in slot s of step m in the row d below
    # it. The farthest, C_{m+1}[j + 1] from w_m[j], is 3p + 2 below (3 for p = 1).
    slots = 2 * p + 1
    band = np.zeros((n, slots, 3 * p + 3 if p > 1 else 4))
    band[:, 2 * p, 1] = -1.0
    band[:, 2 * p, p + 1] = -beta
    for j in range(p):
        band[:, j, 2 * p - j] = -th[j]
        band[:, p + j, p + 1] = -beta
        band[:, p + j, 2 * p + 1] = -1.0
        if j < p - 1:
            band[:, j, 2 * p + 2] = -1.0
            band[:, j, 3 * p + 2] = -beta
    rhs = np.zeros((reps, n, slots))
    np.multiply(eps, np.sqrt(sigma2), out=rhs[:, :, 2 * p])
    x, _ = scipy.linalg.lapack.dtbtrs(
        band.reshape(n * slots, -1).T,
        rhs.reshape(reps, n * slots).T,
        uplo="L",
        diag="U",
        overwrite_b=True,
    )
    x = x.T.reshape(reps, n, slots)
    return FilteredPath(z=x[:, :, 2 * p].copy(), w=x[:, :, :p].copy(), sigma2=sigma2)


# Sums that overflow give a non-finite Gram, which _solve_gram reads as singular
# and the caller reports in one line, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _gram_moment(path: FilteredPath, ends):
    """Gram sum_{i<=k} w_i w_i^T / sigma_i**2, shape (..., len(ends), p, p), and
    moment sum_{i<=k} w_i z_i / sigma_i**2, shape (..., len(ends), p), over the
    first k terms for each k in ``ends``, increasing integers in 1..n.

    With an end at every k (len(ends) == n) the sums are running cumsums of the
    outer products. Otherwise each segment between consecutive ends is summed
    by one batched matmul and the segment sums are cumsummed, so nothing of
    size n * p * p is formed; for one series and ends = (n,) the Gram is
    sw^T sw with sw = w / sigma.
    """
    sw = path.w / path.sigma[:, None]
    y = path.z / path.sigma2
    if len(ends) == path.n:
        gram = sw[..., :, None] * sw[..., None, :]
        del sw
        np.cumsum(gram, axis=-3, out=gram)
        moment = path.w * y[..., None]
        np.cumsum(moment, axis=-2, out=moment)
        return gram, moment
    cuts = list(zip((0, *ends[:-1]), ends))
    gram = np.stack(
        [sw[..., a:b, :].swapaxes(-1, -2) @ sw[..., a:b, :] for a, b in cuts], axis=-3
    )
    moment = np.stack(
        [(path.w[..., a:b, :].swapaxes(-1, -2) @ y[..., a:b, None])[..., 0] for a, b in cuts],
        axis=-2,
    )
    return np.cumsum(gram, axis=-3), np.cumsum(moment, axis=-2)


def innovations(path: FilteredPath, theta) -> np.ndarray:
    """Innovation sequence eps_1(theta)..eps_n(theta) of the path."""
    th = _check_theta(path, theta)
    return (path.z - path.w @ th) / path.sigma


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
    eps = innovations(path, theta)
    gram, moment = _gram_moment(path, (path.n,))
    score = path.w.T @ (eps / path.sigma)
    return ScoreAccumulator(gram=gram[0], moment=moment[0], count=path.n), score


def _check_theta(path: FilteredPath, theta) -> np.ndarray:
    th = as_theta(theta)
    if th.size != path.p:
        raise DimensionMismatch(
            f"theta has length {th.size}, path was built with p = {path.p}"
        )
    return th
