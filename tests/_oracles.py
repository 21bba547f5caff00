"""Independent reference implementations used to pin the package numerics.

Everything here deliberately avoids the package's own recursions: whitening
rows come from dense Toeplitz solves, variances from Cholesky, the Fisher
matrix from the autocovariances of a truncated impulse response, likelihoods
from the full multivariate normal density, AR recursions from plain Python
loops, the filtered state from dense whitening rows, and the state
transition matrix from its block layout.
"""
from typing import NamedTuple

import numpy as np
import scipy.linalg

from armle import apply_ar, companion, covariance, noise_from_innovations
from armle.state import FilteredPath, _filtered_path


def dense_covariance(kernel, n):
    """Full n x n Toeplitz covariance matrix built lag by lag."""
    return scipy.linalg.toeplitz([covariance(kernel, lag) for lag in range(n)])


def dense_whitening(kernel, n):
    """Whitening rows and innovation variances from dense prediction solves.

    Row m solves C_m y = e_m and rescales so the last coefficient is one;
    the innovation variance is 1 / y[m-1].
    """
    cov = dense_covariance(kernel, n)
    rows = np.zeros((n, n))
    sigma2 = np.zeros(n)
    for m in range(1, n + 1):
        e = np.zeros(m)
        e[-1] = 1.0
        y = np.linalg.solve(cov[:m, :m], e)
        rows[m - 1, :m] = y / y[-1]
        sigma2[m - 1] = 1.0 / y[-1]
    return rows, sigma2


class DenseState(NamedTuple):
    """Rows m = 1..n of the whitened lag vectors Z_m, the carries
    sum_{k<m} beta_k Z_k and the score weights w_m, each (n, p); pacf[m] = beta_m
    for 1 <= m <= n-1 with pacf[0] = 0; and the prediction variances (n,)."""

    z: np.ndarray
    carry: np.ndarray
    w: np.ndarray
    pacf: np.ndarray
    sigma2: np.ndarray


def dense_state(x, kernel, p):
    """The filtered state of the series x from its definition, on dense whitening rows.

    Z_m = sum_i k(m, i) Y_i with Y_i = (x_i, ..., x_{i-p+1}) zero padded,
    beta_m = -k(m+1, 1), carry_m = sum_{k<m} beta_k Z_k and
    w_m = Z_{m-1} + beta_{m-1} carry_{m-1}, with Z_0 = carry_0 = 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    rows, sigma2 = dense_whitening(kernel, n)
    lagged = np.zeros((n, p))
    for j in range(p):
        lagged[j:, j] = x[: n - j]
    z = rows @ lagged
    pacf = np.zeros(n)
    pacf[1:] = -rows[1:, 0]
    carry = np.zeros((n, p))
    w = np.zeros((n, p))
    for m in range(1, n):
        carry[m] = carry[m - 1] + pacf[m] * z[m - 1]
        w[m] = z[m - 1] + pacf[m] * carry[m - 1]
    return DenseState(z, carry, w, pacf, sigma2)


def two_walk_path(theta, kernel, eps):
    """Filtered path of AR(theta) series simulated from innovations eps, shape
    (R, n), one replicate at a time: the noise from one walk, the series by
    the AR recursion and its filtered path from a second walk."""
    paths = [
        _filtered_path(kernel, apply_ar(theta, noise_from_innovations(kernel, e)), len(theta))
        for e in eps
    ]
    return FilteredPath(
        z=np.stack([q.z for q in paths]),
        w=np.stack([q.w for q in paths]),
        sigma2=paths[0].sigma2,
    )


def cholesky_sigmas(kernel, n):
    """Innovation standard deviations as the Cholesky diagonal of the covariance."""
    return np.diag(np.linalg.cholesky(dense_covariance(kernel, n)))


def transition(theta, pacf_value):
    """Block transition matrix [[A, beta*A], [beta*I, I]] of size 2p."""
    a = companion(theta)
    eye = np.eye(a.shape[0])
    b = float(pacf_value)
    return np.block([[a, b * a], [b * eye, eye]])


def series_fisher(theta, terms=500):
    """Toeplitz(gamma(0..p-1)), the stationary covariance of the lag vector of
    AR(theta) with unit innovations: gamma(k) = sum_j psi_j psi_{j+k} over the
    first ``terms`` of the impulse response psi, run through `ar_recursion`."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    impulse = np.zeros(terms)
    impulse[0] = 1.0
    psi = ar_recursion(theta, impulse)
    return scipy.linalg.toeplitz([psi[: terms - k] @ psi[k:] for k in range(theta.size)])


def ar_recursion(theta, xi):
    """AR recursion with zero pre-sample values, written as a plain loop."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p = theta.size
    x = np.zeros(len(xi))
    for i in range(len(xi)):
        acc = xi[i]
        for j in range(min(p, i)):
            acc += theta[j] * x[i - 1 - j]
        x[i] = acc
    return x


def ols_ar(x, p):
    """Least squares AR(p) fit with zero pre-sample padding."""
    n = len(x)
    design = np.zeros((n, p))
    for j in range(p):
        design[j + 1 :, j] = x[: n - j - 1]
    return np.linalg.lstsq(design, x, rcond=None)[0]


def dense_log_likelihood(x, theta, kernel):
    """Gaussian log density of the observed series from the full covariance.

    X = T^{-1} xi where T is the unit-lower-triangular banded AR operator, so
    Cov(X) = T^{-1} R T^{-T} with R the dense noise covariance.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = len(x)
    p = theta.size
    t = np.eye(n)
    for j in range(p):
        idx = np.arange(j + 1, n)
        t[idx, idx - j - 1] = -theta[j]
    r = dense_covariance(kernel, n)
    tinv = np.linalg.inv(t)
    cov = tinv @ r @ tinv.T
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = x @ np.linalg.solve(cov, x)
    return -0.5 * quad - 0.5 * n * np.log(2.0 * np.pi) - 0.5 * logdet


def random_stable_theta(gen, p, max_modulus=0.9):
    """Draw AR coefficients whose characteristic roots sit inside the disk.

    Roots are sampled directly (real or conjugate pairs), then expanded into
    the monic polynomial z^p - theta_1 z^{p-1} - ... - theta_p.
    """
    roots = []
    while len(roots) < p:
        modulus = gen.uniform(0.05, max_modulus)
        if p - len(roots) >= 2 and gen.uniform() < 0.5:
            angle = gen.uniform(0.1, np.pi - 0.1)
            roots.append(modulus * np.exp(1j * angle))
            roots.append(modulus * np.exp(-1j * angle))
        else:
            roots.append(modulus * gen.choice([-1.0, 1.0]))
    coeffs = np.poly(np.array(roots[:p]))
    theta = -np.real(coeffs[1:])
    return theta
