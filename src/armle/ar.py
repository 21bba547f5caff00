"""AR(p) parameter handling: stability, Fisher information, simulation.

The model is X_n = sum_{i=1}^p theta_i X_{n-i} + xi_n with X_k = 0 for k <= 0,
so the first observation is X_1 = xi_1. The companion matrix A has theta as its
first row and ones on the subdiagonal; stability means the spectral radius of A
is below one, equivalently all roots of z**p - theta_1 z**(p-1) - ... - theta_p
lie inside the open unit disk.
"""
from __future__ import annotations

import numpy as np

from .exceptions import Unstable
from .noise import CovarianceKernel, sample_noise

#: Stability margin: a parameter is accepted when every root modulus is below
#: 1 - STABILITY_MARGIN.
STABILITY_MARGIN = 1e-9


def as_theta(theta) -> np.ndarray:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.ndim != 1 or th.size < 1:
        raise ValueError("theta must be a nonempty 1-d real vector")
    if not np.all(np.isfinite(th)):
        raise ValueError("theta must be finite")
    return th


def companion(theta) -> np.ndarray:
    """Companion matrix: first row theta, ones on the subdiagonal."""
    th = as_theta(theta)
    p = th.size
    a = np.zeros((p, p))
    a[0, :] = th
    if p > 1:
        a[np.arange(1, p), np.arange(0, p - 1)] = 1.0
    return a


def _max_modulus(theta) -> float:
    """Largest modulus of the characteristic roots, the eigenvalues of A."""
    return float(np.max(np.abs(np.linalg.eigvals(companion(theta)))))


def is_stable(theta) -> bool:
    """True iff every characteristic root has modulus below 1 - margin."""
    return _max_modulus(theta) < 1.0 - STABILITY_MARGIN


def require_stable(theta) -> np.ndarray:
    th = as_theta(theta)
    modulus = _max_modulus(th)
    if not modulus < 1.0 - STABILITY_MARGIN:
        raise Unstable(
            f"theta={np.array2string(th, precision=6)} has root modulus "
            f"{modulus:.6g} >= 1 - {STABILITY_MARGIN:g}"
        )
    return th


def fisher_info(theta) -> np.ndarray:
    """Asymptotic information matrix I(theta), the limit of Gram / n: the
    stationary covariance of the lag vector (X_m, ..., X_{m-p+1}) under unit
    innovations, the solution of I = A I A^T + b b^T with b the first
    canonical basis vector, i.e. the Toeplitz matrix of the autocovariances
    gamma(0..p-1).

    Solved directly, as the p**2 linear system (I - A kron A) vec I = vec(b b^T),
    with numpy alone, and symmetrized. For p = 1 this is 1 / (1 - theta**2); at
    theta = 0 it is the identity.
    """
    th = require_stable(theta)
    a = companion(th)
    p = th.size
    rhs = np.zeros(p * p)
    rhs[0] = 1.0
    info = np.linalg.solve(np.eye(p * p) - np.kron(a, a), rhs).reshape(p, p)
    return 0.5 * (info + info.T)


def fisher_info_inverse(theta) -> np.ndarray:
    """Inverse of the information matrix via its Cholesky factorization."""
    import scipy.linalg

    info = fisher_info(theta)
    cho = scipy.linalg.cho_factor(info)
    inv = scipy.linalg.cho_solve(cho, np.eye(info.shape[0]))
    return 0.5 * (inv + inv.T)


def apply_ar(theta, xi) -> np.ndarray:
    """Run the AR recursion from a zero pre-sample along the last axis of xi: the unit
    lower band system with band (1, -theta), solved per series by LAPACK tbtrs."""
    import scipy.linalg

    th = as_theta(theta)
    xi = np.ascontiguousarray(xi, dtype=float)
    if xi.size == 0:
        return xi.copy()
    n = xi.shape[-1]
    band = np.tile(np.concatenate(([1.0], -th)), (n, 1)).T
    x, _ = scipy.linalg.lapack.dtbtrs(band, xi.reshape(-1, n).T, uplo="L", diag="U")
    return x.T.reshape(xi.shape)


def simulate_series(theta, kernel: CovarianceKernel, n: int, seed: int) -> np.ndarray:
    """Simulate X_1..X_n at a stable theta driven by the given noise kernel."""
    th = require_stable(theta)
    return apply_ar(th, sample_noise(kernel, n, seed))
