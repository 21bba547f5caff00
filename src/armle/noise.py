"""Stationary Gaussian noise: covariance kernels, validation and exact sampling.

Supported kernel families, all normalized so that r(0) = 1:

``white``
    r(k) = 1 if k = 0 else 0.
``ar1``
    r(k) = a**k for lag-1 correlation a with |a| < 1.
``fgn``
    Fractional Gaussian noise increments with Hurst index H in (0, 1),
    r(k) = ((k+1)**(2H) - 2*k**(2H) + |k-1|**(2H)) / 2.

A kernel is its family and that family's one parameter, a or H, or none for
white: ``CovarianceKernel("ar1", 0.5)``, or the factory ``ar1(0.5)``.
``_PARAMS`` declares the families and the JSON names of their parameters
once; the JSON form ``{"family": "ar1", "params": {"a": 0.5}}``, the label
and the parser read it.

Sampling is exact: a path of length n is built from n i.i.d. standard normal
innovations through the innovations representation
``xi_m = one-step prediction from xi_1..xi_{m-1} + sigma_m * eps_m``,
where predictions and variances come from the Durbin-Levinson filter.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import rng

#: The kernel families and the JSON names of their parameters. A family has
#: one parameter, held in ``CovarianceKernel.param``, or none.
_PARAMS = {"white": (), "ar1": ("a",), "fgn": ("H",)}


@dataclass(frozen=True)
class CovarianceKernel:
    """Covariance kernel of a stationary centered Gaussian sequence: a family
    and its one parameter.

    Parameters
    ----------
    family : str
        One of ``"white"``, ``"ar1"``, ``"fgn"``.
    param : float, optional
        The lag-1 correlation a of ``ar1`` (|a| < 1) or the Hurst index H of
        ``fgn`` (0 < H < 1); None for ``white``, which has no parameter.
        ``CovarianceKernel("ar1", 0.5) == ar1(0.5)``.
    """

    family: str
    param: float | None = None

    def __post_init__(self):
        if self.family not in _PARAMS:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if (self.param is None) == bool(_PARAMS[self.family]):
            need = "needs a param" if self.param is None else "takes no param"
            raise ValueError(f"{self.family} kernel {need}")
        if self.family == "ar1" and not -1.0 < self.param < 1.0:
            raise ValueError("ar1 kernel needs |a| < 1")
        if self.family == "fgn" and not 0.0 < self.param < 1.0:
            raise ValueError("fgn kernel needs Hurst index in (0, 1)")

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(zip(_PARAMS[self.family], [self.param]))}

    def label(self) -> str:
        return self.family + "".join(f"({name}={self.param:g})" for name in _PARAMS[self.family])


def white() -> CovarianceKernel:
    return CovarianceKernel("white")


def ar1(a: float) -> CovarianceKernel:
    return CovarianceKernel("ar1", float(a))


def fgn(hurst: float) -> CovarianceKernel:
    return CovarianceKernel("fgn", float(hurst))


def covariance(kernel: CovarianceKernel, lag: int) -> float:
    """Evaluate the kernel at a nonnegative integer lag."""
    k = rng._integer("lag", lag)
    if k < 0:
        raise ValueError("lag must be nonnegative")
    return _covariance(kernel, k)


def _covariance(kernel: CovarianceKernel, k: int) -> float:
    """r(k) for an int k >= 0, unchecked: the filter walk's per-step entry."""
    if k == 0:
        return 1.0
    if kernel.family == "white":
        return 0.0
    if kernel.family == "ar1":
        return float(kernel.param) ** k
    h2 = 2.0 * kernel.param
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + (k - 1.0) ** h2)


def kernel_from_json(text: str | dict) -> CovarianceKernel:
    """Parse a kernel from its JSON object form ``{"family": ..., "params": {...}}``.

    An unknown key, at the top or in ``params``, and a parameter that is not a
    real number (a bool or a string included) raise ValueError naming it.
    """
    obj = json.loads(text) if isinstance(text, str) else text
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError("kernel JSON must be an object with a 'family' key")
    unknown = set(obj) - {"family", "params"}
    if unknown:
        raise ValueError(f"kernel JSON has unknown keys: {sorted(unknown)}")
    family = str(obj["family"]).lower()
    params = obj.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ValueError("kernel 'params' must be an object")
    if family not in _PARAMS:
        raise ValueError(f"unknown kernel family {family!r}")
    unknown = set(params) - set(_PARAMS[family])
    if unknown:
        raise ValueError(f"{family} kernel has unknown params: {sorted(unknown)}")
    values = []
    for name in _PARAMS[family]:
        if name not in params:
            raise ValueError(f"{family} kernel needs params.{name}")
        values.append(rng._real(f"{family} kernel params.{name}", params[name]))
    return CovarianceKernel(family, *values)


@dataclass(frozen=True)
class ValidationReport:
    """Positive-definiteness diagnostics of a kernel over a finite horizon.

    ``beta_decay_exponent`` is the slope alpha fitted to beta_n**2 ~ C * n**(-alpha)
    over the tail half of the horizon; None when the tail PACF is numerically zero
    (white or Markov kernels). ``slow_decay`` flags a finite fitted exponent <= 3,
    i.e. a polynomial-rate PACF tail as for fractional noise.
    """

    kernel: CovarianceKernel
    horizon: int
    min_sigma2: float
    max_abs_beta: float
    beta_decay_exponent: float | None
    slow_decay: bool
    passed: bool

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"kernel": self.kernel.to_json_dict()}


def validate_kernel(kernel: CovarianceKernel, horizon: int) -> ValidationReport:
    """Check positive definiteness of the kernel up to ``horizon`` steps.

    Runs the Durbin-Levinson recursion and reports the minimum innovation
    variance, the maximum |beta_n| and the fitted decay exponent of beta_n**2.

    Raises
    ------
    NotPositiveDefinite
        If an innovation variance falls below the variance floor before the
        horizon is reached.
    """
    from .filtering import pacf_and_variances

    n = rng._integer("horizon", horizon)
    if n < 1:
        raise ValueError("horizon must be at least 1")
    beta, sigma2 = pacf_and_variances(kernel, n)
    exponent = _fit_decay_exponent(beta)
    slow = exponent is not None and exponent <= 3.0
    return ValidationReport(
        kernel=kernel,
        horizon=n,
        min_sigma2=float(sigma2.min()),
        max_abs_beta=float(np.abs(beta).max()) if beta.size else 0.0,
        beta_decay_exponent=exponent,
        slow_decay=slow,
        passed=True,
    )


def _fit_decay_exponent(beta: np.ndarray) -> float | None:
    """Log-log slope of beta_n**2 over the tail half; None for a numerically zero tail."""
    m = beta.size
    if m < 6:
        return None
    start = m // 2
    ns = np.arange(1, m + 1)[start:]
    b2 = beta[start:] ** 2
    keep = b2 > 1e-28
    if keep.sum() < 3:
        return None
    slope = np.polyfit(np.log(ns[keep]), np.log(b2[keep]), 1)[0]
    return float(-slope)


def noise_from_innovations(kernel: CovarianceKernel, eps: np.ndarray) -> np.ndarray:
    """Map i.i.d. standard normal innovations eps_1..eps_n, a 1-d array, to an
    exact stationary path.

    Inverts the whitening map of the Durbin-Levinson filter,
    xi_m = sigma_m * eps_m - sum_{i<m} k(m, i) * xi_i: O(n) for white and
    ar1 kernels, O(n^2) otherwise.
    """
    from .filtering import _walk

    if np.ndim(eps) != 1:
        raise ValueError(f"innovations must be a 1-d array, got shape {np.shape(eps)}")
    eps = np.ascontiguousarray(eps, dtype=float)
    if eps.size == 0:
        return np.empty(0)
    return _walk(kernel, eps.size, eps=eps)[2]


def sample_noise(kernel: CovarianceKernel, n: int, seed: int) -> np.ndarray:
    """Sample an exact stationary Gaussian path of length ``n``.

    Deterministic given ``(kernel, n, seed)``; the innovations are drawn from
    the root substream of ``seed`` (see :mod:`armle.rng`).
    """
    n = rng._integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    eps = rng.standard_normals(rng.substream(seed), n)
    return noise_from_innovations(kernel, eps)
