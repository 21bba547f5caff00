"""Exception types raised by the estimation pipeline."""
from __future__ import annotations


class ArmleError(Exception):
    """Base class for errors raised by this package."""


class NotPositiveDefinite(ArmleError):
    """The implied covariance is numerically degenerate at some step.

    Raised by the innovations filter when the one-step prediction variance
    falls to (or below) the positive-definiteness floor, i.e. when
    1 - beta_n**2 or the updated variance itself drops below the floor.
    """

    def __init__(self, step: int, sigma2: float | None = None):
        self.step = int(step)
        self.sigma2 = sigma2
        detail = f" (sigma^2 = {sigma2:.3e})" if sigma2 is not None else ""
        super().__init__(
            f"innovation variance not positive definite at step {step}{detail}"
        )


class Unstable(ArmleError):
    """An AR parameter vector violates the stability condition."""


class SingularGram(ArmleError):
    """The accumulated Gram matrix is singular or too ill conditioned to invert."""

    def __init__(self, cond: float):
        self.cond = float(cond)
        super().__init__(
            f"Gram matrix condition number {cond:.3e} exceeds the invertibility cap"
        )


class DimensionMismatch(ArmleError, ValueError):
    """Inputs disagree on the model order p."""


class TooShort(ArmleError, ValueError):
    """A data series is too short for the requested operation."""
