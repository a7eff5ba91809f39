"""Scalar estimates with uncertainty.

An :class:`Estimate` is the package's common return type for any scalar that
may carry Monte Carlo error.  Closed-form and deterministic-quadrature values
use ``stderr = 0.0``; sampled values carry the standard error of the mean,
and ``Estimate.of_samples`` is the one rule that computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplingError
from .reporting import Record


@dataclass(frozen=True)
class Estimate(Record):
    """A scalar value with its standard error and provenance.

    Attributes:
        value: the point estimate.
        stderr: standard error of ``value``; 0.0 exactly when the value is
            deterministic (closed form or fixed quadrature).
        count: number of samples or evaluation nodes behind the value.
        seed: seed of the stream that produced the samples, or None for
            deterministic values.
    """

    value: float
    stderr: float
    count: int
    seed: int | None = None

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.count < 0:
            raise ValueError("count must be nonnegative")

    @classmethod
    def of_samples(cls, samples, seed: int | None = None) -> "Estimate":
        """The mean of i.i.d. samples with stderr std(ddof=1) / sqrt(k).

        Fewer than two samples have no measured spread, so they raise
        rather than report a random value with stderr 0.
        """
        x = np.asarray(samples, dtype=float)
        k = x.shape[0]
        if k < 2:
            raise SamplingError(f"a sample mean needs at least 2 samples for its stderr, got {k}")
        return cls(value=float(x.mean()), stderr=float(x.std(ddof=1) / math.sqrt(k)), count=k, seed=seed)


def combined_stderr(*errs: float) -> float:
    """Standard error of a sum or difference of independent estimates."""
    return float(sum(e * e for e in errs)) ** 0.5
