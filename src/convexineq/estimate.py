"""Scalar estimates with uncertainty.

An :class:`Estimate` is the package's common return type for any scalar that
may carry Monte Carlo error.  Closed-form and deterministic-quadrature values
use ``stderr = 0.0``; sampled values carry the standard error of the mean,
and ``Estimate.of_samples`` is the one rule that computes it.

A quantity derived from estimates is computed on them: ``+ - * /`` (with a
float on either side, an exact constant), ``** k`` and ``sqrt()`` propagate
the stderr by the first-order delta method, taking the inputs as
independent, so ``a - a`` has stderr sqrt(2) * a.stderr, not 0.
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
            deterministic values.  A derived estimate keeps the seed its
            random inputs share, and has None when they come from more than
            one seed.
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

    # -- first-order error propagation for independent inputs -------------------

    # a numpy scalar on the left defers to the reflected methods below
    __array_ufunc__ = None

    @staticmethod
    def _lift(x: "Estimate | float") -> "Estimate":
        """An estimate as it is; a float as an exact constant."""
        return x if isinstance(x, Estimate) else Estimate(float(x), 0.0, 0)

    @staticmethod
    def _propagate(value: float, *terms: tuple[float, "Estimate"]) -> "Estimate":
        """``value`` of f(inputs), from (df/dx_i, x_i) pairs: the stderr is
        the root sum of (df/dx_i * se_i)^2, the counts add, and the seed is
        the one the random inputs share (None if they have several)."""
        seeds = {x.seed for _, x in terms if x.stderr or x.seed is not None}
        return Estimate(
            value=value,
            stderr=math.hypot(*(d * x.stderr for d, x in terms if x.stderr)),
            count=sum(x.count for _, x in terms),
            seed=seeds.pop() if len(seeds) == 1 else None,
        )

    def __add__(self, other):
        b = self._lift(other)
        return self._propagate(self.value + b.value, (1.0, self), (1.0, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._lift(other)
        return self._propagate(self.value - b.value, (1.0, self), (1.0, b))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        b = self._lift(other)
        return self._propagate(self.value * b.value, (b.value, self), (self.value, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._lift(other)
        q = self.value / b.value
        return self._propagate(q, (1.0 / b.value, self), (q / b.value, b))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k: float):
        # math.pow raises where a float power would turn complex
        k = float(k)
        return self._propagate(math.pow(self.value, k), (k * math.pow(self.value, k - 1.0), self))

    def sqrt(self) -> "Estimate":
        root = math.sqrt(self.value)
        return self._propagate(root, (0.5 / root if root else math.inf, self))
