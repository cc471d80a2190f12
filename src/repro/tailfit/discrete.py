"""Discrete power-law fitting.

Counts like friends-per-user or games-owned are integers; the continuous
MLE is biased for them at small ``xmin``.  This module provides the
discrete (zeta-normalized) power-law MLE that the ``powerlaw`` package
applies when told the data are discrete, used here to cross-check the
continuous approximation the classifier relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["DiscretePowerLawFit", "hurwitz_zeta"]


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta ``sum_{k>=0} (k+a)^-s`` for s > 1, a > 0."""
    if s <= 1.0:
        raise ValueError("hurwitz zeta requires s > 1")
    return float(special.zeta(s, a))


@dataclass
class DiscretePowerLawFit:
    """``P(X = k) = k^-alpha / zeta(alpha, xmin)`` on integers ``k >= xmin``."""

    xmin: int
    alpha: float
    n: int

    @classmethod
    def fit(cls, data: np.ndarray, xmin: int) -> "DiscretePowerLawFit":
        data = np.asarray(data)
        if xmin < 1:
            raise ValueError("xmin must be >= 1")
        tail = data[data >= xmin].astype(np.float64)
        if len(tail) < 2:
            raise ValueError("need at least two tail points")
        log_sum = float(np.sum(np.log(tail)))
        n = len(tail)

        def nll(alpha: float) -> float:
            if alpha <= 1.0001:
                return 1e18
            return alpha * log_sum + n * np.log(
                hurwitz_zeta(alpha, float(xmin))
            )

        from scipy import optimize  # only this cross-check loads it
        result = optimize.minimize_scalar(
            nll, bounds=(1.01, 6.0), method="bounded"
        )
        return cls(xmin=int(xmin), alpha=float(result.x), n=n)

    def pmf(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        z = hurwitz_zeta(self.alpha, float(self.xmin))
        out = np.where(k >= self.xmin, k ** (-self.alpha) / z, 0.0)
        return out

    def cdf(self, k: np.ndarray) -> np.ndarray:
        """P(X <= k), computed by partial sums (vectorized over sorted k)."""
        k = np.atleast_1d(np.asarray(k, dtype=np.int64))
        hi = int(k.max())
        support = np.arange(self.xmin, hi + 1, dtype=np.float64)
        masses = self.pmf(support)
        cumulative = np.cumsum(masses)
        out = np.zeros(len(k))
        valid = k >= self.xmin
        out[valid] = cumulative[k[valid] - self.xmin]
        return out

    def loglikelihood(self, data: np.ndarray) -> float:
        tail = np.asarray(data, dtype=np.float64)
        tail = tail[tail >= self.xmin]
        z = hurwitz_zeta(self.alpha, float(self.xmin))
        return float(-self.alpha * np.sum(np.log(tail)) - len(tail) * np.log(z))
