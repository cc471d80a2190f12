"""Log-likelihood-ratio tests between candidate tail distributions.

Implements Vuong's normalized likelihood-ratio test as used by Clauset et
al. and the ``powerlaw`` package: the sign of ``R`` picks the better
family, and ``p`` states whether the sign is statistically trustworthy.
For nested pairs (power law inside truncated power law) the chi-squared
form is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["CompareResult", "loglikelihood_ratio"]


@dataclass(frozen=True)
class CompareResult:
    """Outcome of one pairwise comparison."""

    #: Summed log-likelihood difference; positive favors the first family.
    R: float
    #: Two-sided significance of the sign of R.
    p: float

    def favors_first(self, alpha: float = 0.05) -> bool:
        return self.R > 0 and self.p < alpha

    def favors_second(self, alpha: float = 0.05) -> bool:
        return self.R < 0 and self.p < alpha

    def conclusive(self, alpha: float = 0.05) -> bool:
        return self.p < alpha

    def __iter__(self):
        yield self.R
        yield self.p


def loglikelihood_ratio(
    ll_a: np.ndarray, ll_b: np.ndarray, nested: bool = False
) -> CompareResult:
    """Vuong test between two per-point log-likelihood vectors.

    ``nested=True`` applies the chi-squared variant appropriate when the
    first family is nested inside the second (e.g. power law inside
    truncated power law): ``p = 1 - chi2.cdf(2 |R|, df=1)``.
    """
    ll_a = np.asarray(ll_a, dtype=np.float64)
    ll_b = np.asarray(ll_b, dtype=np.float64)
    if ll_a.shape != ll_b.shape:
        raise ValueError("log-likelihood vectors must align")
    diff = ll_a - ll_b
    n = len(diff)
    if n == 0:
        raise ValueError("empty comparison")
    R = float(np.sum(diff))
    if nested:
        # chi2(df=1).cdf is special.chdtr(1, x); calling it directly
        # keeps ``scipy.stats`` and its memory out of the import graph.
        p = float(1.0 - special.chdtr(1, 2.0 * abs(R)))
        return CompareResult(R=R, p=p)
    sigma = float(np.std(diff))
    if sigma < 1e-12:
        # Deterministic difference: the sign cannot flip under
        # resampling — conclusive unless the difference is itself zero.
        return CompareResult(R=R, p=0.0 if abs(R) > 1e-9 else 1.0)
    p = float(special.erfc(abs(R) / (math.sqrt(2.0 * n) * sigma)))
    return CompareResult(R=R, p=p)
