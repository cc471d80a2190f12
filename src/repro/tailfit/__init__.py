"""Heavy-tailed distribution fitting and classification.

A from-scratch reimplementation of the subset of the ``powerlaw`` package
(Alstott et al. 2014) that the paper's methodology needs:

- maximum-likelihood tail fits (power law, truncated power law, lognormal,
  exponential) above a lower cutoff ``xmin``,
- ``xmin`` selection by Kolmogorov-Smirnov minimization (Clauset et al.
  2009),
- normalized log-likelihood-ratio tests between candidate distributions
  (Vuong's test; nested variant for power law vs truncated power law), and
- the paper's 4-way classification: *heavy-tailed*, *long-tailed*,
  *lognormal*, *truncated power law* (Section 3.3 / Table 4).
"""

from repro.tailfit.bootstrap import GoodnessOfFit, power_law_gof
from repro.tailfit.classify import (
    ClassificationResult,
    classify,
    classify_fit,
)
from repro.tailfit.compare import CompareResult, loglikelihood_ratio
from repro.tailfit.discrete import DiscretePowerLawFit
from repro.tailfit.fits import (
    ExponentialFit,
    Fit,
    LognormalFit,
    PowerLawFit,
    TruncatedPowerLawFit,
)
from repro.tailfit.ks import ks_distance, select_xmin

__all__ = [
    "Fit",
    "PowerLawFit",
    "LognormalFit",
    "ExponentialFit",
    "TruncatedPowerLawFit",
    "ks_distance",
    "select_xmin",
    "loglikelihood_ratio",
    "CompareResult",
    "classify",
    "classify_fit",
    "ClassificationResult",
    "power_law_gof",
    "GoodnessOfFit",
    "DiscretePowerLawFit",
]
