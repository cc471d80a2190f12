"""The paper's 4-way heavy-tail classification (Section 3.3, Table 4).

Procedure, following the paper's description and the Table 4 columns:

1. *Power law vs exponential*: a significant positive ``R`` certifies a
   heavy tail; otherwise the distribution is not heavy-tailed at all.
2. *Power law vs lognormal* and *truncated power law vs power law*: when
   neither beats the pure power law conclusively, classification stops at
   **heavy-tailed** (e.g. Table 4's group-size row).
3. *Truncated power law vs lognormal*: conclusive → **lognormal** or
   **truncated power law**; inconclusive → **long-tailed** (either of the
   two, indistinguishable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.tailfit.compare import CompareResult
from repro.tailfit.fits import Fit

__all__ = [
    "ClassificationResult",
    "classify",
    "classify_fit",
]

_ALPHA = 0.05


@dataclass(frozen=True)
class ClassificationResult:
    """Label plus the four comparisons behind it (one Table 4 row), and
    the fitted parameters of every candidate family."""

    label: str
    xmin: float
    n_tail: int
    pl_vs_exp: CompareResult
    pl_vs_ln: CompareResult
    tpl_vs_pl: CompareResult
    tpl_vs_ln: CompareResult
    #: Family name -> fitted parameters, as plain floats.
    families: dict[str, dict[str, float]] = field(default_factory=dict)

    def row(self) -> dict[str, float | str]:
        """Flat dict matching Table 4's columns."""
        return {
            "PL vs exp R": self.pl_vs_exp.R,
            "PL vs exp p": self.pl_vs_exp.p,
            "PL vs LN R": self.pl_vs_ln.R,
            "PL vs LN p": self.pl_vs_ln.p,
            "TPL vs PL R": self.tpl_vs_pl.R,
            "TPL vs PL p": self.tpl_vs_pl.p,
            "TPL vs LN R": self.tpl_vs_ln.R,
            "TPL vs LN p": self.tpl_vs_ln.p,
            "classification": self.label,
        }


def classify(
    data: np.ndarray,
    xmin: float | None = None,
    max_tail: int | None = 200_000,
    alpha: float = _ALPHA,
    rng: np.random.Generator | None = None,
) -> ClassificationResult:
    """Classify the tail of ``data`` into the paper's four categories."""
    fit = Fit(data, xmin=xmin, max_tail=max_tail, rng=rng)
    return classify_fit(fit, alpha=alpha)


def classify_fit(fit: Fit, alpha: float = _ALPHA) -> ClassificationResult:
    """Run the 4-way decision procedure on an already-constructed fit."""
    pl_exp = fit.distribution_compare("power_law", "exponential")
    pl_ln = fit.distribution_compare("power_law", "lognormal")
    tpl_pl = fit.distribution_compare("truncated_power_law", "power_law")
    tpl_ln = fit.distribution_compare("truncated_power_law", "lognormal")

    if not (pl_exp.R > 0 and pl_exp.p < alpha):
        label = "not heavy-tailed"
    else:
        ln_beats_pl = pl_ln.R < 0 and pl_ln.p < alpha
        tpl_beats_pl = tpl_pl.R > 0 and tpl_pl.p < alpha
        if not (ln_beats_pl and tpl_beats_pl):
            # Heavy tail certified but no refinement beats the power law
            # conclusively on both fronts.
            label = constants.CLASS_HEAVY
        elif tpl_ln.p < alpha:
            label = (
                constants.CLASS_TPL if tpl_ln.R > 0 else constants.CLASS_LOGNORMAL
            )
        else:
            label = constants.CLASS_LONG
    # The comparisons above fitted (and cached) every family.
    pl = fit.fit_family("power_law")
    exp = fit.fit_family("exponential")
    ln = fit.fit_family("lognormal")
    tpl = fit.fit_family("truncated_power_law")
    return ClassificationResult(
        label=label,
        xmin=fit.xmin,
        n_tail=len(fit.tail),
        pl_vs_exp=pl_exp,
        pl_vs_ln=pl_ln,
        tpl_vs_pl=tpl_pl,
        tpl_vs_ln=tpl_ln,
        families={
            "power_law": {"alpha": float(pl.alpha)},
            "exponential": {"lam": float(exp.lam)},
            "lognormal": {"mu": float(ln.mu), "sigma": float(ln.sigma)},
            "truncated_power_law": {
                "alpha": float(tpl.alpha),
                "lam": float(tpl.lam),
            },
        },
    )
