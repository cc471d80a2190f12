"""Maximum-likelihood tail fits above a lower cutoff ``xmin``.

All fits are continuous-support approximations (the convention the
``powerlaw`` package applies to discrete data as well unless asked
otherwise); each fit exposes per-point log-likelihoods so that
:mod:`repro.tailfit.compare` can run Vuong tests between any pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "TailFit",
    "PowerLawFit",
    "ExponentialFit",
    "LognormalFit",
    "TruncatedPowerLawFit",
    "Fit",
]

_EPS = 1e-12


def _validate_tail(data: np.ndarray, xmin: float) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if xmin <= 0:
        raise ValueError("xmin must be positive")
    tail = data[data >= xmin]
    if len(tail) < 2:
        raise ValueError("need at least two tail points")
    return tail


def upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma ``Γ(a, x)`` for any real ``a`` and ``x > 0``.

    scipy's ``gammaincc`` requires ``a > 0``; for ``a <= 0`` we recurse via
    ``Γ(a, x) = (Γ(a+1, x) - x^a e^{-x}) / a``.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if a > 0:
        return float(special.gammaincc(a, x) * special.gamma(a))
    # Recurse upward until the argument is positive.
    k = int(math.floor(1.0 - a))
    a_top = a + k
    if a_top <= 0:  # guard against float edge cases
        k += 1
        a_top = a + k
    value = float(special.gammaincc(a_top, x) * special.gamma(a_top))
    for j in range(k - 1, -1, -1):
        a_j = a + j
        value = (value - x**a_j * math.exp(-x)) / a_j
    return value


@dataclass
class TailFit:
    """Base class: a parametric fit of the tail ``x >= xmin``."""

    xmin: float
    n: int = field(init=False, default=0)

    name = "tail"

    def loglikelihoods(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loglikelihood(self, x: np.ndarray) -> float:
        return float(np.sum(self.loglikelihoods(x)))


@dataclass
class PowerLawFit(TailFit):
    """Pure power law: ``p(x) ∝ x^-alpha`` on ``[xmin, inf)``."""

    alpha: float = field(init=False, default=np.nan)

    name = "power_law"

    @classmethod
    def fit(cls, data: np.ndarray, xmin: float) -> "PowerLawFit":
        tail = _validate_tail(data, xmin)
        logs = np.log(tail / xmin)
        mean_log = max(float(np.mean(logs)), _EPS)
        obj = cls(xmin=xmin)
        obj.alpha = 1.0 + 1.0 / mean_log
        obj.n = len(tail)
        return obj

    def loglikelihoods(self, x: np.ndarray) -> np.ndarray:
        a = self.alpha
        return (
            math.log(a - 1.0)
            - math.log(self.xmin)
            - a * np.log(x / self.xmin)
        )

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - (x / self.xmin) ** (1.0 - self.alpha)


@dataclass
class ExponentialFit(TailFit):
    """Shifted exponential: ``p(x) = lam * exp(-lam (x - xmin))``."""

    lam: float = field(init=False, default=np.nan)

    name = "exponential"

    @classmethod
    def fit(cls, data: np.ndarray, xmin: float) -> "ExponentialFit":
        tail = _validate_tail(data, xmin)
        obj = cls(xmin=xmin)
        obj.lam = 1.0 / max(float(np.mean(tail)) - xmin, _EPS)
        obj.n = len(tail)
        return obj

    def loglikelihoods(self, x: np.ndarray) -> np.ndarray:
        return math.log(self.lam) - self.lam * (x - self.xmin)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - np.exp(-self.lam * (x - self.xmin))


@dataclass
class LognormalFit(TailFit):
    """Lognormal, truncated below at ``xmin``."""

    mu: float = field(init=False, default=np.nan)
    sigma: float = field(init=False, default=np.nan)

    name = "lognormal"

    @classmethod
    def fit(cls, data: np.ndarray, xmin: float) -> "LognormalFit":
        tail = _validate_tail(data, xmin)
        logs = np.log(tail)
        log_xmin = math.log(xmin)

        def nll(params: np.ndarray) -> float:
            mu, log_sigma = params
            sigma = math.exp(log_sigma)
            z = (logs - mu) / sigma
            # Truncated density: lognormal pdf / SF(xmin).
            sf = special.ndtr(-(log_xmin - mu) / sigma)
            if sf < 1e-300:
                return 1e18
            ll = (
                -0.5 * z**2
                - logs
                - math.log(sigma)
                - 0.5 * math.log(2 * math.pi)
                - math.log(sf)
            )
            return -float(np.sum(ll))

        start = np.array([float(np.mean(logs)), math.log(max(np.std(logs), 0.05))])
        # Also try a below-cutoff mode start (common for tail-truncated fits).
        starts = [start, np.array([log_xmin - 1.0, math.log(1.0)])]
        from scipy import optimize  # lazy: ~24 MB of RSS, fits only
        best = None
        for s in starts:
            res = optimize.minimize(nll, s, method="Nelder-Mead")
            if best is None or res.fun < best.fun:
                best = res
        assert best is not None
        obj = cls(xmin=xmin)
        obj.mu = float(best.x[0])
        obj.sigma = float(math.exp(best.x[1]))
        obj.n = len(tail)
        return obj

    def loglikelihoods(self, x: np.ndarray) -> np.ndarray:
        logs = np.log(x)
        z = (logs - self.mu) / self.sigma
        sf = special.ndtr(-(math.log(self.xmin) - self.mu) / self.sigma)
        return (
            -0.5 * z**2
            - logs
            - math.log(self.sigma)
            - 0.5 * math.log(2 * math.pi)
            - math.log(max(sf, 1e-300))
        )

    def cdf(self, x: np.ndarray) -> np.ndarray:
        z = (np.log(x) - self.mu) / self.sigma
        z0 = (math.log(self.xmin) - self.mu) / self.sigma
        sf0 = special.ndtr(-z0)
        return (special.ndtr(z) - special.ndtr(z0)) / max(sf0, 1e-300)


@dataclass
class TruncatedPowerLawFit(TailFit):
    """Power law with exponential cutoff: ``p(x) ∝ x^-alpha e^-lam x``."""

    alpha: float = field(init=False, default=np.nan)
    lam: float = field(init=False, default=np.nan)

    name = "truncated_power_law"

    @classmethod
    def fit(cls, data: np.ndarray, xmin: float) -> "TruncatedPowerLawFit":
        tail = _validate_tail(data, xmin)
        logs = np.log(tail)
        mean_x = float(np.mean(tail))
        pl_alpha = 1.0 + 1.0 / max(float(np.mean(logs - math.log(xmin))), _EPS)

        def nll(params: np.ndarray) -> float:
            alpha = params[0]
            lam = math.exp(params[1])
            try:
                z = upper_gamma(1.0 - alpha, lam * xmin) * lam ** (alpha - 1.0)
            except (OverflowError, ValueError):
                return 1e18
            if not np.isfinite(z) or z <= 0:
                return 1e18
            ll = -alpha * logs - lam * tail - math.log(z)
            return -float(np.sum(ll))

        starts = [
            np.array([pl_alpha, math.log(max(0.1 / mean_x, 1e-8))]),
            np.array([max(pl_alpha - 0.5, 0.6), math.log(max(1.0 / mean_x, 1e-8))]),
            np.array([1.1, math.log(max(0.01 / mean_x, 1e-9))]),
        ]
        from scipy import optimize  # lazy: ~24 MB of RSS, fits only
        best = None
        for s in starts:
            res = optimize.minimize(
                nll,
                s,
                method="Nelder-Mead",
                options={"maxiter": 600, "fatol": 1e-8},
            )
            if best is None or res.fun < best.fun:
                best = res
        assert best is not None
        obj = cls(xmin=xmin)
        obj.alpha = float(best.x[0])
        obj.lam = float(math.exp(best.x[1]))
        obj.n = len(tail)
        return obj

    def _norm(self) -> float:
        return upper_gamma(1.0 - self.alpha, self.lam * self.xmin) * self.lam ** (
            self.alpha - 1.0
        )

    def loglikelihoods(self, x: np.ndarray) -> np.ndarray:
        z = self._norm()
        return -self.alpha * np.log(x) - self.lam * x - math.log(max(z, 1e-300))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        z = self._norm()
        x = np.atleast_1d(x)
        out = np.empty(len(x))
        for i, xi in enumerate(x):
            surv = upper_gamma(1.0 - self.alpha, self.lam * xi) * self.lam ** (
                self.alpha - 1.0
            )
            out[i] = 1.0 - surv / max(z, 1e-300)
        return np.clip(out, 0.0, 1.0)


_FAMILIES = {
    "power_law": PowerLawFit,
    "exponential": ExponentialFit,
    "lognormal": LognormalFit,
    "truncated_power_law": TruncatedPowerLawFit,
}


class Fit:
    """Facade mirroring the ``powerlaw.Fit`` workflow.

    Fits the tail of ``data`` above ``xmin`` (selected by KS minimization
    when not given) with every candidate family, and runs normalized
    log-likelihood-ratio comparisons between them.
    """

    def __init__(
        self,
        data: np.ndarray,
        xmin: float | None = None,
        max_tail: int | None = 200_000,
        rng: np.random.Generator | None = None,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        data = data[data > 0]
        if len(data) < 10:
            raise ValueError("need at least 10 positive observations")
        if max_tail is not None and len(data) > max_tail:
            rng = rng or np.random.default_rng(0)
            data = rng.choice(data, size=max_tail, replace=False)
        self.data = np.sort(data)
        if xmin is None:
            from repro.tailfit.ks import select_xmin

            # Keep a usable tail: KS minimization on a sliver of extreme
            # points is noise at sub-paper scales.
            min_tail = max(50, len(self.data) // 8)
            xmin, _ = select_xmin(self.data, min_tail=min_tail)
        self.xmin = float(xmin)
        self.tail = self.data[self.data >= self.xmin]
        self._fits: dict[str, TailFit] = {}

    def __getattr__(self, name: str) -> TailFit:
        if name in _FAMILIES:
            return self.fit_family(name)
        raise AttributeError(name)

    def fit_family(self, name: str) -> TailFit:
        """Fit (and cache) one candidate family."""
        if name not in self._fits:
            self._fits[name] = _FAMILIES[name].fit(self.data, self.xmin)
        return self._fits[name]

    def distribution_compare(self, name_a: str, name_b: str):
        """Normalized log-likelihood ratio test (R, p) between families."""
        from repro.tailfit.compare import loglikelihood_ratio

        fit_a = self.fit_family(name_a)
        fit_b = self.fit_family(name_b)
        nested = name_a == "power_law" and name_b == "truncated_power_law"
        nested |= name_a == "truncated_power_law" and name_b == "power_law"
        return loglikelihood_ratio(
            fit_a.loglikelihoods(self.tail),
            fit_b.loglikelihoods(self.tail),
            nested=nested,
        )
