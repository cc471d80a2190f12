"""Maximum-likelihood tail fits above a lower cutoff ``xmin``.

All fits are continuous-support approximations (the convention the
``powerlaw`` package applies to discrete data as well unless asked
otherwise); each fit exposes per-point log-likelihoods so that
:mod:`repro.tailfit.compare` can run Vuong tests between any pair.

The power-law and exponential MLEs are closed-form. The lognormal and
truncated-power-law MLEs are numeric, and both are scalar code: their
negative log-likelihoods come from sufficient statistics summed once
per fit (``n``, ``Σ log x`` and ``Σ (log x)²`` or ``Σ x``), so each
evaluation is O(1) rather than O(n), and :func:`_nelder_mead` walks
the simplex on Python floats step for step as
``scipy.optimize.minimize(method="Nelder-Mead")`` does, to the same
bits (the parity tests keep scipy as the reference). A study or store
build therefore never loads ``scipy.optimize``.
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
    ``Γ(a, x) = (Γ(a+1, x) - x^a e^{-x}) / a`` from ``a + k`` in (0, 1],
    or, for an integer ``a``, from ``Γ(0, x) = E1(x)``. Below
    ``-_MAX_RECURSION`` a continued fraction replaces the recursion.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if a > 0:
        return float(special.gammaincc(a, x) * special.gamma(a))
    if a < -_MAX_RECURSION:
        return _upper_gamma_cf(a, x)
    if a == math.floor(a):
        # The recursion would divide by a + j = 0 on its last step.
        k = int(-a)
        value = float(special.exp1(x))
    else:
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


#: Deepest recursion :func:`upper_gamma` takes; one step per unit of
#: ``-a``. A constant tail starts the truncated-power-law fit at
#: ``alpha ≈ 1e12``, where the recursion would never finish.
_MAX_RECURSION = 1_000


def _upper_gamma_cf(a: float, x: float) -> float:
    """``Γ(a, x) = x^a e^{-x} / (x + 1 - a - 1(1 - a) / (x + 3 - a - …))``
    by the modified Lentz method; for ``-a >> x`` it converges within a
    few terms. ``x^a`` overflows (raising) or underflows as the
    recursion's terms would."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return x**a * math.exp(-x) * h


def _lognormal_nll(logs: np.ndarray, xmin: float):
    """Negative log-likelihood of ``(mu, log sigma)`` for the lognormal
    truncated below at ``xmin``, in O(1) per call from ``n``, ``Σ log x``
    and ``Σ (log x)²``."""
    n = len(logs)
    s1 = float(np.sum(logs))
    s2 = float(np.sum(logs * logs))
    log_xmin = math.log(xmin)
    const = s1 + 0.5 * n * math.log(2 * math.pi)

    def nll(params) -> float:
        mu, log_sigma = params
        sigma = math.exp(log_sigma)
        # Truncated density: lognormal pdf / SF(xmin).
        sf = float(special.ndtr(-(log_xmin - mu) / sigma))
        if sf < 1e-300:
            return 1e18
        return (
            0.5 * (s2 - 2.0 * mu * s1 + n * mu * mu) / (sigma * sigma)
            + const
            + n * math.log(sigma)
            + n * math.log(sf)
        )

    return nll


def _truncated_power_law_nll(tail: np.ndarray, logs: np.ndarray, xmin: float):
    """Negative log-likelihood of ``(alpha, log lam)`` for the power law
    with exponential cutoff, in O(1) per call from ``n``, ``Σ log x`` and
    ``Σ x``."""
    n = len(tail)
    s1 = float(np.sum(logs))
    sx = float(np.sum(tail))

    def nll(params) -> float:
        alpha = float(params[0])
        lam = math.exp(params[1])
        try:
            z = upper_gamma(1.0 - alpha, lam * xmin) * lam ** (alpha - 1.0)
        except (ArithmeticError, ValueError):
            # Float overflow in the recursion, or lam * xmin underflowing
            # to 0: numpy scalars would yield inf/NaN here, which the
            # test below turns into the same guard.
            return 1e18
        if not math.isfinite(z) or z <= 0:
            return 1e18
        return alpha * s1 + lam * sx + n * math.log(z)

    return nll


class _Exhausted(Exception):
    """The evaluation budget of :func:`_nelder_mead` ran out."""


def _nelder_mead(f, x0, maxiter=None, xatol=1e-4, fatol=1e-4):
    """Minimize ``f`` from ``x0`` by Nelder–Mead; returns ``(x, fun)``.

    Step for step ``scipy.optimize.minimize(f, x0, method="Nelder-Mead",
    options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})``: the
    same initial simplex, coefficients, stable vertex sort (NaN last),
    stopping tests and budgets (``200·N`` iterations and evaluations by
    default; unlimited evaluations once ``maxiter`` is given), including
    the abort mid-iteration when evaluations run out. For two parameters
    ``x`` and ``fun`` match scipy bit for bit; the vertices are lists of
    Python floats, so an iteration costs a few µs instead of scipy's
    array overhead.
    """
    dim = len(x0)
    if maxiter is None:
        maxiter = maxfun = 200 * dim
    else:
        maxfun = math.inf
    calls = 0

    def call(x: list[float]) -> float:
        nonlocal calls
        if calls >= maxfun:
            raise _Exhausted
        calls += 1
        return f(x)

    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(dim):
        y = list(x0)
        y[k] = (1.0 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (dim + 1)
    try:
        for k in range(dim + 1):
            fsim[k] = call(sim[k])
    except _Exhausted:
        pass
    _sort_simplex(sim, fsim)

    iterations = 1
    while calls < maxfun and iterations < maxiter:
        try:
            best, fbest = sim[0], fsim[0]
            if all(
                abs(v - b) <= xatol
                for row in sim[1:]
                for v, b in zip(row, best)
            ) and all(abs(fbest - fv) <= fatol for fv in fsim[1:]):
                break
            xbar = sim[0]
            for row in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, row)]
            xbar = [a / dim for a in xbar]
            worst = sim[-1]
            xr = [2 * b - w for b, w in zip(xbar, worst)]
            fxr = call(xr)
            if fxr < fbest:
                xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # Outside contraction.
                    xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    # Inside contraction.
                    xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                    fxcc = call(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    # A vertex moves before its evaluation, as in scipy:
                    # a budget abort leaves it moved with its old value.
                    for j in range(1, dim + 1):
                        sim[j] = [
                            b + 0.5 * (v - b) for b, v in zip(best, sim[j])
                        ]
                        fsim[j] = call(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        _sort_simplex(sim, fsim)

    # np.min semantics: a NaN anywhere (sorted last) is the minimum.
    fun = fsim[-1] if math.isnan(fsim[-1]) else fsim[0]
    return sim[0], fun


def _sort_simplex(sim: list[list[float]], fsim: list[float]) -> None:
    """Sort the vertices by value in place: ``np.argsort``'s insertion
    sort on short arrays, so stable, with NaN last."""
    for i in range(1, len(fsim)):
        f, v = fsim[i], sim[i]
        j = i
        while j:
            prev = fsim[j - 1]
            if not (f < prev or (prev != prev and f == f)):
                break
            fsim[j], sim[j] = prev, sim[j - 1]
            j -= 1
        fsim[j], sim[j] = f, v


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
        nll = _lognormal_nll(logs, xmin)
        start = [float(np.mean(logs)), math.log(max(np.std(logs), 0.05))]
        # Also try a below-cutoff mode start (common for tail-truncated fits).
        starts = [start, [math.log(xmin) - 1.0, math.log(1.0)]]
        # Best of starts: min() keeps the first of equal values.
        (mu, log_sigma), _ = min(
            (_nelder_mead(nll, s) for s in starts), key=lambda res: res[1]
        )
        obj = cls(xmin=xmin)
        obj.mu = mu
        obj.sigma = math.exp(log_sigma)
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
        nll = _truncated_power_law_nll(tail, logs, xmin)
        mean_x = float(np.mean(tail))
        pl_alpha = 1.0 + 1.0 / max(float(np.mean(logs - math.log(xmin))), _EPS)
        starts = [
            [pl_alpha, math.log(max(0.1 / mean_x, 1e-8))],
            [max(pl_alpha - 0.5, 0.6), math.log(max(1.0 / mean_x, 1e-8))],
            [1.1, math.log(max(0.01 / mean_x, 1e-9))],
        ]
        (alpha, log_lam), _ = min(
            (_nelder_mead(nll, s, maxiter=600, fatol=1e-8) for s in starts),
            key=lambda res: res[1],
        )
        obj = cls(xmin=xmin)
        obj.alpha = alpha
        obj.lam = math.exp(log_lam)
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
