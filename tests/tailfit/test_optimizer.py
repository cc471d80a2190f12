"""The scalar tail-fit machinery against its references.

``_nelder_mead`` must walk the simplex exactly as
``scipy.optimize.minimize(method="Nelder-Mead")`` does: every evaluated
point, the returned ``x`` and ``fun`` are compared bit for bit. The O(1)
sufficient-statistic likelihoods must agree with the per-point
``loglikelihoods`` the Vuong tests use.
"""

import math
import struct

import numpy as np
import pytest
from scipy import optimize

from repro.tailfit.fits import (
    LognormalFit,
    TruncatedPowerLawFit,
    _lognormal_nll,
    _nelder_mead,
    _truncated_power_law_nll,
)

#: The truncated-power-law fit's options; the lognormal fit uses defaults.
TPL_OPTIONS = {"maxiter": 600, "fatol": 1e-8}
OPTION_SETS = [
    pytest.param({}, id="default"),
    pytest.param(TPL_OPTIONS, id="maxiter600-fatol1e-8"),
]


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", float(v)) for v in values]


def _assert_parity(f, x0, options: dict) -> list[tuple[float, ...]]:
    """Run both optimizers on ``f``; return the evaluated points."""
    ours_calls: list[tuple[float, ...]] = []
    scipy_calls: list[tuple[float, ...]] = []

    def ours(x):
        ours_calls.append(tuple(x))
        return f(x)

    def reference(x):
        scipy_calls.append(tuple(float(v) for v in x))
        return f(x)

    x, fun = _nelder_mead(ours, x0, **options)
    res = optimize.minimize(
        reference, np.array(x0, dtype=float), method="Nelder-Mead",
        options=options,
    )
    assert [_bits(c) for c in ours_calls] == [_bits(c) for c in scipy_calls]
    assert _bits(x) == _bits(res.x)
    assert _bits([fun]) == _bits([res.fun])
    return ours_calls


def _tail(seed: int) -> tuple[np.ndarray, float]:
    """A seeded tail above ``xmin``: lognormal-, power-law- or
    exponential-shaped by seed."""
    rng = np.random.default_rng(seed)
    xmin = float(rng.uniform(0.5, 20.0))
    n = int(rng.integers(50, 3_000))
    shape = seed % 3
    if shape == 0:
        tail = xmin * np.exp(np.abs(rng.normal(0.0, rng.uniform(0.3, 2.5), n)))
    elif shape == 1:
        tail = xmin * (1 - rng.random(n)) ** (-1 / rng.uniform(0.3, 2.0))
    else:
        tail = xmin + rng.exponential(rng.uniform(0.5, 50.0), n)
    return tail, xmin


def _fit_starts(tail: np.ndarray, xmin: float):
    """The starts ``LognormalFit.fit`` and ``TruncatedPowerLawFit.fit`` use."""
    logs = np.log(tail)
    mean_x = float(np.mean(tail))
    pl_alpha = 1.0 + 1.0 / max(float(np.mean(logs - math.log(xmin))), 1e-12)
    ln_starts = [
        [float(np.mean(logs)), math.log(max(np.std(logs), 0.05))],
        [math.log(xmin) - 1.0, math.log(1.0)],
    ]
    tpl_starts = [
        [pl_alpha, math.log(max(0.1 / mean_x, 1e-8))],
        [max(pl_alpha - 0.5, 0.6), math.log(max(1.0 / mean_x, 1e-8))],
        [1.1, math.log(max(0.01 / mean_x, 1e-9))],
    ]
    return ln_starts, tpl_starts


def _noisy_bowl(seed: int):
    """A bowl plus per-point noise well above ``fatol``: the simplex
    shrinks onto the noise and never meets the stopping test."""

    def f(x):
        a, b = float(x[0]), float(x[1])
        return (a - 1) ** 2 + (b - 2) ** 2 + hash((a, b, seed)) % 1000 / 1e5

    return f


class TestNelderMeadParity:
    @pytest.mark.parametrize("options", OPTION_SETS)
    @pytest.mark.parametrize("seed", range(6))
    def test_tail_fit_objectives(self, seed, options):
        tail, xmin = _tail(seed)
        logs = np.log(tail)
        ln_starts, tpl_starts = _fit_starts(tail, xmin)
        for x0 in ln_starts:
            _assert_parity(_lognormal_nll(logs, xmin), x0, options)
        for x0 in tpl_starts:
            _assert_parity(
                _truncated_power_law_nll(tail, logs, xmin), x0, options
            )

    @pytest.mark.parametrize(
        "seed",
        [
            # The 401st evaluation would be the shrink's second vertex:
            # that vertex has moved, its value is stale.
            pytest.param(1, id="abort-mid-shrink"),
            # The abort comes on the shrink's first vertex.
            pytest.param(4, id="abort-first-shrink-vertex"),
            pytest.param(2, id="abort-outside-shrink"),
        ],
    )
    def test_exhausts_default_budget(self, seed):
        calls = _assert_parity(_noisy_bowl(seed), [-1.2 + 0.1 * seed, 1.0], {})
        assert len(calls) == 400

    def test_guard_value_ties(self):
        """Far below the cutoff every lognormal evaluation is the 1e18
        guard; the stable sort decides every step."""
        tail, xmin = _tail(0)
        nll = _lognormal_nll(np.log(tail), xmin)
        x0 = [math.log(xmin) - 40.0, 0.0]
        calls = _assert_parity(nll, x0, {})
        assert all(nll(c) == 1e18 for c in calls)

    @pytest.mark.parametrize("options", OPTION_SETS)
    def test_guard_value_escape(self, options):
        """A truncated-power-law start whose normalization leaves the
        float range (``lam ** (alpha - 1)`` underflows to 0) returns the
        guard, and the simplex walks out of it."""
        tail, xmin = _tail(1)
        logs = np.log(tail)
        nll = _truncated_power_law_nll(tail, logs, xmin)
        x0 = [100.5, -7.5]
        assert nll(x0) == 1e18
        calls = _assert_parity(nll, x0, options)
        assert any(nll(c) < 1e18 for c in calls)

    def test_nan_values_sort_last(self):
        """NaN everywhere but the first perturbed vertex of the initial
        simplex: the NaN start sorts after it, and while a NaN vertex is
        left ``fun`` is NaN, as scipy's ``np.min`` over the simplex
        makes it."""
        x0 = [-1.0, 0.5]
        finite = [1.05 * x0[0], x0[1]]

        def f(x):
            return 1.0 if [float(v) for v in x] == finite else math.nan

        calls = _assert_parity(f, x0, {})
        assert list(calls[1]) == finite
        _assert_parity(f, x0, {"maxiter": 5})
        assert math.isnan(_nelder_mead(f, x0, maxiter=5)[1])

    @pytest.mark.parametrize("options", OPTION_SETS)
    def test_zero_coordinate_start(self, options):
        tail, xmin = _tail(2)
        nll = _lognormal_nll(np.log(tail), xmin)
        calls = _assert_parity(nll, [0.0, 0.0], options)
        assert calls[1] == (0.00025, 0.0) and calls[2] == (0.0, 0.00025)


class TestSufficientStatistics:
    @pytest.mark.parametrize("seed", range(3))
    def test_lognormal_nll_matches_per_point(self, seed):
        tail, xmin = _tail(seed)
        nll = _lognormal_nll(np.log(tail), xmin)
        fit = LognormalFit(xmin=xmin)
        log_xmin = math.log(xmin)
        for mu, sigma in [
            (log_xmin, 1.0),
            (log_xmin - 1.0, 1.0),
            (log_xmin + 0.5, 0.3),
            (0.0, 2.5),
            (log_xmin - 3.0, 0.8),
        ]:
            fit.mu, fit.sigma = mu, sigma
            assert nll([mu, math.log(sigma)]) == pytest.approx(
                -fit.loglikelihood(tail), rel=1e-9
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_truncated_power_law_nll_matches_per_point(self, seed):
        tail, xmin = _tail(seed)
        nll = _truncated_power_law_nll(tail, np.log(tail), xmin)
        fit = TruncatedPowerLawFit(xmin=xmin)
        for alpha, lam in [
            (1.5, 0.01),
            (2.5, 1e-4),
            (0.7, 0.1),
            (1.0 + 1e-3, 0.05),
            (3.2, 1.0),
        ]:
            fit.alpha, fit.lam = alpha, lam
            assert nll([alpha, math.log(lam)]) == pytest.approx(
                -fit.loglikelihood(tail), rel=1e-9
            )

    def test_lognormal_guard_below_the_cutoff(self):
        tail, xmin = _tail(0)
        nll = _lognormal_nll(np.log(tail), xmin)
        assert nll([math.log(xmin) - 40.0, 0.0]) == 1e18
