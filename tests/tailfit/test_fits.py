"""Maximum-likelihood tail fits recover known parameters."""

import numpy as np
import pytest

from repro.tailfit.fits import (
    ExponentialFit,
    Fit,
    LognormalFit,
    PowerLawFit,
    TruncatedPowerLawFit,
    upper_gamma,
)


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(77)


class TestUpperGamma:
    def test_positive_a_matches_scipy(self):
        from scipy import special

        assert upper_gamma(2.5, 1.3) == pytest.approx(
            float(special.gammaincc(2.5, 1.3) * special.gamma(2.5)),
            rel=1e-10,
        )

    def test_a_one_is_exponential(self):
        assert upper_gamma(1.0, 2.0) == pytest.approx(np.exp(-2.0), rel=1e-9)

    def test_negative_a_via_recursion(self):
        # Verify against numerical integration.
        from scipy.integrate import quad

        for a, x in [(-0.5, 1.0), (-1.3, 0.5), (-2.7, 2.0)]:
            expected, _ = quad(
                lambda t: t ** (a - 1) * np.exp(-t), x, np.inf
            )
            assert upper_gamma(a, x) == pytest.approx(expected, rel=1e-6)

    def test_nonpositive_integer_a_matches_expn(self):
        # Γ(-m, x) = x^-m E_{m+1}(x). Γ(0, x) = E1(x) starts the
        # recursion; m = 2000 is past it, on the continued fraction.
        from scipy import special

        cases = [(m, x) for m in range(4) for x in (0.05, 0.7, 3.0)]
        cases += [(2000, x) for x in (0.9, 1.0, 1.2)]
        for m, x in cases:
            expected = x ** (-m) * float(special.expn(m + 1, x))
            assert upper_gamma(float(-m), x) == pytest.approx(
                expected, rel=1e-10
            )

    def test_far_negative_a_is_immediate(self):
        # A constant tail starts the truncated-power-law fit at
        # alpha = 1e12 + 0.5 with lam * xmin = 1: Γ(-1e12 + 0.5, 1) is
        # about e^-1 / 1e12, not 1e12 recursion steps away.
        assert upper_gamma(-999_999_999_999.5, 1.0) == pytest.approx(
            np.exp(-1.0) / 1e12, rel=1e-9
        )

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            upper_gamma(0.5, 0.0)


class TestPowerLawFit:
    def test_recovers_alpha(self, module_rng):
        alpha = 2.5
        sample = 1.0 * (1 - module_rng.random(100_000)) ** (-1 / (alpha - 1))
        fit = PowerLawFit.fit(sample, xmin=1.0)
        assert fit.alpha == pytest.approx(alpha, rel=0.02)

    def test_cdf_bounds(self, module_rng):
        sample = 1.0 * (1 - module_rng.random(1_000)) ** (-1 / 1.5)
        fit = PowerLawFit.fit(sample, xmin=1.0)
        cdf = fit.cdf(np.sort(sample))
        assert cdf.min() >= 0 and cdf.max() <= 1
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_loglikelihood_is_sum(self, module_rng):
        sample = 1.0 * (1 - module_rng.random(100)) ** (-1 / 1.5)
        fit = PowerLawFit.fit(sample, xmin=1.0)
        assert fit.loglikelihood(sample) == pytest.approx(
            float(fit.loglikelihoods(sample).sum())
        )

    def test_rejects_tiny_tail(self):
        with pytest.raises(ValueError):
            PowerLawFit.fit(np.array([0.5, 0.6]), xmin=1.0)


class TestExponentialFit:
    def test_recovers_lambda(self, module_rng):
        sample = 2.0 + module_rng.exponential(1 / 0.7, 50_000)
        fit = ExponentialFit.fit(sample, xmin=2.0)
        assert fit.lam == pytest.approx(0.7, rel=0.03)


class TestLognormalFit:
    def test_recovers_parameters_untruncated(self, module_rng):
        sample = np.exp(module_rng.normal(1.5, 0.8, 50_000))
        fit = LognormalFit.fit(sample, xmin=sample.min())
        assert fit.mu == pytest.approx(1.5, abs=0.1)
        assert fit.sigma == pytest.approx(0.8, abs=0.1)

    def test_recovers_parameters_truncated(self, module_rng):
        sample = np.exp(module_rng.normal(1.0, 1.2, 200_000))
        xmin = float(np.exp(1.5))  # cut well above the median
        fit = LognormalFit.fit(sample, xmin=xmin)
        assert fit.mu == pytest.approx(1.0, abs=0.25)
        assert fit.sigma == pytest.approx(1.2, abs=0.15)

    def test_cdf_monotone(self, module_rng):
        sample = np.exp(module_rng.normal(0, 1, 2_000))
        fit = LognormalFit.fit(sample, xmin=0.5)
        tail = np.sort(sample[sample >= 0.5])
        cdf = fit.cdf(tail)
        assert np.all(np.diff(cdf) >= -1e-12)


class TestTruncatedPowerLawFit:
    def test_recovers_parameters(self, module_rng):
        # Rejection-sample x^-1.6 e^{-x/80} above xmin=1.
        raw = 1.0 * (1 - module_rng.random(3_000_000)) ** (-1 / 0.6)
        keep = module_rng.random(len(raw)) < np.exp(-raw / 80.0)
        sample = raw[keep]
        fit = TruncatedPowerLawFit.fit(sample, xmin=1.0)
        assert fit.alpha == pytest.approx(1.6, abs=0.15)
        assert fit.lam == pytest.approx(1 / 80.0, rel=0.4)

    def test_integer_alpha_loglikelihoods_are_finite(self):
        # alpha = 2 normalizes with Γ(-1, lam * xmin).
        fit = TruncatedPowerLawFit(xmin=1.0)
        fit.alpha, fit.lam = 2.0, 0.1
        x = np.array([1.0, 2.5, 40.0])
        assert np.all(np.isfinite(fit.loglikelihoods(x)))
        assert np.all(np.isfinite(fit.cdf(x)))

    def test_cdf_reaches_one(self, module_rng):
        raw = 1.0 * (1 - module_rng.random(100_000)) ** (-1 / 0.8)
        keep = module_rng.random(len(raw)) < np.exp(-raw / 30.0)
        sample = raw[keep]
        fit = TruncatedPowerLawFit.fit(sample, xmin=1.0)
        assert float(fit.cdf(np.array([1e9]))[0]) == pytest.approx(
            1.0, abs=1e-3
        )


class TestFitFacade:
    def test_attribute_access(self, module_rng):
        sample = np.exp(module_rng.normal(1, 1, 5_000))
        fit = Fit(sample, xmin=1.0)
        assert fit.power_law.alpha > 1.0
        assert fit.lognormal.sigma > 0

    def test_caches_family_fits(self, module_rng):
        sample = np.exp(module_rng.normal(1, 1, 5_000))
        fit = Fit(sample, xmin=1.0)
        assert fit.fit_family("power_law") is fit.fit_family("power_law")

    def test_subsampling_cap(self, module_rng):
        sample = np.exp(module_rng.normal(1, 1, 50_000))
        fit = Fit(sample, xmin=1.0, max_tail=10_000, rng=module_rng)
        assert len(fit.data) == 10_000

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            Fit(np.arange(5).astype(float))

    def test_drops_nonpositive(self, module_rng):
        sample = np.concatenate(
            [np.zeros(100), np.exp(module_rng.normal(1, 1, 1_000))]
        )
        fit = Fit(sample, xmin=0.5)
        assert fit.data.min() > 0

    def test_unknown_attribute_raises(self, module_rng):
        fit = Fit(np.exp(module_rng.normal(1, 1, 100)), xmin=1.0)
        with pytest.raises(AttributeError):
            _ = fit.weibull
