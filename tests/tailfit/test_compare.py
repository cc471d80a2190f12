"""Vuong log-likelihood-ratio tests."""

import numpy as np
import pytest

from repro.tailfit.compare import CompareResult, loglikelihood_ratio


class TestLoglikelihoodRatio:
    def test_sign_favors_better_model(self, rng):
        n = 10_000
        ll_good = rng.normal(0.0, 1.0, n)
        ll_bad = ll_good - 0.1  # uniformly worse
        result = loglikelihood_ratio(ll_good, ll_bad)
        assert result.R > 0
        assert result.p < 0.01
        assert result.favors_first()
        assert not result.favors_second()

    def test_symmetric(self, rng):
        a = rng.normal(0, 1, 1000)
        b = rng.normal(0, 1, 1000)
        fwd = loglikelihood_ratio(a, b)
        rev = loglikelihood_ratio(b, a)
        assert fwd.R == pytest.approx(-rev.R)
        assert fwd.p == pytest.approx(rev.p)

    def test_identical_models_inconclusive(self, rng):
        ll = rng.normal(0, 1, 1000)
        result = loglikelihood_ratio(ll, ll.copy())
        assert result.p == 1.0
        assert not result.conclusive()

    def test_noise_is_inconclusive(self, rng):
        # Zero-mean iid differences: p should usually be large.
        a = rng.normal(0, 1, 2_000)
        diff = rng.normal(0, 1, 2_000) * 0.5
        result = loglikelihood_ratio(a, a - diff + diff.mean())
        assert result.p > 0.01

    def test_nested_uses_chi2(self, rng):
        ll_a = rng.normal(0, 1, 500)
        # Nested: a small noisy summed advantage that Vuong cannot call
        # is still significant-ish under the chi-squared form.
        ll_b = ll_a - 0.002 - rng.normal(0, 0.3, 500)
        nested = loglikelihood_ratio(ll_a, ll_b, nested=True)
        vuong = loglikelihood_ratio(ll_a, ll_b, nested=False)
        assert nested.p < vuong.p

    def test_nested_p_is_one_minus_chi2_cdf_bit_for_bit(self):
        from scipy import stats

        rng = np.random.default_rng(20)
        grid = np.concatenate(
            [
                [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 30.0, 1e300],
                rng.exponential(1.0, 400),
                rng.exponential(40.0, 400),
                10.0 ** rng.uniform(-300, 3, 400),
            ]
        )
        for R in np.concatenate([grid, -grid]):
            # One point with ll_a - ll_b = R: the summed ratio is R.
            result = loglikelihood_ratio([R], [0.0], nested=True)
            expected = float(1.0 - stats.chi2.cdf(2.0 * abs(R), df=1))
            assert np.float64(result.p).tobytes() == (
                np.float64(expected).tobytes()
            ), R

    def test_iterable_unpacking(self, rng):
        a = rng.normal(0, 1, 100)
        R, p = loglikelihood_ratio(a, a - 1.0)
        assert R == pytest.approx(100.0)
        assert 0 <= p <= 1

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            loglikelihood_ratio(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            loglikelihood_ratio(np.empty(0), np.empty(0))


class TestCompareResult:
    def test_favors_requires_significance(self):
        weak = CompareResult(R=5.0, p=0.5)
        assert not weak.favors_first()
        strong = CompareResult(R=5.0, p=0.001)
        assert strong.favors_first()
