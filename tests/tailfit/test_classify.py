"""The paper's 4-way classification on synthetic ground truth."""

import numpy as np
import pytest

from repro import constants
from repro.tailfit import classify


class TestKnownDistributions:
    def test_exponential_is_not_heavy(self):
        sample = np.random.default_rng(1).exponential(5.0, 30_000) + 0.1
        result = classify(sample, rng=np.random.default_rng(0))
        assert result.label == "not heavy-tailed"

    def test_constant_sample_is_not_heavy(self):
        # 170 users with one friendship each formed in a given year: the
        # tail has no spread, and the fits must still finish.
        result = classify(np.ones(170), rng=np.random.default_rng(0))
        assert result.label == "not heavy-tailed"
        assert result.n_tail == 170

    def test_pure_power_law_stays_heavy(self):
        sample = 1.0 * (
            1 - np.random.default_rng(2).random(30_000)
        ) ** (-1 / 1.5)
        result = classify(sample, rng=np.random.default_rng(0))
        # Nothing beats the power law conclusively on both fronts.
        assert result.label == constants.CLASS_HEAVY

    def test_truncated_power_law_detected(self):
        gen = np.random.default_rng(11)
        raw = 1.0 * (1 - gen.random(2_000_000)) ** (-1 / 1.2)
        keep = gen.random(len(raw)) < np.exp(-raw / 400.0)
        sample = raw[keep][:40_000]
        result = classify(sample, rng=np.random.default_rng(0))
        assert result.label == constants.CLASS_TPL

    def test_lognormal_classified_in_family(self):
        sample = np.exp(np.random.default_rng(3).normal(2.0, 1.6, 40_000))
        result = classify(sample, rng=np.random.default_rng(0))
        # Lognormal data can be provably lognormal or stuck in the
        # LN-vs-TPL ambiguity band ("long-tailed") — never TPL/PL.
        assert result.label in (
            constants.CLASS_LOGNORMAL,
            constants.CLASS_LONG,
        )


class TestResultObject:
    def test_row_has_table4_columns(self):
        sample = np.exp(np.random.default_rng(4).normal(2.0, 1.2, 5_000))
        result = classify(sample, rng=np.random.default_rng(0))
        row = result.row()
        assert "PL vs exp R" in row
        assert "TPL vs LN p" in row
        assert row["classification"] == result.label

    def test_explicit_xmin_respected(self):
        sample = np.exp(np.random.default_rng(4).normal(2.0, 1.2, 5_000))
        result = classify(sample, xmin=20.0, rng=np.random.default_rng(0))
        assert result.xmin == 20.0

    def test_tail_count_positive(self):
        sample = np.exp(np.random.default_rng(4).normal(2.0, 1.2, 5_000))
        result = classify(sample, rng=np.random.default_rng(0))
        assert result.n_tail > 50
