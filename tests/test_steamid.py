"""SteamID ID-space layout."""

import numpy as np
import pytest

from repro import steamid


class TestIdSpace:
    def test_span_exceeds_accounts(self):
        space = steamid.IdSpace(n_accounts=10_000)
        assert space.span > 10_000

    def test_mean_density_matches_config(self):
        space = steamid.IdSpace(n_accounts=100_000)
        expected = 0.215 * 0.45 + 0.785 * 0.92
        assert space.n_accounts / space.span == pytest.approx(
            expected, rel=0.01
        )

    def test_offsets_sorted_and_distinct(self, rng):
        space = steamid.IdSpace(n_accounts=20_000)
        offsets = space.assign_offsets(rng)
        assert len(offsets) == 20_000
        assert np.all(np.diff(offsets) > 0)
        assert offsets.max() < space.span

    def test_density_profile_shape(self, rng):
        """Early range is sparse (<50%), late range dense (>90%)."""
        space = steamid.IdSpace(n_accounts=50_000)
        offsets = space.assign_offsets(rng)
        head = np.mean(offsets < space.early_span)
        n_early = (offsets < space.early_span).sum()
        early_density = n_early / space.early_span
        late_density = (len(offsets) - n_early) / (space.span - space.early_span)
        assert early_density < 0.55
        assert late_density > 0.85
        assert head < 0.25  # few accounts live in the sparse head

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            steamid.IdSpace(n_accounts=0)
        with pytest.raises(ValueError):
            steamid.IdSpace(n_accounts=10, breakpoint=1.5)
        with pytest.raises(ValueError):
            steamid.IdSpace(n_accounts=10, early_density=0.0)

    def test_sample_distinct_dense_case(self, rng):
        out = steamid.IdSpace._sample_distinct(rng, 100, 100)
        assert sorted(out.tolist()) == list(range(100))

    def test_sample_distinct_rejects_overfull(self, rng):
        with pytest.raises(ValueError):
            steamid.IdSpace._sample_distinct(rng, 10, 11)
