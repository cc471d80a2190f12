"""Figure 10/12, Section 8/9 analyses, Table 4 pipeline."""

import numpy as np
import pytest

from repro.core.achievements import achievement_report
from repro.core.distributions import Table4, classify_row, table4_row_names
from repro.core.evolution import snapshot_comparison
from repro.core.multiplayer import multiplayer_share
from repro.core.weekpanel import analyze_week_panel
from repro.tailfit import ClassificationResult
from repro.tailfit.compare import CompareResult


class TestMultiplayerShare:
    @pytest.fixture(scope="class")
    def result(self, dataset):
        return multiplayer_share(dataset)

    def test_shares_in_range(self, result):
        assert 0.4 < result.catalog_share < 0.6
        assert 0.4 < result.total_playtime_share < 0.8
        assert 0.45 < result.twoweek_playtime_share < 0.85

    def test_playtime_overrepresents_multiplayer(self, result):
        # Figure 10's core claim.
        assert result.total_playtime_share > result.catalog_share

    def test_all_multiplayer_user_shares(self, result):
        assert 0.0 < result.users_all_multiplayer_total <= 1.0
        assert 0.0 < result.users_all_multiplayer_twoweek <= 1.0
        # Two-week windows touch fewer games, so more users are
        # all-multiplayer within them.
        assert (
            result.users_all_multiplayer_twoweek
            >= result.users_all_multiplayer_total
        )


class TestSnapshotComparison:
    @pytest.fixture(scope="class")
    def result(self, dataset):
        return snapshot_comparison(dataset)

    def test_three_rows(self, result):
        assert {row.attribute for row in result.rows} == {
            "owned_games",
            "market_value",
            "total_playtime",
        }

    def test_growth_ratios(self, result):
        owned = result.row("owned_games")
        assert owned.p80_growth == pytest.approx(1.5, abs=0.35)
        assert owned.tail_outpaces_p80()

    def test_requires_snapshot2(self, dataset):
        import dataclasses

        stripped = dataclasses.replace(dataset, snapshot2=None)
        with pytest.raises(ValueError):
            snapshot_comparison(stripped)

    def test_render(self, result):
        assert "paper" in result.render()


class TestWeekPanelAnalysis:
    @pytest.fixture(scope="class")
    def stats(self, world):
        return analyze_week_panel(world.week_panel())

    def test_sorted_by_day1(self, stats):
        day1 = stats.sorted_hours[:, 0]
        assert np.all(np.diff(day1) >= 0)

    def test_day1_correlations_positive(self, stats):
        # Heavy day-1 players remain heavier later (Figure 12).
        assert all(c > 0.05 for c in stats.day1_correlations)

    def test_many_day1_idlers_play_later(self, stats):
        # The paper's headline: playtime is not a fixed "heavy hitter" set.
        assert stats.day1_idle_share > 0.2

    def test_ordering_persists(self, stats):
        assert stats.ordering_persists()

    def test_active_subset_of_sample(self, stats):
        assert stats.n_active <= stats.n_sampled


class TestAchievementReport:
    @pytest.fixture(scope="class")
    def report(self, dataset):
        return achievement_report(dataset)

    def test_count_statistics(self, report):
        assert report.count_median == pytest.approx(24, abs=5)
        assert report.count_mean == pytest.approx(33.1, rel=0.35)
        assert report.count_max <= 1629

    def test_correlation_band_structure(self, report):
        # Paper: moderate inside 1-90, none beyond 90.
        assert report.corr_1_90 == pytest.approx(0.53, abs=0.2)
        assert abs(report.corr_gt90) < 0.25
        assert report.corr_1_90 > report.corr_gt90

    def test_completion_skew(self, report):
        # Mean above median above mode (right-skewed).
        assert report.completion_mean_single > report.completion_median_single
        assert report.completion_median_single == pytest.approx(
            0.11, abs=0.04
        )

    def test_adventure_tops_strategy(self, report):
        assert (
            report.genre_completion["Adventure"]
            > report.genre_completion["Strategy"]
        )
        assert report.genre_completion["Adventure"] == pytest.approx(
            0.19, abs=0.04
        )

    def test_requires_achievements(self, dataset):
        import dataclasses

        stripped = dataclasses.replace(dataset, achievements=None)
        with pytest.raises(ValueError):
            achievement_report(stripped)

    def test_render(self, report):
        assert "achievements per game" in report.render()


class TestTable4Pipeline:
    @pytest.fixture(scope="class")
    def table(self, dataset):
        # Every row but the yearly friendship cuts.
        rows = {}
        for name in table4_row_names(dataset):
            if name.startswith("friendship (") and name != "friendship (all)":
                continue
            result = classify_row(dataset, name, max_tail=15_000)
            if result is not None:
                rows[name] = result
        return Table4(rows=rows)

    def test_core_rows_present(self, table):
        labels = table.labels()
        for name in (
            "account market values",
            "total playtime",
            "two-week playtime",
            "game ownership",
            "group size",
        ):
            assert name in labels

    def test_everything_is_heavy_tailed_family(self, table):
        """The paper's headline: every distribution is heavy-tailed, and
        none is a pure power law."""
        allowed = {
            "heavy-tailed",
            "long-tailed",
            "lognormal",
            "truncated power law",
        }
        labels = table.labels()
        # Two-week playtime is excluded here: at this scale only a few
        # thousand users have nonzero values and the PL-vs-exponential
        # gate becomes flaky (the benchmark checks it at full scale).
        core = [
            "account market values",
            "game ownership",
            "group size",
        ]
        for name in core:
            assert labels[name] in allowed, (name, labels[name])
        assert "power law" not in set(labels.values())

    def test_snapshot2_rows_present(self, table):
        assert "game ownership (second snapshot)" in table.labels()

    def test_classifications_stable_across_snapshots(self, table):
        """Section 8: ownership keeps its classification a year later."""
        labels = table.labels()
        family = {
            "long-tailed",
            "lognormal",
            "truncated power law",
            "heavy-tailed",
        }
        assert labels["game ownership"] in family
        assert labels["game ownership (second snapshot)"] in family

    def test_render_has_all_columns(self, table):
        text = table.render()
        assert "PLvExp R" in text
        assert "classification" in text

    def test_render_prints_zero_ratios_unsigned(self):
        """A nested TPL-vs-PL ratio of ±1e-10 (TPL collapsed onto the
        power law) takes its sign from summation order alone; any R that
        rounds to zero prints as 0.0, and nonzero ones keep their sign."""
        row = ClassificationResult(
            label="heavy-tailed",
            xmin=1.0,
            n_tail=100,
            pl_vs_exp=CompareResult(R=-0.04, p=0.5),
            pl_vs_ln=CompareResult(R=-0.06, p=0.5),
            tpl_vs_pl=CompareResult(R=-1e-10, p=1.0),
            tpl_vs_ln=CompareResult(R=1e-10, p=0.5),
        )
        line = Table4(rows={"row": row}).render().splitlines()[-1]
        cells = line.split()
        assert cells[1::2][:4] == ["0.0", "-0.1", "0.0", "0.0"]
        assert "-0.0" not in line
