"""End-to-end integration: every path to a report agrees.

Four routes produce the same numbers from one world: direct analysis,
analysis after a save/load round trip, analysis of the crawler's
reconstruction, and analysis after sharding + merge (for the shared
sub-population).
"""

import numpy as np
import pytest

from repro import SteamStudy
from repro.core.percentiles import percentile_table
from repro.store.io import load_dataset, save_dataset


class TestEndToEndAgreement:
    def test_direct_vs_saved_vs_crawled(self, small_world, tmp_path):
        direct = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        path = save_dataset(small_world.dataset, tmp_path / "w")
        reloaded = SteamStudy.from_dataset(load_dataset(path))
        crawled = direct.crawl()

        reports = {
            "direct": direct.run(include_table4=False, include_week_panel=False),
            "reloaded": reloaded.run(
                include_table4=False, include_week_panel=False
            ),
            "crawled": SteamStudy.from_dataset(crawled.dataset).run(
                include_table4=False, include_week_panel=False
            ),
        }
        base = reports["direct"]
        for name, report in reports.items():
            for row_a, row_b in zip(
                base.table3.rows, report.table3.rows
            ):
                assert row_a.values == pytest.approx(row_b.values), name
            assert report.fig10_multiplayer.total_playtime_share == (
                pytest.approx(base.fig10_multiplayer.total_playtime_share)
            ), name
            assert report.summary == pytest.approx(base.summary), name

    def test_report_renders_identically(self, small_world, tmp_path):
        direct = SteamStudy(world=small_world, _dataset=small_world.dataset)
        path = save_dataset(small_world.dataset, tmp_path / "w")
        reloaded = SteamStudy.from_dataset(load_dataset(path))
        a = direct.run(include_table4=False, include_week_panel=False)
        b = reloaded.run(include_table4=False, include_week_panel=False)
        assert a.render() == b.render()

    def test_same_seed_reports_identical_across_processes(self):
        """The whole pipeline is a pure function of (n_users, seed)."""
        import os
        import subprocess
        import sys

        # sha256 of the rendered report is hash-randomization-proof,
        # and inheriting os.environ keeps PYTHONPATH (and thus the
        # ``repro`` import) working both installed and from-source.
        script = (
            "import hashlib;"
            "from repro import SteamStudy;"
            "r = SteamStudy.generate(n_users=2000, seed=17)"
            ".run(include_table4=False, include_week_panel=False);"
            "print(hashlib.sha256(r.render().encode()).hexdigest())"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": "0"},
                check=True,
            ).stdout
            for _ in range(2)
        }
        assert len(outputs) == 1

    def test_percentiles_stable_under_user_permutation_invariance(
        self, small_dataset
    ):
        """Percentile statistics do not depend on user ordering."""
        table = percentile_table(small_dataset)
        # Recompute from raw arrays shuffled.
        rng = np.random.default_rng(0)
        friends = small_dataset.friend_counts().astype(float)
        shuffled = rng.permutation(friends)
        row = table.row("friends")
        positive = shuffled[shuffled > 0]
        assert row.values[0] == pytest.approx(np.percentile(positive, 50))
