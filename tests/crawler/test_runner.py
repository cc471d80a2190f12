"""Full-crawl equivalence: the crawler must reconstruct the world."""

import os
import subprocess
import sys

import numpy as np
import pytest


class TestReconstruction:
    def test_account_space(self, small_dataset, crawled_dataset):
        assert crawled_dataset.n_users == small_dataset.n_users
        assert np.array_equal(
            crawled_dataset.accounts.id_offset,
            small_dataset.accounts.id_offset,
        )

    def test_friendships_exact(self, small_dataset, crawled_dataset):
        assert crawled_dataset.friends.n_edges == small_dataset.friends.n_edges
        assert np.array_equal(
            crawled_dataset.friends.u, small_dataset.friends.u
        )
        assert np.array_equal(
            crawled_dataset.friends.v, small_dataset.friends.v
        )

    def test_friend_days_masked_pre_epoch(
        self, small_dataset, crawled_dataset
    ):
        epoch = small_dataset.meta.friend_ts_epoch_day
        truth = small_dataset.friends.day
        crawled = crawled_dataset.friends.day
        recorded = truth >= epoch
        assert np.array_equal(crawled[recorded], truth[recorded])
        assert np.all(crawled[~recorded] == -1)

    def test_libraries_exact(self, small_dataset, crawled_dataset):
        assert np.array_equal(
            crawled_dataset.owned_counts(), small_dataset.owned_counts()
        )
        assert (
            crawled_dataset.library.user_total_min().sum()
            == small_dataset.library.user_total_min().sum()
        )
        assert np.array_equal(
            crawled_dataset.library.user_twoweek_min(),
            small_dataset.library.user_twoweek_min(),
        )

    def test_market_values_exact(self, small_dataset, crawled_dataset):
        assert np.allclose(
            crawled_dataset.market_value_dollars(),
            small_dataset.market_value_dollars(),
        )

    def test_memberships_exact(self, small_dataset, crawled_dataset):
        assert np.array_equal(
            crawled_dataset.membership_counts(),
            small_dataset.membership_counts(),
        )

    def test_top_group_types_labelled(self, small_dataset, crawled_dataset):
        sizes_truth = small_dataset.groups.sizes()
        top = np.argsort(-sizes_truth)[:50]
        # Group indices survive the crawl (gid encodes the index).
        for g in top:
            if crawled_dataset.groups.n_groups > g:
                assert (
                    crawled_dataset.groups.group_type[g]
                    == small_dataset.groups.group_type[g]
                )

    def test_achievement_counts_match(self, small_dataset, crawled_dataset):
        # Catalog order may differ; compare per appid.
        truth_by_appid = dict(
            zip(
                small_dataset.catalog.appid.tolist(),
                small_dataset.achievements.count.tolist(),
            )
        )
        crawled_by_appid = dict(
            zip(
                crawled_dataset.catalog.appid.tolist(),
                crawled_dataset.achievements.count.tolist(),
            )
        )
        assert truth_by_appid == crawled_by_appid

    def test_snapshot2_carried(self, small_dataset, crawled_dataset):
        assert crawled_dataset.snapshot2 is not None
        assert np.array_equal(
            crawled_dataset.snapshot2.owned, small_dataset.snapshot2.owned
        )


class TestAnalysesOnCrawledData:
    def test_percentiles_identical(self, small_dataset, crawled_dataset):
        from repro.core.percentiles import percentile_table

        truth = percentile_table(small_dataset)
        crawled = percentile_table(crawled_dataset)
        for row_t, row_c in zip(truth.rows, crawled.rows):
            assert row_t.values == pytest.approx(row_c.values)

    def test_homophily_identical(self, small_dataset, crawled_dataset):
        from repro.core.homophily import homophily

        truth = homophily(small_dataset)
        crawled = homophily(crawled_dataset)
        for name, rho in truth.correlations.rhos.items():
            assert crawled.correlations.rhos[name] == pytest.approx(
                rho, abs=1e-9
            )


def _run_python(script: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        check=True,
    ).stdout


class TestImportGraph:
    def test_crawl_leaves_scipy_optimize_unloaded(self):
        """``scipy.optimize`` costs ~23 MB of resident memory and only
        the discrete power-law cross-check uses it, so a crawl must not
        pull it in."""
        script = (
            "import sys, repro;"
            "from repro.crawler.runner import run_full_crawl;"
            "from repro.steamapi.service import SteamApiService;"
            "from repro.steamapi.transport import InProcessTransport;"
            "world = repro.SteamWorld.generate("
            "repro.WorldConfig(n_users=1000, seed=5));"
            "run_full_crawl(InProcessTransport(SteamApiService(world.dataset)));"
            "print('scipy.optimize' in sys.modules)"
        )
        out = _run_python(script)
        assert out.strip() == "False"

    def test_study_and_store_build_leave_scipy_optimize_unloaded(self):
        """The tail fits run their own Nelder–Mead on O(1) likelihoods,
        so a full study (Table 4 included) and a serving-store build fit
        every tail without loading ``scipy.optimize``."""
        script = (
            "import sys;"
            "from repro.core.study import SteamStudy;"
            "from repro.serving.store import AnalyticsStore;"
            "study = SteamStudy.generate(n_users=1000, seed=5);"
            "study.run();"
            "AnalyticsStore.build(study.dataset);"
            "print('scipy.optimize' in sys.modules)"
        )
        out = _run_python(script)
        assert out.strip() == "False"

    def test_http_crawl_leaves_stdlib_http_and_analyses_unloaded(self):
        """An HTTP crawl frames its own wire: neither end loads
        ``http.client``/``http.server`` (nor ``ssl`` through them), and
        ``import repro`` no longer pulls in the analyses."""
        script = (
            "import sys, repro;"
            "from repro.crawler.runner import run_full_crawl;"
            "from repro.steamapi.http_client import HttpTransport;"
            "from repro.steamapi.http_server import serve;"
            "from repro.steamapi.service import SteamApiService;"
            "world = repro.SteamWorld.generate("
            "repro.WorldConfig(n_users=1000, seed=5));"
            "server = serve(SteamApiService(world.dataset));"
            "transport = HttpTransport(server.base_url);"
            "run_full_crawl(transport);"
            "transport.close(); server.close();"
            "print(sorted(m for m in ('http.client', 'http.server', 'ssl',"
            " 'repro.core.study', 'repro.engine', 'repro.tailfit')"
            " if m in sys.modules))"
        )
        out = _run_python(script)
        assert out.strip() == "[]"
