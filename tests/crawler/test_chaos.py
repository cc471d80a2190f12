"""Chaos integration: a full crawl through an unreliable API.

The headline guarantee of the resilience layer: a crawl through a
fault-injecting transport — rate-limit storms, 5xx errors, timeouts,
truncated payloads, bursts, even a kill-and-resume from checkpoint
mid-phase — produces a dataset *byte-identical* to a crawl through a
clean transport.  ``save_dataset`` output is deterministic, so the
comparison really is on file bytes: a digest of every file in the
saved dataset directory.
"""

import pytest

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetriesExhausted, RetryPolicy
from repro.crawler.runner import run_full_crawl
from repro.faults import FaultPlan
from repro.pipeline.manifest import file_checksum
from repro.steamapi.errors import ApiError
from repro.steamapi.faults import FaultInjectingTransport, FaultSpec
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport
from repro.store.io import save_dataset


@pytest.fixture(scope="module")
def service(small_world):
    return SteamApiService.from_world(small_world)


@pytest.fixture(scope="module")
def clean_sha(service, tmp_path_factory):
    """Byte-level digest of the dataset a clean crawl produces."""
    result = run_full_crawl(InProcessTransport(service))
    path = save_dataset(
        result.dataset, tmp_path_factory.mktemp("clean") / "clean"
    )
    return file_checksum(path)


def _sha(dataset, directory, name):
    return file_checksum(save_dataset(dataset, directory / name))


#: >= 5% total fault rate across all four kinds, with 2-long bursts.
CHAOS_PLAN = FaultPlan(
    seed=1337,
    default=FaultSpec(
        rate_limit=0.02,
        server_error=0.02,
        timeout=0.01,
        malformed=0.01,
        retry_after=(0.001, 0.01),
        burst=2,
    ),
)

#: Generous attempt budget so 2-long bursts (plus an unlucky adjacent
#: trigger) always resolve within one retried call.
CHAOS_RETRY = dict(max_attempts=10, jitter=True)


class TestChaosCrawl:
    def test_faulty_crawl_byte_identical_to_clean(
        self, service, clean_sha, tmp_path
    ):
        faulty = FaultInjectingTransport(
            InProcessTransport(service), CHAOS_PLAN
        )
        result = run_full_crawl(
            faulty,
            retry=RetryPolicy(sleeper=lambda s: None, **CHAOS_RETRY),
        )
        # The injector genuinely interfered (>=5% of a full crawl is
        # thousands of faults) and every fault was retried away.
        assert result.n_injected_faults > 1000
        assert result.injected_faults == faulty.fault_counts
        assert all(
            faulty.fault_counts[k] > 0 for k in faulty.fault_counts
        )
        assert result.retries >= result.n_injected_faults
        assert result.n_skipped == 0
        assert _sha(result.dataset, tmp_path, "chaos") == clean_sha

    def test_kill_and_resume_mid_phase_byte_identical(
        self, service, clean_sha, tmp_path
    ):
        """Abort the crawl mid-details-phase (RetriesExhausted escapes),
        then resume from the checkpoint — still byte-identical."""

        class KillSwitch:
            """Healthy until ``fuse`` requests, then hard-down."""

            def __init__(self, inner, fuse):
                self.inner = inner
                self.fuse = fuse
                self.calls = 0

            def request(self, path, params):
                self.calls += 1
                if self.calls > self.fuse:
                    raise ApiError("backend down")
                return self.inner.request(path, params)

        checkpoint_path = tmp_path / "crawl.json"
        # For this world the profile sweep takes 162 requests and the
        # storefront 6,157, so 12_000 lands the outage inside the
        # detail phase.
        dying = KillSwitch(InProcessTransport(service), fuse=12_000)
        with pytest.raises(RetriesExhausted):
            run_full_crawl(
                dying,
                checkpoint=CrawlCheckpoint.load(checkpoint_path),
                retry=RetryPolicy(sleeper=lambda s: None, max_attempts=3),
            )

        aborted = CrawlCheckpoint.load(checkpoint_path)
        assert aborted.is_done("profiles")
        assert not aborted.is_done("details")
        assert 0 < aborted.detail_cursor  # mid-phase, cursor persisted
        assert aborted.unstash("details") is not None

        # Resume against a *still-flaky* (but transiently so) API.
        faulty = FaultInjectingTransport(
            InProcessTransport(service), CHAOS_PLAN
        )
        result = run_full_crawl(
            faulty,
            checkpoint=CrawlCheckpoint.load(checkpoint_path),
            retry=RetryPolicy(sleeper=lambda s: None, **CHAOS_RETRY),
        )
        assert result.n_injected_faults > 0
        assert _sha(result.dataset, tmp_path, "resumed") == clean_sha

    def test_graceful_degradation_skips_and_records(
        self, service, clean_sha, tmp_path
    ):
        """Persistently failing SteamIDs are skipped and logged, not
        fatal: the crawl completes with a (documented) smaller harvest."""
        doomed = {int(sid) for sid in service.dataset.accounts.steamids()[:3]}

        class Vendetta:
            """Permanently fails the detail calls of specific SteamIDs."""

            def __init__(self, inner):
                self.inner = inner

            def request(self, path, params):
                if (
                    path != "/ISteamUser/GetPlayerSummaries/v2"
                    and int(params.get("steamid", -1)) in doomed
                ):
                    raise ApiError("this account always breaks")
                return self.inner.request(path, params)

        checkpoint = CrawlCheckpoint.load(tmp_path / "skip.json")
        result = run_full_crawl(
            Vendetta(InProcessTransport(service)),
            checkpoint=checkpoint,
            retry=RetryPolicy(sleeper=lambda s: None, max_attempts=3),
            skip_failed=True,
        )
        assert sorted(result.skipped["details"]) == sorted(doomed)
        assert result.n_skipped == len(doomed)
        assert sorted(checkpoint.failures("details")) == sorted(doomed)
        # The rest of the dataset survived: same accounts, fewer details.
        assert result.dataset.n_users == service.dataset.n_users
        assert _sha(result.dataset, tmp_path, "skip") != clean_sha

    def test_crawlresult_counters_clean_run(self, service):
        result = run_full_crawl(InProcessTransport(service))
        assert result.retries == 0
        assert result.n_skipped == 0
        assert result.n_injected_faults == 0
