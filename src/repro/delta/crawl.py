"""Delta crawl: refetch only the users a :class:`WorldDelta` names.

A full crawl is O(world): three detail calls per account for months.
After one evolution step only a sliver of accounts changed, and the
:class:`~repro.delta.model.WorldDelta` says exactly which — so the
delta crawl re-runs the profile and detail phases for just those
accounts through the *same* session stack (polite pacing, retries,
checkpoints, observability) and merges the harvest into the prior
dataset with :func:`repro.store.merge.apply_user_delta`.

Byte-identity contract: the merged dataset is identical to what
:func:`repro.crawler.runner.run_full_crawl` would assemble against the
evolved world.  The load-bearing pieces are

- the delta's both-endpoints rule (a changed edge marks both users, so
  the refetch set always contains both sides of any edge that moved);
- :func:`apply_user_delta` preserving prior dtypes and per-user entry
  order;
- re-running the group-label scrape over the *merged* member counts via
  the helper shared with the full crawl, since one user leaving a group
  can change which groups make the top-250.

The catalog and achievement phases are global storefront snapshots
that user evolution cannot move, so they are carried from the prior
dataset rather than re-crawled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.details import crawl_details
from repro.crawler.phase import run_phase
from repro.crawler.retry import RetryPolicy
from repro.crawler.runner import scrape_group_labels
from repro.crawler.session import CrawlSession, open_crawl, unix_to_day
from repro.delta.model import DatasetDelta, WorldDelta, dataset_delta
from repro.obs import Obs, maybe_span
from repro.steamapi.service import MAX_SUMMARY_BATCH
from repro.steamapi.transport import Transport
from repro.store.dataset import DatasetMeta, SteamDataset
from repro.store.merge import UserDeltaBatch, apply_user_delta
from repro.store.tables import GroupType, Snapshot2Table

__all__ = ["DeltaCrawlResult", "run_delta_crawl"]


@dataclass
class DeltaCrawlResult:
    """A delta-merged dataset plus the manifest and crawl statistics."""

    dataset: SteamDataset
    delta: DatasetDelta
    requests_made: int
    attempts: int = 0
    retries: int = 0
    skipped: dict = field(default_factory=dict)

    @property
    def n_refetched(self) -> int:
        return len(self.delta.changed_steamids) + len(self.delta.new_steamids)


def _refetch_profiles(
    session: CrawlSession,
    steamids: np.ndarray,
    checkpoint: CrawlCheckpoint | None,
    skip_failed: bool,
) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Batched GetPlayerSummaries over a known ID list.

    Unlike the phase-1 sweep this is a point lookup, not a range scan:
    the IDs come from the delta, so empty windows and stop conditions
    do not apply.  Parsing matches the sweep exactly (timecreated to
    day, ``loccountrycode``/``loccityid`` with the same defaults).
    """
    from repro import constants

    offsets: list[int] = []
    created: list[int] = []
    countries: list = []
    cities: list[int] = []

    def harvest(position: int, chunk: list, payloads: list[dict]) -> None:
        for player in payloads[0]["response"]["players"]:
            offsets.append(int(player["steamid"]) - constants.STEAMID_BASE)
            created.append(unix_to_day(player["timecreated"]))
            countries.append(player.get("loccountrycode"))
            cities.append(int(player.get("loccityid", -1)))

    ids = np.asarray(steamids, dtype=np.int64).tolist()
    run_phase(
        session,
        checkpoint,
        "delta_profiles",
        [
            ids[i : i + MAX_SUMMARY_BATCH]
            for i in range(0, len(ids), MAX_SUMMARY_BATCH)
        ],
        lambda chunk: (
            (
                "/ISteamUser/GetPlayerSummaries/v2",
                {"steamids": ",".join(map(str, chunk))},
            ),
        ),
        harvest,
        skip_failed=skip_failed,
        ident=lambda chunk: chunk[0],
    )

    order = np.argsort(np.array(offsets, dtype=np.int64), kind="stable")
    return (
        np.array(offsets, dtype=np.int64)[order],
        np.array(created, dtype=np.int32)[order],
        [countries[i] for i in order],
        np.array(cities, dtype=np.int64)[order],
    )


def run_delta_crawl(
    transport: Transport,
    prior: SteamDataset,
    world_delta: WorldDelta,
    advertised_rate: float = 1e9,
    politeness: float = 0.85,
    label_top_groups: int = 250,
    checkpoint: CrawlCheckpoint | None = None,
    snapshot2: Snapshot2Table | None = None,
    clock=None,
    sleeper=None,
    retry: RetryPolicy | None = None,
    skip_failed: bool = False,
    obs: Obs | None = None,
) -> DeltaCrawlResult:
    """Refetch the delta's users and merge them into ``prior``.

    Accepts the same transport/pacing/retry/checkpoint/observability
    knobs as :func:`~repro.crawler.runner.run_full_crawl`; request
    volume is O(delta) — roughly ``ceil(n/100)`` profile calls plus
    three detail calls per refetched user plus ``label_top_groups``
    label scrapes.
    """
    from repro import constants

    session, checkpoint = open_crawl(
        transport,
        advertised_rate,
        politeness,
        clock,
        sleeper,
        retry,
        skip_failed,
        obs,
        checkpoint,
    )

    targets = world_delta.all_offsets()
    target_steamids = targets + constants.STEAMID_BASE

    with maybe_span(obs, "delta_crawl", accounts=len(targets)):
        with maybe_span(obs, "phase:delta_profiles"):
            offsets, created, countries, cities = _refetch_profiles(
                session, target_steamids, checkpoint, skip_failed
            )
        with maybe_span(obs, "phase:delta_details"):
            details = crawl_details(
                session,
                offsets + constants.STEAMID_BASE,
                checkpoint=checkpoint,
                skip_failed=skip_failed,
            )

        with maybe_span(obs, "assemble:delta_merge"):
            catalog_appids = prior.catalog.appid.astype(np.int64)
            product = np.searchsorted(catalog_appids, details.lib_appid)
            product = np.clip(product, 0, max(len(catalog_appids) - 1, 0))
            lib_valid = catalog_appids[product] == details.lib_appid
            batch = UserDeltaBatch(
                offsets=offsets,
                created_day=created,
                countries=countries,
                city=cities,
                edge_a_off=details.edge_a - constants.STEAMID_BASE,
                edge_b_off=details.edge_b - constants.STEAMID_BASE,
                edge_day=details.edge_day,
                lib_user=details.lib_user[lib_valid],
                lib_product=product[lib_valid],
                lib_total_min=details.lib_total_min[lib_valid],
                lib_twoweek_min=details.lib_twoweek_min[lib_valid],
                member_user=details.member_user,
                member_group=details.member_group,
            )
            merged = apply_user_delta(
                prior,
                batch,
                snapshot2=snapshot2,
                meta=DatasetMeta(scale_note="assembled by crawler"),
            )

        # A full crawl labels the top groups of *its* member counts; one
        # membership change can reshuffle that ranking, so re-label from
        # scratch over the merged counts rather than trusting the carry.
        with maybe_span(obs, "phase:delta_groups"):
            merged.groups.group_type[:] = int(GroupType.SPECIAL_INTEREST)
            merged.groups.focus_game[:] = -1
            scrape_group_labels(
                session,
                merged.groups.group_type,
                merged.groups.focus_game,
                merged.groups.members.counts(),
                catalog_appids,
                label_top_groups,
                checkpoint=checkpoint,
                skip_failed=skip_failed,
            )
            merged.invalidate_fingerprint()

        delta = dataset_delta(
            prior,
            merged,
            changed_steamids=world_delta.changed_offsets
            + constants.STEAMID_BASE,
            new_steamids=world_delta.new_offsets + constants.STEAMID_BASE,
        )

    return DeltaCrawlResult(
        dataset=merged,
        delta=delta,
        requests_made=session.requests_made,
        attempts=session.attempts,
        retries=session.retries,
        skipped=dict(checkpoint.failures()) if checkpoint else {},
    )
