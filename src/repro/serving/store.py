"""The analytics read model behind ``repro serve-analytics``.

:class:`AnalyticsStore` is a query-optimized projection of a
:class:`~repro.store.dataset.SteamDataset`: sorted per-attribute
columns for O(log n) percentile/rank lookups, per-app ownership and
playtime aggregates, the friend adjacency for neighborhood queries,
and the expensive derived products (tail-fit classifications, the
homophily correlations) precomputed once at build time.

The build itself runs as a :class:`~repro.engine.StageGraph` through
the same :class:`~repro.engine.Engine` as ``repro analyze``.  That
buys three properties for free:

- **memoization** — with a :class:`~repro.engine.StageCache`, a warm
  rebuild of an unchanged dataset executes *zero* stages (the
  ``repro serve-analytics`` cold-start path);
- **parallel determinism** — ``jobs=N`` builds are byte-identical to
  serial ones, because stages are pure and assembly order is fixed;
- **invalidation by fingerprint** — any dataset mutation changes the
  fingerprint, which shifts every stage key, so a stale store can be
  cached but never *served* as fresh.

Query methods raise the typed :mod:`repro.steamapi.errors` taxonomy
(``NotFoundError`` for unknown ids/attributes or empty populations,
``BadRequestError`` for malformed parameters) so the HTTP layer maps
them to status codes without string matching.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import percentiles as percentiles_mod
from repro.core.distributions import (
    ATTRIBUTE_ROWS,
    MIN_ROW_POPULATION,
    table4_row_stage,
)
from repro.core.homophily import (
    HOMOPHILY_ATTRIBUTES,
    CorrelationSet,
    homophily_stages,
)
from repro.core.percentiles import (
    ATTRIBUTE_COLUMNS,
    ATTRIBUTE_VALUES,
    ATTRIBUTES,
    attribute_values,
    percentile_rank,
    percentile_value,
)
from repro.engine import Engine, EngineRun, Stage, StageContext, StageGraph
from repro.engine.cache import StageCache
from repro.obs import Obs, maybe_span
from repro.steamapi.deadline import check_deadline
from repro.steamapi.errors import BadRequestError, NotFoundError
from repro.store import tables as tables_mod
from repro.store.dataset import SteamDataset
from repro.tailfit import ClassificationResult

__all__ = [
    "AnalyticsStore",
    "AppStats",
    "DistributionIndex",
    "build_serving_graph",
    "SERVING_STAGE_VERSION",
]

#: Bump to force rebuilds when the store layout changes without a
#: source-level change in the stage modules.
SERVING_STAGE_VERSION = "1"


@dataclass(frozen=True)
class DistributionIndex:
    """One attribute's sorted nonzero column, ready for binary search.

    Percentile and rank queries are a ``searchsorted`` against
    ``sorted_values`` — O(log n) per request against a 100k+ user
    dataset, instead of an O(n) scan per query.
    """

    attribute: str
    #: Ascending nonzero values (the engaged population, matching the
    #: paper's convention of reporting distributions over active users).
    sorted_values: np.ndarray
    #: Total users in the dataset (including the zero/inactive mass).
    n_users: int

    @property
    def population(self) -> int:
        return len(self.sorted_values)


@dataclass(frozen=True)
class AppStats:
    """Per-app aggregates over the library matrix, indexed by product."""

    #: Users owning each app.
    owners: np.ndarray
    #: Users with nonzero total playtime in each app.
    players: np.ndarray
    #: Summed lifetime minutes per app.
    total_min: np.ndarray
    #: Summed two-week minutes per app.
    twoweek_min: np.ndarray
    #: ``owners`` sorted ascending, for popularity-percentile lookups.
    owners_sorted: np.ndarray


# -- stage functions ----------------------------------------------------------
#
# Module-level and pure so they pickle to pool workers and hash into
# content-addressed cache keys (DESIGN.md §8).


def _stage_index(ctx: StageContext, attribute: str) -> DistributionIndex:
    values = ATTRIBUTE_VALUES[attribute](ctx.dataset)
    return DistributionIndex(
        attribute=attribute,
        sorted_values=np.sort(values[values > 0]),
        n_users=ctx.dataset.n_users,
    )


def _stage_app_stats(ctx: StageContext) -> AppStats:
    library = ctx.dataset.library
    n = ctx.dataset.n_products
    owners = library.app_owner_counts(n)
    return AppStats(
        owners=owners,
        players=library.app_player_counts(n),
        total_min=library.app_total_min(n),
        twoweek_min=library.app_twoweek_min(n),
        owners_sorted=np.sort(owners),
    )


def build_serving_graph() -> StageGraph:
    """The serving store's stage DAG: all stages but the Figure 11
    merge are independent, so a ``jobs=N`` build fans the tail fits
    (the expensive part) across workers.  The tail fits are Table 4's
    own row stages and the homophily correlations Figure 11's, so a
    store built on the study's stage cache reuses the study's
    results."""
    this = sys.modules[__name__]
    stages: list[Stage] = []
    # Per-attribute stages key on just that attribute's backing columns
    # (ATTRIBUTE_COLUMNS): after a delta that only touches playtime,
    # the friends/groups indexes and tail fits stay cache hits.
    for attribute in ATTRIBUTES:
        stages.append(
            Stage(
                name=f"serving_index:{attribute}",
                fn=_stage_index,
                params=(("attribute", attribute),),
                modules=(this, percentiles_mod),
                version=SERVING_STAGE_VERSION,
                columns=ATTRIBUTE_COLUMNS[attribute],
            )
        )
        stages.append(table4_row_stage(ATTRIBUTE_ROWS[attribute]))
    stages.extend(homophily_stages())
    stages.append(
        Stage(
            name="serving_app_stats",
            fn=_stage_app_stats,
            modules=(this, tables_mod),
            version=SERVING_STAGE_VERSION,
            columns=("lib",),
        )
    )
    return StageGraph(stages)


def _finite(x: float) -> float | None:
    """Floats for JSON: non-finite values become ``None``, never NaN
    literals in a response body."""
    x = float(x)
    return x if np.isfinite(x) else None


def _jsonsafe(obj: Any) -> Any:
    """Recursively scrub non-finite floats out of a payload."""
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, float):
        return _finite(obj)
    return obj


@dataclass
class AnalyticsStore:
    """Precomputed, immutable read model for the analytics API.

    Built once (``AnalyticsStore.build``), then queried concurrently by
    handler threads — every query method only reads, so no locking is
    needed past construction.
    """

    dataset: SteamDataset
    fingerprint: str
    indexes: dict[str, DistributionIndex]
    #: Table 4's classification of each attribute (``None`` when too
    #: few users are engaged to fit a tail).
    tailfits: dict[str, ClassificationResult | None]
    correlations: CorrelationSet
    app_stats: AppStats
    #: What the build executed vs served from cache (telemetry, tests).
    build_run: EngineRun | None = None
    _offsets: np.ndarray = field(init=False, repr=False)
    _adjacency: Any = field(init=False, repr=False)
    _app_order: np.ndarray = field(init=False, repr=False)
    _appids_sorted: np.ndarray = field(init=False, repr=False)
    _values: dict[str, np.ndarray] = field(init=False, repr=False)
    _steamids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._offsets = self.dataset.accounts.id_offset
        self._steamids = self.dataset.accounts.steamids()
        self._adjacency, _ = self.dataset.friends.adjacency()
        appids = self.dataset.catalog.appid
        self._app_order = np.argsort(appids)
        self._appids_sorted = appids[self._app_order]
        self._values = attribute_values(self.dataset)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: SteamDataset,
        *,
        jobs: int = 1,
        cache: StageCache | None = None,
        obs: Obs | None = None,
        max_tail: int = 60_000,
    ) -> "AnalyticsStore":
        """Run the serving stage graph and assemble the store.

        With a warm ``cache`` and an unchanged dataset this executes no
        stages at all — every result is a cache hit keyed on the
        dataset fingerprint plus stage code versions.
        """
        graph = build_serving_graph()
        # SteamStudy.run's Table 4 config: equal config, equal row keys.
        config = {"table4_max_tail": max_tail, "table4_seed": 0}
        engine = Engine(jobs=jobs, cache=cache, obs=obs, span_prefix="serving:")
        with maybe_span(obs, "serving:build", jobs=jobs, stages=len(graph.stages)):
            run = engine.run(graph, StageContext(dataset=dataset, config=config))
        results = run.results
        return cls(
            dataset=dataset,
            fingerprint=dataset.fingerprint(),
            indexes={
                a: results[f"serving_index:{a}"] for a in ATTRIBUTES
            },
            tailfits={
                a: results[f"table4:{ATTRIBUTE_ROWS[a]}"] for a in ATTRIBUTES
            },
            correlations=results["fig11_homophily"].correlations,
            app_stats=results["serving_app_stats"],
            build_run=run,
        )

    # -- id resolution -------------------------------------------------------

    def _user_index(self, steamid: int) -> int:
        from repro import constants

        offset = int(steamid) - constants.STEAMID_BASE
        if offset < 0:
            raise BadRequestError(f"malformed steamid {steamid}")
        pos = int(np.searchsorted(self._offsets, offset))
        if pos >= len(self._offsets) or self._offsets[pos] != offset:
            raise NotFoundError(f"no such user {steamid}")
        return pos

    def _app_index(self, appid: int) -> int:
        pos = int(np.searchsorted(self._appids_sorted, appid))
        if (
            pos >= len(self._appids_sorted)
            or self._appids_sorted[pos] != appid
        ):
            raise NotFoundError(f"no such app {appid}")
        return int(self._app_order[pos])

    def _index_for(self, attribute: str) -> DistributionIndex:
        try:
            return self.indexes[attribute]
        except KeyError:
            raise NotFoundError(
                f"unknown attribute {attribute!r}; "
                f"valid: {', '.join(ATTRIBUTES)}"
            ) from None

    # -- queries -------------------------------------------------------------
    #
    # Every public query checks the ambient request deadline on entry
    # (repro.steamapi.deadline): the check is cooperative — a query
    # already running is never interrupted, so accepted responses stay
    # byte-identical — but a request that arrives here with no budget
    # left fails fast with a 504 instead of burning store time.

    def user_summary(self, steamid: int) -> dict:
        """One user's attribute values with their percentile standings."""
        check_deadline("store")
        idx = self._user_index(steamid)
        accounts = self.dataset.accounts
        attributes = {}
        for name in ATTRIBUTES:
            value = float(self._values[name][idx])
            index = self.indexes[name]
            percentile = None
            if value > 0 and index.population:
                percentile = _finite(
                    percentile_rank(index.sorted_values, value)
                )
            attributes[name] = {
                "value": value,
                # Standing within the engaged (nonzero) population;
                # None when the user is inactive on this attribute.
                "percentile": percentile,
            }
        country = int(accounts.country[idx])
        return {
            "steamid": int(steamid),
            "created_day": int(accounts.created_day[idx]),
            "country": (
                accounts.country_names[country] if country >= 0 else None
            ),
            "friends": int(self._values["friends"][idx]),
            "attributes": attributes,
        }

    def user_neighborhood(self, steamid: int, limit: int = 50) -> dict:
        """A user's friends with their headline attributes."""
        check_deadline("store")
        if not 1 <= limit <= 1000:
            raise BadRequestError(
                f"limit must be in [1, 1000], got {limit}"
            )
        idx = self._user_index(steamid)
        adj = self._adjacency
        neighbors = adj.indices[adj.indptr[idx] : adj.indptr[idx + 1]]
        steamids = self._steamids
        friends = []
        for n_idx in neighbors[:limit]:
            friends.append(
                {
                    "steamid": int(steamids[n_idx]),
                    "friends": int(self._values["friends"][n_idx]),
                    "owned_games": int(self._values["owned_games"][n_idx]),
                    "total_playtime_hours": round(
                        float(self._values["total_playtime_hours"][n_idx]), 2
                    ),
                }
            )
        return {
            "steamid": int(steamid),
            "degree": int(len(neighbors)),
            "returned": len(friends),
            "friends": friends,
        }

    def app_stats_payload(self, appid: int) -> dict:
        """Ownership/playtime aggregates for one catalog product."""
        check_deadline("store")
        idx = self._app_index(appid)
        stats = self.app_stats
        catalog = self.dataset.catalog
        owners = int(stats.owners[idx])
        genre = int(catalog.primary_genre[idx])
        popularity = 0.0
        if owners > 0 and len(stats.owners_sorted):
            popularity = _finite(
                percentile_rank(stats.owners_sorted, float(owners))
            )
        return {
            "appid": int(appid),
            "is_game": bool(catalog.is_game[idx]),
            "genre": (
                catalog.genre_names[genre]
                if 0 <= genre < len(catalog.genre_names)
                else None
            ),
            "price_cents": int(catalog.price_cents[idx]),
            "owners": owners,
            "players": int(stats.players[idx]),
            "total_playtime_hours": round(
                float(stats.total_min[idx]) / 60.0, 2
            ),
            "twoweek_playtime_hours": round(
                float(stats.twoweek_min[idx]) / 60.0, 2
            ),
            # Ownership percentile among all catalog products.
            "ownership_percentile": popularity,
        }

    def distribution_percentile(self, attribute: str, q: float) -> dict:
        """The value at percentile ``q`` of an attribute's engaged
        population.  Malformed ``q`` → 400; empty population → 404."""
        check_deadline("store")
        index = self._index_for(attribute)
        if index.population == 0:
            raise NotFoundError(
                f"attribute {attribute!r} has no engaged users; "
                "nothing to take a percentile of"
            )
        try:
            value = percentile_value(index.sorted_values, q)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None
        return {
            "attribute": attribute,
            "q": float(q),
            "value": _finite(value),
            "population": index.population,
            "n_users": index.n_users,
        }

    def distribution_rank(self, attribute: str, value: float) -> dict:
        """Where ``value`` sits in an attribute's engaged population."""
        check_deadline("store")
        index = self._index_for(attribute)
        if index.population == 0:
            raise NotFoundError(
                f"attribute {attribute!r} has no engaged users; "
                "nothing to rank against"
            )
        try:
            rank = percentile_rank(index.sorted_values, value)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None
        return {
            "attribute": attribute,
            "value": float(value),
            "percentile": _finite(rank),
            "population": index.population,
        }

    def tailfit_payload(self, attribute: str) -> dict:
        """The precomputed 4-way tail classification for an attribute."""
        check_deadline("store")
        index = self._index_for(attribute)  # 404 on unknown attribute
        result = self.tailfits.get(attribute)
        if result is None:
            if index.population < MIN_ROW_POPULATION:
                reason = (
                    f"too few engaged users (< {MIN_ROW_POPULATION}) "
                    "for a tail fit"
                )
            else:
                reason = "one distinct engaged value: no tail to fit"
            raise NotFoundError(f"attribute {attribute!r} has {reason}")
        comparisons = {
            name: {"R": cmp.R, "p": cmp.p}
            for name, cmp in (
                ("pl_vs_exp", result.pl_vs_exp),
                ("pl_vs_ln", result.pl_vs_ln),
                ("tpl_vs_pl", result.tpl_vs_pl),
                ("tpl_vs_ln", result.tpl_vs_ln),
            )
        }
        return _jsonsafe(
            {
                "attribute": attribute,
                "label": result.label,
                "xmin": result.xmin,
                "n_tail": result.n_tail,
                "families": result.families,
                "comparisons": comparisons,
            }
        )

    def homophily_payload(self, attribute: str) -> dict:
        """One homophily correlation (attribute vs friends' average)."""
        check_deadline("store")
        try:
            return self.correlations.attribute_entry(attribute)
        except KeyError:
            raise NotFoundError(
                f"unknown homophily attribute {attribute!r}; "
                f"valid: {', '.join(HOMOPHILY_ATTRIBUTES)}"
            ) from None

    def describe(self) -> dict:
        """Health/identity payload for ``/healthz``."""
        run = self.build_run
        return {
            "status": "ok",
            "fingerprint": self.fingerprint,
            "n_users": self.dataset.n_users,
            "n_products": self.dataset.n_products,
            "attributes": list(ATTRIBUTES),
            "build": {
                "executed": len(run.executed) if run else None,
                "cached": len(run.cached) if run else None,
                "jobs": run.jobs if run else None,
            },
        }
