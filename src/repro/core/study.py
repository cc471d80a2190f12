"""End-to-end study orchestration, expressed as a stage graph.

:class:`SteamStudy` ties the whole reproduction together:

- ``generate`` builds a synthetic Steam universe (the data substrate),
- ``run`` computes every table and figure into a
  :class:`repro.core.report.StudyReport`,
- ``crawl`` (optional) routes the data through the simulated Steam Web
  API + crawler instead of reading the generator output directly,
  exercising the measurement apparatus the paper actually used.

``run`` no longer calls the ~20 analyses inline: it builds a
:class:`repro.engine.StageGraph` — one declared stage per table/figure,
with Table 4 sharded into one stage per classified row and Figure 11 /
Section 7 sharded into one stage per correlation — and hands it
to :class:`repro.engine.Engine`.  That is what makes ``--jobs N``
process-parallelism and the content-addressed stage cache possible
while keeping the report byte-identical to a serial run (DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core import (
    achievements as ach_mod,
)
from repro.core import (
    distributions as dist_mod,
)
from repro.core import (
    evolution as evo_mod,
)
from repro.core import (
    expenditure as exp_mod,
)
from repro.core import (
    groups as groups_mod,
)
from repro.core import (
    homophily as homo_mod,
)
from repro.core import (
    multiplayer as mp_mod,
)
from repro.core import (
    ownership as own_mod,
)
from repro.core import (
    percentiles as pct_mod,
)
from repro.core import (
    social as social_mod,
)
from repro.core import weekpanel as panel_mod
from repro.core.report import StudyReport
from repro.engine import (
    Engine,
    EngineRun,
    Stage,
    StageCache,
    StageContext,
    StageGraph,
)
from repro.obs import Obs, maybe_span
from repro.simworld.config import WorldConfig
from repro.simworld.world import SteamWorld
from repro.store import dataset as dataset_mod
from repro.store.dataset import SteamDataset

__all__ = ["SteamStudy", "build_study_graph", "assemble_report"]


# -- stage functions ----------------------------------------------------------
#
# Module-level, pure, and picklable: workers receive the function by
# reference plus the shared StageContext, never a closure.


def _stage_summary(ctx):
    return ctx.dataset.summary()


def _stage_table1(ctx):
    return social_mod.country_table(ctx.dataset)


def _stage_table2(ctx):
    return groups_mod.group_type_table(ctx.dataset)


def _stage_table3(ctx):
    return pct_mod.percentile_table(ctx.dataset)


def _stage_fig1(ctx):
    return social_mod.network_evolution(ctx.dataset)


def _stage_fig2(ctx):
    return social_mod.degree_distributions(ctx.dataset)


def _stage_fig3(ctx):
    return groups_mod.distinct_games_played(ctx.dataset)


def _stage_fig4(ctx):
    return own_mod.ownership_distribution(ctx.dataset)


def _stage_fig5(ctx):
    return own_mod.genre_ownership(ctx.dataset)


def _stage_fig6(ctx):
    return exp_mod.playtime_cdf(ctx.dataset)


def _stage_fig7(ctx):
    return exp_mod.twoweek_nonzero(ctx.dataset)


def _stage_fig8(ctx):
    return exp_mod.market_value_distribution(ctx.dataset)


def _stage_fig9(ctx):
    return exp_mod.genre_expenditure(ctx.dataset)


def _stage_fig10(ctx):
    return mp_mod.multiplayer_share(ctx.dataset)


def _stage_fig11_attr(ctx, attr):
    return homo_mod.homophily_attribute(ctx.dataset, attr)


def _stage_fig11_merge(ctx, attrs):
    return homo_mod.merge_homophily(
        [ctx.dep(f"fig11:{attr}") for attr in attrs]
    )


def _stage_sec7_pair(ctx, name_a, name_b):
    return homo_mod.cross_correlation_pair(ctx.dataset, name_a, name_b)


def _stage_sec7_merge(ctx, pairs):
    return homo_mod.merge_cross_correlations(
        [ctx.dep(f"sec7:{a} vs {b}") for a, b in pairs]
    )


def _stage_sec8(ctx):
    return evo_mod.snapshot_comparison(ctx.dataset)


def _stage_sec9(ctx):
    return ach_mod.achievement_report(ctx.dataset)


def _stage_fig12(ctx):
    return panel_mod.analyze_week_panel(ctx.aux["week_panel"])


def _stage_table4_merge(ctx, rows):
    merged = {}
    for row in rows:
        result = ctx.dep(f"table4:{row}")
        if result is not None:
            merged[row] = result
    return dist_mod.Table4(rows=merged)


def _versioned(module) -> str:
    return getattr(module, "STAGE_VERSION", "1")


# Columns per sharded correlation attribute (fig11:<attr> shards read
# the attribute's own column(s) plus the friend edges for the
# neighbor average; sec7:<pair> shards read both attributes' columns).
_CORR_ATTR_COLUMNS = {
    "market_value": ("lib.indptr", "lib.indices", "cat.price_cents"),
    "friends": (),  # friend_counts comes from fr.u/fr.v, added below
    "total_playtime": ("lib.indptr", "lib.total_min"),
    "twoweek_playtime": ("lib.indptr", "lib.twoweek_min"),
    "owned_games": ("lib.indptr",),
}

#: friend_counts() reads the edge endpoints (never fr.day).
_FRIEND_COLUMNS = ("fr.u", "fr.v")


def _fig11_attr_columns(attr: str) -> tuple[str, ...]:
    # Every homophily shard touches the graph via neighbor_mean.
    return _FRIEND_COLUMNS + _CORR_ATTR_COLUMNS[attr]


def _sec7_pair_columns(name_a: str, name_b: str) -> tuple[str, ...]:
    columns: list[str] = []
    for name in (name_a, name_b):
        attr_columns = _CORR_ATTR_COLUMNS[name]
        if name == "friends":
            attr_columns = _FRIEND_COLUMNS
        for column in attr_columns:
            if column not in columns:
                columns.append(column)
    return tuple(columns)


def build_study_graph(
    dataset: SteamDataset, config: dict, aux: dict
) -> StageGraph:
    """The full study as a DAG of declared stages.

    Which stages exist depends only on cheap facts: the config flags
    and which optional tables the dataset carries.  Stage *results*
    depend only on declared inputs, which is what the cache keys.
    """

    def stage(name, fn, module, **kwargs):
        return Stage(
            name=name,
            fn=fn,
            modules=(module,),
            version=_versioned(module),
            **kwargs,
        )

    # Every stage declares the dataset columns it reads (the dotted
    # keys of ``SteamDataset.iter_columns``; a bare table prefix like
    # "lib" selects all its columns).  The cache key then folds only
    # those columns' fingerprints — plus meta and shape, always — so a
    # delta that leaves a stage's inputs untouched is a cache hit.
    # Derived accessors map as: friend_counts -> fr.u/fr.v,
    # owned_counts -> lib.indptr, played_counts/total_playtime ->
    # lib.indptr+lib.total_min, twoweek -> lib.indptr+lib.twoweek_min,
    # market_value -> lib.indptr+lib.indices+cat.price_cents,
    # membership_counts -> gr.indptr+gr.indices, groups.sizes ->
    # gr.indptr.  country_names/friend_ts_epoch_day live in meta.
    stages = [
        stage(
            "summary",
            _stage_summary,
            dataset_mod,
            columns=(
                "fr.u",
                "gr",
                "lib.indptr",
                "lib.indices",
                "lib.total_min",
                "cat.price_cents",
            ),
        ),
        stage(
            "table1_countries",
            _stage_table1,
            social_mod,
            columns=("acc.country",),
        ),
        stage(
            "table2_groups",
            _stage_table2,
            groups_mod,
            columns=("gr.type", "gr.indptr"),
        ),
        stage(
            "table3_percentiles",
            _stage_table3,
            pct_mod,
            columns=("fr.u", "fr.v", "gr.indptr", "gr.indices", "lib", "cat.price_cents"),
        ),
        stage(
            "fig1_evolution",
            _stage_fig1,
            social_mod,
            columns=("acc.created_day", "fr"),
        ),
        stage("fig2_degrees", _stage_fig2, social_mod, columns=("fr",)),
        stage(
            "fig3_group_games",
            _stage_fig3,
            groups_mod,
            columns=("gr", "lib"),
        ),
        stage(
            "fig4_ownership",
            _stage_fig4,
            own_mod,
            columns=("lib.indptr", "lib.total_min"),
        ),
        stage(
            "fig5_genre_ownership",
            _stage_fig5,
            own_mod,
            columns=("lib", "cat"),
        ),
        stage(
            "fig6_playtime_cdf",
            _stage_fig6,
            exp_mod,
            columns=("lib.indptr", "lib.total_min", "lib.twoweek_min"),
        ),
        stage(
            "fig7_twoweek",
            _stage_fig7,
            exp_mod,
            columns=("lib.indptr", "lib.twoweek_min"),
        ),
        stage(
            "fig8_market_value",
            _stage_fig8,
            exp_mod,
            columns=("lib.indptr", "lib.indices", "cat.price_cents"),
        ),
        stage(
            "fig9_genre_expenditure",
            _stage_fig9,
            exp_mod,
            columns=("lib", "cat"),
        ),
        stage(
            "fig10_multiplayer",
            _stage_fig10,
            mp_mod,
            columns=("lib", "cat"),
        ),
    ]
    # Figure 11 / Section 7 are sharded one stage per correlation —
    # same pattern as Table 4's per-row shards: narrow column
    # declarations make the shards independently cacheable, and the
    # merge stage (which reads only its deps) restores render order.
    for attr in homo_mod.HOMOPHILY_ATTRIBUTES:
        stages.append(
            Stage(
                name=f"fig11:{attr}",
                fn=_stage_fig11_attr,
                params=(("attr", attr),),
                modules=(homo_mod,),
                version=_versioned(homo_mod),
                columns=_fig11_attr_columns(attr),
            )
        )
    stages.append(
        Stage(
            name="fig11_homophily",
            fn=_stage_fig11_merge,
            params=(("attrs", homo_mod.HOMOPHILY_ATTRIBUTES),),
            deps=tuple(
                f"fig11:{attr}"
                for attr in homo_mod.HOMOPHILY_ATTRIBUTES
            ),
            modules=(homo_mod,),
            version=_versioned(homo_mod),
            columns=(),  # reads only its deps; their keys are folded
        )
    )
    sec7_pairs = tuple((a, b) for a, b, _ in homo_mod.CROSS_PAIRS)
    for name_a, name_b in sec7_pairs:
        stages.append(
            Stage(
                name=f"sec7:{name_a} vs {name_b}",
                fn=_stage_sec7_pair,
                params=(("name_a", name_a), ("name_b", name_b)),
                modules=(homo_mod,),
                version=_versioned(homo_mod),
                columns=_sec7_pair_columns(name_a, name_b),
            )
        )
    stages.append(
        Stage(
            name="sec7_cross_correlations",
            fn=_stage_sec7_merge,
            params=(("pairs", sec7_pairs),),
            deps=tuple(f"sec7:{a} vs {b}" for a, b in sec7_pairs),
            modules=(homo_mod,),
            version=_versioned(homo_mod),
            columns=(),  # reads only its deps; their keys are folded
        )
    )
    if dataset.snapshot2 is not None:
        stages.append(
            stage(
                "sec8_evolution",
                _stage_sec8,
                evo_mod,
                columns=(
                    "s2",
                    "lib.indptr",
                    "lib.indices",
                    "lib.total_min",
                    "cat.price_cents",
                ),
            )
        )
    if dataset.achievements is not None:
        stages.append(
            stage(
                "sec9_achievements",
                _stage_sec9,
                ach_mod,
                columns=("ach", "cat", "lib"),
            )
        )
    if "week_panel" in aux:
        stages.append(
            Stage(
                name="fig12_week_panel",
                fn=_stage_fig12,
                aux_keys=("week_panel",),
                modules=(panel_mod,),
                version=_versioned(panel_mod),
                columns=(),  # reads only aux, never the dataset
            )
        )
    if config.get("include_table4", True):
        # Table 4 dominates serial runtime, so it is sharded one stage
        # per classified row; the merge stage restores render order.
        rows = dist_mod.table4_row_names(dataset)
        stages.extend(dist_mod.table4_row_stage(row) for row in rows)
        stages.append(
            Stage(
                name="table4_classification",
                fn=_stage_table4_merge,
                params=(("rows", rows),),
                deps=tuple(f"table4:{row}" for row in rows),
                config_keys=("table4_max_tail", "table4_seed"),
                modules=(dist_mod,),
                version=_versioned(dist_mod),
                columns=(),  # reads only its deps; their keys are folded
            )
        )
    return StageGraph(stages)


def assemble_report(results: dict) -> StudyReport:
    """Stage results (by name) -> the fixed report structure."""
    return StudyReport(
        summary=results["summary"],
        table1=results["table1_countries"],
        table2=results["table2_groups"],
        table3=results["table3_percentiles"],
        table4=results.get("table4_classification"),
        fig1_evolution=results["fig1_evolution"],
        fig2_degrees=results["fig2_degrees"],
        fig3_group_games=results["fig3_group_games"],
        fig4_ownership=results["fig4_ownership"],
        fig5_genre_ownership=results["fig5_genre_ownership"],
        fig6_playtime_cdf=results["fig6_playtime_cdf"],
        fig7_twoweek=results["fig7_twoweek"],
        fig8_market_value=results["fig8_market_value"],
        fig9_genre_expenditure=results["fig9_genre_expenditure"],
        fig10_multiplayer=results["fig10_multiplayer"],
        fig11_homophily=results["fig11_homophily"],
        sec7_cross_correlations=results["sec7_cross_correlations"],
        sec8_evolution=results.get("sec8_evolution"),
        sec9_achievements=results.get("sec9_achievements"),
        fig12_week_panel=results.get("fig12_week_panel"),
    )


@dataclass
class SteamStudy:
    """Generate → (optionally crawl) → analyze → report."""

    world: SteamWorld | None
    _dataset: SteamDataset = field(repr=False)
    #: Execution summary of the most recent ``run`` (stages executed vs
    #: cached, per-stage timings, cache stats).
    last_engine_run: EngineRun | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def generate(
        cls,
        n_users: int = 100_000,
        seed: int = 1603,
        config: WorldConfig | None = None,
        obs: Obs | None = None,
    ) -> "SteamStudy":
        """Build a synthetic world at the requested scale."""
        if config is None:
            config = WorldConfig(n_users=n_users, seed=seed)
        world = SteamWorld.generate(config, obs=obs)
        return cls(world=world, _dataset=world.dataset)

    @classmethod
    def from_dataset(cls, dataset: SteamDataset) -> "SteamStudy":
        """Analyze an existing dataset (e.g. one produced by the crawler)."""
        return cls(world=None, _dataset=dataset)

    @property
    def dataset(self) -> SteamDataset:
        return self._dataset

    def crawl(self, **crawler_kwargs) -> "SteamStudy":
        """Re-collect the dataset through the simulated API + crawler.

        Returns a new study whose dataset was assembled from API
        responses, as in the paper's methodology.  Keyword arguments are
        forwarded to :func:`repro.crawler.runner.run_full_crawl`.
        """
        from repro.crawler.runner import run_full_crawl
        from repro.steamapi.service import SteamApiService
        from repro.steamapi.transport import InProcessTransport

        if self.world is None:
            raise ValueError("crawl requires a generated world")
        service = SteamApiService.from_world(self.world)
        transport = InProcessTransport(service)
        crawler_kwargs.setdefault("snapshot2", self._dataset.snapshot2)
        result = run_full_crawl(transport, **crawler_kwargs)
        return SteamStudy(world=self.world, _dataset=result.dataset)

    def run(
        self,
        include_table4: bool = True,
        include_week_panel: bool = True,
        table4_max_tail: int = 60_000,
        obs: Obs | None = None,
        jobs: int = 1,
        cache: StageCache | str | Path | None = None,
        engine_faults=None,
        stage_timeout: float | None = None,
        profile: bool = False,
    ) -> StudyReport:
        """Compute every table and figure.

        ``jobs`` > 1 runs independent stages across a process pool;
        ``cache`` (a :class:`repro.engine.StageCache` or a directory
        path) memoizes stage results across runs.  Both are pure
        accelerations: the report is byte-identical regardless — and so
        is crash recovery: ``engine_faults`` (a seeded
        :class:`repro.faults.FaultPlan` of engine specs, chaos tests
        only) makes
        workers crash/hang/stall, and the engine's retry machinery must
        still deliver the identical report.  ``stage_timeout`` arms the
        per-stage hung-worker watchdog.  ``obs`` records one span per
        stage under an ``analyze`` root — serial, parallel, and
        fault-recovery runs produce identical span trees — plus
        per-stage ``engine_stage_seconds`` histograms and cache
        hit/miss and recovery counters in every mode.  ``profile`` cProfiles every
        stage (serial or in workers) and exposes the top-N rows on
        ``last_engine_run.profiles``.
        """
        ds = self._dataset
        config = {
            "include_table4": include_table4,
            "include_week_panel": include_week_panel,
            "table4_max_tail": table4_max_tail,
            "table4_seed": 0,
        }
        aux: dict = {}
        if include_week_panel and self.world is not None:
            aux["week_panel"] = self.world.week_panel()
        if isinstance(cache, (str, Path)):
            cache = StageCache(Path(cache), obs=obs)
        graph = build_study_graph(ds, config, aux)
        engine = Engine(
            jobs=jobs,
            cache=cache,
            obs=obs,
            span_prefix="analyze:",
            faults=engine_faults,
            stage_timeout=stage_timeout,
            profile=profile,
        )
        with maybe_span(obs, "analyze", n_users=ds.n_users):
            run = engine.run(
                graph, StageContext(dataset=ds, config=config, aux=aux)
            )
        self.last_engine_run = run
        return assemble_report(run.results)
