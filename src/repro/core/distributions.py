"""Table 4: heavy-tail classification of every measured distribution.

:func:`table4_row_names` enumerates the rows a dataset yields, and
:func:`classify_row` classifies one row with its own deterministic RNG
(seeded from the study seed and the row name), so rows are independent
and their results cacheable per row.  :func:`table4_row_stage` declares
one row as an engine stage: the study graph and the serving store both
build their row stages with it, so on a shared stage cache each tail is
fitted once.
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro import constants
from repro.core.percentiles import ATTRIBUTE_COLUMNS, ATTRIBUTE_VALUES
from repro.engine import Stage, StageContext
from repro.store.dataset import SteamDataset
from repro.tailfit import ClassificationResult, classify
from repro.tailfit import fits as fits_mod

__all__ = [
    "ATTRIBUTE_ROWS",
    "MIN_ROW_POPULATION",
    "Table4",
    "table4_row_names",
    "table4_row_stage",
    "classify_row",
]

#: Cache-invalidation handle for the engine (see DESIGN.md §8).
STAGE_VERSION = "1"

#: Tail-sample cap for the LR tests (fits are O(n) but the lognormal /
#: truncated-power-law optimizations dominate; 60k points is plenty for
#: stable classifications at our scales).
_MAX_TAIL = 60_000

#: Fewest positive observations a row needs to be classified; smaller
#: samples, like samples of one distinct value, yield no row (and a 404
#: from ``/tailfit/<attr>``).
MIN_ROW_POPULATION = 100

#: The row that classifies each Table 3 attribute, the one tail fit that
#: both Table 4 and ``/tailfit/<attr>`` report.
ATTRIBUTE_ROWS = {
    "friends": "friendship (all)",
    "owned_games": "game ownership",
    "group_memberships": "group membership per user",
    "market_value": "account market values",
    "total_playtime_hours": "total playtime",
    "twoweek_playtime_hours": "two-week playtime",
}


@dataclass(frozen=True)
class Table4:
    """All classification rows, keyed like the paper's Table 4."""

    rows: dict[str, ClassificationResult]

    def labels(self) -> dict[str, str]:
        return {name: result.label for name, result in self.rows.items()}

    def render(self) -> str:
        header = (
            f"{'distribution':<42} {'PLvExp R':>10} {'p':>8} "
            f"{'PLvLN R':>10} {'p':>8} {'TPLvPL R':>10} {'p':>8} "
            f"{'TPLvLN R':>10} {'p':>8}  classification"
        )
        lines = [header, "-" * len(header)]
        for name, r in self.rows.items():
            lines.append(
                f"{name:<42} "
                f"{_ratio(r.pl_vs_exp.R):>10} {r.pl_vs_exp.p:>8.1e} "
                f"{_ratio(r.pl_vs_ln.R):>10} {r.pl_vs_ln.p:>8.1e} "
                f"{_ratio(r.tpl_vs_pl.R):>10} {r.tpl_vs_pl.p:>8.1e} "
                f"{_ratio(r.tpl_vs_ln.R):>10} {r.tpl_vs_ln.p:>8.1e}  {r.label}"
            )
        return "\n".join(lines)


def _ratio(value: float) -> str:
    """One decimal of a likelihood ratio, with no sign on a zero: a nested
    ratio of ±1e-10 (TPL collapsed onto the power law) takes its sign
    from summation order alone."""
    text = f"{value:.1f}"
    return "0.0" if text == "-0.0" else text


def _friendship_years(dataset: SteamDataset) -> np.ndarray:
    """Calendar year of every friendship-formation timestamp."""
    launch = np.datetime64(constants.STEAM_LAUNCH.isoformat())
    return (
        launch + dataset.friends.day.astype("timedelta64[D]")
    ).astype("datetime64[Y]").astype(int) + 1970


def _row_specs(
    dataset: SteamDataset,
) -> Iterator[tuple[str, Callable[[], np.ndarray]]]:
    """Every Table 4 row a dataset yields, lazily, in the paper's order.

    Yields ``(name, values_thunk)`` so enumerating names (to build the
    engine's shard stages) does not compute any values.
    """

    def attribute(name: str) -> tuple[str, Callable[[], np.ndarray]]:
        return ATTRIBUTE_ROWS[name], partial(ATTRIBUTE_VALUES[name], dataset)

    yield attribute("market_value")
    yield attribute("total_playtime_hours")
    yield attribute("twoweek_playtime_hours")
    yield attribute("owned_games")
    yield (
        "played game ownership",
        lambda: dataset.played_counts().astype(np.float64),
    )
    yield (
        "group size",
        lambda: dataset.groups.sizes().astype(np.float64),
    )
    yield attribute("group_memberships")
    yield attribute("friends")

    if dataset.friends.n_edges:
        friends = dataset.friends

        def cumulative_degrees(year: int) -> np.ndarray:
            mask = _friendship_years(dataset) <= year
            return np.bincount(
                np.concatenate([friends.u[mask], friends.v[mask]]),
                minlength=dataset.n_users,
            ).astype(np.float64)

        def yearly_degrees(year: int) -> np.ndarray:
            mask = _friendship_years(dataset) == year
            return np.bincount(
                np.concatenate([friends.u[mask], friends.v[mask]]),
                minlength=dataset.n_users,
            ).astype(np.float64)

        last_year = int(_friendship_years(dataset).max())
        for year in range(2009, last_year + 1):
            yield (
                f"friendship (through {year})",
                lambda y=year: cumulative_degrees(y),
            )
            yield (
                f"friendship ({year} only)",
                lambda y=year: yearly_degrees(y),
            )

    if dataset.snapshot2 is not None:
        s2 = dataset.snapshot2
        yield (
            "account market values (second snapshot)",
            lambda: s2.value_cents.astype(np.float64) / 100.0,
        )
        yield (
            "total playtime (second snapshot)",
            lambda: s2.total_min.astype(np.float64) / 60.0,
        )
        yield (
            "two-week playtime (second snapshot)",
            lambda: s2.twoweek_min.astype(np.float64) / 60.0,
        )
        yield (
            "game ownership (second snapshot)",
            lambda: s2.owned.astype(np.float64),
        )
        yield (
            "played game ownership (second snapshot)",
            lambda: s2.played.astype(np.float64),
        )


def table4_row_names(dataset: SteamDataset) -> tuple[str, ...]:
    """Names of every row Table 4 would attempt, in render order.

    Rows whose populations turn out too small still appear here — the
    engine's merge stage drops the ``None`` results — so the shard set
    depends only on cheap dataset facts (years present, snapshot2).
    """
    return tuple(name for name, _ in _row_specs(dataset))


def classify_row(
    dataset: SteamDataset,
    name: str,
    max_tail: int = _MAX_TAIL,
    seed: int = 0,
) -> ClassificationResult | None:
    """Classify one named Table 4 row, independently of all others.

    Each row gets its own RNG seeded from ``(seed, crc32(name))``, so a
    row's classification never depends on which other rows ran or in
    what order — the property that makes row-sharded parallel execution
    and per-row caching deterministic.  (The RNG only matters when the
    tail is subsampled, i.e. above ``max_tail`` points.)
    """
    for row_name, values_fn in _row_specs(dataset):
        if row_name == name:
            values = values_fn()
            positive = values[values > 0]
            # Too few points, or one value repeated: no tail to classify.
            if (
                len(positive) < MIN_ROW_POPULATION
                or positive.min() == positive.max()
            ):
                return None
            rng = np.random.default_rng(
                [seed, zlib.crc32(name.encode("utf-8"))]
            )
            return classify(positive, max_tail=max_tail, rng=rng)
    raise KeyError(f"unknown Table 4 row {name!r}")


# Rows read narrow slices, so each stage declares its own columns; the
# six attribute rows read exactly their attribute's columns.
_ROW_COLUMNS = {
    **{row: ATTRIBUTE_COLUMNS[attr] for attr, row in ATTRIBUTE_ROWS.items()},
    "played game ownership": ("lib.indptr", "lib.total_min"),
    "group size": ("gr.indptr",),
    "account market values (second snapshot)": ("s2.value_cents",),
    "total playtime (second snapshot)": ("s2.total_min",),
    "two-week playtime (second snapshot)": ("s2.twoweek_min",),
    "game ownership (second snapshot)": ("s2.owned",),
    "played game ownership (second snapshot)": ("s2.played",),
}


def _row_columns(row: str) -> tuple[str, ...] | None:
    if row in _ROW_COLUMNS:
        return _ROW_COLUMNS[row]
    if row.startswith("friendship"):  # through-year / year-only cuts
        return ("fr",)
    # Unmapped: whole-dataset keying (always sound, never a delta hit).
    return None


def _stage_row(ctx: StageContext, row: str) -> ClassificationResult | None:
    return classify_row(
        ctx.dataset,
        row,
        max_tail=ctx.config["table4_max_tail"],
        seed=ctx.config["table4_seed"],
    )


def table4_row_stage(row: str) -> Stage:
    """One Table 4 row as an engine stage, keyed on the row's columns and
    the ``table4_max_tail``/``table4_seed`` config: the same row in any
    graph run with the same config has the same cache key."""
    return Stage(
        name=f"table4:{row}",
        fn=_stage_row,
        params=(("row", row),),
        config_keys=("table4_max_tail", "table4_seed"),
        modules=(
            sys.modules[__name__],
            sys.modules[classify.__module__],
            fits_mod,
        ),
        version=STAGE_VERSION,
        columns=_row_columns(row),
    )
