"""Table 4: heavy-tail classification of every measured distribution.

Besides the monolithic :func:`classify_distributions` (one call, one
shared subsampling RNG), this module exposes the row-sharded view the
analysis engine parallelizes over: :func:`table4_row_names` enumerates
the rows a dataset yields, and :func:`classify_row` classifies one row
with its own deterministic RNG (seeded from the study seed and the row
name), so rows are independent and their results cacheable per row.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro import constants
from repro.store.dataset import SteamDataset
from repro.tailfit import ClassificationResult, classify

__all__ = [
    "Table4",
    "classify_distributions",
    "table4_row_names",
    "classify_row",
]

#: Cache-invalidation handle for the engine (see DESIGN.md §8).
STAGE_VERSION = "1"

#: Tail-sample cap for the LR tests (fits are O(n) but the lognormal /
#: truncated-power-law optimizations dominate; 60k points is plenty for
#: stable classifications at our scales).
_MAX_TAIL = 60_000


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
    include_snapshot2: bool = True,
    include_yearly_friendships: bool = True,
) -> Iterator[tuple[str, Callable[[], np.ndarray]]]:
    """Every Table 4 row a dataset yields, lazily, in the paper's order.

    Yields ``(name, values_thunk)`` so enumerating names (to build the
    engine's shard stages) does not compute any values.
    """
    yield "account market values", dataset.market_value_dollars
    yield "total playtime", dataset.total_playtime_hours
    yield "two-week playtime", dataset.twoweek_playtime_hours
    yield (
        "game ownership",
        lambda: dataset.owned_counts().astype(np.float64),
    )
    yield (
        "played game ownership",
        lambda: dataset.played_counts().astype(np.float64),
    )
    yield (
        "group size",
        lambda: dataset.groups.sizes().astype(np.float64),
    )
    yield (
        "group membership per user",
        lambda: dataset.membership_counts().astype(np.float64),
    )
    yield (
        "friendship (all)",
        lambda: dataset.friend_counts().astype(np.float64),
    )

    if include_yearly_friendships and dataset.friends.n_edges:
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

    if include_snapshot2 and dataset.snapshot2 is not None:
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


def table4_row_names(
    dataset: SteamDataset,
    include_snapshot2: bool = True,
    include_yearly_friendships: bool = True,
) -> tuple[str, ...]:
    """Names of every row Table 4 would attempt, in render order.

    Rows whose populations turn out too small still appear here — the
    engine's merge stage drops the ``None`` results — so the shard set
    depends only on cheap dataset facts (years present, snapshot2).
    """
    return tuple(
        name
        for name, _ in _row_specs(
            dataset, include_snapshot2, include_yearly_friendships
        )
    )


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
            if len(positive) < 100:
                return None
            rng = np.random.default_rng(
                [seed, zlib.crc32(name.encode("utf-8"))]
            )
            return classify(positive, max_tail=max_tail, rng=rng)
    raise KeyError(f"unknown Table 4 row {name!r}")


def classify_distributions(
    dataset: SteamDataset,
    include_snapshot2: bool = True,
    include_yearly_friendships: bool = True,
    max_tail: int = _MAX_TAIL,
    seed: int = 0,
) -> Table4:
    """Reproduce Table 4 (both snapshots, plus yearly friendship cuts).

    This is the monolithic path: one RNG shared across rows in row
    order (the historical behavior).  The engine instead runs one
    :func:`classify_row` stage per row; the two agree exactly whenever
    no tail exceeds ``max_tail`` (no subsampling, no RNG draws).
    """
    rng = np.random.default_rng(seed)
    rows: dict[str, ClassificationResult] = {}
    for name, values_fn in _row_specs(
        dataset, include_snapshot2, include_yearly_friendships
    ):
        values = values_fn()
        positive = values[values > 0]
        if len(positive) < 100:
            continue
        rows[name] = classify(positive, max_tail=max_tail, rng=rng)
    return Table4(rows=rows)
