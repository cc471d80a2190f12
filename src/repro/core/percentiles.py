"""Table 3: percentiles of the major behavioral attributes.

Each row is computed over the users with a nonzero value of that
attribute (the population reconciliation that makes Table 3 consistent
with the paper's aggregate totals — see DESIGN.md), except the two-week
playtime row, which the paper reports over game owners (its 50th and 80th
percentiles are 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import constants
from repro.store.dataset import SteamDataset

__all__ = [
    "ATTRIBUTES",
    "ATTRIBUTE_COLUMNS",
    "ATTRIBUTE_VALUES",
    "PercentileRow",
    "PercentileTable",
    "attribute_values",
    "percentile_table",
    "percentile_value",
    "percentile_rank",
]

#: Cache-invalidation handle for the engine (see DESIGN.md §8).
STAGE_VERSION = "1"

PERCENTILES = constants.TABLE3_PERCENTILES

#: The queryable behavioral attributes, in Table 3's row order.  This
#: is the one registry shared by the table reproduction and the
#: analytics serving tier's distribution indexes.
ATTRIBUTES = (
    "friends",
    "owned_games",
    "group_memberships",
    "market_value",
    "total_playtime_hours",
    "twoweek_playtime_hours",
)

#: Dataset columns each attribute's value vector reads (dotted keys of
#: ``SteamDataset.iter_columns``).  This backs both the engine's
#: column-scoped cache keys for the per-attribute serving stages and
#: the serving tier's delta-driven response-cache eviction: a delta
#: whose changed columns miss an attribute's set leaves that
#: attribute's indexes and cached responses valid.
ATTRIBUTE_COLUMNS: dict[str, tuple[str, ...]] = {
    "friends": ("fr.u", "fr.v"),
    "owned_games": ("lib.indptr",),
    "group_memberships": ("gr.indptr", "gr.indices"),
    "market_value": ("lib.indptr", "lib.indices", "cat.price_cents"),
    "total_playtime_hours": ("lib.indptr", "lib.total_min"),
    "twoweek_playtime_hours": ("lib.indptr", "lib.twoweek_min"),
}


def _counts(method: Callable[[SteamDataset], np.ndarray]):
    return lambda dataset: method(dataset).astype(np.float64)


#: Per-user value vector of each attribute, one function per attribute,
#: so a stage that serves one attribute computes only that vector.
ATTRIBUTE_VALUES: dict[str, Callable[[SteamDataset], np.ndarray]] = {
    "friends": _counts(SteamDataset.friend_counts),
    "owned_games": _counts(SteamDataset.owned_counts),
    "group_memberships": _counts(SteamDataset.membership_counts),
    "market_value": SteamDataset.market_value_dollars,
    "total_playtime_hours": SteamDataset.total_playtime_hours,
    "twoweek_playtime_hours": SteamDataset.twoweek_playtime_hours,
}


def attribute_values(dataset: SteamDataset) -> dict[str, np.ndarray]:
    """Per-user value vector for every attribute in :data:`ATTRIBUTES`."""
    return {name: values(dataset) for name, values in ATTRIBUTE_VALUES.items()}


def percentile_value(values: np.ndarray, q: float) -> float:
    """Value at percentile ``q`` of a nonempty sample, strictly checked.

    This is the validation boundary behind every public percentile
    lookup (``/distributions/<attr>/percentile``): ``q`` outside
    ``[0, 100]`` or NaN, and an *empty* sample (an empty dataset, or a
    single-user dataset with no nonzero values of the attribute) each
    raise :class:`ValueError` with a message naming the problem —
    never a bare ``ZeroDivisionError``/``IndexError`` from deep inside
    numpy.
    """
    q = float(q)
    if math.isnan(q):
        raise ValueError("percentile q must be a number in [0, 100], not NaN")
    if q < 0.0 or q > 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q:g}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError(
            "cannot take a percentile of an empty population"
        )
    return float(np.percentile(values, q))


def percentile_rank(sorted_values: np.ndarray, value: float) -> float:
    """Percentile rank of ``value`` within ascending ``sorted_values``.

    The inverse of :func:`percentile_value`: the share (0–100) of the
    population with a value ``<= value``.  Same validation contract:
    empty populations and NaN probes raise :class:`ValueError`.
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError("rank probe value must be a number, not NaN")
    sorted_values = np.asarray(sorted_values, dtype=np.float64)
    if sorted_values.size == 0:
        raise ValueError(
            "cannot rank a value in an empty population"
        )
    below = int(np.searchsorted(sorted_values, value, side="right"))
    return 100.0 * below / sorted_values.size


@dataclass(frozen=True)
class PercentileRow:
    """One attribute's percentile values (ordered like Table 3)."""

    attribute: str
    values: tuple[float, ...]
    population: int
    paper: tuple[float, ...] | None = None

    def as_dict(self) -> dict[str, float]:
        return dict(zip((f"p{p}" for p in PERCENTILES), self.values))


@dataclass(frozen=True)
class PercentileTable:
    """The full Table 3 reproduction."""

    rows: tuple[PercentileRow, ...]

    def row(self, attribute: str) -> PercentileRow:
        for row in self.rows:
            if row.attribute == attribute:
                return row
        raise KeyError(attribute)

    def render(self) -> str:
        # Label column sized to the longest attribute (plus a gap): a
        # fixed 24-char ljust overflows for names >= 24 chars and
        # shifts every value cell in that row out of alignment.
        label_width = max(
            24,
            max((len(row.attribute) for row in self.rows), default=0) + 2,
        )
        header = "attribute".ljust(label_width) + "".join(
            f"{'p' + str(p):>12}" for p in PERCENTILES
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                row.attribute.ljust(label_width)
                + "".join(f"{v:12.2f}" for v in row.values)
            )
            if row.paper is not None:
                lines.append(
                    "  (paper)".ljust(label_width)
                    + "".join(f"{v:12.2f}" for v in row.paper)
                )
        return "\n".join(lines)


def _nonzero_percentiles(values: np.ndarray) -> tuple[tuple[float, ...], int]:
    positive = values[values > 0]
    if len(positive) == 0:
        return tuple(0.0 for _ in PERCENTILES), 0
    return (
        tuple(float(np.percentile(positive, p)) for p in PERCENTILES),
        len(positive),
    )


def percentile_table(dataset: SteamDataset) -> PercentileTable:
    """Reproduce Table 3 from a dataset."""
    owners = dataset.owned_counts() > 0
    rows = []
    values_by_name = attribute_values(dataset)
    for name in ATTRIBUTES[:-1]:  # twoweek row has its own population
        values = values_by_name[name]
        pct, population = _nonzero_percentiles(values)
        rows.append(
            PercentileRow(
                attribute=name,
                values=pct,
                population=population,
                paper=tuple(float(v) for v in constants.TABLE3[name]),
            )
        )
    # Two-week playtime: over owners, zeros included (the paper's row).
    twoweek = values_by_name["twoweek_playtime_hours"][owners]
    if len(twoweek):
        values = tuple(float(np.percentile(twoweek, p)) for p in PERCENTILES)
    else:
        values = tuple(0.0 for _ in PERCENTILES)
    rows.append(
        PercentileRow(
            attribute="twoweek_playtime_hours",
            values=values,
            population=int(owners.sum()),
            paper=tuple(
                float(v) for v in constants.TABLE3["twoweek_playtime_hours"]
            ),
        )
    )
    return PercentileTable(rows=tuple(rows))
