"""Section 7: cross-attribute correlations and friendship homophily.

The paper reports Spearman correlations between pairs of a user's own
attributes, and — the stronger effect — between a user's attribute and
the *average* of that attribute over their friends (Figure 11 shows the
market-value case, rho = 0.77).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.core.spearman import spearman, strength_label
from repro.engine import Stage, StageContext
from repro.store.dataset import SteamDataset

__all__ = [
    "HOMOPHILY_ATTRIBUTES",
    "CROSS_PAIRS",
    "correlation_columns",
    "neighbor_mean",
    "CorrelationPart",
    "CorrelationSet",
    "cross_correlation_pair",
    "cross_correlations",
    "merge_cross_correlations",
    "HomophilyResult",
    "homophily_attribute",
    "homophily",
    "merge_homophily",
    "homophily_stages",
]

#: Cache-invalidation handle for the engine (see DESIGN.md §8).
STAGE_VERSION = "2"

#: Attributes with a friends'-average correlation (Section 7 order);
#: also the valid ``<attr>`` values of the ``/homophily/<attr>`` route.
HOMOPHILY_ATTRIBUTES = (
    "market_value",
    "friends",
    "total_playtime",
    "owned_games",
)

#: Section 7's cross-attribute pairs, in the paper's render order.  The
#: flag marks pairs where a zero second attribute still counts (a zero
#: two-week playtime is itself informative behavior).
CROSS_PAIRS = (
    ("owned_games", "friends", False),
    ("owned_games", "twoweek_playtime", True),
    ("owned_games", "total_playtime", False),
    ("friends", "twoweek_playtime", True),
    ("friends", "total_playtime", False),
)

#: Dataset columns behind each correlation attribute (``friend_counts``
#: reads the edge endpoints, never ``fr.day``).
_ATTRIBUTE_COLUMNS = {
    "market_value": ("lib.indptr", "lib.indices", "cat.price_cents"),
    "friends": ("fr.u", "fr.v"),
    "total_playtime": ("lib.indptr", "lib.total_min"),
    "twoweek_playtime": ("lib.indptr", "lib.twoweek_min"),
    "owned_games": ("lib.indptr",),
}


def correlation_columns(*names: str) -> tuple[str, ...]:
    """The dataset columns a correlation over ``names`` reads, in
    first-seen order (an engine stage's ``columns`` declaration)."""
    return tuple(
        dict.fromkeys(c for name in names for c in _ATTRIBUTE_COLUMNS[name])
    )


def _attribute_values(dataset: SteamDataset, name: str) -> np.ndarray:
    """One per-user attribute column as float64 (shared by both tables)."""
    if name == "market_value":
        return dataset.market_value_dollars()
    if name == "friends":
        return dataset.friend_counts().astype(np.float64)
    if name == "total_playtime":
        return dataset.total_playtime_hours()
    if name == "twoweek_playtime":
        return dataset.twoweek_playtime_hours()
    if name == "owned_games":
        return dataset.owned_counts().astype(np.float64)
    raise KeyError(name)


def neighbor_mean(dataset: SteamDataset, values: np.ndarray) -> np.ndarray:
    """Average of ``values`` over each user's friends (nan if none)."""
    friends = dataset.friends
    sums = np.zeros(dataset.n_users, dtype=np.float64)
    np.add.at(sums, friends.u, values[friends.v])
    np.add.at(sums, friends.v, values[friends.u])
    degree = dataset.friend_counts()
    out = np.full(dataset.n_users, np.nan)
    has = degree > 0
    out[has] = sums[has] / degree[has]
    return out


@dataclass(frozen=True)
class CorrelationSet:
    """Named Spearman correlations with the paper's reference values."""

    rhos: dict[str, float]
    paper: dict[str, float]
    populations: dict[str, int]

    def attribute_entry(self, attribute: str) -> dict:
        """One attribute's homophily row as a JSON-shaped dict.

        ``attribute`` is a :data:`HOMOPHILY_ATTRIBUTES` name; raises
        :class:`KeyError` for anything else.  NaN correlations (too few
        engaged users to rank) surface as ``None`` so the payload stays
        valid JSON.
        """
        key = f"{attribute} vs friends' avg"
        if key not in self.rhos:
            raise KeyError(attribute)
        rho = self.rhos[key]
        defined = math.isfinite(rho)
        return {
            "attribute": attribute,
            "rho": rho if defined else None,
            "strength": strength_label(rho) if defined else None,
            "paper_rho": self.paper.get(key),
            "population": self.populations[key],
        }

    def render(self) -> str:
        lines = [f"{'pair':<28} {'rho':>7} {'paper':>7}  strength"]
        for name, rho in self.rhos.items():
            ref = self.paper.get(name, float("nan"))
            lines.append(
                f"{name:<28} {rho:>+7.2f} {ref:>+7.2f}  {strength_label(rho)}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CorrelationPart:
    """One correlation row, computed independently of the others.

    The unit of work for the engine's ``fig11:<attr>`` / ``sec7:<pair>``
    shard stages: each shard reads only the columns its own pair needs,
    and the merge stage reassembles the full :class:`CorrelationSet`
    in render order.
    """

    key: str
    rho: float
    population: int
    paper_rho: float
    #: Figure 11 scatter sample; only the market-value homophily part
    #: carries one.
    scatter_x: np.ndarray | None = None
    scatter_y: np.ndarray | None = None


def cross_correlation_pair(
    dataset: SteamDataset, name_a: str, name_b: str
) -> CorrelationPart:
    """One Section 7 cross-attribute correlation (a :data:`CROSS_PAIRS`
    entry), over users engaged on both axes."""
    zero_ok = {(a, b): flag for a, b, flag in CROSS_PAIRS}[(name_a, name_b)]
    a = _attribute_values(dataset, name_a)
    b = _attribute_values(dataset, name_b)
    mask = (a > 0) & ((b > 0) | zero_ok)
    return CorrelationPart(
        key=f"{name_a} vs {name_b}",
        rho=(
            spearman(a[mask], b[mask]) if mask.sum() > 2 else float("nan")
        ),
        population=int(mask.sum()),
        paper_rho=constants.CROSS_CORRELATIONS[(name_a, name_b)],
    )


def merge_cross_correlations(parts) -> CorrelationSet:
    """Per-pair parts (in :data:`CROSS_PAIRS` order) -> the full set."""
    return CorrelationSet(
        rhos={p.key: p.rho for p in parts},
        paper={p.key: p.paper_rho for p in parts},
        populations={p.key: p.population for p in parts},
    )


def cross_correlations(dataset: SteamDataset) -> CorrelationSet:
    """Section 7's five cross-attribute correlations.

    Computed over users engaged on both axes (nonzero on both attributes;
    the two-week rows only require the *other* attribute to be nonzero,
    since a zero two-week playtime is itself informative behavior).
    """
    return merge_cross_correlations(
        [
            cross_correlation_pair(dataset, name_a, name_b)
            for name_a, name_b, _ in CROSS_PAIRS
        ]
    )


@dataclass(frozen=True)
class HomophilyResult:
    """Section 7 / Figure 11: attribute vs friends'-average correlations."""

    correlations: CorrelationSet
    #: Scatter sample for the Figure 11 plot (market value case).
    scatter_x: np.ndarray
    scatter_y: np.ndarray

    def render(self) -> str:
        return self.correlations.render()


def homophily_attribute(
    dataset: SteamDataset,
    name: str,
    scatter_sample: int = 5_000,
    seed: int = 0,
) -> CorrelationPart:
    """One attribute's self-vs-friends'-average correlation.

    The market-value part also draws the Figure 11 scatter sample.  A
    fresh ``default_rng(seed)`` here reproduces the historical serial
    loop exactly: that loop created one generator up front, and
    market value — the only consumer — was the first attribute, so the
    draws came from a pristine generator state either way.
    """
    values = _attribute_values(dataset, name)
    friend_avg = neighbor_mean(dataset, values)
    mask = (dataset.friend_counts() > 0) & np.isfinite(friend_avg)
    scatter_x = scatter_y = None
    if name == "market_value" and mask.sum() > 0:
        rng = np.random.default_rng(seed)
        idx = np.flatnonzero(mask)
        take = rng.choice(
            idx, size=min(scatter_sample, len(idx)), replace=False
        )
        scatter_x = values[take]
        scatter_y = friend_avg[take]
    return CorrelationPart(
        key=f"{name} vs friends' avg",
        rho=(
            spearman(values[mask], friend_avg[mask])
            if mask.sum() > 2
            else float("nan")
        ),
        population=int(mask.sum()),
        paper_rho=constants.HOMOPHILY_CORRELATIONS[name],
        scatter_x=scatter_x,
        scatter_y=scatter_y,
    )


def merge_homophily(parts) -> HomophilyResult:
    """Per-attribute parts (in :data:`HOMOPHILY_ATTRIBUTES` order) ->
    the full Figure 11 result."""
    scatter_x = np.empty(0)
    scatter_y = np.empty(0)
    for part in parts:
        if part.scatter_x is not None:
            scatter_x, scatter_y = part.scatter_x, part.scatter_y
    return HomophilyResult(
        correlations=CorrelationSet(
            rhos={p.key: p.rho for p in parts},
            paper={p.key: p.paper_rho for p in parts},
            populations={p.key: p.population for p in parts},
        ),
        scatter_x=scatter_x,
        scatter_y=scatter_y,
    )


def homophily(
    dataset: SteamDataset, scatter_sample: int = 5_000, seed: int = 0
) -> HomophilyResult:
    """Section 7's four homophily correlations (Figure 11 for value)."""
    return merge_homophily(
        [
            homophily_attribute(dataset, name, scatter_sample, seed)
            for name in HOMOPHILY_ATTRIBUTES
        ]
    )


def _stage_attribute(ctx: StageContext, attr: str) -> CorrelationPart:
    return homophily_attribute(ctx.dataset, attr)


def _stage_merge(
    ctx: StageContext, attrs: tuple[str, ...]
) -> HomophilyResult:
    return merge_homophily([ctx.dep(f"fig11:{attr}") for attr in attrs])


def homophily_stages() -> list[Stage]:
    """Figure 11 as engine stages: one ``fig11:<attr>`` shard per
    :data:`HOMOPHILY_ATTRIBUTES` entry, each keyed on just its own
    columns plus the friend edges (every shard averages over friends),
    and the ``fig11_homophily`` merge, which reads only its deps.  The
    same stages in any graph have the same cache keys."""
    this = sys.modules[__name__]
    stages = [
        Stage(
            name=f"fig11:{attr}",
            fn=_stage_attribute,
            params=(("attr", attr),),
            modules=(this,),
            version=STAGE_VERSION,
            columns=correlation_columns("friends", attr),
        )
        for attr in HOMOPHILY_ATTRIBUTES
    ]
    stages.append(
        Stage(
            name="fig11_homophily",
            fn=_stage_merge,
            params=(("attrs", HOMOPHILY_ATTRIBUTES),),
            deps=tuple(f"fig11:{attr}" for attr in HOMOPHILY_ATTRIBUTES),
            modules=(this,),
            version=STAGE_VERSION,
            columns=(),  # reads only its deps; their keys are folded
        )
    )
    return stages
