"""Seeded inputs: synthetic worlds and the serving request mix.

Everything here is a pure function of the benchmark seed (and of the
seeded world), so the same seed gives the same worlds, evolution steps
and request sequences.
"""

from __future__ import annotations

from typing import NamedTuple
from urllib.parse import urlencode

import numpy as np

#: The routes of ``benchmarks/bench_serving.py``'s per-client mix, each
#: drawn with probability 1/6; the last slot is split between a tail
#: fit and a homophily read, as that mix alternates them by client.
ROUTES = ("summary", "neighborhood", "app_stats", "percentile", "rank",
          "tailfit_or_homophily")


class Keys(NamedTuple):
    """User and app keys with their read weights."""

    steamids: np.ndarray
    user_weights: np.ndarray
    appids: np.ndarray
    app_weights: np.ndarray


def world_config(seed: int, n_users: int, n_products: int):
    """A seeded world whose catalog is scaled to its population.

    The paper's catalog (6,156 products) next to a few thousand users
    would make the per-product crawl phases 80 % of every crawl; the
    real crawl was dominated by its 108.7 M accounts.  A catalog about
    a tenth of the population keeps per-user requests the bulk.
    """
    from repro import WorldConfig
    from repro.simworld.config import CatalogConfig

    return WorldConfig(
        n_users=n_users,
        seed=seed,
        catalog=CatalogConfig(n_products=n_products),
    )


def key_popularity(dataset) -> Keys:
    """Read weights taken from the world's own heavy tails.

    A user is read in proportion to friends + 1 (a profile is looked
    up by the people linked to it) and an app in proportion to owners
    + 1, so the skew of the reads is the skew of the generated degree
    and ownership distributions, not a chosen exponent.
    """
    owners = np.bincount(dataset.library.owned.indices,
                         minlength=dataset.n_products)
    return Keys(
        np.asarray(dataset.accounts.steamids()),
        dataset.friend_counts().astype(np.float64) + 1.0,
        np.asarray(dataset.catalog.appid),
        owners.astype(np.float64) + 1.0,
    )


def _draw(rng: np.random.Generator, weights: np.ndarray, size: int):
    """``size`` indices drawn with probability proportional to ``weights``."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                      len(weights) - 1)


def request_stream(seed: int, stream: int, keys: Keys, chunk: int = 2048):
    """An endless seeded sequence of ``(path, params)`` serving requests.

    Routes follow :data:`ROUTES`; user and app keys are drawn by their
    :class:`Keys` weights; ``q`` and ``value`` cover the same ranges as
    ``bench_serving`` (0-100 and 1-50).  ``stream`` separates clients:
    each gets its own sequence from the same seed.  Params are strings,
    as the HTTP server hands them to ``dispatch``.
    """
    rng = np.random.default_rng([seed, stream])
    while True:
        yield from _request_chunk(rng, keys, chunk)


def _request_chunk(rng, keys: Keys, n: int) -> list:
    routes = rng.integers(0, len(ROUTES), n)
    users = keys.steamids[_draw(rng, keys.user_weights, n)]
    apps = keys.appids[_draw(rng, keys.app_weights, n)]
    qs = rng.integers(0, 101, n)
    values = rng.integers(1, 51, n)
    homophily = rng.integers(0, 2, n)
    out = []
    for i in range(n):
        route = routes[i]
        if route == 0:
            out.append((f"/users/{users[i]}/summary", {}))
        elif route == 1:
            out.append((f"/users/{users[i]}/neighborhood", {"limit": "10"}))
        elif route == 2:
            out.append((f"/apps/{apps[i]}/stats", {}))
        elif route == 3:
            out.append(("/distributions/friends/percentile", {"q": str(qs[i])}))
        elif route == 4:
            out.append(
                ("/distributions/owned_games/rank", {"value": str(values[i])})
            )
        elif homophily[i]:
            out.append(("/homophily/market_value", {}))
        else:
            out.append(("/tailfit/owned_games", {}))
    return out


def url_of(path: str, params: dict) -> str:
    return f"{path}?{urlencode(params)}" if params else path
