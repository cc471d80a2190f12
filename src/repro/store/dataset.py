"""The :class:`SteamDataset` container — everything the crawl produced."""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro import constants
from repro.store.tables import (
    AccountTable,
    AchievementTable,
    CatalogTable,
    FriendTable,
    GroupTable,
    LibraryTable,
    Snapshot2Table,
)

__all__ = ["SteamDataset", "DatasetMeta"]

#: Cache-invalidation handle for the engine (see DESIGN.md §8).
STAGE_VERSION = "1"


@dataclass(frozen=True)
class DatasetMeta:
    """Collection-level metadata carried alongside the tables."""

    snapshot1_day: int = field(
        default_factory=lambda: constants.days_since_launch(
            constants.DETAIL_CRAWL_END
        )
    )
    snapshot2_day: int = field(
        default_factory=lambda: constants.days_since_launch(
            constants.SNAPSHOT2_END
        )
    )
    friend_ts_epoch_day: int = field(
        default_factory=lambda: constants.days_since_launch(
            constants.FRIEND_TIMESTAMPS_START
        )
    )
    seed: int = 0
    scale_note: str = ""
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class SteamDataset:
    """All collected Steam data for one study.

    Produced either directly by :class:`repro.simworld.world.SteamWorld`
    or by the crawler reassembling API responses; consumed by every
    analysis in :mod:`repro.core`.
    """

    accounts: AccountTable
    friends: FriendTable
    groups: GroupTable
    catalog: CatalogTable
    library: LibraryTable
    achievements: AchievementTable | None = None
    snapshot2: Snapshot2Table | None = None
    meta: DatasetMeta = field(default_factory=DatasetMeta)
    #: Memoized content hash; assumes tables are not mutated afterwards.
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memoized per-column hashes backing :meth:`column_fingerprints`.
    _column_fps: dict[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = self.accounts.n_users
        if self.friends.n_users != n:
            raise ValueError("friend table user count mismatch")
        if self.groups.n_users != n:
            raise ValueError("group table user count mismatch")
        if self.library.n_users != n:
            raise ValueError("library table user count mismatch")
        if (
            self.achievements is not None
            and self.achievements.n_products != self.catalog.n_products
        ):
            raise ValueError("achievement table product count mismatch")
        if self.snapshot2 is not None and self.snapshot2.n_users != n:
            raise ValueError("snapshot2 table user count mismatch")

    # -- convenience aggregates used across analyses ------------------------

    @property
    def n_users(self) -> int:
        return self.accounts.n_users

    @property
    def n_products(self) -> int:
        return self.catalog.n_products

    def friend_counts(self) -> np.ndarray:
        return self.friends.degrees()

    def owned_counts(self) -> np.ndarray:
        return self.library.owned_counts()

    def played_counts(self) -> np.ndarray:
        return self.library.played_counts()

    def total_playtime_hours(self) -> np.ndarray:
        return self.library.user_total_min() / 60.0

    def twoweek_playtime_hours(self) -> np.ndarray:
        return self.library.user_twoweek_min() / 60.0

    def market_value_dollars(self) -> np.ndarray:
        return (
            self.library.user_value_cents(self.catalog.price_cents) / 100.0
        )

    def membership_counts(self) -> np.ndarray:
        return self.groups.user_memberships().counts()

    # -- identity -----------------------------------------------------------

    def iter_columns(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every array column under its persistent dotted key.

        This is the single authoritative walk of the dataset's array
        content: :func:`repro.store.io.save_dataset` writes exactly
        these keys, one ``<key>.npy`` file each, and :meth:`fingerprint`
        hashes exactly them, so the on-disk format and the cache
        identity can never drift apart.
        """
        acc = self.accounts
        yield "acc.id_offset", acc.id_offset
        yield "acc.created_day", acc.created_day
        yield "acc.country", acc.country
        yield "acc.city", acc.city
        fr = self.friends
        yield "fr.u", fr.u
        yield "fr.v", fr.v
        yield "fr.day", fr.day
        gr = self.groups
        yield "gr.type", gr.group_type
        yield "gr.focus", gr.focus_game
        yield "gr.indptr", gr.members.indptr
        yield "gr.indices", gr.members.indices
        cat = self.catalog
        yield "cat.appid", cat.appid
        yield "cat.is_game", cat.is_game
        yield "cat.primary_genre", cat.primary_genre
        yield "cat.genre_mask", cat.genre_mask
        yield "cat.price_cents", cat.price_cents
        yield "cat.multiplayer", cat.multiplayer
        yield "cat.release_day", cat.release_day
        yield "cat.metacritic", cat.metacritic
        lib = self.library
        yield "lib.indptr", lib.owned.indptr
        yield "lib.indices", lib.owned.indices
        yield "lib.total_min", lib.total_min
        yield "lib.twoweek_min", lib.twoweek_min
        if self.achievements is not None:
            ach = self.achievements
            yield "ach.count", ach.count
            yield "ach.indptr", ach.indptr
            yield "ach.rates", ach.rates
        if self.snapshot2 is not None:
            s2 = self.snapshot2
            yield "s2.owned", s2.owned
            yield "s2.played", s2.played
            yield "s2.value_cents", s2.value_cents
            yield "s2.total_min", s2.total_min
            yield "s2.twoweek_min", s2.twoweek_min

    def meta_dict(self) -> dict[str, Any]:
        """The JSON-serializable metadata sidecar (no format version)."""
        return {
            "country_names": list(self.accounts.country_names),
            "genre_names": list(self.catalog.genre_names),
            "snapshot1_day": self.meta.snapshot1_day,
            "snapshot2_day": self.meta.snapshot2_day,
            "friend_ts_epoch_day": self.meta.friend_ts_epoch_day,
            "seed": self.meta.seed,
            "scale_note": self.meta.scale_note,
            "extra": self.meta.extra,
        }

    def column_fingerprints(self) -> dict[str, str]:
        """Per-column SHA-256 hashes under the dotted keys of
        :meth:`iter_columns`, plus two pseudo-columns:

        - ``"meta"`` — hash of :meth:`meta_dict` (country/genre names
          and snapshot days live there, not in any array), and
        - ``"shape"`` — ``(n_users, n_products)``, so per-user or
          per-app outputs of a stage whose declared input columns
          happen to be unchanged still re-key when the population grows.

        The engine keys column-scoped stages (``Stage.columns``) on a
        selection of these instead of the whole-dataset fingerprint, so
        a delta that touches only ``lib.total_min`` leaves every stage
        that never reads playtime cache-valid.  Memoized; mutation
        paths must call :meth:`invalidate_fingerprint`.
        """
        if self._column_fps is None:
            fps: dict[str, str] = {}
            for key, column in self.iter_columns():
                arr = np.ascontiguousarray(column)
                h = hashlib.sha256(b"steamcolumn-v1")
                h.update(key.encode())
                h.update(str(arr.dtype).encode())
                h.update(str(arr.shape).encode())
                h.update(arr.tobytes())
                fps[key] = h.hexdigest()
            meta_h = hashlib.sha256(b"steammeta-v1")
            meta_h.update(
                json.dumps(self.meta_dict(), sort_keys=True).encode()
            )
            fps["meta"] = meta_h.hexdigest()
            shape_h = hashlib.sha256(b"steamshape-v1")
            shape_h.update(f"{self.n_users},{self.n_products}".encode())
            fps["shape"] = shape_h.hexdigest()
            self._column_fps = fps
        return self._column_fps

    def fingerprint(self) -> str:
        """Stable SHA-256 over every column and the metadata.

        Two datasets with identical content — whether generated,
        reloaded from a saved dataset directory, or reassembled by the
        crawler — share a fingerprint; any change to any cell changes
        it.  Derived from :meth:`column_fingerprints` so one pass over
        the arrays serves both identities.  Memoized on first call, so
        callers (the analysis engine keys its stage cache on this) must
        not mutate the tables afterwards without calling
        :meth:`invalidate_fingerprint`.
        """
        if self._fingerprint is None:
            h = hashlib.sha256(b"steamdataset-v2")
            for key, fp in sorted(self.column_fingerprints().items()):
                h.update(key.encode())
                h.update(fp.encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def invalidate_fingerprint(self) -> None:
        """Drop the memoized fingerprints after an in-place mutation.

        ``fingerprint()``/``column_fingerprints()`` memoize on first
        call; replacing or mutating a table afterwards would silently
        serve the stale identity (and with it stale cache hits).  Every
        merge/evolution path that hands back a dataset it touched calls
        this; the next identity query rehashes from the live arrays.
        """
        self._fingerprint = None
        self._column_fps = None

    def day_to_date(self, day: int) -> dt.date:
        """Convert a days-since-launch value to a calendar date."""
        return constants.STEAM_LAUNCH + dt.timedelta(days=int(day))

    def summary(self) -> dict[str, float]:
        """Headline totals, the analogue of the paper's Section 1 numbers."""
        total_min = self.library.user_total_min().sum()
        return {
            "accounts": float(self.n_users),
            "friendships": float(self.friends.n_edges),
            "groups": float(self.groups.n_groups),
            "group_memberships": float(self.groups.members.nnz),
            "owned_games": float(self.library.owned.nnz),
            "playtime_years": float(total_min) / 60.0 / 24.0 / 365.0,
            "market_value_usd": float(
                self.library.user_value_cents(self.catalog.price_cents).sum()
            )
            / 100.0,
            "products": float(self.n_products),
        }
