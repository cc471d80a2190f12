"""Merging refetched users into a dataset (DESIGN.md §12).

The incremental path re-crawls only the users a world delta touched.
:func:`apply_user_delta` takes a prior dataset and a
:class:`UserDeltaBatch` of those users' refetched rows, replaces
exactly those users' rows — accounts, friendships, libraries,
memberships — and appends the new ones, preserving the prior tables'
dtypes and per-user entry ordering so the result is byte-identical to
what a from-scratch full crawl of the evolved world would assemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.store.dataset import DatasetMeta, SteamDataset
from repro.store.tables import (
    AccountTable,
    CSRMatrix,
    FriendTable,
    GroupTable,
    LibraryTable,
    Snapshot2Table,
)

__all__ = ["UserDeltaBatch", "apply_user_delta"]


@dataclass
class UserDeltaBatch:
    """Refetched rows for a set of users, keyed by ID offset.

    The delta-crawl produces one of these from the normal phase-1/2
    harvests; tests hand-build tiny ones.  ``lib_user``/``member_user``
    are *positions* into ``offsets`` (the crawl-order convention of
    :class:`repro.crawler.details.DetailCrawl`); ``lib_product`` and
    ``member_group`` are dense catalog/group indices; edges are offset
    pairs.  Only edges with *both* endpoints in the batch are merged —
    an edge with one endpoint outside the batch is by contract
    unchanged (a changed edge marks both endpoints as changed), so the
    prior dataset's copy stays authoritative.
    """

    #: Strictly increasing ID offsets of the refetched users.
    offsets: np.ndarray
    created_day: np.ndarray
    #: Self-reported country name per user (None: not reported).
    countries: list
    city: np.ndarray
    #: Harvested friendships as (offset, offset, day) triples.
    edge_a_off: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    edge_b_off: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    edge_day: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    #: Library entries: position into ``offsets``, dense product index,
    #: playtimes (minutes), in harvest (response) order per user.
    lib_user: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    lib_product: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    lib_total_min: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    lib_twoweek_min: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32)
    )
    #: Membership entries: position into ``offsets``, dense group index.
    member_user: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    member_group: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if len(self.offsets) and np.any(np.diff(self.offsets) <= 0):
            raise ValueError("batch offsets must be strictly increasing")
        n = len(self.offsets)
        if not (len(self.created_day) == len(self.countries) == len(self.city) == n):
            raise ValueError("per-user columns must align with offsets")

    @property
    def n_users(self) -> int:
        return len(self.offsets)


def apply_user_delta(
    prior: SteamDataset,
    batch: UserDeltaBatch,
    snapshot2: Snapshot2Table | None = None,
    meta: DatasetMeta | None = None,
) -> SteamDataset:
    """Replace/append the batch's users in ``prior``; everything else is
    carried over byte-for-byte.

    Dtypes and per-user entry ordering follow the prior tables, and
    group member lists are re-sorted into dense-user order, so the
    merged dataset is byte-identical to a from-scratch full-crawl
    assembly of the same world state.  Catalog and achievements are
    carried from ``prior`` (the storefront snapshot is global); group
    labels are carried for existing groups and default for new ones —
    the delta-crawl re-scrapes labels on top, exactly like a full crawl.
    """
    prior.fingerprint()  # memoize the pre-merge identity for callers
    # ---- dense index maps --------------------------------------------------
    prior_off = prior.accounts.id_offset.astype(np.int64)
    merged_off = np.union1d(prior_off, batch.offsets)
    n_users = len(merged_off)
    prior_dense = np.searchsorted(merged_off, prior_off)
    batch_dense = np.searchsorted(merged_off, batch.offsets)
    in_batch = np.zeros(n_users, dtype=bool)
    in_batch[batch_dense] = True

    # ---- accounts ----------------------------------------------------------
    acc = prior.accounts
    created = np.zeros(n_users, dtype=acc.created_day.dtype)
    created[prior_dense] = acc.created_day
    created[batch_dense] = np.asarray(
        batch.created_day, dtype=acc.created_day.dtype
    )
    city = np.full(n_users, -1, dtype=acc.city.dtype)
    city[prior_dense] = acc.city
    city[batch_dense] = np.asarray(batch.city, dtype=acc.city.dtype)
    # Country names are frequency-ordered over the merged population,
    # reproducing the full-crawl assembly (ties break on first
    # appearance in dense order).
    name_per_user: list = [None] * n_users
    for dense, code in zip(prior_dense, acc.country):
        if code >= 0:
            name_per_user[dense] = acc.country_names[code]
    for dense, name in zip(batch_dense, batch.countries):
        name_per_user[dense] = name
    counts: dict[str, int] = {}
    for name in name_per_user:
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    names = tuple(sorted(counts, key=lambda n: -counts[n]))
    index = {name: i for i, name in enumerate(names)}
    country = np.array(
        [index[n] if n is not None else -1 for n in name_per_user],
        dtype=acc.country.dtype,
    )
    accounts = AccountTable(
        id_offset=merged_off,
        created_day=created,
        country=country,
        city=city,
        country_names=names,
    )

    # ---- friendships -------------------------------------------------------
    fr = prior.friends
    pu = prior_dense[fr.u.astype(np.int64)]
    pv = prior_dense[fr.v.astype(np.int64)]
    keep = ~(in_batch[pu] & in_batch[pv])
    ba = np.searchsorted(merged_off, batch.edge_a_off)
    bb = np.searchsorted(merged_off, batch.edge_b_off)
    valid = (
        (ba < n_users)
        & (bb < n_users)
        & (merged_off[np.minimum(ba, n_users - 1)] == batch.edge_a_off)
        & (merged_off[np.minimum(bb, n_users - 1)] == batch.edge_b_off)
    )
    both = valid & in_batch[np.minimum(ba, n_users - 1)] & in_batch[
        np.minimum(bb, n_users - 1)
    ]
    blo = np.minimum(ba[both], bb[both]).astype(np.int64)
    bhi = np.maximum(ba[both], bb[both]).astype(np.int64)
    u = np.concatenate([np.minimum(pu, pv)[keep], blo])
    v = np.concatenate([np.maximum(pu, pv)[keep], bhi])
    day = np.concatenate(
        [fr.day[keep], np.asarray(batch.edge_day, dtype=fr.day.dtype)[both]]
    )
    key = u * np.int64(n_users) + v
    _, first = np.unique(key, return_index=True)
    order = first[np.argsort(key[first], kind="stable")]
    friends = FriendTable(
        u=u[order].astype(fr.u.dtype),
        v=v[order].astype(fr.v.dtype),
        day=day[order],
        n_users=n_users,
    )

    # ---- libraries ---------------------------------------------------------
    lib = prior.library
    entry_user = prior_dense[lib.owned.row_ids()]
    keep_lib = ~in_batch[entry_user]
    rows = np.concatenate(
        [entry_user[keep_lib], batch_dense[batch.lib_user]]
    )
    cols = np.concatenate(
        [
            lib.owned.indices[keep_lib],
            np.asarray(batch.lib_product, dtype=lib.owned.indices.dtype),
        ]
    )
    total = np.concatenate(
        [
            lib.total_min[keep_lib],
            np.asarray(batch.lib_total_min, dtype=lib.total_min.dtype),
        ]
    )
    twoweek = np.concatenate(
        [
            lib.twoweek_min[keep_lib],
            np.asarray(batch.lib_twoweek_min, dtype=lib.twoweek_min.dtype),
        ]
    )
    owned, perm = CSRMatrix.from_pairs(rows, cols, n_users)
    library = LibraryTable(
        owned=owned, total_min=total[perm], twoweek_min=twoweek[perm]
    )

    # ---- groups ------------------------------------------------------------
    gr = prior.groups
    n_groups = int(gr.n_groups)
    if len(batch.member_group):
        n_groups = max(n_groups, int(batch.member_group.max()) + 1)
    member_user = prior_dense[gr.members.indices.astype(np.int64)]
    member_group = gr.members.row_ids()
    keep_mem = ~in_batch[member_user]
    groups_col = np.concatenate(
        [
            member_group[keep_mem],
            np.asarray(batch.member_group, dtype=np.int64),
        ]
    )
    users_col = np.concatenate(
        [member_user[keep_mem], batch_dense[batch.member_user]]
    )
    # Full-crawl member lists come out in ascending dense-user order
    # (the detail phase walks users in dense order); restore that after
    # interleaving prior and batch members.
    mem_order = np.lexsort((users_col, groups_col))
    members, _ = CSRMatrix.from_pairs(
        groups_col[mem_order],
        users_col[mem_order].astype(gr.members.indices.dtype),
        n_groups,
    )
    group_type = np.full(n_groups, 4, dtype=gr.group_type.dtype)
    group_type[: gr.n_groups] = gr.group_type
    focus = np.full(n_groups, -1, dtype=gr.focus_game.dtype)
    focus[: gr.n_groups] = gr.focus_game
    groups = GroupTable(
        group_type=group_type,
        focus_game=focus,
        members=members,
        n_users=n_users,
    )

    merged = SteamDataset(
        accounts=accounts,
        friends=friends,
        groups=groups,
        catalog=prior.catalog,
        library=library,
        achievements=prior.achievements,
        snapshot2=snapshot2,
        meta=meta if meta is not None else prior.meta,
    )
    merged.invalidate_fingerprint()
    return merged
