"""Dataset persistence: a checksummed directory of mmap-able columns.

A saved dataset is a directory holding one uncompressed ``.npy`` file
per key of :meth:`SteamDataset.iter_columns` (``fr.u.npy``,
``lib.total_min.npy``, ...) next to a ``manifest.json`` that carries
the format version, a SHA-256 checksum per column and the dataset's
metadata (:meth:`SteamDataset.meta_dict`).  Columns load with
``np.load(..., mmap_mode="r")``, so a 10^6-user world opens in
milliseconds and parallel workers (fork *or* spawn) share the
read-only pages through the OS page cache instead of each holding a
private copy.

Integrity (DESIGN.md §9): :func:`load_dataset` verifies every column
against the manifest by default and raises a typed
:class:`DatasetIntegrityError` naming the offending column (missing
file, unreadable ``.npy``, checksum mismatch) instead of leaking
``numpy`` or filesystem internals.  Only a spill the process wrote
itself moments ago is worth loading with ``verify=False``.

Crash safety: :func:`save_dataset` writes and fsyncs every file in a
temp sibling directory and renames it into place.  An existing dataset
at the target is first renamed aside to another temp sibling and is
removed only once the new directory is in place, so a crash never
leaves a half-written or half-deleted dataset under the target name:
between the two renames the target is absent, but the old copy is
intact beside it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from pathlib import Path

import numpy as np

from repro.store.dataset import DatasetMeta, SteamDataset
from repro.store.tables import (
    AccountTable,
    AchievementTable,
    CatalogTable,
    CSRMatrix,
    FriendTable,
    GroupTable,
    LibraryTable,
    Snapshot2Table,
)

__all__ = ["save_dataset", "load_dataset", "DatasetIntegrityError"]

_FORMAT_VERSION = 1
_MANIFEST_NAME = "manifest.json"


class DatasetIntegrityError(ValueError):
    """A dataset is unreadable, incomplete, or corrupt.

    ``key`` names the offending column (or ``manifest.json``) when one
    can be pinned down; it is ``None`` for damage to the dataset as a
    whole, such as a plain file where a directory should be.
    """

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


def _array_checksum(arr: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and bytes (mirrors the fingerprint)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _fsync(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def save_dataset(dataset: SteamDataset, path: str | Path) -> Path:
    """Atomically write ``dataset`` as a column directory at ``path``.

    A crash at any instant leaves either the previous dataset or the
    new one at ``path`` (or, in the moment between the two renames,
    nothing at ``path`` and the previous one intact in a ``.tmp.``
    sibling); never a torn directory.
    """
    path = Path(path)
    # The dataset owns the authoritative column walk (shared with its
    # content fingerprint); persistence just serializes it.
    arrays: dict[str, np.ndarray] = dict(dataset.iter_columns())
    manifest = {
        "format_version": _FORMAT_VERSION,
        "checksums": {key: _array_checksum(a) for key, a in arrays.items()},
        **dataset.meta_dict(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # mkdir, not mkdtemp: the published directory gets the umask's
    # permissions, as a plain file would, instead of mkdtemp's 0700.
    staging = path.with_name(f"{path.name}.tmp.{uuid.uuid4().hex}")
    staging.mkdir()
    retired = staging.with_name(staging.name + ".old")
    try:
        for key, arr in arrays.items():
            with open(staging / f"{key}.npy", "wb") as fh:
                np.save(fh, arr)
                _fsync(fh)
        with open(staging / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
            _fsync(fh)
        if os.path.lexists(path):
            os.replace(path, retired)
        os.replace(staging, path)
    except BaseException:
        if os.path.lexists(retired) and not os.path.lexists(path):
            os.replace(retired, path)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if retired.is_dir() and not retired.is_symlink():
        shutil.rmtree(retired)
    elif os.path.lexists(retired):
        retired.unlink()
    return path


class _ColumnReader:
    """Pull mmap'd ``.npy`` columns out of a dataset directory."""

    def __init__(self, path: Path, checksums: dict, verify: bool) -> None:
        self.path = path
        self.checksums = checksums
        self.verify = verify

    def __contains__(self, key: str) -> bool:
        return (self.path / f"{key}.npy").exists()

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            arr = np.load(self.path / f"{key}.npy", mmap_mode="r")
        except FileNotFoundError:
            raise DatasetIntegrityError(
                f"dataset {self.path} is missing required column {key!r}",
                key=key,
            ) from None
        except (OSError, ValueError, EOFError) as exc:
            raise DatasetIntegrityError(
                f"dataset {self.path} column {key!r} is corrupt: {exc}",
                key=key,
            ) from None
        if self.verify:
            expected = self.checksums.get(key)
            if expected is None:
                raise DatasetIntegrityError(
                    f"dataset {self.path} column {key!r} has no checksum "
                    f"in the manifest",
                    key=key,
                )
            if _array_checksum(arr) != expected:
                raise DatasetIntegrityError(
                    f"dataset {self.path} column {key!r} failed its "
                    f"checksum (corrupt or tampered)",
                    key=key,
                )
        return arr


def _meta_field(meta: dict, key: str, path: Path):
    try:
        return meta[key]
    except KeyError:
        raise DatasetIntegrityError(
            f"dataset {path} manifest is missing required field {key!r}",
            key=key,
        ) from None


def load_dataset(path: str | Path, verify: bool = True) -> SteamDataset:
    """Read a dataset directory written by :func:`save_dataset`.

    Columns are memory-mapped read-only, so every process mapping the
    same directory shares the physical pages through the OS page
    cache.  ``verify=True`` (the default) checks every column against
    the manifest's checksums, which reads each one in full; only pass
    ``verify=False`` for a directory this process wrote itself (the
    engine's worker spill).  A plain file at ``path`` (such as a
    ``.npz`` from an older build) raises
    :class:`DatasetIntegrityError`; a missing ``path`` raises
    ``FileNotFoundError``.
    """
    path = Path(path)
    try:
        with open(path / _MANIFEST_NAME, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        if not path.is_dir():
            raise
        raise DatasetIntegrityError(
            f"dataset {path} has no {_MANIFEST_NAME} (incomplete write?)",
            key=_MANIFEST_NAME,
        ) from None
    except NotADirectoryError:
        raise DatasetIntegrityError(
            f"dataset {path} is a file, not a dataset directory "
            f"(.npz files are no longer read; regenerate the dataset)"
        ) from None
    except (ValueError, UnicodeDecodeError, OSError) as exc:
        raise DatasetIntegrityError(
            f"dataset {path} {_MANIFEST_NAME} is corrupt: {exc}",
            key=_MANIFEST_NAME,
        ) from None
    if not isinstance(manifest, dict):
        raise DatasetIntegrityError(
            f"dataset {path} {_MANIFEST_NAME} is not a JSON object",
            key=_MANIFEST_NAME,
        )
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise DatasetIntegrityError(
            f"dataset {path} has format_version {version!r}; this "
            f"build supports version {_FORMAT_VERSION}"
        )
    reader = _ColumnReader(path, manifest.get("checksums", {}), verify)
    return _assemble_dataset(reader, manifest, path)


def _assemble_dataset(reader, meta: dict, path: Path) -> SteamDataset:
    """Build a :class:`SteamDataset` from any keyed array reader."""
    n_users = len(reader["acc.id_offset"])
    accounts = AccountTable(
        id_offset=reader["acc.id_offset"],
        created_day=reader["acc.created_day"],
        country=reader["acc.country"],
        city=reader["acc.city"],
        country_names=tuple(_meta_field(meta, "country_names", path)),
    )
    friends = FriendTable(
        u=reader["fr.u"],
        v=reader["fr.v"],
        day=reader["fr.day"],
        n_users=n_users,
    )
    groups = GroupTable(
        group_type=reader["gr.type"],
        focus_game=reader["gr.focus"],
        members=CSRMatrix(
            indptr=reader["gr.indptr"], indices=reader["gr.indices"]
        ),
        n_users=n_users,
    )
    catalog = CatalogTable(
        appid=reader["cat.appid"],
        is_game=reader["cat.is_game"],
        primary_genre=reader["cat.primary_genre"],
        genre_mask=reader["cat.genre_mask"],
        price_cents=reader["cat.price_cents"],
        multiplayer=reader["cat.multiplayer"],
        release_day=reader["cat.release_day"],
        metacritic=reader["cat.metacritic"],
        genre_names=tuple(_meta_field(meta, "genre_names", path)),
    )
    library = LibraryTable(
        owned=CSRMatrix(
            indptr=reader["lib.indptr"], indices=reader["lib.indices"]
        ),
        total_min=reader["lib.total_min"],
        twoweek_min=reader["lib.twoweek_min"],
    )
    achievements = None
    if "ach.count" in reader:
        achievements = AchievementTable(
            count=reader["ach.count"],
            indptr=reader["ach.indptr"],
            rates=reader["ach.rates"],
        )
    snapshot2 = None
    if "s2.owned" in reader:
        snapshot2 = Snapshot2Table(
            owned=reader["s2.owned"],
            played=reader["s2.played"],
            value_cents=reader["s2.value_cents"],
            total_min=reader["s2.total_min"],
            twoweek_min=reader["s2.twoweek_min"],
        )
    return SteamDataset(
        accounts=accounts,
        friends=friends,
        groups=groups,
        catalog=catalog,
        library=library,
        achievements=achievements,
        snapshot2=snapshot2,
        meta=DatasetMeta(
            snapshot1_day=_meta_field(meta, "snapshot1_day", path),
            snapshot2_day=_meta_field(meta, "snapshot2_day", path),
            friend_ts_epoch_day=_meta_field(
                meta, "friend_ts_epoch_day", path
            ),
            seed=_meta_field(meta, "seed", path),
            scale_note=_meta_field(meta, "scale_note", path),
            extra=_meta_field(meta, "extra", path),
        ),
    )
