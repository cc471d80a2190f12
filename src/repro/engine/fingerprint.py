"""Content hashing for cache keys.

Three layers of identity feed a stage's cache key:

1. the **dataset fingerprint** (:meth:`SteamDataset.fingerprint` — a
   SHA-256 over every column and the metadata),
2. the **stage code version** — a manual version string combined with a
   hash of the source file of every module the stage declares, so
   editing an analysis module invalidates exactly its stages,
3. the **config hash** — the stage's declared config keys and bound
   parameters, plus content hashes of any auxiliary inputs.

All three are folded into one hex key by :func:`stage_key`; equal keys
mean "this exact computation has run before".
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
from types import ModuleType
from typing import Any

import numpy as np

__all__ = [
    "content_hash",
    "source_hash",
    "select_column_fingerprints",
    "stage_key",
    "ENGINE_SCHEMA",
]

#: Bumped when the cache entry layout or key derivation changes; part of
#: every key so old caches simply miss instead of misreading.
ENGINE_SCHEMA = 1


def _update(h, obj: Any) -> None:
    """Fold ``obj`` into ``h`` in a type-tagged, order-stable way."""
    if obj is None:
        h.update(b"\x00none")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00arr")
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (bool, int, float, complex, str, bytes, np.generic)):
        h.update(b"\x00scalar")
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        h.update(b"\x00dict")
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00seq")
        for item in obj:
            _update(h, item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"\x00dc")
        h.update(type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            _update(h, f.name)
            _update(h, getattr(obj, f.name))
    else:
        raise TypeError(f"content_hash cannot hash {type(obj).__name__}")


def content_hash(obj: Any) -> str:
    """Stable SHA-256 of arrays, dataclasses, and plain containers."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


@functools.cache
def source_hash(module: ModuleType) -> str:
    """SHA-256 of a module's source file (empty when unavailable).

    Cached per module: stage graphs consult this once per process, not
    once per stage run.
    """
    try:
        path = inspect.getsourcefile(module)
        if path is None:
            return ""
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except (OSError, TypeError):
        return ""


def select_column_fingerprints(
    column_fps: dict[str, str], columns: tuple[str, ...]
) -> dict[str, str]:
    """The slice of a dataset's column fingerprints a stage depends on.

    ``columns`` holds dotted column keys (``"lib.total_min"``) and/or
    table prefixes (``"fr"`` selects every ``fr.*`` column).  The
    ``meta`` and ``shape`` pseudo-columns are always included: country
    and genre *names* live in the metadata sidecar, and per-user/per-app
    output lengths can change (population growth) without any declared
    column changing bytes.  A spec that matches nothing is a typo in a
    stage declaration and raises rather than silently weakening the key.
    """
    selected = {
        "meta": column_fps["meta"],
        "shape": column_fps["shape"],
    }
    for spec in columns:
        matched = False
        prefix = spec + "."
        for key, fp in column_fps.items():
            if key == spec or key.startswith(prefix):
                selected[key] = fp
                matched = True
        if not matched:
            raise KeyError(
                f"stage declares column {spec!r} but the dataset has no "
                f"matching column"
            )
    return selected


def stage_key(
    dataset_fingerprint: str,
    stage,
    config: dict,
    aux: dict | None = None,
    *,
    column_fps: dict[str, str] | None = None,
    dep_keys: dict[str, str] | None = None,
) -> str:
    """The content address of one stage execution.

    ``stage`` is a :class:`repro.engine.stage.Stage`; ``config`` is the
    full config dict (only the stage's declared ``config_keys`` enter
    the key); ``aux`` maps auxiliary input names to values, content-
    hashed for the stage's declared ``aux_keys``.

    When the stage declares ``columns`` and the caller supplies the
    dataset's ``column_fps``, the dataset component of the key narrows
    from the whole-dataset fingerprint to just the declared columns'
    fingerprints — the column-level invalidation of DESIGN.md §12.  A
    column-scoped stage no longer sees its upstream stages' inputs
    through the whole fingerprint, so the caller must fold its deps'
    keys in via ``dep_keys``; a dep recomputing then re-keys (and
    recomputes) every column-scoped consumer transitively.
    """
    aux = aux or {}
    columns = getattr(stage, "columns", None)
    if columns is not None and column_fps is not None:
        dataset_id: Any = select_column_fingerprints(column_fps, columns)
    else:
        dataset_id = dataset_fingerprint
    payload = {
        "schema": ENGINE_SCHEMA,
        "dataset": dataset_id,
        "stage": stage.name,
        "version": stage.version,
        "code": [source_hash(mod) for mod in stage.modules],
        "config": {k: config[k] for k in stage.config_keys},
        "params": list(stage.params),
        "aux": {k: content_hash(aux[k]) for k in stage.aux_keys},
    }
    if dep_keys:
        payload["deps"] = {k: dep_keys[k] for k in sorted(dep_keys)}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
