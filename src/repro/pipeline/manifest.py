"""The pipeline run manifest: per-step status, artifacts, checksums.

One JSON file (``manifest.json`` in the pipeline workdir) records what
each step of the supervised generate→serve→crawl→analyze pipeline did:
status, artifact path, artifact SHA-256, seed, attempt count, and a
human-readable note.  Every state transition is persisted with the same
atomic write discipline as the crawl checkpoint (same-directory temp +
fsync + ``os.replace``), so a ``kill -9`` at any instant leaves either
the previous manifest or the new one — never a torn file.

The manifest is what makes resume decisions auditable: a rerun marks a
step ``cached`` (artifact present and checksum-verified) instead of
re-running it, and the file shows exactly which steps were replayed
versus recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["StepRecord", "RunManifest", "file_checksum", "STEP_STATUSES"]

MANIFEST_SCHEMA_VERSION = 1

#: Legal step states.  ``cached`` means "done in a previous run and
#: reused after checksum verification" — the resume marker.
STEP_STATUSES = ("pending", "running", "done", "cached", "failed", "skipped")


def file_checksum(path: str | Path, chunk: int = 1 << 20) -> str:
    """Streaming SHA-256 of a file's bytes, or of a directory's files.

    A directory (a saved dataset) hashes the relative name and SHA-256
    of every file under it, in sorted name order, so a flipped byte in
    any column, or a renamed or missing file, changes the sum.
    """
    path = Path(path)
    h = hashlib.sha256()
    if path.is_dir():
        names = sorted(
            p.relative_to(path).as_posix()
            for p in path.rglob("*")
            if p.is_file()
        )
        for name in names:
            digest = file_checksum(path / name, chunk)
            h.update(f"{name}\0{digest}\n".encode("utf-8"))
        return h.hexdigest()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


@dataclass
class StepRecord:
    """What one pipeline step did (or is doing)."""

    name: str
    status: str = "pending"
    #: Artifact path, relative to the pipeline workdir (None: none yet,
    #: or the step is ephemeral, like ``serve``).
    artifact: str | None = None
    #: :func:`file_checksum` of the artifact at completion time.
    checksum: str | None = None
    #: Seed the step ran with (recorded for provenance).
    seed: int | None = None
    #: Times this step was started across all runs of the workdir.
    attempts: int = 0
    #: Wall-clock cost of the most recent execution.
    duration_seconds: float | None = None
    #: Free-form context ("resumed from checkpoint", "ephemeral", ...).
    note: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "StepRecord":
        known = {f: data.get(f) for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)


@dataclass
class RunManifest:
    """The persisted state of one pipeline workdir."""

    path: Path | None = None
    #: The pipeline configuration the workdir belongs to (users, seed,
    #: flags) — a rerun with a different config must not mix artifacts.
    config: dict = field(default_factory=dict)
    steps: dict[str, StepRecord] = field(default_factory=dict)
    #: Completed runs of the whole pipeline against this workdir.
    runs_completed: int = 0
    #: Steps served from cache across all runs (resume counter).
    steps_resumed: int = 0

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Load a manifest, or start fresh when absent or corrupt."""
        path = Path(path)
        if not path.exists():
            return cls(path=path)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError("manifest root is not an object")
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"pipeline manifest {path} is corrupt ({exc}); "
                f"starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls(path=path)
        steps = {
            name: StepRecord.from_dict({"name": name, **record})
            for name, record in data.get("steps", {}).items()
            if isinstance(record, dict)
        }
        return cls(
            path=path,
            config=data.get("config", {}),
            steps=steps,
            runs_completed=data.get("runs_completed", 0),
            steps_resumed=data.get("steps_resumed", 0),
        )

    def step(self, name: str) -> StepRecord:
        """Get-or-create the record for ``name``."""
        if name not in self.steps:
            self.steps[name] = StepRecord(name=name)
        return self.steps[name]

    def as_dict(self) -> dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "config": self.config,
            "steps": {
                name: {
                    k: v
                    for k, v in asdict(record).items()
                    if k != "name"
                }
                for name, record in self.steps.items()
            },
            "runs_completed": self.runs_completed,
            "steps_resumed": self.steps_resumed,
        }

    def save(self) -> None:
        """Atomically persist the manifest (no-op when path is unset)."""
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.parent / (self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
