"""Resumable crawl state.

A crawl over 100+ million accounts runs for months (the paper's phase 2
spanned May to November 2013); surviving restarts is a hard requirement.
The checkpoint stores per-phase cursors in a JSON file, written
atomically (write-to-temp + rename).

Beyond the cursors, ``extra`` carries three kinds of phase state, all
saved in the same atomic write so cursor and data can never diverge:

- ``stash:<phase>`` — the phase's partial harvest, snapshotted at every
  cursor save, so a crawl killed mid-phase (crash, ``RetriesExhausted``
  escaping) resumes with the already-collected data intact instead of
  silently dropping it;
- ``done:<phase>`` — completion flags, so re-running a finished phase
  replays its harvest from the stash instead of re-crawling;
- ``failed`` — per-phase lists of identifiers (SteamIDs, appids, window
  offsets) that kept failing after retries and were skipped under
  graceful degradation.

A corrupt or truncated checkpoint file (the process died inside a
non-atomic writer, disk filled up, ...) is treated as absent: ``load``
warns and starts fresh rather than refusing to crawl.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import Obs

__all__ = ["CrawlCheckpoint"]

#: The cursor field of each resumable phase.
_CURSOR_FIELDS = {
    "profiles": "profile_cursor",
    "details": "detail_cursor",
    "storefront": "storefront_cursor",
    "achievements": "achievements_cursor",
}


@dataclass
class CrawlCheckpoint:
    """Per-phase progress cursors, persisted as JSON."""

    path: Path | None = None
    #: Next ID-space offset for the profile sweep.
    profile_cursor: int = 0
    #: Number of users whose detail crawl completed.
    detail_cursor: int = 0
    #: Number of catalog apps fetched.
    storefront_cursor: int = 0
    #: Number of apps whose achievements were fetched.
    achievements_cursor: int = 0
    extra: dict = field(default_factory=dict)
    #: Observability hook (never persisted); times save/load.
    obs: Obs | None = field(default=None, repr=False, compare=False)

    @classmethod
    def load(
        cls, path: str | Path, obs: Obs | None = None
    ) -> "CrawlCheckpoint":
        """Load a checkpoint, or start fresh when the file is absent.

        A file that exists but does not parse as a JSON object (partial
        write from a crash, corruption) also yields a fresh checkpoint,
        with a warning — losing crawl progress beats refusing to crawl.
        """
        path = Path(path)
        start = obs.clock() if obs is not None else 0.0
        if not path.exists():
            return cls(path=path, obs=obs)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError("checkpoint root is not an object")
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"checkpoint {path} is corrupt ({exc}); starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls(path=path, obs=obs)
        checkpoint = cls(
            path=path,
            profile_cursor=data.get("profile_cursor", 0),
            detail_cursor=data.get("detail_cursor", 0),
            storefront_cursor=data.get("storefront_cursor", 0),
            achievements_cursor=data.get("achievements_cursor", 0),
            extra=data.get("extra", {}),
            obs=obs,
        )
        if obs is not None:
            obs.histogram(
                "crawler_checkpoint_load_seconds",
                "Time spent loading the crawl checkpoint",
            ).observe(obs.clock() - start)
        return checkpoint

    def save(self) -> None:
        """Atomically persist the cursors (no-op when path is unset)."""
        if self.path is None:
            return
        start = self.obs.clock() if self.obs is not None else 0.0
        payload = {
            "profile_cursor": self.profile_cursor,
            "detail_cursor": self.detail_cursor,
            "storefront_cursor": self.storefront_cursor,
            "achievements_cursor": self.achievements_cursor,
            "extra": self.extra,
        }
        # Temp file keeps the full name (``state.json.tmp``), not a
        # swapped suffix: ``with_suffix(".tmp")`` drops the extension,
        # so sibling checkpoints sharing a stem (``state.json`` and
        # ``state.bak``) would both write ``state.tmp`` and cross-
        # clobber each other mid-write.
        tmp = self.path.parent / (self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            # fsync before rename: os.replace is atomic in the
            # namespace but not durable — a crash after the rename yet
            # before writeback could surface a torn checkpoint.
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        if self.obs is not None:
            self.obs.histogram(
                "crawler_checkpoint_save_seconds",
                "Time spent persisting the crawl checkpoint",
            ).observe(self.obs.clock() - start)
            self.obs.counter(
                "crawler_checkpoint_saves", "Checkpoint writes performed"
            ).inc()

    # -- phase state ----------------------------------------------------------

    def cursor(self, phase: str) -> int:
        """A resumable phase's cursor."""
        return getattr(self, _CURSOR_FIELDS[phase])

    def set_cursor(self, phase: str, value: int) -> None:
        setattr(self, _CURSOR_FIELDS[phase], value)

    def stash(self, phase: str, payload: dict) -> None:
        """Attach a phase's partial harvest (persisted on next ``save``)."""
        self.extra[f"stash:{phase}"] = payload

    def unstash(self, phase: str) -> dict | None:
        """The phase's stashed partial harvest, if any."""
        return self.extra.get(f"stash:{phase}")

    def mark_done(self, phase: str) -> None:
        self.extra[f"done:{phase}"] = True

    def is_done(self, phase: str) -> bool:
        return bool(self.extra.get(f"done:{phase}", False))

    def record_failure(self, phase: str, ident: int) -> None:
        """Note an identifier skipped after persistent failures."""
        self.extra.setdefault("failed", {}).setdefault(phase, []).append(
            int(ident)
        )

    def failures(self, phase: str | None = None) -> dict | list:
        """Skipped identifiers, per phase (or for one phase)."""
        failed = self.extra.get("failed", {})
        if phase is None:
            return failed
        return failed.get(phase, [])

    @property
    def n_failures(self) -> int:
        return sum(len(v) for v in self.extra.get("failed", {}).values())
