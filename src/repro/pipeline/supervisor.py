"""Supervised end-to-end pipeline: generate → serve → crawl → analyze.

The paper's artifact was exactly this pipeline run continuously for
months; the supervisor makes our reproduction of it kill-safe.  Every
step is bracketed by atomic manifest writes (``running`` before,
``done`` + artifact checksum after), so a SIGKILL at any point leaves a
manifest from which the next invocation knows precisely where to pick
up:

- a step whose artifact exists and passes its checksum is marked
  ``cached`` and skipped (``pipeline_steps_resumed`` counts these);
- a step found ``running`` (the process died inside it) is re-run, and
  the step-level recovery primitives bound the rework: the crawl
  resumes from the crawler's own checkpoint file, and the analyze step
  replays finished stages from the engine's content-addressed stage
  cache;
- the ``serve`` step is ephemeral (a localhost API server wrapped
  around the crawl) — it is re-raised whenever the crawl actually runs
  and ``skipped`` when the crawl is cached.

Determinism: the final report is byte-identical whether the pipeline
ran clean, was killed and resumed at any step boundary, or was killed
mid-crawl — the same contract the crawler's chaos tests and the
engine's fault tests already enforce, now end to end.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import TRACE_ENV_VAR, Obs, maybe_span
from repro.pipeline.manifest import RunManifest, file_checksum
from repro.simworld.config import WorldConfig
from repro.simworld.world import SteamWorld
from repro.store.io import load_dataset, save_dataset

__all__ = ["PipelineSupervisor", "PipelineConfigError", "PIPELINE_STEPS"]

PIPELINE_STEPS = ("generate", "serve", "crawl", "analyze")

#: Each step's artifact, relative to the workdir.  A manifest record
#: naming another artifact (one written by an older layout) never
#: counts as done, so its step reruns instead of feeding a stale path
#: downstream.
_ARTIFACTS = {"generate": "world", "crawl": "crawled", "analyze": "report.txt"}


class PipelineConfigError(RuntimeError):
    """The workdir belongs to a different pipeline configuration."""


@dataclass
class PipelineSupervisor:
    """Runs the pipeline under one manifest, resuming past work."""

    workdir: Path
    users: int = 10_000
    seed: int = 1603
    #: Analysis parallelism (forwarded to the engine).
    jobs: int = 1
    include_table4: bool = True
    #: Crawl over a real localhost HTTP server (the paper's topology);
    #: False short-circuits through the in-process transport.
    http: bool = True
    obs: Obs | None = None
    #: Steps resumed from cache in this invocation.
    resumed_this_run: list[str] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)

    # -- manifest plumbing ----------------------------------------------------

    @property
    def _config(self) -> dict:
        return {
            "users": self.users,
            "seed": self.seed,
            "include_table4": self.include_table4,
            "http": self.http,
        }

    def _artifact_ok(self, manifest: RunManifest, step: str) -> bool:
        """True when the step completed before and its artifact checks out."""
        record = manifest.steps.get(step)
        if record is None or record.status not in ("done", "cached"):
            return False
        if record.artifact != _ARTIFACTS[step] or not record.checksum:
            return False
        path = self._artifact(step)
        return path.exists() and file_checksum(path) == record.checksum

    def _artifact(self, step: str) -> Path:
        return self.workdir / _ARTIFACTS[step]

    def _mark_cached(self, manifest: RunManifest, step: str) -> None:
        record = manifest.step(step)
        record.status = "cached"
        manifest.steps_resumed += 1
        self.resumed_this_run.append(step)
        if self.obs is not None:
            self.obs.counter(
                "pipeline_steps_resumed",
                "Pipeline steps served from a previous run's artifacts",
            ).inc()
        manifest.save()

    def _start(self, manifest: RunManifest, step: str) -> StepTimer:
        record = manifest.step(step)
        record.status = "running"
        record.attempts += 1
        record.seed = self.seed
        manifest.save()
        return StepTimer(record)

    def _finish(
        self, manifest: RunManifest, timer: "StepTimer", note: str = ""
    ) -> None:
        record = timer.record
        record.status = "done"
        record.duration_seconds = round(timer.elapsed(), 3)
        record.note = note  # a rerun must not keep a failed attempt's note
        if record.name in _ARTIFACTS:
            record.artifact = _ARTIFACTS[record.name]
            record.checksum = file_checksum(self._artifact(record.name))
        manifest.save()

    def _fail(self, manifest: RunManifest, step: str, exc: Exception) -> None:
        record = manifest.step(step)
        record.status = "failed"
        record.note = f"{type(exc).__name__}: {exc}"
        manifest.save()

    # -- the pipeline ---------------------------------------------------------

    def run(self) -> RunManifest:
        """Run (or resume) the pipeline; returns the final manifest."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.load(self.workdir / "manifest.json")
        if manifest.config and manifest.config != self._config:
            raise PipelineConfigError(
                f"workdir {self.workdir} was built with config "
                f"{manifest.config}, not {self._config}; use a fresh "
                f"workdir (or --fresh) to change parameters"
            )
        manifest.config = dict(self._config)
        self.resumed_this_run = []
        # Export the trace for the duration of the run: anything we
        # spawn (engine pool workers, benchmark subprocesses, nested
        # tooling) joins this run's trace via REPRO_TRACE.
        trace = self.obs.trace if self.obs is not None else None
        saved_env = os.environ.get(TRACE_ENV_VAR)
        if trace is not None:
            trace.to_env()
        try:
            with maybe_span(self.obs, "pipeline", users=self.users):
                world = self._step_generate(manifest)
                self._step_crawl(manifest, world)
                self._step_analyze(manifest)
        finally:
            if trace is not None:
                if saved_env is None:
                    os.environ.pop(TRACE_ENV_VAR, None)
                else:
                    os.environ[TRACE_ENV_VAR] = saved_env
        manifest.runs_completed += 1
        manifest.save()
        return manifest

    def _step_generate(self, manifest: RunManifest) -> SteamWorld | None:
        """Produce ``world/``; returns the in-memory world when fresh.

        On resume the artifact is reused and ``None`` is returned — the
        crawl step regenerates the world in memory (deterministic, same
        seed) only if it still needs a server to crawl against.
        """
        if self._artifact_ok(manifest, "generate"):
            self._mark_cached(manifest, "generate")
            return None
        timer = self._start(manifest, "generate")
        try:
            with maybe_span(self.obs, "pipeline:generate"):
                world = SteamWorld.generate(
                    WorldConfig(n_users=self.users, seed=self.seed),
                    obs=self.obs,
                )
                save_dataset(world.dataset, self._artifact("generate"))
        except Exception as exc:
            self._fail(manifest, "generate", exc)
            raise
        self._finish(manifest, timer)
        return world

    def _regenerate_world(self, manifest: RunManifest) -> SteamWorld:
        """Rebuild the world object for serving (same seed, same bytes)."""
        record = manifest.step("generate")
        record.note = "world regenerated in memory to serve the crawl"
        manifest.save()
        return SteamWorld.generate(
            WorldConfig(n_users=self.users, seed=self.seed)
        )

    def _step_crawl(
        self, manifest: RunManifest, world: SteamWorld | None
    ) -> None:
        """Re-collect the world through the API into ``crawled/``.

        The serve step lives inside this one: the API server only
        exists while a crawl needs it.  A kill mid-crawl is recovered
        by the crawler's own checkpoint, so the rework on resume is
        bounded by the checkpoint save cadence, not the phase size.
        """
        from repro.crawler.checkpoint import CrawlCheckpoint
        from repro.crawler.runner import run_full_crawl
        from repro.steamapi.service import SteamApiService

        if self._artifact_ok(manifest, "crawl"):
            self._mark_cached(manifest, "crawl")
            serve = manifest.step("serve")
            serve.status = "skipped"
            serve.note = "ephemeral; crawl was cached"
            manifest.save()
            return
        if world is None:
            world = self._regenerate_world(manifest)
        checkpoint_path = self.workdir / "crawl_checkpoint.json"
        resumed_mid_crawl = checkpoint_path.exists()
        checkpoint = CrawlCheckpoint.load(checkpoint_path, obs=self.obs)
        service = SteamApiService.from_world(world, obs=self.obs)
        serve_timer = self._start(manifest, "serve")
        timer = self._start(manifest, "crawl")
        try:
            with maybe_span(self.obs, "pipeline:crawl"):
                if self.http:
                    from repro.steamapi.http_client import HttpTransport
                    from repro.steamapi.http_server import serve as serve_http

                    with serve_http(
                        service, obs=self.obs
                    ) as server, HttpTransport(
                        server.base_url,
                        trace=self.obs.trace if self.obs else None,
                        tracer=self.obs.tracer if self.obs else None,
                    ) as transport:
                        result = run_full_crawl(
                            transport,
                            checkpoint=checkpoint,
                            snapshot2=world.dataset.snapshot2,
                            obs=self.obs,
                        )
                else:
                    from repro.steamapi.transport import InProcessTransport

                    result = run_full_crawl(
                        InProcessTransport(service),
                        checkpoint=checkpoint,
                        snapshot2=world.dataset.snapshot2,
                        obs=self.obs,
                    )
                save_dataset(result.dataset, self._artifact("crawl"))
        except Exception as exc:
            self._fail(manifest, "crawl", exc)
            self._fail(manifest, "serve", exc)
            raise
        self._finish(
            manifest,
            serve_timer,
            note="ephemeral localhost API server"
            if self.http
            else "in-process transport (no HTTP)",
        )
        self._finish(
            manifest,
            timer,
            note=(
                "resumed from crawl checkpoint"
                if resumed_mid_crawl
                else f"{result.requests_made} requests"
            ),
        )

    def _step_analyze(self, manifest: RunManifest) -> None:
        """Analyze ``crawled/`` into ``report.txt``.

        The engine's content-addressed stage cache lives in the workdir,
        so a kill mid-analyze replays finished stages on resume instead
        of recomputing them.
        """
        from repro.core.study import SteamStudy
        from repro.engine import StageCache

        if self._artifact_ok(manifest, "analyze"):
            self._mark_cached(manifest, "analyze")
            return
        timer = self._start(manifest, "analyze")
        try:
            with maybe_span(self.obs, "pipeline:analyze"):
                dataset = load_dataset(self._artifact("crawl"))
                study = SteamStudy.from_dataset(dataset)
                report = study.run(
                    include_table4=self.include_table4,
                    obs=self.obs,
                    jobs=self.jobs,
                    cache=StageCache(
                        self.workdir / "stage_cache", obs=self.obs
                    ),
                )
                text = report.render()
                self._write_report(text)
        except Exception as exc:
            self._fail(manifest, "analyze", exc)
            raise
        self._finish(manifest, timer)

    def _write_report(self, text: str) -> None:
        """Atomic report write, same discipline as every other artifact."""
        import os

        path = self._artifact("analyze")
        tmp = path.parent / (path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)


class StepTimer:
    """Started wall clock for one step execution."""

    def __init__(self, record) -> None:
        self.record = record
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start
