"""The supervised pipeline: manifest persistence and kill-resume.

The acceptance scenario for the crash-safety work: ``repro pipeline``
killed with SIGKILL after the crawl step must, on rerun, resume from
the manifest (crawl shows ``cached``, not re-crawled) and produce a
final report byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.pipeline import (
    PipelineConfigError,
    PipelineSupervisor,
    RunManifest,
    StepRecord,
    file_checksum,
)

#: Small but above the world generator's floor of 1000 users.
USERS = 1_200
SEED = 31


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        manifest = RunManifest.load(tmp_path / "manifest.json")
        manifest.config = {"users": 5, "seed": 1}
        record = manifest.step("crawl")
        record.status = "done"
        record.artifact = "crawled"
        record.checksum = "abc"
        record.seed = 1
        manifest.steps_resumed = 2
        manifest.save()

        loaded = RunManifest.load(tmp_path / "manifest.json")
        assert loaded.config == {"users": 5, "seed": 1}
        assert loaded.steps_resumed == 2
        reloaded = loaded.step("crawl")
        assert reloaded.status == "done"
        assert reloaded.artifact == "crawled"
        assert reloaded.checksum == "abc"

    def test_corrupt_manifest_starts_fresh_with_warning(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"steps": {"crawl":')  # torn write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            manifest = RunManifest.load(path)
        assert manifest.steps == {}

    def test_unknown_fields_ignored_on_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "steps": {"crawl": {"status": "done", "future": 1}},
                }
            )
        )
        loaded = RunManifest.load(path)
        assert loaded.step("crawl").status == "done"

    def test_save_is_atomic_no_temp_left(self, tmp_path):
        manifest = RunManifest.load(tmp_path / "manifest.json")
        manifest.save()
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_file_checksum_changes_with_content(self, tmp_path):
        a = tmp_path / "a"
        a.write_bytes(b"hello")
        before = file_checksum(a)
        a.write_bytes(b"hellp")
        assert file_checksum(a) != before

    def test_directory_checksum_covers_every_file(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "a.npy").write_bytes(b"alpha")
        (d / "b.npy").write_bytes(b"beta")
        before = file_checksum(d)
        assert file_checksum(d) == before
        (d / "b.npy").write_bytes(b"betb")
        assert file_checksum(d) != before
        (d / "b.npy").write_bytes(b"beta")
        assert file_checksum(d) == before
        (d / "b.npy").rename(d / "c.npy")
        assert file_checksum(d) != before

    def test_step_record_defaults(self):
        record = StepRecord(name="generate")
        assert record.status == "pending"
        assert record.attempts == 0


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """One uninterrupted pipeline run — the byte-identity reference."""
    workdir = tmp_path_factory.mktemp("pipeline_clean")
    supervisor = PipelineSupervisor(
        workdir=workdir, users=USERS, seed=SEED,
        include_table4=False, http=False,
    )
    manifest = supervisor.run()
    return workdir, manifest


class TestSupervisor:
    def test_clean_run_completes_all_steps(self, clean_run):
        workdir, manifest = clean_run
        statuses = {n: r.status for n, r in manifest.steps.items()}
        assert statuses == {
            "generate": "done",
            "serve": "done",
            "crawl": "done",
            "analyze": "done",
        }
        for name in ("world", "crawled"):
            assert (workdir / name / "manifest.json").is_file()
        for name in ("report.txt", "manifest.json"):
            assert (workdir / name).is_file()

    def test_artifact_checksums_recorded_and_valid(self, clean_run):
        workdir, manifest = clean_run
        for name in ("generate", "crawl", "analyze"):
            record = manifest.steps[name]
            assert record.checksum
            assert (
                file_checksum(workdir / record.artifact) == record.checksum
            )

    def test_rerun_marks_steps_cached_and_counts_resumes(self, clean_run):
        from repro.obs import Obs

        workdir, _ = clean_run
        report_before = (workdir / "report.txt").read_bytes()
        obs = Obs()
        supervisor = PipelineSupervisor(
            workdir=workdir, users=USERS, seed=SEED,
            include_table4=False, http=False, obs=obs,
        )
        manifest = supervisor.run()
        assert manifest.steps["generate"].status == "cached"
        assert manifest.steps["crawl"].status == "cached"
        assert manifest.steps["analyze"].status == "cached"
        assert manifest.steps["serve"].status == "skipped"
        assert supervisor.resumed_this_run == [
            "generate", "crawl", "analyze",
        ]
        assert obs.registry.get("pipeline_steps_resumed").value() == 3
        assert (workdir / "report.txt").read_bytes() == report_before

    def test_corrupt_artifact_forces_rerun_of_that_step(self, clean_run):
        workdir, _ = clean_run
        report_before = (workdir / "report.txt").read_bytes()
        (workdir / "report.txt").write_bytes(b"tampered")
        supervisor = PipelineSupervisor(
            workdir=workdir, users=USERS, seed=SEED,
            include_table4=False, http=False,
        )
        manifest = supervisor.run()
        # Upstream steps resume; the damaged one recomputes — to the
        # same bytes, because the inputs are checksummed and identical.
        assert manifest.steps["crawl"].status == "cached"
        assert manifest.steps["analyze"].status == "done"
        assert (workdir / "report.txt").read_bytes() == report_before

    def test_flipped_column_byte_reruns_crawl(self, clean_run, tmp_path):
        import shutil

        clean_workdir, _ = clean_run
        workdir = tmp_path / "flipped"
        shutil.copytree(clean_workdir, workdir)
        column = workdir / "crawled" / "lib.total_min.npy"
        data = bytearray(column.read_bytes())
        data[-1] ^= 0x01
        column.write_bytes(bytes(data))
        supervisor = PipelineSupervisor(
            workdir=workdir, users=USERS, seed=SEED,
            include_table4=False, http=False,
        )
        manifest = supervisor.run()
        assert manifest.steps["generate"].status == "cached"
        assert manifest.steps["crawl"].status == "done"
        assert file_checksum(workdir / "crawled") == file_checksum(
            clean_workdir / "crawled"
        )
        assert (workdir / "report.txt").read_bytes() == (
            clean_workdir / "report.txt"
        ).read_bytes()

    def test_record_naming_an_old_artifact_reruns_its_step(
        self, clean_run, tmp_path
    ):
        # A workdir from the .npz layout: its crawl record names
        # crawled.npz, which analyze no longer reads.
        import shutil

        clean_workdir, _ = clean_run
        workdir = tmp_path / "old_layout"
        shutil.copytree(clean_workdir, workdir)
        path = workdir / "manifest.json"
        data = json.loads(path.read_text())
        data["steps"]["crawl"]["artifact"] = "crawled.npz"
        data["steps"]["analyze"]["status"] = "running"
        path.write_text(json.dumps(data))
        (workdir / "report.txt").unlink()
        supervisor = PipelineSupervisor(
            workdir=workdir, users=USERS, seed=SEED,
            include_table4=False, http=False,
        )
        manifest = supervisor.run()
        assert manifest.steps["crawl"].status == "done"
        assert manifest.steps["crawl"].artifact == "crawled"
        assert (workdir / "report.txt").read_bytes() == (
            clean_workdir / "report.txt"
        ).read_bytes()

    def test_success_after_failure_clears_the_note(
        self, clean_run, tmp_path, monkeypatch
    ):
        import shutil

        clean_workdir, _ = clean_run
        workdir = tmp_path / "flaky"
        shutil.copytree(clean_workdir, workdir)
        (workdir / "report.txt").unlink()
        write = PipelineSupervisor._write_report
        calls = []

        def fail_once(self, text):
            calls.append(text)
            if len(calls) == 1:
                raise OSError("disk full")
            return write(self, text)

        monkeypatch.setattr(PipelineSupervisor, "_write_report", fail_once)

        def supervisor():
            return PipelineSupervisor(
                workdir=workdir, users=USERS, seed=SEED,
                include_table4=False, http=False,
            )

        with pytest.raises(OSError, match="disk full"):
            supervisor().run()
        failed = RunManifest.load(workdir / "manifest.json")
        assert failed.steps["analyze"].status == "failed"
        assert failed.steps["analyze"].note == "OSError: disk full"
        manifest = supervisor().run()
        assert manifest.steps["analyze"].status == "done"
        assert manifest.steps["analyze"].note == ""
        assert RunManifest.load(workdir / "manifest.json").steps[
            "analyze"
        ].note == ""

    def test_config_mismatch_refuses_to_mix_artifacts(self, clean_run):
        workdir, _ = clean_run
        supervisor = PipelineSupervisor(
            workdir=workdir, users=USERS, seed=SEED + 1,
            include_table4=False, http=False,
        )
        with pytest.raises(PipelineConfigError, match="fresh"):
            supervisor.run()


_PIPELINE_SCRIPT = """
import sys
from repro.cli import main
sys.exit(main([
    "pipeline", "--users", "{users}", "--seed", "{seed}",
    "--workdir", {workdir!r}, "--skip-table4", "--no-http",
]))
"""


def _spawn_pipeline(workdir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            _PIPELINE_SCRIPT.format(
                users=USERS, seed=SEED, workdir=str(workdir)
            ),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_step(workdir: Path, step: str, timeout: float) -> None:
    """Poll the manifest until ``step`` is done (or the wait times out)."""
    manifest_path = workdir / "manifest.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if manifest_path.exists():
            try:
                data = json.loads(manifest_path.read_text())
            except ValueError:
                data = {}
            status = data.get("steps", {}).get(step, {}).get("status")
            if status == "done":
                return
        time.sleep(0.05)
    raise AssertionError(f"step {step} never reached done within {timeout}s")


class TestKillResume:
    def test_sigkill_after_crawl_resumes_without_recrawling(
        self, clean_run, tmp_path
    ):
        clean_workdir, _ = clean_run
        reference = (clean_workdir / "report.txt").read_bytes()

        workdir = tmp_path / "killed"
        proc = _spawn_pipeline(workdir)
        try:
            _wait_for_step(workdir, "crawl", timeout=120)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert not (workdir / "report.txt").exists()

        # Rerun in-process: crawl must come back cached, not re-run.
        supervisor = PipelineSupervisor(
            workdir=workdir, users=USERS, seed=SEED,
            include_table4=False, http=False,
        )
        manifest = supervisor.run()
        assert manifest.steps["crawl"].status == "cached"
        assert manifest.steps["generate"].status == "cached"
        assert manifest.steps["analyze"].status == "done"
        assert "crawl" in supervisor.resumed_this_run
        assert (workdir / "report.txt").read_bytes() == reference


class TestTracePropagation:
    """The supervisor exports REPRO_TRACE for the duration of the run so
    spawned subprocesses join the trace, and restores the environment
    afterwards (DESIGN.md §10)."""

    def _supervisor(self, tmp_path, obs):
        return PipelineSupervisor(
            workdir=tmp_path / "run",
            users=USERS,
            seed=SEED,
            include_table4=False,
            http=False,
            obs=obs,
        )

    def test_trace_exported_during_run_and_restored(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import TRACE_ENV_VAR, Obs, TraceContext

        monkeypatch.setenv(TRACE_ENV_VAR, "sentinel-from-outside")
        seen = {}
        orig = PipelineSupervisor._step_generate

        def spy(self, manifest):
            seen["during"] = os.environ.get(TRACE_ENV_VAR)
            return orig(self, manifest)

        monkeypatch.setattr(PipelineSupervisor, "_step_generate", spy)
        obs = Obs(trace=TraceContext.new(seed=SEED))
        self._supervisor(tmp_path, obs).run()
        assert seen["during"] == obs.trace.value()
        assert os.environ[TRACE_ENV_VAR] == "sentinel-from-outside"

    def test_untraced_run_leaves_env_alone(self, tmp_path, monkeypatch):
        from repro.obs import TRACE_ENV_VAR

        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        self._supervisor(tmp_path, obs=None).run()
        assert TRACE_ENV_VAR not in os.environ

    def test_span_tree_covers_every_step_under_one_trace(self, tmp_path):
        from repro.obs import Obs, TraceContext

        obs = Obs(trace=TraceContext.new(seed=SEED))
        self._supervisor(tmp_path, obs).run()
        totals = obs.tracer.aggregate()
        for name in ("pipeline", "generate", "crawl", "analyze"):
            assert totals[name]["count"] == 1, name
        (pipeline,) = obs.tracer.snapshot()
        assert pipeline["name"] == "pipeline"
        assert pipeline["span_id"] == 1

        def ids(snap):
            yield snap["span_id"]
            for child in snap["children"]:
                yield from ids(child)

        all_ids = list(ids(pipeline))
        assert len(set(all_ids)) == len(all_ids)
