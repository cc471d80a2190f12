"""Atomic-write discipline (DESIGN.md §9): torn files must be impossible.

Covers the shared :mod:`repro.fsutil` primitive, the dataset writer,
and the observability snapshot writer — including the brutal case, a
``SIGKILL`` landing mid-write in a subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fsutil import atomic_write_bytes, atomic_write_text, atomic_writer
from repro.obs import Obs
from repro.pipeline.manifest import file_checksum
from repro.store.io import load_dataset, save_dataset


def _no_tmp_leftovers(directory: Path) -> bool:
    return not [p for p in directory.iterdir() if ".tmp." in p.name]


class TestAtomicWriter:
    def test_roundtrip_and_cleanup(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, '{"a": 1}')
        assert json.loads(target.read_text()) == {"a": 1}
        atomic_write_bytes(target, b'{"a": 2}')
        assert json.loads(target.read_text()) == {"a": 2}
        assert _no_tmp_leftovers(tmp_path)

    def test_failure_preserves_previous_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_writer(target, "w") as handle:
                handle.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "previous"
        assert _no_tmp_leftovers(tmp_path)

    def test_failure_before_first_write_leaves_no_target(self, tmp_path):
        target = tmp_path / "never.json"
        with pytest.raises(RuntimeError):
            with atomic_writer(target, "w"):
                raise RuntimeError("boom")
        assert not target.exists()
        assert _no_tmp_leftovers(tmp_path)


class TestDatasetWriter:
    def test_failed_save_preserves_previous_dataset(
        self, tmp_path, small_dataset, monkeypatch
    ):
        target = tmp_path / "world"
        save_dataset(small_dataset, target)
        good = file_checksum(target)

        def explode(*args, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(np, "save", explode)
        with pytest.raises(OSError):
            save_dataset(small_dataset, target)
        assert file_checksum(target) == good
        assert _no_tmp_leftovers(tmp_path)
        reloaded = load_dataset(target)
        assert reloaded.fingerprint() == small_dataset.fingerprint()

    def test_failed_rename_restores_previous_dataset(
        self, tmp_path, small_dataset, monkeypatch
    ):
        # The old directory is already renamed aside when the staged one
        # fails to move into place: it must be put back.
        target = tmp_path / "world"
        save_dataset(small_dataset, target)
        good = file_checksum(target)
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == target and ".tmp." in Path(src).name and not (
                Path(src).name.endswith(".old")
            ):
                raise OSError("rename refused")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            save_dataset(small_dataset, target)
        assert file_checksum(target) == good
        assert _no_tmp_leftovers(tmp_path)


class TestSnapshotWriter:
    def test_metrics_snapshot_written_atomically(self, tmp_path):
        obs = Obs()
        obs.counter("c", "help").inc()
        target = tmp_path / "metrics.json"
        obs.write(target)
        assert isinstance(json.loads(target.read_text()), dict)
        assert _no_tmp_leftovers(tmp_path)

    def test_kill_during_write_never_leaves_torn_snapshot(self, tmp_path):
        """SIGKILL a child that rewrites a snapshot in a tight loop; the
        published file must always parse, whatever instant the kill hit."""
        target = tmp_path / "metrics.json"
        script = (
            "import sys\n"
            "from repro.obs import Obs\n"
            "obs = Obs()\n"
            "counter = obs.counter('spin', 'busy loop')\n"
            "print('ready', flush=True)\n"
            "while True:\n"
            "    counter.inc()\n"
            f"    obs.write({str(target)!r})\n"
        )
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}"
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == b"ready"
            # Let it cycle through many write→fsync→rename iterations,
            # then kill at an arbitrary point of one.
            time.sleep(0.5)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)
        assert target.exists(), "no snapshot ever published"
        snapshot = json.loads(target.read_text())
        assert snapshot["metrics"]["spin"]["series"][0]["value"] >= 1
        # The dangling temp file of the killed write (if any) must not
        # shadow or corrupt the published snapshot; the target itself
        # parsed, which is the guarantee.  Clean leftovers so later
        # assertions about the directory stay meaningful.
        for leftover in tmp_path.iterdir():
            if ".tmp." in leftover.name:
                leftover.unlink()
        assert _no_tmp_leftovers(tmp_path)
