"""Dataset persistence: the checksummed column directory.

Round-trips, integrity checks on load, and the byte-identity of
analyses run over the memory-mapped columns (serially, or by forked or
spawned engine workers reading the spill).
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.store.io import DatasetIntegrityError, load_dataset, save_dataset


def _rewrite_column(path, key, arr):
    """Replace one column file, keeping the old manifest checksum."""
    np.save(path / f"{key}.npy", arr)


def _update_manifest(path, **fields):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest.update(fields)
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_full_roundtrip(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        assert path == tmp_path / "world"
        assert path.is_dir()
        loaded = load_dataset(path)

        assert loaded.n_users == small_dataset.n_users
        assert np.array_equal(
            loaded.accounts.id_offset, small_dataset.accounts.id_offset
        )
        assert np.array_equal(loaded.friends.u, small_dataset.friends.u)
        assert np.array_equal(loaded.friends.day, small_dataset.friends.day)
        assert np.array_equal(
            loaded.library.total_min, small_dataset.library.total_min
        )
        assert np.array_equal(
            loaded.groups.members.indices,
            small_dataset.groups.members.indices,
        )
        assert loaded.accounts.country_names == (
            small_dataset.accounts.country_names
        )
        assert loaded.catalog.genre_names == small_dataset.catalog.genre_names

    def test_optional_tables_roundtrip(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "with_opt")
        loaded = load_dataset(path)
        assert loaded.achievements is not None
        assert np.array_equal(
            loaded.achievements.rates, small_dataset.achievements.rates
        )
        assert loaded.snapshot2 is not None
        assert np.array_equal(
            loaded.snapshot2.owned, small_dataset.snapshot2.owned
        )

    def test_meta_roundtrip(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "meta")
        loaded = load_dataset(path)
        assert loaded.meta.seed == small_dataset.meta.seed
        assert loaded.meta.snapshot1_day == small_dataset.meta.snapshot1_day

    def test_analyses_identical_after_reload(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "x")
        loaded = load_dataset(path)
        assert np.array_equal(
            loaded.friend_counts(), small_dataset.friend_counts()
        )
        assert np.allclose(
            loaded.market_value_dollars(),
            small_dataset.market_value_dollars(),
        )

    def test_rejects_future_format(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "v")
        _update_manifest(path, format_version=999)
        with pytest.raises(ValueError):
            load_dataset(path)


class TestDirRoundTrip:
    def test_fingerprint_identical(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        loaded = load_dataset(path)
        assert loaded.fingerprint() == small_dataset.fingerprint()

    def test_mmap_and_inmemory_identical(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        mapped = load_dataset(path)
        assert mapped.fingerprint() == small_dataset.fingerprint()
        # Loaded columns are backed by the files, not private copies.
        assert isinstance(mapped.accounts.id_offset, np.memmap)
        assert not isinstance(small_dataset.accounts.id_offset, np.memmap)

    def test_verify_passes_on_clean_dir(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        loaded = load_dataset(path, verify=True)
        assert loaded.n_users == small_dataset.n_users

    def test_overwrite_existing_directory(self, small_dataset, tmp_path):
        path = tmp_path / "world"
        save_dataset(small_dataset, path)
        save_dataset(small_dataset, path)
        assert load_dataset(path).fingerprint() == small_dataset.fingerprint()
        assert [p.name for p in tmp_path.iterdir()] == ["world"]

    def test_layout_is_one_npy_per_column_plus_manifest(
        self, small_dataset, tmp_path
    ):
        path = save_dataset(small_dataset, tmp_path / "world")
        keys = [key for key, _ in small_dataset.iter_columns()]
        assert sorted(p.name for p in path.iterdir()) == sorted(
            [f"{key}.npy" for key in keys] + ["manifest.json"]
        )
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert sorted(manifest["checksums"]) == sorted(keys)


class TestIntegrity:
    """Atomic writes and checksum-verified loads (DESIGN.md §9)."""

    def test_save_leaves_no_temp_files(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "clean")
        assert [p.name for p in tmp_path.iterdir()] == ["clean"]

    def test_truncated_file_raises_integrity_error(
        self, small_dataset, tmp_path
    ):
        path = save_dataset(small_dataset, tmp_path / "t")
        column = path / "fr.u.npy"
        whole = column.read_bytes()
        column.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(DatasetIntegrityError, match="corrupt") as excinfo:
            load_dataset(path)
        assert excinfo.value.key == "fr.u"

    def test_checksum_mismatch_names_the_entry(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "c")
        flipped = small_dataset.accounts.country.copy()
        flipped[0] += 1
        _rewrite_column(path, "acc.country", flipped)
        with pytest.raises(DatasetIntegrityError) as excinfo:
            load_dataset(path)
        assert excinfo.value.key == "acc.country"
        assert "acc.country" in str(excinfo.value)

    def test_verify_false_skips_checksums(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "s")
        flipped = small_dataset.accounts.country.copy()
        flipped[0] += 1
        _rewrite_column(path, "acc.country", flipped)
        loaded = load_dataset(path, verify=False)
        assert loaded.accounts.country[0] == flipped[0]

    def test_missing_required_entry_names_the_key(
        self, small_dataset, tmp_path
    ):
        path = save_dataset(small_dataset, tmp_path / "m")
        (path / "fr.day.npy").unlink()
        with pytest.raises(DatasetIntegrityError) as excinfo:
            load_dataset(path, verify=False)
        assert excinfo.value.key == "fr.day"

    def test_future_version_message_states_found_and_supported(
        self, small_dataset, tmp_path
    ):
        path = save_dataset(small_dataset, tmp_path / "f")
        _update_manifest(path, format_version=999)
        with pytest.raises(DatasetIntegrityError) as excinfo:
            load_dataset(path)
        message = str(excinfo.value)
        assert "999" in message
        assert "supports version 1" in message

    def test_roundtrip_checksums_verify_clean(self, small_dataset, tmp_path):
        # The happy path with verification on: nothing should trip.
        path = save_dataset(small_dataset, tmp_path / "ok")
        loaded = load_dataset(path, verify=True)
        assert loaded.fingerprint() == small_dataset.fingerprint()

    @pytest.mark.parametrize("name", ["world.npz", "notes.txt"])
    def test_plain_file_is_an_integrity_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"PK\x03\x04 not a dataset directory")
        with pytest.raises(DatasetIntegrityError) as excinfo:
            load_dataset(path)
        assert str(path) in str(excinfo.value)

    def test_missing_path_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent")

    def test_directory_without_manifest_is_an_integrity_error(
        self, small_dataset, tmp_path
    ):
        path = save_dataset(small_dataset, tmp_path / "nm")
        (path / "manifest.json").unlink()
        with pytest.raises(DatasetIntegrityError, match="manifest"):
            load_dataset(path)


class TestDirIntegrity:
    def test_missing_column_named(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        (path / "fr.u.npy").unlink()
        with pytest.raises(DatasetIntegrityError, match="fr.u"):
            load_dataset(path)

    def test_corrupt_column_fails_verify(self, small_dataset, tmp_path):
        # A flipped byte in a column's data: the .npy still parses, only
        # the checksum can tell.
        path = save_dataset(small_dataset, tmp_path / "world")
        column = path / "lib.total_min.npy"
        data = bytearray(column.read_bytes())
        data[-1] ^= 0x01
        column.write_bytes(bytes(data))
        assert load_dataset(path, verify=False).n_users == (
            small_dataset.n_users
        )
        with pytest.raises(DatasetIntegrityError, match="lib.total_min"):
            load_dataset(path)

    def test_future_version_rejected(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        _update_manifest(path, format_version=99)
        with pytest.raises(DatasetIntegrityError, match="format_version"):
            load_dataset(path)

    def test_corrupt_manifest_rejected(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "world")
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetIntegrityError, match="manifest"):
            load_dataset(path)


class TestWorkerByteIdentity:
    """jobs stays a pure acceleration knob with the mmap'd spill
    (DESIGN.md §8/§13): fork or spawn, any jobs count, byte-identical
    report."""

    @pytest.fixture(scope="class")
    def serial_render(self, small_world):
        from repro import SteamStudy

        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        report = study.run(table4_max_tail=4_000, jobs=1)
        return report.render(), report.render_figures()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_spawn_workers_match_serial(
        self, small_world, serial_render, jobs, monkeypatch
    ):
        from repro import SteamStudy

        # Force the spawn branch (and with it the mmap'd spill) even on
        # platforms where fork is available.
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        report = study.run(table4_max_tail=4_000, jobs=jobs)
        assert not study.last_engine_run.serial_fallback
        assert report.render() == serial_render[0]
        assert report.render_figures() == serial_render[1]

    def test_fork_workers_match_serial(
        self, small_world, serial_render
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        from repro import SteamStudy

        study = SteamStudy(
            world=small_world, _dataset=small_world.dataset
        )
        report = study.run(table4_max_tail=4_000, jobs=2)
        assert report.render() == serial_render[0]

    def test_analysis_on_mmap_dataset_matches(
        self, small_dataset, tmp_path
    ):
        from repro import SteamStudy

        path = save_dataset(small_dataset, tmp_path / "world")
        mapped = load_dataset(path)
        a = SteamStudy.from_dataset(mapped).run(table4_max_tail=4_000)
        b = SteamStudy.from_dataset(small_dataset).run(
            table4_max_tail=4_000
        )
        assert a.render() == b.render()
