"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.users == 100_000
        assert args.seed == 1603

    def test_default_outputs_are_directories(self):
        parser = build_parser()
        assert parser.parse_args(["generate"]).output == "steam_world"
        assert parser.parse_args(["crawl"]).output == "steam_crawl"
        assert parser.parse_args(["evolve"]).out_dir == "evolved"

    @pytest.mark.parametrize(
        "command", ["evolve", "analyze", "export", "figures", "serve-analytics"]
    )
    def test_dataset_flag_shared(self, command):
        args = build_parser().parse_args([command, "--dataset", "d"])
        assert args.dataset == "d"
        assert build_parser().parse_args([command]).dataset is None

    @pytest.mark.parametrize("command", ["analyze", "serve-analytics"])
    def test_engine_flags_shared(self, command):
        args = build_parser().parse_args([command])
        assert (args.jobs, args.cache_dir, args.no_cache) == (1, None, False)


class TestCommands:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "world"
        code = main(
            ["generate", "--users", "2000", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "generated 2,000 accounts" in capsys.readouterr().out

    def test_analyze_saved_dataset(self, tmp_path, capsys):
        data = tmp_path / "world"
        main(["generate", "--users", "2000", "--seed", "3", "--output", str(data)])
        report = tmp_path / "report.txt"
        code = main(
            [
                "analyze",
                "--dataset",
                str(data),
                "--skip-table4",
                "--output",
                str(report),
            ]
        )
        assert code == 0
        text = report.read_text()
        assert "Table 3" in text
        assert "Figure 10" in text

    def test_dataset_flag_verifies_checksums(self, tmp_path, capsys):
        import numpy as np

        data = tmp_path / "world"
        main(["generate", "--users", "1200", "--seed", "3", "--output", str(data)])
        column = np.load(data / "lib.total_min.npy")
        column[0] += 1
        np.save(data / "lib.total_min.npy", column)
        capsys.readouterr()
        assert main(["analyze", "--dataset", str(data), "--skip-table4"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {data}: ")
        assert "lib.total_min" in err[0]
        assert "failed its checksum" in err[0]

    @pytest.mark.parametrize(
        "command", ["analyze", "evolve", "export", "figures", "serve-analytics"]
    )
    def test_old_npz_dataset_is_one_error_line(self, tmp_path, capsys, command):
        old = tmp_path / "world.npz"
        old.write_bytes(b"PK\x03\x04 an old archive")
        assert main([command, "--dataset", str(old)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {old}: dataset {old} is a file, not a dataset directory "
            f"(.npz files are no longer read; regenerate the dataset)\n"
        )
        assert "Traceback" not in captured.out

    def test_missing_dataset_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["analyze", "--dataset", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"error: {missing}: no such dataset directory\n"
        )

    def test_analyze_prints_to_stdout(self, capsys):
        code = main(
            ["analyze", "--users", "2000", "--seed", "3", "--skip-table4"]
        )
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_crawl_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "crawl"
        code = main(
            ["crawl", "--users", "1500", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        from repro.store.io import load_dataset

        dataset = load_dataset(out)
        assert dataset.n_users == 1500

    def test_evolve_writes_deltas_and_dataset(self, tmp_path, capsys):
        out = tmp_path / "ev"
        code = main(
            [
                "evolve",
                "--users",
                "1500",
                "--seed",
                "5",
                "--steps",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "step_1.delta.json").exists()
        assert (out / "step_2.delta.json").exists()
        assert (out / "evolved").exists()
        stdout = capsys.readouterr().out
        assert "step 1" in stdout and "step 2" in stdout

        from repro.delta.model import WorldDelta
        from repro.store.io import load_dataset

        delta = WorldDelta.load(out / "step_1.delta.json")
        assert delta.step == 1
        evolved = load_dataset(out / "evolved")
        assert evolved.n_users >= 1500
        # The evolved dataset is analyzable as-is.
        code = main(
            [
                "analyze",
                "--dataset",
                str(out / "evolved"),
                "--skip-table4",
            ]
        )
        assert code == 0

    def test_export_command(self, tmp_path, capsys):
        outdir = tmp_path / "dump"
        code = main(
            [
                "export",
                "--users",
                "1500",
                "--seed",
                "3",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        assert (outdir / "players.jsonl.gz").exists()
        assert (outdir / "games.csv").exists()

    def test_figures_command(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        # 2500 users keeps the 0.5% week panel comfortably non-empty
        # (a ~7-user panel at 1500 can sample only inactive players).
        code = main(
            [
                "figures",
                "--users",
                "2500",
                "--seed",
                "3",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        assert (outdir / "fig06_playtime_cdf.csv").exists()

    def test_analyze_with_ascii_figures(self, capsys):
        code = main(
            [
                "analyze",
                "--users",
                "2000",
                "--seed",
                "3",
                "--skip-table4",
                "--figures",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "log-log pdf" in out

    def test_crawl_over_http(self, tmp_path, capsys):
        out = tmp_path / "crawl_http"
        code = main(
            [
                "crawl",
                "--users",
                "1200",
                "--seed",
                "3",
                "--http",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "HTTP transport" in capsys.readouterr().out


class TestObservability:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert (
            capsys.readouterr().out.strip()
            == f"condensing-steam {__version__}"
        )

    def test_crawl_metrics_out(self, tmp_path, capsys):
        import json

        out = tmp_path / "crawl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "crawl",
                "--users",
                "1200",
                "--seed",
                "3",
                "--output",
                str(out),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        snap = json.loads(metrics.read_text())
        assert snap["schema_version"] == 2
        # run_id is the seed-derived trace id; joinable with traces.
        from repro.obs import TraceContext

        assert snap["run_id"] == TraceContext.new(seed=3).trace_id
        assert "steamapi_requests" in snap["metrics"]
        assert "crawl" in snap["span_totals"]
        # generation was instrumented too (same obs scope)
        assert "generate" in snap["span_totals"]

    def test_generate_metrics_out(self, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "generate",
                "--users",
                "1200",
                "--seed",
                "3",
                "--output",
                str(tmp_path / "w"),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        snap = json.loads(metrics.read_text())
        assert "generate:ownership" in snap["span_totals"]

    def test_obs_summarize(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(
            [
                "crawl",
                "--users",
                "1200",
                "--seed",
                "3",
                "--output",
                str(tmp_path / "c"),
                "--metrics-out",
                str(metrics),
            ]
        )
        capsys.readouterr()
        code = main(["obs", "summarize", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "steamapi_requests" in out
        assert "== spans ==" in out

    def test_obs_summarize_rejects_non_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        code = main(["obs", "summarize", str(bad)])
        assert code == 1
        assert "not a metrics snapshot" in capsys.readouterr().out


class TestTracingCli:
    def test_pipeline_trace_out_single_merged_trace(
        self, tmp_path, capsys
    ):
        import json

        from repro.obs import TraceContext

        trace_path = tmp_path / "run.trace.json"
        code = main(
            [
                "pipeline",
                "--users",
                "1200",
                "--seed",
                "31",
                "--skip-table4",
                "--workdir",
                str(tmp_path / "wd"),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert "chrome trace written to" in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        # One merged trace: supervisor, crawler, HTTP server, engine.
        assert doc["otherData"]["trace_id"] == TraceContext.new(
            seed=31
        ).trace_id
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert "pipeline" in names
        assert "crawl" in names
        assert "phase:profiles" in names
        assert any(n.startswith("http:") for n in names)
        assert "analyze:summary" in names
        ids = [e["args"]["span_id"] for e in events]
        assert len(set(ids)) == len(ids)

    def test_analyze_profile_report(self, tmp_path, capsys):
        import json

        report = tmp_path / "profile.json"
        code = main(
            [
                "analyze",
                "--users",
                "2000",
                "--seed",
                "3",
                "--skip-table4",
                "--profile",
                str(report),
            ]
        )
        assert code == 0
        assert "profile report written to" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["profiles"]
        some_stage = next(iter(doc["profiles"].values()))
        assert {"func", "ncalls", "tottime", "cumtime"} <= set(
            some_stage[0]
        )

    def test_metrics_run_id_joins_ambient_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.obs import TRACE_ENV_VAR, TraceContext

        ambient = TraceContext.new(seed=99)
        monkeypatch.setenv(TRACE_ENV_VAR, ambient.value())
        metrics = tmp_path / "m.json"
        code = main(
            [
                "generate",
                "--users",
                "1200",
                "--seed",
                "3",
                "--output",
                str(tmp_path / "w"),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        snap = json.loads(metrics.read_text())
        # Joined the exported trace instead of rooting a fresh one.
        assert snap["run_id"] == ambient.trace_id


class TestBenchDiffCli:
    @staticmethod
    def _bench_doc(seconds):
        return {
            "schema_version": 1,
            "benchmark": "analysis",
            "git_rev": "abc1234",
            "world": {"seed": 31, "n_users": 8000},
            "metrics": [
                {
                    "name": "analyze_seconds",
                    "value": seconds,
                    "unit": "s",
                }
            ],
        }

    def _write(self, directory, seconds):
        import json

        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "BENCH_analysis.json"
        path.write_text(json.dumps(self._bench_doc(seconds)))
        return path

    def test_green_on_identical_results(self, tmp_path, capsys):
        self._write(tmp_path / "new", 1.0)
        self._write(tmp_path / "base", 1.0)
        code = main(
            [
                "obs",
                "bench-diff",
                str(tmp_path / "new"),
                str(tmp_path / "base"),
            ]
        )
        assert code == 0
        assert "[ok ]" in capsys.readouterr().out

    def test_exits_nonzero_on_2x_regression(self, tmp_path, capsys):
        self._write(tmp_path / "new", 2.0)
        self._write(tmp_path / "base", 1.0)
        code = main(
            [
                "obs",
                "bench-diff",
                str(tmp_path / "new"),
                str(tmp_path / "base"),
            ]
        )
        assert code == 1
        assert "[REG]" in capsys.readouterr().out

    def test_thresholds_can_loosen_the_gate(self, tmp_path):
        import json

        self._write(tmp_path / "new", 2.0)
        self._write(tmp_path / "base", 1.0)
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(
            json.dumps({"analyze_seconds": {"max_ratio": 3.0}})
        )
        code = main(
            [
                "obs",
                "bench-diff",
                str(tmp_path / "new"),
                str(tmp_path / "base"),
                "--thresholds",
                str(thresholds),
            ]
        )
        assert code == 0

    def test_errors_exit_two(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(
            [
                "obs",
                "bench-diff",
                str(tmp_path / "empty"),
                str(tmp_path / "empty"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().out
