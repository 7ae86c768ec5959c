"""Tests for repro.cli — the python -m repro command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--scale", "0.03", "--seed", "5"]
FAST_PIPELINE = ["--topics", "5", "--rrr-sets", "500"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_world_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--world", "gowalla"])

    @pytest.mark.parametrize("flags", [
        ["--executor", "thread"], ["--pipeline"],
    ], ids=["executor", "pipeline"])
    def test_stream_has_no_executor_flags(self, capsys, flags):
        """Rounds always solve in the calling thread: nothing to choose."""
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", *FAST, "--shards", "2", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.world == "bk"
        assert args.scale == 0.1
        assert args.snap_dir is None


class TestInfo:
    def test_prints_statistics(self, capsys):
        assert main(["info", *FAST]) == 0
        out = capsys.readouterr().out
        assert "users" in out
        assert "richest days" in out

    def test_fs_world(self, capsys):
        assert main(["info", "--world", "fs", *FAST]) == 0
        assert "FS-like" in capsys.readouterr().out


class TestGenerateData:
    def test_writes_snap_files(self, tmp_path, capsys):
        out_dir = tmp_path / "world"
        assert main(["generate-data", *FAST, "--out", str(out_dir)]) == 0
        assert (out_dir / "edges.txt").exists()
        assert (out_dir / "checkins.txt").exists()
        assert (out_dir / "categories.txt").exists()

    def test_roundtrip_through_info(self, tmp_path, capsys):
        out_dir = tmp_path / "world"
        main(["generate-data", *FAST, "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["info", "--snap-dir", str(out_dir)]) == 0
        assert "users" in capsys.readouterr().out


class TestAssign:
    def test_unknown_algorithm_fails(self, capsys):
        code = main(["assign", *FAST, "--algorithms", "XYZ"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_metrics_table(self, capsys):
        code = main([
            "assign", *FAST, *FAST_PIPELINE,
            "--algorithms", "MTA", "NN",
            "--num-tasks", "30", "--num-workers", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MTA" in out and "NN" in out
        assert "assigned" in out

    def test_movement_and_affinity_knobs(self, capsys):
        code = main([
            "assign", *FAST, *FAST_PIPELINE,
            "--algorithms", "IA",
            "--affinity", "tfidf", "--movement", "exponential",
            "--num-tasks", "20", "--num-workers", "20",
        ])
        assert code == 0
        assert "IA" in capsys.readouterr().out


class TestSweep:
    def test_comparison_sweep_with_exports(self, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        csv_path = tmp_path / "result.csv"
        code = main([
            "sweep", *FAST, *FAST_PIPELINE,
            "--parameter", "num_tasks", "--days", "1",
            "--out", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["parameter"] == "num_tasks"
        assert "MTA" in payload["series"]
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("algorithm,num_tasks")

    def test_ablation_sweep(self, capsys):
        code = main([
            "sweep", *FAST, *FAST_PIPELINE,
            "--parameter", "reachable_km", "--kind", "ablation", "--days", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "IA-WP" in out


class TestSeeds:
    def test_seed_table(self, capsys):
        code = main(["seeds", *FAST, "--k", "3", "--rrr-sets", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated spread" in out
        # Three ranked rows.
        assert all(f"\n    {rank} " in out for rank in (1, 2, 3))


class TestValidate:
    def test_synthetic_world_passes(self, capsys):
        assert main(["validate", *FAST]) == 0
        out = capsys.readouterr().out
        assert "[PASS] integrity" in out
        assert "movement-self-similarity" in out


class TestStream:
    def test_window_trigger_run(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--trigger", "window",
                     "--window-hours", "2"]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "rounds:" in out
        assert "round latency" in out

    def test_nan_window_and_patience_fail_fast(self, capsys):
        """argparse's float accepts "nan"; a NaN window would otherwise fire
        rounds forever without advancing the clock."""
        for trigger in ("window", "hybrid"):
            assert main(["stream", *FAST, "--no-influence", "--trigger",
                         trigger, "--window-hours", "nan"]) == 2
            assert "window_hours must be positive, got nan" in \
                capsys.readouterr().err
        assert main(["stream", *FAST, "--no-influence", "--trigger", "adaptive",
                     "--latency-budget", "nan"]) == 2
        assert "target_seconds" in capsys.readouterr().err
        assert main(["stream", *FAST, "--no-influence",
                     "--patience-hours", "nan"]) == 2
        assert "--patience-hours" in capsys.readouterr().err

    def test_count_trigger_with_patience(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--trigger", "count",
                     "--batch-count", "10", "--patience-hours", "3"]) == 0
        assert "churned" in capsys.readouterr().out

    def test_adaptive_trigger(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--trigger", "adaptive",
                     "--latency-budget", "0.5"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_with_influence_model(self, capsys):
        assert main(["stream", *FAST, *FAST_PIPELINE, "--algorithm", "IA",
                     "--trigger", "hybrid", "--batch-count", "20"]) == 0
        assert "assigned" in capsys.readouterr().out

    def test_show_rounds_zero_suppresses_table(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--show-rounds", "0"]) == 0
        out = capsys.readouterr().out
        assert "online" not in out  # no per-round table header
        assert "rounds:" in out  # summary still printed

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "4",
                     "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "stopped after 4 rounds" in out
        assert checkpoint.exists()
        assert main(["stream", *FAST, "--no-influence",
                     "--resume", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "stopped after" not in out

    def test_sharded_run(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded:" in out
        assert "rounds:" in out
        assert "phases (s):" in out

    def test_segmented_run(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--days", "3",
                     "--segment-days", "1"]) == 0
        out = capsys.readouterr().out
        assert "segments:" in out
        assert "rounds:" in out

    def test_segment_days_must_be_positive(self, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--segment-days", "0"]) == 2
        assert "--segment-days must be >= 1" in capsys.readouterr().err

    def test_resume_with_mismatched_segmentation_fails_fast(
        self, tmp_path, capsys
    ):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--days", "3",
                     "--segment-days", "1", "--max-rounds", "2",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence", "--days", "3",
                     "--resume", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert "segmented event-log run" in err
        assert "--segment-days" in err

    def test_resume_missing_checkpoint_fails_fast(self, tmp_path, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--resume", str(tmp_path / "missing.npz")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_resume_with_mismatched_trigger_fails_fast(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--trigger", "window", "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence", "--trigger", "count",
                     "--resume", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert "'window'" in err
        assert "'count'" in err
        assert "--trigger" in err

    def test_resume_with_mismatched_shards_fails_fast(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence", "--shards", "2",
                     "--resume", str(checkpoint)]) == 2
        assert "unsharded run" in capsys.readouterr().err

    def test_resume_with_mismatched_shard_count_fails_fast(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--shards", "4", "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence", "--shards", "2",
                     "--resume", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert "shards=4" in err
        assert "shards=2" in err

    def test_resume_with_mismatched_patience_fails_fast(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence",
                     "--patience-hours", "2", "--resume", str(checkpoint)]) == 2
        assert "--patience-hours" in capsys.readouterr().err


class TestStreamObservability:
    """The --trace / --metrics-port surface: files, endpoint, validation."""

    def test_trace_file_written_and_schema_valid(self, tmp_path, capsys):
        from repro.obs import validate_trace_events

        trace = tmp_path / "trace.json"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "3",
                     "--show-rounds", "0", "--trace", str(trace)]) == 0
        assert f"trace: {trace}" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        validate_trace_events(payload)
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"process_name", "round", "round.drain"} <= names

    def test_trace_covers_sharded_runs(self, tmp_path, capsys):
        from repro.obs import validate_trace_events

        trace = tmp_path / "sharded.json"
        assert main(["stream", *FAST, "--no-influence", "--shards", "4",
                     "--show-rounds", "0", "--trace", str(trace)]) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        validate_trace_events(payload)
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"shard.prepare", "shard.solve", "round.merge"} <= names

    def test_metrics_port_serves_valid_exposition(self, capsys):
        import socket
        import threading
        import time
        import urllib.request

        from repro.obs import validate_exposition

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}/metrics"
        scraped: list[str] = []
        done = threading.Event()

        def scrape():
            while not done.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=1) as response:
                        scraped.append(response.read().decode("utf-8"))
                except OSError:
                    pass
                time.sleep(0.01)

        thread = threading.Thread(target=scrape, daemon=True)
        thread.start()
        try:
            assert main(["stream", *FAST, "--no-influence", "--show-rounds",
                         "0", "--metrics-port", str(port)]) == 0
        finally:
            done.set()
            thread.join(timeout=10)
        assert f"metrics: {url}" in capsys.readouterr().out
        assert scraped, "no scrape landed while the endpoint was up"
        validate_exposition(scraped[-1])

    def test_invalid_metrics_port_fails_fast(self, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--metrics-port", "70000"]) == 2
        assert "--metrics-port" in capsys.readouterr().err


class TestStreamMultiDayAndAdmission:
    """The --days and --admission-* surface: runs and flag validation."""

    def test_multi_day_run(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--days", "3",
                     "--day", "5", "--show-rounds", "0"]) == 0
        out = capsys.readouterr().out
        assert "relocations" in out
        assert "rounds:" in out

    def test_admission_defer_run(self, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-budget", "0.5", "--show-rounds", "0"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_admission_shed_run(self, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-budget", "0.5",
                     "--admission-policy", "shed", "--show-rounds", "0"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_days_must_be_positive(self, capsys):
        assert main(["stream", *FAST, "--no-influence", "--days", "0"]) == 2
        assert "--days" in capsys.readouterr().err

    def test_admission_policy_requires_budget(self, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-policy", "shed"]) == 2
        assert "--admission-budget" in capsys.readouterr().err

    def test_admission_budget_must_be_positive(self, capsys):
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-budget", "0"]) == 2
        assert "--admission-budget" in capsys.readouterr().err

    def test_admission_budget_rejects_negative(self, capsys):
        for bad in ("-1", "nan"):
            assert main(["stream", *FAST, "--no-influence",
                         "--admission-budget", bad]) == 2
            assert "positive" in capsys.readouterr().err

    def test_resume_with_mismatched_admission_fails_fast(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-budget", "1.0",
                     "--resume", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert "admission" in err
        assert "--admission-*" in err

    def test_resume_with_mismatched_admission_policy_fails_fast(
        self, tmp_path, capsys
    ):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--admission-budget", "1.0",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-budget", "1.0",
                     "--admission-policy", "shed",
                     "--resume", str(checkpoint)]) == 2
        assert "policy" in capsys.readouterr().err

    def test_admission_resume_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", *FAST, "--no-influence", "--max-rounds", "2",
                     "--admission-budget", "1.0", "--days", "2", "--day", "5",
                     "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["stream", *FAST, "--no-influence",
                     "--admission-budget", "1.0", "--days", "2", "--day", "5",
                     "--resume", str(checkpoint), "--show-rounds", "0"]) == 0
        assert "resumed from" in capsys.readouterr().out
