"""CLI wiring (fast paths only; heavy subcommands smoke-tested in benches)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_args(self):
        args = build_parser().parse_args(["fig5", "taxi-lr", "--full", "--seeds", "2"])
        assert args.command == "fig5"
        assert args.config == "taxi-lr"
        assert args.full and args.seeds == 2

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "mnist"])

    def test_fig8_rates(self):
        args = build_parser().parse_args(["fig8", "--rates", "0.1", "0.4"])
        assert args.rates == [0.1, 0.4]


class TestExecution:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "taxi-lr" in out and "Counts x26" in out

    def test_fig8_tiny(self, capsys):
        assert main(["fig8", "--rates", "0.2", "--horizon", "40"]) == 0
        out = capsys.readouterr().out
        assert "block-conserve" in out


class TestDurabilityCommands:
    def test_wal_demo_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wal-demo"])

    def test_clean_run_then_recover_reports_same_digest(self, tmp_path, capsys):
        assert main(["wal-demo", "--wal-dir", str(tmp_path), "--hours", "3"]) == 0
        ran = capsys.readouterr().out
        assert "3 committed" in ran
        assert main(["recover", "--wal-dir", str(tmp_path)]) == 0
        recovered = capsys.readouterr().out
        assert "3 hour(s) committed" in recovered
        digest = next(l for l in ran.splitlines() if l.startswith("state digest"))
        assert digest in recovered

    def test_crash_then_recover_matches_shorter_clean_run(self, tmp_path, capsys):
        # hour.after_commit dies right after hour 0 lands in the WAL, so
        # recovery must rebuild exactly the one-hour state.
        crash_dir, clean_dir = tmp_path / "crash", tmp_path / "clean"
        assert (
            main(
                [
                    "wal-demo",
                    "--wal-dir",
                    str(crash_dir),
                    "--hours",
                    "3",
                    "--crash-at",
                    "hour.after_commit",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "crashed at hour.after_commit" in out
        assert "charge log holds 1 hour(s)" in out
        assert main(["recover", "--wal-dir", str(crash_dir)]) == 0
        recovered = capsys.readouterr().out
        assert main(["wal-demo", "--wal-dir", str(clean_dir), "--hours", "1"]) == 0
        clean = capsys.readouterr().out
        digest = next(l for l in clean.splitlines() if l.startswith("state digest"))
        assert digest in recovered

    def test_unknown_crash_point_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["wal-demo", "--wal-dir", str(tmp_path), "--crash-at", "no.such.point"]
        )
        assert code == 1
        assert "unknown crash point" in capsys.readouterr().err

    def test_recover_without_manifest_is_a_clean_error(self, tmp_path, capsys):
        assert main(["recover", "--wal-dir", str(tmp_path / "nothere")]) == 1
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"seed": 5', "not valid JSON"),
            ("[1, 2]", "must hold a JSON object"),
            ('{"snapshot_every": 0, "targets": []}', "lacks the 'seed' key"),
            ('{"seed": 5, "targets": []}', "lacks the 'snapshot_every' key"),
            ('{"seed": 5, "snapshot_every": 0}', "lacks the 'targets' key"),
            ('{"seed": "5", "snapshot_every": 0, "targets": []}', "invalid 'seed'"),
            ('{"seed": 5, "snapshot_every": -1, "targets": []}',
             "invalid 'snapshot_every'"),
            ('{"seed": 5, "snapshot_every": 0, "targets": [true]}',
             "invalid 'targets'"),
        ],
        ids=[
            "torn", "not-object", "no-seed", "no-snapshot-every", "no-targets",
            "bad-seed", "bad-snapshot-every", "bad-targets",
        ],
    )
    def test_recover_on_a_damaged_manifest_is_a_clean_error(
        self, tmp_path, capsys, text, message
    ):
        assert main(["wal-demo", "--wal-dir", str(tmp_path), "--hours", "2"]) == 0
        capsys.readouterr()
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        assert main(["recover", "--wal-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and message in err

    def test_recover_accepts_a_legacy_shards_key(self, tmp_path, capsys):
        """Manifests written when the demo could shard its accountant still
        carry ``"shards": N``; recovery ignores it and rebuilds the same
        state on the single store."""
        assert main(["wal-demo", "--wal-dir", str(tmp_path), "--hours", "3"]) == 0
        ran = capsys.readouterr().out
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert "shards" not in manifest
        manifest["shards"] = 4
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["recover", "--wal-dir", str(tmp_path)]) == 0
        recovered = capsys.readouterr().out
        digest = next(l for l in ran.splitlines() if l.startswith("state digest"))
        assert digest in recovered


def load_trace(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {"displayTimeUnit", "traceEvents"}
    return payload["traceEvents"]


class TestObservabilityCommands:
    def test_obs_report_json(self, capsys):
        assert main(["obs-report", "--hours", "2", "--pipelines", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counters"]["sage_hours_advanced_total"] == 2
        assert report["counters"]["sage_charges_granted_total"] > 0
        assert report["gauges"]["sage_privacy_epsilon_spent"] > 0.0
        assert 'sage_block_epsilon{block="0"}' in report["gauges"]
        assert "sage_staged_batch_requests" in report["histograms"]

    def test_obs_report_prometheus(self, capsys):
        code = main(["obs-report", "--hours", "2", "--format", "prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE sage_charges_granted_total counter" in out
        assert 'sage_block_epsilon{block="0"}' in out
        assert 'sage_staged_batch_requests_bucket{le="+Inf"}' in out

    def test_obs_report_is_deterministic(self, capsys):
        assert main(["obs-report", "--hours", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["obs-report", "--hours", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "drive.json"
        assert main(["trace", "--out", str(out_path), "--hours", "3"]) == 0
        summary = capsys.readouterr().out
        assert "3 hour(s)" in summary and str(out_path) in summary
        events = load_trace(out_path)
        names = {event["name"] for event in events}
        # The traced demo is durable, so the full taxonomy shows up.
        assert {
            "advance.hour",
            "session.drive",
            "charge.batch",
            "staging.commit",
            "wal.append",
            "wal.fsync",
            "snapshot.write",
        } <= names
        assert not any(name.startswith("shard.") for name in names)
        spans = [event for event in events if event["ph"] == "X"]
        assert spans and all(event["dur"] >= 0 for event in spans)

    def test_wal_demo_and_recover_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "crash.json"
        assert (
            main(
                [
                    "wal-demo",
                    "--wal-dir",
                    str(tmp_path / "wal"),
                    "--hours",
                    "3",
                    "--crash-at",
                    "hour.after_commit",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # The trace survives the simulated crash and records the trip itself.
        names = {event["name"] for event in load_trace(trace_path)}
        assert "fault.trip" in names and "wal.commit" in names

        recover_trace = tmp_path / "recover.json"
        assert (
            main(
                [
                    "recover",
                    "--wal-dir",
                    str(tmp_path / "wal"),
                    "--trace-out",
                    str(recover_trace),
                ]
            )
            == 0
        )
        assert "verified 1 commit digest(s)" in capsys.readouterr().out
        names = {event["name"] for event in load_trace(recover_trace)}
        assert {"recover.run", "recover.hour", "recover.report"} <= names


class TestPerfCommands:
    def test_profile_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.command == "profile"
        assert args.snapshot_every == 2
        assert args.out is None and args.flame_out is None

    def test_perf_diff_requires_both_traces(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf-diff", "only-one.json"])

    def test_profile_prints_breakdown_and_writes_artifacts(
        self, tmp_path, capsys
    ):
        profile_path = tmp_path / "profile.json"
        flame_path = tmp_path / "flame.folded"
        assert (
            main(
                [
                    "profile",
                    "--hours",
                    "2",
                    "--pipelines",
                    "2",
                    "--out",
                    str(profile_path),
                    "--flame-out",
                    str(flame_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profiled 2 hour(s)" in out
        assert "hour coverage" in out
        assert "advance.hour" in out and "hour 0:" in out
        # The Chrome export carries the profiler's wall-clock spans.
        events = load_trace(profile_path)
        assert {e["name"] for e in events} >= {"advance.hour", "wal.fsync"}
        # The collapsed stacks are flamegraph.pl input: "stack weight".
        lines = flame_path.read_text(encoding="utf-8").splitlines()
        assert lines and all(l.rpartition(" ")[2].isdigit() for l in lines)
        assert any(l.startswith("advance.hour") for l in lines)

    def test_wal_demo_profile_out_rides_alongside_the_trace(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        profile_path = tmp_path / "profile.json"
        assert (
            main(
                [
                    "wal-demo",
                    "--wal-dir",
                    str(tmp_path / "wal"),
                    "--hours",
                    "2",
                    "--trace-out",
                    str(trace_path),
                    "--profile-out",
                    str(profile_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace written to" in out and "profile written to" in out
        # Same taxonomy, different clocks: the tracer's timestamps are
        # logical ticks (integers); the profiler's are perf_counter reads.
        trace_spans = [e for e in load_trace(trace_path) if e["ph"] == "X"]
        profile_spans = [e for e in load_trace(profile_path) if e["ph"] == "X"]
        assert {e["name"] for e in trace_spans} == {
            e["name"] for e in profile_spans
        }
        assert all(float(e["ts"]).is_integer() for e in trace_spans)

    def test_recover_profile_out(self, tmp_path, capsys):
        assert (
            main(["wal-demo", "--wal-dir", str(tmp_path / "wal"), "--hours", "2"])
            == 0
        )
        capsys.readouterr()
        profile_path = tmp_path / "recover-profile.json"
        assert (
            main(
                [
                    "recover",
                    "--wal-dir",
                    str(tmp_path / "wal"),
                    "--profile-out",
                    str(profile_path),
                ]
            )
            == 0
        )
        assert "profile written to" in capsys.readouterr().out
        names = {e["name"] for e in load_trace(profile_path)}
        assert {"recover.run", "recover.hour"} <= names

    def test_perf_diff_renders_per_phase_movement(self, tmp_path, capsys):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["profile", "--hours", "1", "--out", str(before)]) == 0
        assert main(["profile", "--hours", "2", "--out", str(after)]) == 0
        capsys.readouterr()
        assert main(["perf-diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert f"perf diff: {before} -> {after}" in out
        assert "advance.hour" in out and "ratio" in out

    def _write_history(self, path, speedups):
        records = [
            {
                "name": "demo_case",
                "bench": "demo",
                "params": {},
                "scalar_ms": 10.0,
                "vectorized_ms": 10.0 / s,
                "speedup": s,
            }
            for s in speedups
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        return path

    def test_perf_report_reads_a_history_file(self, tmp_path, capsys):
        history = self._write_history(tmp_path / "h.jsonl", [2.0, 2.2, 2.1])
        assert main(["perf-report", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "demo_case" in out
        assert "no regressions" in out

    def test_perf_report_check_fails_on_a_collapse(self, tmp_path, capsys):
        history = self._write_history(tmp_path / "h.jsonl", [2.0, 2.2, 0.3])
        # Without --check the report prints but the exit stays green.
        assert main(["perf-report", "--history", str(history)]) == 0
        assert "<< REGRESSION" in capsys.readouterr().out
        assert main(["perf-report", "--history", str(history), "--check"]) == 1
        assert "fell below" in capsys.readouterr().out

    def test_perf_report_check_passes_inside_the_band(self, tmp_path, capsys):
        history = self._write_history(tmp_path / "h.jsonl", [2.0, 2.2, 2.1])
        assert main(["perf-report", "--history", str(history), "--check"]) == 0
        capsys.readouterr()

    def test_perf_report_tolerance_overrides_the_band(self, tmp_path, capsys):
        history = self._write_history(tmp_path / "h.jsonl", [2.0, 2.2, 1.9])
        assert main(["perf-report", "--history", str(history), "--check"]) == 0
        capsys.readouterr()
        code = main(
            [
                "perf-report",
                "--history",
                str(history),
                "--check",
                "--tolerance",
                "0.95",
            ]
        )
        assert code == 1
        assert "<< REGRESSION" in capsys.readouterr().out
