"""Tests for the ``focal`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.studies.registry import study_names


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])


class TestList:
    def test_lists_all_studies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == study_names()


class TestFigure:
    def test_ascii_output(self, capsys):
        assert main(["figure", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "figure7" in out
        assert "legend:" in out

    def test_csv_output(self, capsys):
        assert main(["figure", "figure1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("figure,panel,series,label,x,y")

    def test_json_output(self, capsys):
        assert main(["figure", "figure8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure_id"] == "figure8"

    def test_md_output(self, capsys):
        assert main(["figure", "figure9", "--format", "md"]) == 0
        assert "## figure9" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fig.csv"
        assert main(["figure", "figure1", "--out", str(target)]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_figure_exits_2(self, capsys):
        assert main(["figure", "figure42"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown study" in err


class TestCompare:
    def test_fsc_vs_ooo(self, capsys):
        code = main(
            ["compare", "--x", "1.01", "1.64", "1.01", "--y", "1.39", "1.75", "2.32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strongly sustainable" in out
        assert "embodied-dominated" in out
        assert "operational-dominated" in out

    def test_single_alpha(self, capsys):
        code = main(
            [
                "compare",
                "--x", "1.0", "1.0", "2.0",
                "--y", "1.0", "1.0", "1.0",
                "--alpha", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "less sustainable" in out
        assert out.count("sustainable") == 1  # only one regime row

    def test_requires_both_designs(self):
        with pytest.raises(SystemExit):
            main(["compare", "--x", "1", "1", "1"])


class TestRoadmap:
    def test_both_policies_printed(self, capsys):
        assert main(["roadmap", "--generations", "2"]) == 0
        out = capsys.readouterr().out
        assert "shrink" in out
        assert "constant-area" in out

    def test_custom_parameters(self, capsys):
        assert (
            main(
                [
                    "roadmap",
                    "--generations", "1",
                    "--cores", "2",
                    "--parallel-fraction", "0.9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert " 4 " in out  # constant-area doubles 2 -> 4


class TestAdvise:
    def test_known_workload(self, capsys):
        assert main(["advise", "mobile"]) == 0
        out = capsys.readouterr().out
        assert "pipeline gating" in out
        assert "strongly sustainable" in out

    def test_regime_flag(self, capsys):
        assert main(["advise", "datacenter", "--regime", "operational"]) == 0
        assert "operational-dominated" in capsys.readouterr().out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["advise", "gaming"]) == 2
        assert "error:" in capsys.readouterr().err


class TestMechanisms:
    def test_all_match_exit_zero(self, capsys):
        assert main(["mechanisms"]) == 0
        out = capsys.readouterr().out
        assert "26/26" in out
        assert "die shrink" in out


class TestFindings:
    def test_all_pass_exit_zero(self, capsys):
        assert main(["findings"]) == 0
        out = capsys.readouterr().out
        assert "checks pass" in out
        assert "F13" in out

    def test_failed_only_prints_summary_only(self, capsys):
        assert main(["findings", "--failed-only"]) == 0
        out = capsys.readouterr().out
        # No failing checks -> no table rows, just the tally.
        assert "F13" not in out
        assert "checks pass" in out


class TestSweep:
    def test_prints_category_histogram(self, capsys):
        assert main(["sweep", "--max-cores", "16", "--fractions", "0.5", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "10 designs" in out  # 5 core rungs x 2 fractions
        assert "category" in out and "points" in out
        assert "embodied-dominated" in out

    def test_prints_cache_stats_summary(self, capsys):
        assert main(["sweep", "--max-cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "cache: 12 entries" in out  # 3 core rungs x 4 default fractions
        assert "hit ratio" in out

    def test_regime_flag(self, capsys):
        assert main(["sweep", "--max-cores", "4", "--regime", "operational"]) == 0
        assert "operational-dominated" in capsys.readouterr().out

    def test_workers_flag_matches_serial(self, capsys):
        def split_engine_line(text):
            lines = text.splitlines()
            engine = [line for line in lines if line.startswith("engine:")]
            rest = [line for line in lines if not line.startswith("engine:")]
            return engine, rest

        args = ["sweep", "--max-cores", "8", "--fractions", "0.9"]
        assert main(args) == 0
        serial_engine, serial = split_engine_line(capsys.readouterr().out)
        assert main(args + ["--workers", "2", "--chunk-size", "2"]) == 0
        pool_engine, pool = split_engine_line(capsys.readouterr().out)
        # Results are identical; only the engine diagnostics (mode and
        # wall-clock rate) differ between the two paths.
        assert pool == serial
        assert any("columnar path" in line for line in serial_engine)
        assert any("parallel-columnar path" in line for line in pool_engine)

    def test_pareto_flag_prints_frontier(self, capsys):
        assert main(["sweep", "--max-cores", "8", "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "NCF_fw" in out


class TestSweepStore:
    def _sweep(self, store) -> list[str]:
        return ["sweep", "--max-cores", "8", "--store", str(store)]

    def test_cold_then_warm_reuse(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(self._sweep(store)) == 0
        cold = capsys.readouterr().out
        assert "store reuse: 0.0%" in cold
        assert "objects written" in cold
        assert main(self._sweep(store)) == 0
        warm = capsys.readouterr().out
        assert "store reuse: 100.0%" in warm
        assert "0 misses" in warm
        # identical tables: only the engine/cache/store diagnostics move
        strip = lambda text: [
            line
            for line in text.splitlines()
            if not line.startswith(("engine:", "cache:", "store:"))
        ]
        assert strip(warm) == strip(cold)

    def test_warm_checkpoint_bytes_identical(self, tmp_path, capsys):
        store = tmp_path / "store"
        cold_ck = tmp_path / "cold.ckpt"
        warm_ck = tmp_path / "warm.ckpt"
        assert main(self._sweep(store) + ["--checkpoint", str(cold_ck)]) == 0
        assert main(self._sweep(store) + ["--checkpoint", str(warm_ck)]) == 0
        capsys.readouterr()
        assert cold_ck.read_bytes() == warm_ck.read_bytes()

    def test_foreign_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "keep.txt").write_text("not a store")
        assert main(self._sweep(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_old_format_store_exits_2_naming_it(self, tmp_path, capsys):
        (tmp_path / "focal-store.json").write_text(
            '{"format":"focal-store/1","payload":{"marker":"focal-store/1"}}'
        )
        assert main(self._sweep(tmp_path)) == 2
        assert "focal-store/1" in capsys.readouterr().err

    def test_v2_store_exits_2_naming_it(self, tmp_path, capsys):
        (tmp_path / "focal-store.json").write_text('{"format":"focal-store/2"}')
        assert main(self._sweep(tmp_path)) == 2
        assert "focal-store/2" in capsys.readouterr().err

    def test_v2_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        from repro.resilience.checkpoint import canonical_json
        from repro.resilience.chunklog import HEADER, ChunkLog

        old = tmp_path / "sweep.ckpt"
        header = {"format": "focal-checkpoint/2", "kind": "sweep", "fingerprint": {}}
        ChunkLog(old).reset([(HEADER, canonical_json(header).encode())])
        argv = ["sweep", "--max-cores", "8", "--checkpoint", str(old), "--resume"]
        assert main(argv) == 2
        assert "focal-checkpoint/2" in capsys.readouterr().err

    def test_old_format_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        old = tmp_path / "sweep.ckpt"
        old.write_text('{"format": "focal-checkpoint/1", "payload": {}}')
        argv = ["sweep", "--max-cores", "8", "--checkpoint", str(old), "--resume"]
        assert main(argv) == 2
        assert "focal-checkpoint/1" in capsys.readouterr().err

    def test_old_format_quarantine_exits_2_naming_it(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(
            '{"format": "focal-quarantine/1", "sha256": "", "payload": {}}'
        )
        argv = ["sweep", "--max-cores", "8", "--quarantine", str(old)]
        assert main(argv) == 2
        assert "focal-quarantine/1" in capsys.readouterr().err


class TestStoreCommand:
    def _populate(self, tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "--max-cores", "8", "--store", str(store)]) == 0
        return store

    def test_ls_lists_fingerprints(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "ls", str(store)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "SymmetricMulticoreFactory" in out

    def test_ls_counts_each_point_once_after_a_delta_sweep(self, tmp_path, capsys):
        """A 50%-overlap delta sweep re-stores its chunks whole: ``ls``
        still reports one entry per distinct point, |A u B|."""
        from repro.dse.store import ResultStore

        store = tmp_path / "store"
        sweep = ["sweep", "--max-cores", "8", "--store", str(store)]
        assert main(sweep + ["--fractions", "0.5", "0.9"]) == 0
        assert main(sweep + ["--fractions", "0.9", "0.99"]) == 0
        capsys.readouterr()
        assert main(["store", "ls", str(store)]) == 0
        (row,) = ResultStore(store).ls()
        assert row["entries"] == 4 * 3  # cores 1..8 x f {0.5, 0.9, 0.99}
        assert f" {row['entries']} " in capsys.readouterr().out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert main(["store", "ls", str(tmp_path / "absent")]) == 0
        assert "empty store" in capsys.readouterr().out

    def test_stat_totals(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "stat", str(store)]) == 0
        out = capsys.readouterr().out
        assert "fingerprints: 1" in out
        assert "sweep_fingerprints: 1" in out
        assert "bytes:" in out

    def test_gc_reports_and_max_bytes_evicts(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "gc", str(store)]) == 0
        out = capsys.readouterr().out
        assert "removed 0 temp files" in out
        assert main(["store", "gc", str(store), "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted (oldest first): sweeps/" in out
        assert main(["store", "ls", str(store)]) == 0
        assert "empty store" in capsys.readouterr().out

    def test_gc_foreign_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "keep.txt").write_text("not a store")
        assert main(["store", "gc", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVersion:
    def test_prints_version(self, capsys):
        import repro

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert f"focal {repro.__version__}" in out
        assert "python" in out and "numpy" in out

    def test_prints_platform_provenance(self, capsys):
        import platform

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "platform:" in out
        assert (platform.machine() or "unknown") in out
        assert "cpus]" in out


class TestObservabilityFlags:
    def test_trace_flag_writes_replayable_report(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["sweep", "--max-cores", "8", "--trace", str(target)]) == 0
        captured = capsys.readouterr()
        assert f"wrote trace {target}" in captured.err
        payload = json.loads(target.read_text())
        assert payload["schema"] == "focal-trace/1"
        assert payload["manifest"]["command"] == "sweep"
        assert payload["manifest"]["argv"][0] == "sweep"
        assert payload["manifest"]["node"]["python"]
        root = payload["trace"][0]
        assert root["name"] == "cli:sweep"
        sweep = root["children"][0]
        assert sweep["attributes"]["cache_hit_ratio"] == 0.0
        assert any(c["name"] == "chunk" for c in sweep["children"])
        names = [m["name"] for m in payload["metrics"]]
        assert "focal_evaluations_total" in names

    def test_trace_flag_position_before_subcommand(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["--trace", str(target), "sweep", "--max-cores", "4"]) == 0
        capsys.readouterr()
        assert target.exists()

    def test_metrics_flag_prometheus(self, tmp_path, capsys):
        target = tmp_path / "run.prom"
        assert main(["sweep", "--max-cores", "8", "--metrics", str(target)]) == 0
        capsys.readouterr()
        text = target.read_text()
        assert "# TYPE focal_evaluations_total counter" in text
        assert "focal_chunk_seconds_bucket" in text

    def test_metrics_flag_jsonl(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        assert main(["sweep", "--max-cores", "8", "--metrics", str(target)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert any(r["name"] == "focal_evaluations_total" for r in rows)

    def test_observability_state_reset_after_run(self, tmp_path, capsys):
        from repro.obs import metrics, trace

        target = tmp_path / "trace.json"
        assert main(["sweep", "--max-cores", "4", "--trace", str(target)]) == 0
        capsys.readouterr()
        assert not trace.is_enabled()
        assert not metrics.get_registry().enabled
        assert trace.get_tracer().roots == []

    def test_log_level_debug_emits_structured_stderr(self, capsys):
        assert main(["--log-level", "debug", "list"]) == 0
        captured = capsys.readouterr()
        assert "cli.start command=list" in captured.err
        assert "DEBUG repro:" in captured.err

    def test_default_level_is_quiet(self, capsys):
        assert main(["list"]) == 0
        assert "cli.start" not in capsys.readouterr().err


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter importing this checkout's
    package (nothing logged, traced or configured beforehand)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestLazyLogging:
    """``logging`` loads only when a line is logged, and nothing that was
    logged or traced before goes missing."""

    def test_debug_lines_reach_stderr_and_stdout_is_unchanged(self):
        argv = ["figure", "figure3", "--format", "json"]
        plain = _fresh("-m", "repro", *argv)
        verbose = _fresh("-m", "repro", "-vv", *argv)
        assert plain.returncode == verbose.returncode == 0
        assert verbose.stdout == plain.stdout
        assert plain.stderr == ""
        events = [line.split(" ", 1)[1] for line in verbose.stderr.splitlines()]
        assert events == [
            "DEBUG repro: cli.start command=figure",
            "DEBUG repro: study.run study=figure3",
            "DEBUG repro: study.done study=figure3",
            "DEBUG repro: cli.done command=figure exit_code=0",
        ]

    def test_traced_figure_reports_cli_and_study_spans(self, tmp_path, capsys):
        trace_file, metrics_file = tmp_path / "t.json", tmp_path / "m.prom"
        argv = ["figure", "figure3", "--format", "json"]
        observed = ["--trace", str(trace_file), "--metrics", str(metrics_file)]
        assert main([*argv, *observed]) == 0
        captured = capsys.readouterr()
        assert f"wrote trace {trace_file}" in captured.err
        assert f"wrote metrics {metrics_file}" in captured.err
        (root,) = json.loads(trace_file.read_text())["trace"]
        assert root["name"] == "cli:figure"
        assert [child["name"] for child in root["children"]] == ["study:figure3"]
        assert root["children"][0]["attributes"]["panels"] > 0
        assert metrics_file.exists()

    def test_engine_warning_after_the_cli_configured_reaches_stderr(self, tmp_path):
        """A store whose writes fail logs ``store.disk_fallback`` from
        engine code, after ``main`` configured the ``warning`` level
        without building the logger."""
        code = f"""
            import errno, sys
            from repro.obs import log
            from repro.resilience import chunklog

            def full(path):
                raise OSError(errno.ENOSPC, "injected: volume full")

            chunklog.set_disk_fault_hook(full)
            assert log._logger is None
            from repro.cli import main

            sys.exit(main(["sweep", "--max-cores", "4", "--store", {str(tmp_path)!r}]))
        """
        proc = _fresh("-c", textwrap.dedent(code))
        assert proc.returncode == 0, proc.stderr
        assert "WARNING repro: store.disk_fallback" in proc.stderr
        assert "0 objects written" in proc.stdout


class TestTraceShow:
    def test_round_trip_written_trace(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["sweep", "--max-cores", "16", "--trace", str(target)]) == 0
        capsys.readouterr()
        assert main(["trace", "show", str(target)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "phase breakdown" in out
        assert "cli:sweep" in out
        assert "chunk" in out
        assert "evals_per_s" in out
        assert "cache_hit_ratio" in out

    def test_show_rejects_non_trace_json(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text("{}")
        assert main(["trace", "show", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_show_requires_action(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestParallelTelemetry:
    """End-to-end: traced 4-worker sweep -> events -> chrome -> profile."""

    @pytest.fixture(scope="class")
    def traced_report(self, tmp_path_factory):
        target = tmp_path_factory.mktemp("telemetry") / "trace.json"
        assert (
            main(
                [
                    "sweep",
                    "--max-cores",
                    "16",
                    "--workers",
                    "4",
                    "--chunk-size",
                    "16",
                    "--trace",
                    str(target),
                ]
            )
            == 0
        )
        return target

    def test_report_carries_aligned_worker_events(self, traced_report):
        payload = json.loads(traced_report.read_text())
        events = payload["events"]
        assert events, "parallel traced sweep recorded no worker events"
        workers = {e["worker"] for e in events if e.get("track") != "supervisor"}
        assert len(workers) == 4  # every planned worker reported in
        names = {e["name"] for e in events}
        assert "worker.init" in names
        assert "shard" in names
        # every worker event is clock-aligned onto the span axis
        assert all("t_rel" in e for e in events)
        shard = next(e for e in events if e["name"] == "shard")
        assert shard["attrs"]["compute_s"] >= 0.0
        assert shard["dur_s"] > 0.0

    def test_chrome_export_one_track_per_worker(
        self, traced_report, tmp_path, capsys
    ):
        out = tmp_path / "timeline.json"
        assert (
            main(
                [
                    "trace",
                    "export",
                    str(traced_report),
                    "--format",
                    "chrome",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert f"wrote {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        from repro.obs.chrome import WORKER_PID

        worker_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["pid"] == WORKER_PID and e["ph"] != "M"
        }
        assert len(worker_tids) == 4
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X"} <= phases

    def test_export_default_output_path(self, traced_report, capsys):
        assert main(["trace", "export", str(traced_report)]) == 0
        capsys.readouterr()
        sibling = traced_report.with_suffix(".chrome.json")
        assert sibling.exists()
        assert json.loads(sibling.read_text())["traceEvents"]

    def test_profile_attribution_sums_to_wall_clock(
        self, traced_report, capsys
    ):
        assert main(["profile", str(traced_report)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = next(
            i for i, l in enumerate(lines) if "wall-clock attribution" in l
        )
        end = next(i for i, l in enumerate(lines) if "per-worker" in l)
        shares = []
        for line in lines[start:end]:
            token = line.rstrip().rsplit(None, 1)[-1] if line.strip() else ""
            if token.endswith("%"):
                shares.append(float(token[:-1]))
        assert len(shares) == 5  # serial/dispatch/compute/shm/straggler
        assert sum(shares) == pytest.approx(100.0, abs=0.5)
        assert "top cost center" in out
        assert "attainable" in out and "achieved" in out

    def test_export_rejects_non_trace_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["trace", "export", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_requires_file_or_bench(self, capsys):
        assert main(["profile"]) == 2
        assert "profile" in capsys.readouterr().err

    def test_profile_rejects_serial_trace(self, tmp_path, capsys):
        target = tmp_path / "serial.json"
        assert main(["sweep", "--max-cores", "8", "--trace", str(target)]) == 0
        capsys.readouterr()
        assert main(["profile", str(target)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepContainment:
    """The exit-code contract: 0 clean, 3 salvaged, 4 quarantined."""

    @staticmethod
    def _poison_ledger(path, params):
        """A ledger already naming *params* poison for the CLI factory."""
        from repro.dse.factories import SymmetricMulticoreFactory
        from repro.resilience import QuarantineLedger, describe_factory

        ledger = QuarantineLedger(path)
        ledger.record(
            describe_factory(SymmetricMulticoreFactory()),
            params,
            kind="poison",
            reason="planted by test",
        )
        return ledger

    def test_clean_sweep_with_ledger_exits_zero(self, tmp_path, capsys):
        ledger = tmp_path / "poison.json"
        assert (
            main(
                ["sweep", "--max-cores", "8", "--quarantine", str(ledger)]
            )
            == 0
        )
        assert "quarantine:" not in capsys.readouterr().out

    def test_known_poison_points_exit_four(self, tmp_path, capsys):
        # The CLI grid is geometric cores x fractions; cores come out of
        # geometric_range as floats.
        ledger = tmp_path / "poison.json"
        self._poison_ledger(ledger, {"cores": 2.0, "f": 0.5})
        code = main(
            [
                "sweep",
                "--max-cores",
                "8",
                "--fractions",
                "0.5",
                "0.9",
                "--quarantine",
                str(ledger),
            ]
        )
        assert code == 4
        out = capsys.readouterr().out
        assert "quarantine: 1 poison point(s) excluded" in out
        assert str(ledger) in out

    def test_quarantined_sweep_excludes_only_the_poison_point(
        self, tmp_path, capsys
    ):
        args = ["sweep", "--max-cores", "8", "--fractions", "0.5"]
        assert main(args) == 0
        clean = capsys.readouterr().out

        ledger = tmp_path / "poison.json"
        self._poison_ledger(ledger, {"cores": 4.0, "f": 0.5})
        assert main(args + ["--quarantine", str(ledger)]) == 4
        poisoned = capsys.readouterr().out
        # 4 cores x 1 fraction = 4 designs clean, 3 with one quarantined.
        assert "4 designs" in clean
        assert "3 designs" in poisoned

    def test_salvaged_run_exits_three(self, tmp_path, capsys, monkeypatch):
        """--salvage + an irrecoverable pool: exit 3, report printed."""
        import repro.dse.batch as batch_mod
        from repro.resilience import FailureReport

        report = FailureReport(
            reason="irrecoverable worker pool; completed prefix salvaged",
            error="injected",
            completed_chunks=1,
            total_chunks=4,
            completed_points=16,
            pending_points=48,
            checkpoint=str(tmp_path / "sweep.ckpt"),
        )
        real = batch_mod.BatchExplorer.explore_arrays

        def salvaged(self, grid, **kwargs):
            result = real(self, grid, **kwargs)
            import dataclasses

            return dataclasses.replace(result, failure=report)

        monkeypatch.setattr(batch_mod.BatchExplorer, "explore_arrays", salvaged)
        code = main(
            ["sweep", "--max-cores", "8", "--workers", "2", "--salvage"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "salvaged: 1/4 chunks" in out
        assert "resume from" in out

    def test_salvage_outranks_quarantine(self, tmp_path, capsys, monkeypatch):
        """A partial result is reported before which points were lost."""
        import repro.dse.batch as batch_mod
        from repro.resilience import FailureReport

        report = FailureReport(
            reason="r", error="e", completed_chunks=0, total_chunks=1,
            completed_points=0, pending_points=8,
        )
        real = batch_mod.BatchExplorer.explore_arrays

        def salvaged(self, grid, **kwargs):
            import dataclasses

            result = real(self, grid, **kwargs)
            return dataclasses.replace(
                result,
                failure=report,
                quarantined=({"cores": 2.0, "f": 0.5},),
            )

        monkeypatch.setattr(batch_mod.BatchExplorer, "explore_arrays", salvaged)
        assert main(["sweep", "--max-cores", "8"]) == 3

    def test_salvage_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--salvage", "--quarantine", "p.json"]
        )
        assert args.salvage is True
        assert args.quarantine == "p.json"

    def test_exit_code_contract_is_documented(self):
        doc = main.__doc__
        for needle in ("``0``", "``2``", "``3``", "``4``", "``130``"):
            assert needle in doc
