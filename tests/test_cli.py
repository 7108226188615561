"""Tests for the command-line interface.

Exit-code contract: every ``cmd_*`` handler returns an int — 0 on
success, 1 when the command ran but found failures, 2 on usage errors
(unknown workload/input names, missing files), which must surface as a
one-line stderr message, never a traceback.
"""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_suite(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "256.bzip2" in out and "175.vpr" in out
        assert "inputs = graphic, program" in out


class TestRun:
    def test_runs_workload(self, capsys):
        assert main(["run", "gzip", "--max-instructions", "5000"]) == 0
        out = capsys.readouterr().out
        assert "5,000 instructions" in out

    def test_input_selection(self, capsys):
        assert main(
            ["run", "bzip2", "--input", "program",
             "--max-instructions", "2000"]
        ) == 0
        assert "bzip2.program" in capsys.readouterr().out

    def test_opt_level_flag(self, capsys):
        assert main(["run", "gzip", "-O1",
                     "--max-instructions", "5000"]) == 0
        assert "5,000 instructions" in capsys.readouterr().out


class TestUsageErrors:
    """Unknown names and missing files: one-line error, exit code 2."""

    def _assert_one_line_error(self, capsys, fragment):
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.err.startswith("repro: ")
        assert captured.err.count("\n") == 1

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_run_unknown_input(self, capsys):
        assert main(["run", "gzip", "--input", "reference"]) == 2
        self._assert_one_line_error(capsys, "unknown input")

    @pytest.mark.parametrize("argv,fragment", [
        (["simulate", "doom"], "unknown benchmark"),
        (["simulate", "gzip", "--dl1-ports", "0"],
         "dl1_ports must be >= 1"),
        (["simulate", "gzip", "--svf", "svf", "--ports", "0"],
         "ports must be >= 1"),
        (["simulate", "gzip", "--svf", "svf", "--capacity", "0"],
         "capacity_bytes must be a positive multiple"),
        (["replay", "/no/such/trace.svft", "--svf", "svf",
          "--ports", "0"], "ports must be >= 1"),
        (["simulate", "gzip", "--max-instructions", "-1"],
         "simulate: --max-instructions must be >= 1, not -1"),
        (["profile", "gzip", "--max-instructions", "-5"],
         "profile: --max-instructions must be >= 1, not -5"),
        (["experiment", "fig5", "--window", "-1"],
         "experiment: --window must be >= 1, not -1"),
        (["run", "gzip", "--max-instructions", "0"],
         "run: --max-instructions must be >= 1, not 0"),
        (["chaos", "--jobs", "0"], "chaos: --jobs must be >= 1, not 0"),
        (["predict", "--benchmarks", "gzip", "--capacity", "0",
          "--jobs", "1"],
         "capacity must be a positive multiple of the granularity, not 0"),
        (["predict", "--benchmarks", "gzip", "--capacity", "8",
          "--jobs", "1"], "multiple of 32, not 8"),
    ], ids=["unknown-workload", "dl1-ports-0", "ports-0", "capacity-0",
            "replay-ports-0", "simulate-max-instructions-negative",
            "profile-max-instructions-negative", "experiment-window-negative",
            "run-max-instructions-0", "chaos-jobs-0", "predict-capacity-0",
            "predict-capacity-8"])
    def test_timing_usage_errors(self, argv, fragment, capsys):
        assert main(argv) == 2
        self._assert_one_line_error(capsys, fragment)

    @pytest.mark.parametrize("argv,fragment", [
        (["sweep", "{suite}", "--jobs", "2", "--no-cache",
          "--out", "{tmp}/out", "--task-timeout", "0"],
         "sweep: --task-timeout must be > 0, not 0.0"),
        (["sweep", "{suite}", "--jobs", "1", "--out", "{tmp}/out",
          "--cache-dir", "{tmp}/cache", "--task-timeout", "-5"],
         "sweep: --task-timeout must be > 0, not -5.0"),
        (["sweep", "{suite}", "--jobs", "1", "--out", "{tmp}/out",
          "--cache-dir", "{tmp}/cache", "--task-timeout", "nan"],
         "sweep: --task-timeout must be > 0, not nan"),
        (["chaos", "--suite", "{tmp}/missing.yaml", "--work-dir",
          "{tmp}/work", "--task-timeout", "0"],
         "chaos: --task-timeout must be > 0, not 0.0"),
        (["chaos", "--suite", "{tmp}/missing.yaml", "--work-dir",
          "{tmp}/work", "--task-timeout", "nan"],
         "chaos: --task-timeout must be > 0, not nan"),
    ], ids=["sweep-task-timeout-0", "sweep-task-timeout-negative",
            "sweep-task-timeout-nan", "chaos-task-timeout-0",
            "chaos-task-timeout-nan"])
    def test_task_timeout_must_be_positive(self, argv, fragment, capsys,
                                           tmp_path):
        # Rejected before any cell runs: nothing is written.
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(TestSweep.SUITE))
        names = {"suite": suite, "tmp": tmp_path}
        assert main([arg.format(**names) for arg in argv]) == 2
        self._assert_one_line_error(capsys, fragment)
        assert [path.name for path in tmp_path.iterdir()] == ["suite.json"]

    def test_characterize_unknown_workload(self, capsys):
        assert main(["characterize", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_trace_unknown_workload(self, capsys, tmp_path):
        assert main(["trace", "doom", str(tmp_path / "t.svft")]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_report_unknown_benchmark(self, capsys, tmp_path):
        assert main(["report", "--output", str(tmp_path / "r.md"),
                     "--benchmarks", "doom"]) == 2
        self._assert_one_line_error(capsys, "unknown benchmark")

    def test_compile_missing_file(self, capsys):
        assert main(["compile", "/no/such/file.mc"]) == 2
        self._assert_one_line_error(capsys, "no such source file")

    @pytest.mark.parametrize("source,fragment", [
        (b"int main() { int x = ; return 0; }\n",
         "line 1, col 22: expected expression"),
        (b"int main() { return foo(); }\n",
         "line 1: call to undefined function 'foo'"),
        (b"int main() { return 0; } \xff\n", "byte 25: not UTF-8"),
        (b"int main() { int x[99999999999999999999]; return 0; }\n",
         "function 'main' needs a 800,000,000,000,000,000,000-byte frame; "
         "the stack region holds 1,073,737,728 bytes"),
        (b"int main() { int a[100000000]; int b[100000000];\n"
         b"  a[0] = 3; b[0] = a[0]; print(b[0]); return 0; }\n",
         "function 'main' needs a 1,600,000,016-byte frame; "
         "the stack region holds 1,073,737,728 bytes"),
        (b"int g[99999999999999999999];\n"
         b"int main() { g[0] = 3; return 0; }\n",
         "globals need 800,000,000,000,000,000,000 bytes; "
         "the data region holds 268,435,456 bytes"),
    ], ids=["syntax-error", "undefined-function", "non-utf8",
            "huge-local-array", "frame-overflows-stack-region",
            "huge-global-array"])
    def test_compile_bad_source(self, source, fragment, capsys, tmp_path):
        path = tmp_path / "bad.mc"
        path.write_bytes(source)
        for emit in ("asm", "run"):
            assert main(["compile", str(path), "--emit", emit]) == 2
            self._assert_one_line_error(
                capsys, f"repro: compile: {path}: {fragment}"
            )

    def test_replay_missing_file(self, capsys):
        assert main(["replay", "/no/such/trace.svft"]) == 2
        self._assert_one_line_error(capsys, "no such trace file")

    @pytest.mark.parametrize("damage,fragment", [
        ("truncated", "checksum mismatch in '{path}'"),
        ("bit-flipped", "checksum mismatch in '{path}'"),
        ("not-a-trace", "bad trace header in '{path}'"),
    ], ids=["truncated", "bit-flipped", "not-a-trace"])
    def test_replay_unreadable_trace(self, damage, fragment, capsys,
                                     tmp_path):
        path = tmp_path / "t.svft"
        assert main(["trace", "mcf", str(path),
                     "--max-instructions", "500"]) == 0
        blob = bytearray(path.read_bytes())
        if damage == "truncated":
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "bit-flipped":
            blob[len(blob) // 2] ^= 1
            path.write_bytes(blob)
        else:
            path.write_text("int main() { return 0; }\n")
        capsys.readouterr()
        assert main(["replay", str(path)]) == 2
        self._assert_one_line_error(
            capsys, "repro: replay: " + fragment.format(path=path)
        )

    @pytest.mark.parametrize("argv,fragment", [
        (["lint", "--asm", "{bad}"],
         "repro: lint: {bad}: byte 6: not UTF-8"),
        (["certify", "--asm", "{bad}"],
         "repro: certify: {bad}: byte 6: not UTF-8"),
        (["sweep", "{bad}"], "repro: sweep: {bad}: byte 6: not UTF-8"),
        (["lint", "--asm", "{dir}"], "repro: lint: {dir}: Is a directory"),
        (["compile", "{dir}"], "repro: compile: {dir}: Is a directory"),
        (["replay", "{dir}"], "repro: replay: {dir}: Is a directory"),
    ], ids=["lint-asm-non-utf8", "certify-asm-non-utf8",
            "sweep-suite-non-utf8", "lint-asm-directory",
            "compile-directory", "replay-directory"])
    def test_unreadable_input_file(self, argv, fragment, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"main:\n\xff\n")
        names = {"bad": bad, "dir": tmp_path}
        assert main([arg.format(**names) for arg in argv]) == 2
        self._assert_one_line_error(capsys, fragment.format(**names))

    @pytest.mark.parametrize("argv,fragment", [
        (["trace", "gzip", "{missing}/t.svft"],
         "repro: trace: cannot write a file at {missing}/t.svft"),
        (["report", "--output", "{missing}/r.md"],
         "repro: report: cannot write a file at {missing}/r.md"),
        (["predict", "--output", "{missing}/p.txt"],
         "repro: predict: cannot write a file at {missing}/p.txt"),
        (["sweep", "{suite}", "--out", "{file}/x"],
         "repro: cannot create output directory {file}/x: Not a directory"),
        (["sweep", "{suite}", "--cache-dir", "{file}/c"],
         "repro: cannot create cache directory {file}/c: Not a directory"),
        (["report", "--cache-dir", "{file}/c", "--jobs", "1",
          "--output", "{tmp}/r.md"],
         "repro: cannot create cache directory {file}/c: Not a directory"),
        (["report", "--cache-dir", "{file}/c", "--jobs", "2",
          "--output", "{tmp}/r.md"],
         "repro: cannot create cache directory {file}/c: Not a directory"),
        (["chaos", "--work-dir", "{file}/w", "--no-concurrent"],
         "repro: cannot create work directory {file}/w: Not a directory"),
    ], ids=["trace-output-missing-dir", "report-output-missing-dir",
            "predict-output-missing-dir", "sweep-out-under-file",
            "sweep-cache-dir-under-file", "report-cache-dir-jobs-1",
            "report-cache-dir-jobs-2", "chaos-work-dir-under-file"])
    def test_unwritable_path_fails_before_work(self, argv, fragment,
                                               capsys, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(TestSweep.SUITE))
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        names = {"missing": tmp_path / "no" / "such", "file": plain,
                 "suite": suite, "tmp": tmp_path}
        assert main([arg.format(**names) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == fragment.format(**names) + "\n"
        assert not (tmp_path / "r.md").exists()

    def test_every_handler_returns_int(self, tmp_path, capsys):
        # The cheap commands, exercised end to end: handlers must
        # return int (argparse-level SystemExit is a separate path).
        source = tmp_path / "p.mc"
        source.write_text("int main() { return 0; }")
        for argv in (
            ["list"],
            ["run", "mcf", "--max-instructions", "1000"],
            ["compile", str(source)],
            ["lint", "mcf"],
            ["experiment", "table2"],
        ):
            code = main(argv)
            assert isinstance(code, int) and code == 0, argv
        capsys.readouterr()


class TestCharacterize:
    def test_single_workload(self, capsys):
        assert main(
            ["characterize", "gzip", "--max-instructions", "8000"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "Figure 3" in out

    def test_json_format_is_versioned(self, capsys):
        from repro.api import SCHEMA_VERSION

        assert main(
            ["characterize", "gzip", "--max-instructions", "5000",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["figures"]) == {"fig1", "fig2", "fig3"}


class TestSimulate:
    def test_baseline_only(self, capsys):
        assert main(
            ["simulate", "gzip", "--max-instructions", "6000"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "IPC" in out

    def test_with_svf(self, capsys):
        assert main(
            ["simulate", "crafty", "--svf", "svf", "--ports", "2",
             "--max-instructions", "6000"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "morphed" in out

    def test_stack_cache_mode(self, capsys):
        assert main(
            ["simulate", "gzip", "--svf", "stack_cache",
             "--max-instructions", "6000"]
        ) == 0
        assert "speedup" in capsys.readouterr().out

    def test_width_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--width", "7"])


class TestCompile:
    SOURCE = "int main() { print(6 * 7); return 0; }"

    def test_emit_asm(self, tmp_path, capsys):
        source_file = tmp_path / "answer.mc"
        source_file.write_text(self.SOURCE)
        assert main(["compile", str(source_file)]) == 0
        out = capsys.readouterr().out
        assert ".text" in out and "bsr main" in out

    def test_emit_run(self, tmp_path, capsys):
        source_file = tmp_path / "answer.mc"
        source_file.write_text(self.SOURCE)
        assert main(["compile", str(source_file), "--emit", "run"]) == 0
        assert "[42]" in capsys.readouterr().out

    def test_opt_level_same_output(self, tmp_path, capsys):
        source_file = tmp_path / "answer.mc"
        source_file.write_text(
            "int main() { int x; int y; x = 6; y = 7; print(x * y); "
            "return 0; }"
        )
        assert main(["compile", str(source_file), "--emit", "run",
                     "-O1"]) == 0
        assert "[42]" in capsys.readouterr().out


class TestTraceReplay:
    def test_record_and_replay(self, tmp_path, capsys):
        trace_file = str(tmp_path / "gzip.svft")
        assert main(
            ["trace", "gzip", trace_file, "--max-instructions", "4000"]
        ) == 0
        assert "4,000 records" in capsys.readouterr().out
        assert main(["replay", trace_file, "--svf", "svf"]) == 0
        out = capsys.readouterr().out
        assert "4,000 instructions" in out
        assert "speedup" in out


class TestReport:
    def test_generates_full_report(self, tmp_path, capsys):
        output = str(tmp_path / "report.md")
        assert main(
            ["report", "--output", output,
             "--timing-window", "4000", "--functional-window", "4000",
             "--benchmarks", "gzip"]
        ) == 0
        text = open(output).read()
        for marker in ("Table 1", "Figure 5", "Figure 9", "Table 3",
                       "First-touch"):
            assert marker in text, marker
        assert "wrote" in capsys.readouterr().out

    def test_profile_flag_prints_breakdown_not_in_document(
        self, tmp_path, capsys
    ):
        output = str(tmp_path / "report.md")
        # Own cache dir: cells must actually run (a warm cache hit
        # ships no phase snapshot, correctly leaving only "render").
        assert main(
            ["report", "--output", output,
             "--timing-window", "3000", "--functional-window", "3000",
             "--benchmarks", "mcf", "--profile",
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "Phase profile — full report" in out
        for phase in ("compile", "emulate", "timing", "traffic",
                      "analysis", "render"):
            assert phase in out, phase
        # Cold run against a private cache: every trace and cell is a
        # miss, and the counter block names them.
        assert "cache counters:" in out
        for counter in ("cell_cache_misses", "trace_cache_misses"):
            assert counter in out, counter
        # The breakdown goes to stdout only: the document stays
        # byte-comparable with and without --profile.
        assert "Phase profile" not in open(output).read()

    def test_incremental_warm_run_reports_reuse(self, tmp_path, capsys):
        output = str(tmp_path / "report.md")
        argv = ["report", "--output", output,
                "--timing-window", "3000", "--functional-window", "3000",
                "--benchmarks", "mcf", "--profile",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = open(output).read()
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cell_cache_hits" in out
        assert "cell_cache_misses" not in out
        assert open(output).read() == cold


class TestProfile:
    def test_profiles_one_workload(self, capsys):
        assert main(["profile", "gzip", "--max-instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "gzip.graphic: 3,000 instructions traced" in out
        assert "Phase profile — gzip.graphic" in out
        for phase in ("compile", "emulate", "timing", "traffic",
                      "analysis"):
            assert phase in out, phase
        assert "MIPS" in out

    def test_renders_superblock_replay_counters(self, capsys):
        # The emulator's decode/replay counters surface through the
        # same "cache counters:" block the cache tallies use.
        assert main(["profile", "gzip", "--max-instructions", "4000"]) == 0
        out = capsys.readouterr().out
        assert "cache counters:" in out
        for counter in ("superblock_builds", "superblock_replays",
                        "superblock_replayed_instructions"):
            assert counter in out, counter

    def test_renders_batch_counters(self, capsys):
        # The baseline and SVF runs share one simulate_batch call, so
        # batch_configs shows up in the "cache counters:" block.
        assert main(["profile", "gzip", "--max-instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "batch_configs" in out
        # Two distinct machines: deduplication saves no walk.
        assert "batch_walks_saved" not in out

    def test_unknown_workload(self, capsys):
        assert main(["profile", "doom"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "unknown benchmark" in err


class TestPredict:
    def test_prediction_report(self, capsys):
        code = main(["predict", "--benchmarks", "gzip",
                     "--max-instructions", "4000", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "predicted" in captured.out
        # Progress goes to stderr, never stdout.
        assert "[predict]" in captured.err
        assert "[predict]" not in captured.out

    def test_output_file(self, tmp_path, capsys):
        output = str(tmp_path / "predict.md")
        assert main(["predict", "--benchmarks", "mcf",
                     "--max-instructions", "4000", "--jobs", "1",
                     "--output", output]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "predicted" in open(output).read()

    def test_bad_jobs_rejected(self, capsys):
        assert main(["predict", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "--jobs" in err

    def test_unknown_benchmark(self, capsys):
        assert main(["predict", "--benchmarks", "doom"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_dropped_workload_fails_the_verdict(self, capsys, monkeypatch):
        # With every workload dropped the bound check ran over nothing,
        # which used to read "every bound holds" and exit 0.
        from repro.harness import parallel

        def fail(cell):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(parallel._CELL_RUNNERS, "prediction", fail)
        assert main(["predict", "--benchmarks", "gzip",
                     "--max-instructions", "2000", "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "dropped 164.gzip: RuntimeError: injected failure" in out
        assert "every bound holds" not in out


class TestExperiment:
    def test_static_tables(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert main(["experiment", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig12"])

    def test_json_format_is_versioned(self, capsys):
        from repro.api import SCHEMA_VERSION

        assert main(["experiment", "table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "table1"
        assert "Table 1" in payload["text"]


class TestSweep:
    SUITE = {
        "suite": "cli-unit",
        "kind": "timing",
        "workloads": ["gzip"],
        "window": 2000,
        "base": {"machine": {"svf_mode": "svf"}},
        "grid": {"svf_ports": [1, 2]},
    }

    def write_suite(self, tmp_path, **overrides):
        data = dict(self.SUITE)
        data.update(overrides)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_missing_descriptor_is_usage_error(self, capsys):
        assert main(["sweep", "/no/such/suite.yaml"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "no such suite descriptor" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_descriptor_is_usage_error(self, tmp_path, capsys):
        path = self.write_suite(tmp_path, grid={"bogus_axis": [1]})
        assert main(["sweep", path]) == 2
        err = capsys.readouterr().err
        assert "unknown grid axis" in err
        assert len(err.strip().splitlines()) == 1

    def test_dry_run_prints_plan_without_running(self, tmp_path, capsys):
        path = self.write_suite(tmp_path)
        assert main(["sweep", path, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "svf_ports=1" in out and "svf_ports=2" in out

    def test_end_to_end_writes_artifacts(self, tmp_path, capsys):
        from repro.api import SCHEMA_VERSION

        path = self.write_suite(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", path, "--jobs", "1", "--no-cache",
                     "--out", str(out_dir), "--format", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "sweep"
        assert payload["ok"] is True
        assert len(payload["rows"]) == 2
        # Progress goes to stderr, never stdout.
        assert "[sweep]" in captured.err
        assert "[sweep]" not in captured.out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "run_meta.json", "run_table.json", "summary.txt",
        ]
        # The on-disk run table is the printed payload.
        assert json.loads(
            (out_dir / "run_table.json").read_text()
        ) == payload

    def test_warm_rerun_reproduces_run_table(self, tmp_path, capsys):
        # A warm re-run serves every row from the cache and reproduces
        # the cold run's deterministic artifacts byte for byte.
        path = self.write_suite(tmp_path)
        cache_dir = str(tmp_path / "cache")
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        assert main(["sweep", path, "--jobs", "1", "--cache-dir", cache_dir,
                     "--out", str(cold_dir)]) == 0
        assert main(["sweep", path, "--jobs", "1", "--cache-dir", cache_dir,
                     "--out", str(warm_dir)]) == 0
        capsys.readouterr()
        meta = json.loads((warm_dir / "run_meta.json").read_text())
        assert meta["cache_hits"] == meta["cells"] == 2
        for artifact in ("run_table.json", "summary.txt"):
            assert (cold_dir / artifact).read_bytes() == \
                (warm_dir / artifact).read_bytes(), artifact
