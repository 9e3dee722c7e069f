"""CLI smoke tests."""

import json
import re
import shutil
import time

import pytest

from repro.cli import _EXPERIMENTS, main


class TestCli:
    def test_workloads_command(self, capsys):
        assert main(["workloads", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out and "verified" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "gemm", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Marionette" in out and "cycles" in out

    @pytest.mark.parametrize("slug", _EXPERIMENTS)
    def test_experiment_prints_its_report_section(self, capsys, slug):
        assert main(["report", "--scale", "tiny"]) == 0
        report = capsys.readouterr().out
        assert main(["experiment", slug, "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        # After its header the report holds every experiment's table in
        # slug order, each opening with "== " and closing with a blank line.
        starts = [m.start() + 1 for m in re.finditer(r"\n== ", report)]
        assert len(starts) == len(_EXPERIMENTS)
        ends = starts[1:] + [len(report)]
        index = _EXPERIMENTS.index(slug)
        assert report[starts[index]:ends[index]] == out + "\n"
        kind, number = re.fullmatch(r"(fig|table)(\d+)", slug).groups()
        name = {"fig": "Figure", "table": "Table"}[kind]
        assert out.startswith(f"== {name} {number}: ")

    def test_bench_json_is_content_only_by_default(self, capsys):
        assert main(["bench", "--scale", "tiny", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        # Run-environment facts stay out of the report document, so
        # batch/stream/warm/shard-merged runs are byte-identical.
        assert "engine_stats" not in document and "jobs" not in document
        assert document["scale"] == "tiny" and len(
            document["experiments"]) == 9

    def test_bench_json_stats_flag_attaches_engine_stats(self, tmp_path,
                                                         capsys):
        # The engine counters live in the --profile record, not in the
        # report document.
        cache, record = tmp_path / "cache", tmp_path / "profile.json"
        argv = ["bench", "--scale", "tiny", "--cache-dir", str(cache),
                "--profile", str(record)]
        assert main(argv) == 0
        capsys.readouterr()
        stats = json.loads(record.read_text(encoding="utf-8"))[
            "engine_stats"]
        assert stats["simulations"] > 0
        assert stats["traces_computed"] > 0
        # A second run against the same directory is a pure replay.
        assert main(argv) == 0
        capsys.readouterr()
        warm = json.loads(record.read_text(encoding="utf-8"))[
            "engine_stats"]
        assert warm["traces_computed"] == 0
        assert warm["simulations"] == 0
        # The directory holds the content-addressed records and nothing
        # else: no log, no lock file, no stray temp file.
        files = sorted(path.relative_to(cache).as_posix()
                       for path in cache.rglob("*") if path.is_file())
        assert files
        for name in files:
            assert re.fullmatch(r"([0-9a-f]{2})/\1[0-9a-f]{62}\.json",
                                name), name

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_report_is_bench_under_another_name(self, capsys, fmt):
        assert main(["report", "--scale", "tiny", *fmt]) == 0
        report = capsys.readouterr().out
        assert main(["bench", "--scale", "tiny", *fmt]) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_bench_jobs_below_one_exits_two(self, capsys, jobs):
        assert main(["bench", "--scale", "tiny", "--jobs", str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: jobs must be at least 1, got {jobs}\n")

    @pytest.mark.parametrize("mode", [[], ["--stream"]],
                             ids=["batch", "stream"])
    def test_bench_negative_seed_exits_two_before_running(self, capsys,
                                                          mode):
        # The workload input generators take only non-negative seeds,
        # so a negative one is refused before the report header prints.
        assert main(["bench", "--scale", "tiny", "--seed", "-1",
                     *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed must be at least 0")
        assert captured.err.count("\n") == 1

    def test_profile_rejects_other_execution_modes(self, capsys):
        # --profile times the local batch phases; every other execution
        # mode would make the phase timings describe something else.
        for combo in (["--stream"],
                      ["--shard", "1/2"],
                      ["--merge-shards", "x.json"],
                      ["--dispatch", "http://127.0.0.1:1"]):
            assert main(["bench", "--scale", "tiny",
                         "--profile", *combo]) == 2
            assert "--profile times the local batch phases" \
                in capsys.readouterr().err

    def test_arch_flags_rejected_with_merge_shards(self, capsys):
        # The shard exports already name the architecture they came
        # from; an --arch flag here would be a silent no-op, whether it
        # names one spec file or a sweep directory.
        for arch in ("examples/arch/marionette_default.json",
                     "examples/arch"):
            assert main(["bench", "--merge-shards", "x.json",
                         "--arch", arch]) == 2
            assert "no effect with --merge-shards" \
                in capsys.readouterr().err

    def test_arch_sweep_rejects_single_document_modes(self, capsys):
        # --profile describes exactly one run; a sweep runs one per
        # variant.
        assert main(["bench", "--scale", "tiny",
                     "--arch", "examples/arch", "--profile"]) == 2
        assert "--profile times one batch run" in capsys.readouterr().err

    def test_profile_writes_one_timestamped_record(self, tmp_path,
                                                   monkeypatch, capsys):
        from repro.engine import BENCH_PROFILE_SCHEMA

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scale", "tiny", "--profile"]) == 0
        records = list(tmp_path.glob("BENCH_*.json"))
        assert len(records) == 1 and list(tmp_path.iterdir()) == records
        document = json.loads(records[0].read_text(encoding="utf-8"))
        assert document["schema"] == BENCH_PROFILE_SCHEMA
        assert f"-> {records[0].name}" in capsys.readouterr().err
        # The name is the run's start time, as the record says.
        assert records[0].name == time.strftime(
            "BENCH_%Y%m%dT%H%M%SZ.json", time.gmtime(document["created"]))

    def test_profile_path_names_the_record(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scale", "tiny",
                     "--profile", "prof.json"]) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["prof.json"]
        document = json.loads((tmp_path / "prof.json").read_text(
            encoding="utf-8"))
        assert document["scale"] == "tiny"

    def test_pooled_profile_prices_the_batch_in_one_pass(self, tmp_path,
                                                         monkeypatch):
        # The trace and simulate phases are one engine call each over the
        # whole batch, so --jobs 2 starts at most one pool per phase.
        from repro.engine import executor

        pools = []

        class CountingPool(executor.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", CountingPool)
        path = tmp_path / "prof.json"
        assert main(["bench", "--scale", "tiny", "--jobs", "2",
                     "--profile", str(path)]) == 0
        document = json.loads(path.read_text(encoding="utf-8"))
        assert [phase["phase"] for phase in document["phases"]] \
            == ["trace", "simulate", "assemble"]
        assert 1 <= len(pools) <= 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_kernel_rejected(self, capsys):
        # Package errors surface as one-line diagnostics + exit code 2,
        # not tracebacks (same contract as the argparse-level errors).
        assert main(["simulate", "nonexistent"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_arch_gets_the_same_path_diagnostic(self, capsys):
        # `repro run` prices one architecture: a directory is an
        # unreadable spec file, not a sweep.
        assert main(["run", "examples/kernels/saxpy",
                     "--arch", "examples/arch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read arch "
                                       "description examples/arch")
        assert captured.err.count("\n") == 1

    def test_unwritable_profile_path_is_one_error_line(self, tmp_path,
                                                       capsys, monkeypatch):
        # The record is opened first: nothing is priced or printed.
        from repro.engine import Engine

        def priced(*_args):
            raise AssertionError("priced before the record was opened")

        monkeypatch.setattr(Engine, "stream", priced)
        record = tmp_path / "missing" / "profile.json"
        assert main(["bench", "--scale", "tiny",
                     "--profile", str(record)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(record) in captured.err
        assert captured.err.count("\n") == 1

    def test_profile_run_failing_late_leaves_no_record(self, tmp_path,
                                                       capsys, monkeypatch):
        from repro.errors import EngineError
        from repro.experiments import report

        def broken(*_args, **_kwargs):
            raise EngineError("assembly failed")

        monkeypatch.setattr(report, "run_all", broken)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scale", "tiny",
                     "--profile", "prof.json"]) == 2
        assert capsys.readouterr().err == "error: assembly failed\n"
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_naming_a_file_is_one_error_line(self, tmp_path,
                                                       capsys):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n", encoding="utf-8")
        assert main(["bench", "--scale", "tiny",
                     "--cache-dir", str(plain)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_kernels_rejected_with_merge_shards(self, capsys):
        assert main(["bench", "--merge-shards", "x.json",
                     "--kernels", "examples/kernels"]) == 2
        assert "--kernels has no effect with --merge-shards" \
            in capsys.readouterr().err


class TestKernelCli:
    """Exit-code contracts for ``repro run`` and ``repro kernel``."""

    def test_validate_examples_suite_exits_zero(self, capsys):
        assert main(["kernel", "validate", "examples/kernels"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok: ") == 4
        assert "valid kernel package(s)" in out

    def test_validate_invalid_package_is_one_line_exit_two(
            self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "kernel.json").write_text("{not json", encoding="utf-8")
        assert main(["kernel", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_validate_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["kernel", "validate",
                     str(tmp_path / "nowhere")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_run_shipped_example_passes(self, capsys):
        assert main(["run", "examples/kernels/saxpy"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out and "verdict: PASS" in out

    def test_run_json_document_carries_the_verdict(self, capsys):
        assert main(["run", "examples/kernels/dot_product",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["verdict"] == "PASS"
        assert document["cycles"] > 0
        assert len(document["fingerprint"]) == 64

    def test_run_failing_package_exits_one(self, tmp_path, capsys):
        # Scaffold a known-good package, then corrupt one expected cell:
        # the run itself succeeds but the verdict is FAIL -> exit 1
        # (distinct from exit 2, which means the package never ran).
        out = tmp_path / "probe"
        assert main(["kernel", "init", "probe", "--out", str(out)]) == 0
        capsys.readouterr()
        expected = out / "expected" / "y.csv"
        lines = expected.read_text(encoding="utf-8").splitlines()
        lines[-1] = str(int(lines[-1]) + 1)
        expected.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", str(out)]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("token", ["1e999", "Infinity", "-inf", "NaN"])
    def test_run_non_finite_immediate_is_one_error_line(
            self, tmp_path, capsys, token):
        # `kernel validate` accepts a non-finite operand; the functional
        # run must too, leaving the array's immediate range to refuse it.
        package = tmp_path / "axpb_inf"
        shutil.copytree("examples/kernels/axpb", package)
        shutil.rmtree(package / "expected")
        (package / "instructions.csv").write_text(
            "t0,load,x,i\nt1,mul,1.5,t0\n"
            f"t2,min,t1,{token}\n,store,y,i,t2\n", encoding="utf-8")
        assert main(["kernel", "validate", str(package)]) == 0
        capsys.readouterr()
        assert main(["run", str(package)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "immediate" in err and "out of range" in err

    def test_run_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nowhere")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_run_max_cycles_below_one_exits_two(self, capsys, value):
        assert main(["run", "examples/kernels/saxpy",
                     "--max-cycles", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-cycles must be at least 1\n"

    @pytest.mark.parametrize("program, opcode", [
        # acc = acc + 3; y[i] = acc
        ([["acc", "add", "acc", "3"], ["", "store", "y", "i", "acc"]],
         "add"),
        # y[i] = x[i] + x[0]
        ([["t0", "load", "x", "i"], ["t1", "load", "x", "0"],
          ["t2", "add", "t0", "t1"], ["", "store", "y", "i", "t2"]],
         "load"),
    ], ids=["counter", "bias"])
    def test_run_untokened_instruction_is_one_error_line(
            self, tmp_path, capsys, program, opcode):
        # Nothing paces an instruction without a token input to the
        # loop: it would fire every cycle until the cycle budget ran out.
        package = tmp_path / "untokened"
        (package / "memory").mkdir(parents=True)
        (package / "memory" / "x.csv").write_text(
            ",".join(str(v) for v in range(16)) + "\n", encoding="utf-8")
        (package / "kernel.json").write_text(json.dumps({
            "schema": "repro-kernel", "version": 1, "name": "untokened",
            "loop": {"var": "i", "start": 0, "stop": "n", "step": 1},
            "params": {"n": 16}, "state": {"acc": 0},
            "arrays": [
                {"name": "x", "shape": [16], "dtype": "int64",
                 "role": "input"},
                {"name": "y", "shape": [16], "dtype": "int64",
                 "role": "output"},
            ],
            "program": program,
        }), encoding="utf-8")
        assert main(["kernel", "validate", str(package)]) == 0
        capsys.readouterr()
        assert main(["run", str(package)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert f"({opcode}) has no token input" in captured.err

    def test_init_scaffold_validates_and_refuses_overwrite(
            self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["kernel", "init", "fresh", "--out", str(out)]) == 0
        assert "wrote kernel package 'fresh'" in capsys.readouterr().out
        assert main(["kernel", "validate", str(out)]) == 0
        capsys.readouterr()
        assert main(["kernel", "init", "fresh", "--out", str(out)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_bench_kernels_section_appears(self, capsys):
        assert main(["bench", "--scale", "tiny", "--format", "json",
                     "--kernels", "examples/kernels"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["experiments"]) == 10
        titles = [entry["title"] for entry in document["experiments"]]
        assert any("kernel" in title.lower() for title in titles)

    def test_bench_kernels_stream_is_byte_identical(self, capsys):
        argv = ["bench", "--scale", "tiny",
                "--kernels", "examples/kernels"]
        assert main(argv) == 0
        batch = capsys.readouterr().out
        assert main([*argv, "--stream"]) == 0
        assert capsys.readouterr().out == batch
