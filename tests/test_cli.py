import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvlab.cli import main
from kvlab.experiments import ConfigError, load_config, override_seed, parse_config
from kvlab.reuse import speedup_estimate


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own tmp_path, where kvlab's default --out, `out`, lands."""
    monkeypatch.chdir(tmp_path)


def base_config(**overrides):
    cfg = {
        "schema": 1,
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
        "prompt": {"kind": "random", "length": 48, "seed": 1},
        "policies": [
            {"kind": "ChunkKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
            {"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 3},
        ],
    }
    cfg.update(overrides)
    return cfg


NEEDLE_PROMPT = {
    "kind": "needle",
    "seq_len": 60,
    "span_start": 20,
    "span_len": 5,
    "signal": 60.0,
    "seed": 4,
}


def _count_prefills(monkeypatch) -> list:
    """The prompt length of every prefill the experiments module runs from now on."""
    import kvlab.experiments

    calls = []
    real = kvlab.experiments.prefill

    def counting(model, tokens, *args, **kwargs):
        calls.append(len(tokens))
        return real(model, tokens, *args, **kwargs)

    monkeypatch.setattr(kvlab.experiments, "prefill", counting)
    return calls


def _src_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, for a kvlab subprocess
    that writes no bytecode into src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestMemoryCommand:
    def test_llama3_one_gib(self, capsys):
        rc = main(
            "memory --batch 1 --seq 2048 --layers 32 --heads 32 --head-dim 128".split()
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1073741824 bytes (1.00 GiB)"

    def test_all_ones(self, capsys):
        rc = main(
            "memory --batch 1 --seq 1 --layers 1 --heads 1 --head-dim 1 --precision-bytes 1".split()
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("2 bytes")

    def test_batch_24(self, capsys):
        rc = main(
            "memory --batch 24 --seq 2048 --layers 32 --heads 32 --head-dim 128".split()
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("25769803776 bytes")

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["memory", "--batch", "1"])
        assert e.value.code == 2

    @pytest.mark.parametrize("seq, gib", [(256, "0.12"), (768, "0.38"), (1280, "0.62")])
    def test_ties_round_half_even(self, capsys, seq, gib):
        # 2**19 bytes per position: 0.125, 0.375 and 0.625 GiB are exact ties
        argv = f"memory --batch 1 --seq {seq} --layers 32 --heads 32 --head-dim 128".split()
        assert main(argv) == 0
        assert capsys.readouterr().out == f"{seq * 2**19} bytes ({gib} GiB)\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            *(
                ([flag, "0"], f"error: {flag} must be >= 1, got 0\n")
                for flag in ("--batch", "--seq", "--layers", "--heads", "--head-dim", "--precision-bytes")
            ),
            # three 1500-digit factors: a total of over 4300 digits, more than str() converts
            (
                ["--batch", "9" * 1500, "--seq", "9" * 1500, "--layers", "9" * 1500],
                "error: the byte count 2 * --batch * --seq * --layers * --heads * --head-dim"
                " * --precision-bytes has over 4300 digits\n",
            ),
        ],
        ids=["batch", "seq", "layers", "heads", "head-dim", "precision-bytes", "1500-digits"],
    )
    def test_error_names_the_flag(self, capsys, flags, message):
        argv = "memory --batch 1 --seq 1 --layers 1 --heads 1 --head-dim 1".split() + flags
        limit = sys.get_int_max_str_digits()
        assert main(argv) == 2
        assert capsys.readouterr().err == message
        assert sys.get_int_max_str_digits() == limit  # the interpreter's limit is not raised

    def test_total_past_float_range(self, capsys):
        batch = 10**320
        argv = f"memory --batch {batch} --seq 1 --layers 1 --heads 1 --head-dim 1".split()
        assert main(argv) == 0
        total = 4 * batch  # a multiple of 2**30
        assert capsys.readouterr().out == f"{total} bytes ({total // 2**30}.00 GiB)\n"


class TestSimulate:
    def test_fullkv_ratio_one_everywhere(self, tmp_path):
        cfg = base_config(
            policies=[{"kind": "FullKV", "budget": {"ratio": 1.0, "w": 0, "c": 1}}],
        )
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for prep in report["policies"]:
            for layer in prep["layers"]:
                assert all(h["ratio"] == 1.0 for h in layer["heads"])

    def test_reproducible_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_config(reuse={"n_reuse": 2}))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out1")]) == 0
        first = (tmp_path / "out1" / "report.json").read_bytes()
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out2")]) == 0
        second = (tmp_path / "out2" / "report.json").read_bytes()
        assert first == second

    def test_report_keys_do_not_depend_on_reuse(self, tmp_path):
        # report.json holds what the run measured; no modeled reuse speedup
        keys = {}
        for name, extra in (("reuse", {"reuse": {"n_reuse": 2}}), ("none", {})):
            path = write_config(tmp_path, base_config(**extra))
            assert main(["simulate", "--config", path, "--out", str(tmp_path / name)]) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            keys[name] = [set(p) for p in report["policies"]]
        want = {"policy", "layers", "similarity_matrix", "adjacent_jaccard", "fidelity"}
        assert keys["reuse"] == keys["none"] == [want, want]

    def test_identical_kept_sets_read_similarity_one(self, tmp_path):
        # streaming keeps the same positions on every layer
        cfg = base_config(
            model={"n_layers": 2, "n_heads": 1, "head_dim": 8, "vocab_size": 64, "seed": 3},
            policies=[{"kind": "StreamingStyle", "budget": {"max_len": 10, "w": 2, "c": 1}, "sink": 2}],
        )
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        (prep,) = json.loads((tmp_path / "out" / "report.json").read_text())["policies"]
        assert prep["similarity_matrix"] == [[1.0, 1.0], [1.0, 1.0]]
        assert prep["adjacent_jaccard"] == 1.0

    def test_invalid_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 99}))
        assert main(["simulate", "--config", str(p)]) == 2

    def test_integer_too_long_to_parse_exits_2_naming_the_file(self, tmp_path, capsys):
        # json.loads refuses integers of more than 4300 digits with a ValueError
        text = json.dumps(base_config())
        p = tmp_path / "huge.json"
        p.write_text(text.replace('"seed": 3', '"seed": ' + "9" * 5000, 1))
        assert main(["simulate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config {p}: " in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch, command):
        import kvlab.experiments

        def no_memory(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(kvlab.experiments, "init_model", no_memory)
        cfg = _with_model(vocab_size=10**12)
        cfg["sweep"] = {"n_reuse": [1]}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the config's sizes need more memory than can be allocated")
        assert "internal error" not in err

    def test_memory_error_without_a_reason_ends_the_sentence(self, tmp_path, capsys, monkeypatch):
        import kvlab.experiments

        def no_memory(config):
            raise MemoryError  # as `[x] * n` raises it, with no message

        monkeypatch.setattr(kvlab.experiments, "init_model", no_memory)
        assert main(["simulate", "--config", write_config(tmp_path, base_config())]) == 2
        err = capsys.readouterr().err
        assert err == "error: the config's sizes need more memory than can be allocated\n"

    def test_prompt_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        # a random prompt's tokens are drawn after the model is built
        import kvlab.experiments

        def no_memory(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(kvlab.experiments, "prompt_tokens", no_memory)
        cfg = base_config(prompt={"kind": "random", "length": 10**12, "seed": 1})
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the config's sizes need more memory than can be allocated")
        assert "internal error" not in err

    def test_timings_isolated(self, tmp_path):
        cfg = base_config()
        main(["simulate", "--config", write_config(tmp_path, cfg)])
        report = (tmp_path / "out" / "report.json").read_text()
        assert "perf" not in report
        assert (tmp_path / "out" / "timings.json").exists()
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert [p["policy"] for p in timings["policies"]] == ["ChunkKV", "SnapKVStyle"]
        for stages in timings["policies"]:
            assert set(stages) == {"policy", "select_s", "fidelity_s"}
            assert stages["select_s"] >= 0.0 and stages["fidelity_s"] >= 0.0
        assert "select_s" not in report and "fidelity_s" not in report

    def test_timings_keep_policies_of_one_kind(self, tmp_path):
        h2o = {"kind": "H2OStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}}
        cfg = base_config(policies=[h2o, {**h2o, "h2o_normalize": "none"}])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert [p["policy"] for p in timings["policies"]] == ["H2OStyle", "H2OStyle"]


# every command's config; a needle prompt runs under `kvlab needle` only
DEPENDENCY_ARGV = {
    "simulate": base_config(reuse={"n_reuse": 2}),
    "sweep": base_config(sweep={"c": [3, 5], "n_reuse": [1, 2]}),
    "reuse-bench": base_config(reuse={"n_reuse": 2}),
    "needle": base_config(prompt=NEEDLE_PROMPT, reuse={"n_reuse": 2}),
    "memory": "--batch 1 --seq 64 --layers 4 --heads 2 --head-dim 8".split(),
}


@pytest.mark.parametrize("command", list(DEPENDENCY_ARGV))
def test_only_numpy_is_loaded_beside_the_standard_library(tmp_path, command):
    # numpy is kvlab's one runtime dependency, under every command.  -S skips
    # site's .pth imports, so numpy's own directory goes on the path
    import numpy

    given = DEPENDENCY_ARGV[command]
    args = given if command == "memory" else ["--config", write_config(tmp_path, given)]
    code = (
        "import json, sys, kvlab.cli\n"
        f"assert kvlab.cli.main({[command, *args]!r}) == 0\n"
        "tops = {name.partition('.')[0] for name in sys.modules} - set(sys.stdlib_module_names)\n"
        "print(json.dumps({n: getattr(sys.modules.get(n), '__file__', None) for n in tops}))\n"
    )
    env = _src_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(numpy.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])  # after what the command prints
    # numpy's Cython-built extensions register these; no file or package backs them
    cython = {
        name for name, file in loaded.items()
        if file is None and (name == "cython_runtime" or name.startswith("_cython_"))
    }
    assert set(loaded) - cython == {"__main__", "numpy", "kvlab"}


class TestOutputPath:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_a_file_in_the_way_exits_2_naming_the_flag(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" if below else afile
        argv = ["simulate", "--config", write_config(tmp_path, base_config()), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {str(out)!r} cannot be a directory: ")
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("command", ["simulate", "sweep", "needle", "reuse-bench"])
    def test_out_dir_in_the_config_exits_2_without_prefill(self, tmp_path, capsys, monkeypatch, command):
        # --out alone names the output directory; the schema refuses the old field
        calls = _count_prefills(monkeypatch)
        cfg = base_config(prompt=NEEDLE_PROMPT, sweep={"c": [3]}, out_dir=str(tmp_path / "old"))
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown field out_dir\n"
        assert calls == []
        assert not (tmp_path / "old").exists()

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            *(
                (command, {"prompt": NEEDLE_PROMPT, "reuse": {"n_reuse": 2}, "sweep": {"c": [5]}},
                 "a needle prompt runs only under `kvlab needle`")
                for command in ("simulate", "sweep", "reuse-bench")
            ),
            ("needle", {}, "needle command requires a needle prompt"),
            ("reuse-bench", {}, "reuse-bench requires a reuse plan or an n_reuse sweep axis"),
            ("sweep", {"sweep": {}}, "sweep requires a 'sweep' section with axes"),
        ],
        ids=["simulate-needle", "sweep-needle", "reuse-bench-needle",
             "needle-random", "reuse-bench-no-plan", "sweep-no-axes"],
    )
    def test_a_config_its_command_refuses_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, overrides, message
    ):
        # each command refuses these before any prefill or needle draw, and --out
        # is made only at the first write
        import kvlab.experiments

        prefills = _count_prefills(monkeypatch)
        draws = []
        real = kvlab.experiments.make_needle_case
        monkeypatch.setattr(
            kvlab.experiments, "make_needle_case", lambda *a, **k: draws.append(1) or real(*a, **k)
        )
        assert main([command, "--config", write_config(tmp_path, base_config(**overrides))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert prefills == draws == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, overrides, output",
        [
            ("simulate", {}, "report.json"),
            ("simulate", {}, "timings.json"),
            ("sweep", {"sweep": {"seeds": [0]}}, "sweep.csv"),
            ("needle", {"prompt": NEEDLE_PROMPT}, "needle.json"),
            ("reuse-bench", {"reuse": {"n_reuse": 2}}, "reuse_bench.json"),
        ],
    )
    def test_a_directory_at_an_output_file_exits_2_naming_it(
        self, tmp_path, capsys, command, overrides, output
    ):
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        argv = [command, "--config", write_config(tmp_path, base_config(**overrides)), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out / output}: ")
        assert captured.out == ""
        assert (out / output).is_dir()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("simulate", {}),
            ("sweep", {"sweep": {"seeds": [0]}}),
            ("needle", {"prompt": NEEDLE_PROMPT}),
            ("reuse-bench", {"reuse": {"n_reuse": 2}}),
        ],
    )
    def test_out_and_its_parents_are_made_at_the_first_write(self, tmp_path, capsys, command, overrides):
        out = tmp_path / "a" / "b" / "out"
        argv = [command, "--config", write_config(tmp_path, base_config(**overrides)), "--out", str(out)]
        assert main(argv) == 0
        printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
        assert printed and all(path.parent == out and path.is_file() for path in printed)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_a_failed_write_names_the_file_the_os_does_not(self, tmp_path, capsys):
        # opening /dev/full succeeds, and the write fails with no filename on the error
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").symlink_to("/dev/full")
        argv = ["simulate", "--config", write_config(tmp_path, base_config()), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'report.json'}: {os.strerror(28)}\n"  # ENOSPC
        assert (out / "timings.json").is_file()

    @pytest.mark.parametrize("command", ["memory", "simulate"])
    def test_a_closed_stdout_exits_0_quietly(self, tmp_path, command):
        # the paths are printed after every output file is written
        args = ["--batch", "1", "--seq", "8", "--layers", "1", "--heads", "1", "--head-dim", "1"]
        if command == "simulate":
            args = ["--config", write_config(tmp_path, base_config())]
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "kvlab.cli", command, *args],
                stdout=stdout, stderr=subprocess.PIPE, env=_src_env(), timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert command == "memory" or (tmp_path / "out" / "report.json").is_file()


class TestSweep:
    def test_row_count_product(self, tmp_path):
        cfg = base_config(
            sweep={"c": [3, 5], "ratio": [0.2], "n_reuse": [1], "seeds": [0, 1]},
        )
        cfg["policies"] = cfg["policies"][:1]
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4

    def test_rectangular_csv(self, tmp_path):
        cfg = base_config(sweep={"c": [5], "seeds": [0, 1]})
        main(["sweep", "--config", write_config(tmp_path, cfg)])
        with (tmp_path / "out" / "sweep.csv").open() as f:
            reader = csv.reader(f)
            header = next(reader)
            for row in reader:
                assert len(row) == len(header)

    def test_empty_axis_exit_2(self, tmp_path):
        cfg = base_config(sweep={"c": []})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2

    def test_prefill_once_per_seed_rows_in_cell_order(self, tmp_path, monkeypatch):
        calls = _count_prefills(monkeypatch)
        cfg = base_config(
            sweep={"c": [3, 5], "n_reuse": [1, 2], "seeds": [0, 1, 0]},
        )
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 2  # seeds 0 and 1
        with (tmp_path / "out" / "sweep.csv").open() as f:
            rows = list(csv.DictReader(f))
        cells = [(r["c"], r["n_reuse"], r["seed"]) for r in rows[:: len(cfg["policies"])]]
        assert cells == [
            (c, n, s) for c in "35" for n in "12" for s in "010"
        ]

    def test_no_process_pool_is_loaded(self, tmp_path):
        # a process pool's modules cost every command about 30 ms of imports
        path = write_config(tmp_path, base_config(sweep={"seeds": [0, 1]}))
        code = (
            "import sys, kvlab.cli\n"
            f"kvlab.cli.load_config({path!r})\n"
            f"assert kvlab.cli.main(['sweep', '--config', {path!r}]) == 0\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"  # after the path sweep prints

    def test_workers_is_no_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(sweep={"c": [3, 5]}))
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--config", path, "--workers", "2"])
        assert e.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_axis_left_out_keeps_each_policy_budget(self, tmp_path):
        # no c or ratio axis: a max_len budget stays one, and a Hybrid's inner
        # policies keep theirs, so n_reuse 1 rows are what simulate reports
        policies = [
            {"kind": "ChunkKV", "budget": {"max_len": 100, "w": 4, "c": 5}},
            {"kind": "SnapKVStyle", "budget": {"ratio": 0.5, "w": 4, "c": 20}, "pool_width": 3},
            {
                "kind": "Hybrid", "budget": {"ratio": 0.3, "w": 4, "c": 7}, "split": 2,
                "inner_a": {"kind": "ChunkKV", "budget": {"max_len": 60, "w": 4, "c": 3}},
                "inner_b": {"kind": "SnapKVStyle", "budget": {"ratio": 0.4, "w": 6, "c": 10}},
            },
        ]
        prompt = {"kind": "random", "length": 200, "seed": 1}
        cfg = base_config(prompt=prompt, policies=policies,
                          sweep={"n_reuse": [1, 2]})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            rows = [r for r in csv.DictReader(f) if r["n_reuse"] == "1"]
        sim = write_config(tmp_path, base_config(prompt=prompt, policies=policies))
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        report = json.loads((tmp_path / "sim" / "report.json").read_text())
        assert [(r["c"], r["ratio"]) for r in rows] == [("5", ""), ("20", "0.5"), ("7", "0.3")]
        for row, rep in zip(rows, report["policies"], strict=True):
            assert row["policy"] == rep["policy"]
            assert float(row["kv_l1"]) == rep["fidelity"]["kv_l1"]
            assert float(row["attn_cos"]) == rep["fidelity"]["attn_cos"]

    def test_needle_matrix_built_once_per_cell(self, tmp_path, monkeypatch):
        import kvlab.experiments

        calls = []
        real = kvlab.experiments.make_needle_case

        def counting(case, observe_rows=1):
            calls.append(case)
            return real(case, observe_rows=observe_rows)

        monkeypatch.setattr(kvlab.experiments, "make_needle_case", counting)
        cfg = base_config(sweep={"c": [3, 5], "n_reuse": [1, 2], "seeds": [0]})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 4  # one per cell, shared by both policies


class TestSeedOverride:
    def test_needle_prompt_follows_seed(self, tmp_path):
        weak = {**NEEDLE_PROMPT, "signal": 0.3}  # retention then depends on the noise draw
        outs = {}
        for seed in (4, 7):
            path = write_config(tmp_path, base_config(prompt={**weak, "seed": seed}))
            assert main(["needle", "--config", path, "--out", str(tmp_path / f"seed{seed}")]) == 0
            outs[seed] = json.loads((tmp_path / f"seed{seed}" / "needle.json").read_text())
            assert outs[seed]["case"]["seed"] == seed
        assert outs[4]["policies"] != outs[7]["policies"]

    def test_report_echoes_effective_seed(self, tmp_path):
        # the echo is the file as written, so its seed is the one that ran
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path]) == 0
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert echo == json.loads(Path(path).read_text())
        assert echo["prompt"]["seed"] == base_config()["prompt"]["seed"]

    def test_echoed_config_parses_again(self, tmp_path):
        # to the config that ran
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", path]) == 0
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        ran = load_config(path)
        again = parse_config(echo)
        assert again == ran

    def test_override_seed_keeps_the_document_as_written(self, tmp_path):
        # a sweep's seeds value reaches the prompt, not the echo
        cfg = base_config()
        loaded = load_config(write_config(tmp_path, cfg))
        seeded = override_seed(loaded, 7)
        assert seeded.prompt.seed == 7
        assert seeded.raw == cfg
        assert loaded.prompt.seed == cfg["prompt"]["seed"]

    @pytest.mark.parametrize("command", ["simulate", "sweep", "needle", "reuse-bench"])
    def test_stale_seed_flag_exits_2_without_prefill(self, tmp_path, capsys, monkeypatch, command):
        # the seed lives in the config; argparse rejects the old flag before any run
        calls = _count_prefills(monkeypatch)
        cfg = base_config(prompt=NEEDLE_PROMPT, sweep={"c": [3]})
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", write_config(tmp_path, cfg), "--seed", "7"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()


def test_similarity_is_no_command(tmp_path, capsys):
    # its heatmaps render report.json's similarity_matrix (scripts/reuse_similarity.py)
    with pytest.raises(SystemExit) as exit_:
        main(["similarity", "--config", write_config(tmp_path, base_config())])
    assert exit_.value.code == 2
    assert "invalid choice: 'similarity'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestHybridSplit:
    @pytest.mark.parametrize("split", [0, 9])
    @pytest.mark.parametrize(
        "overrides",
        [{"reuse": {"n_reuse": 2}}, {"prompt": NEEDLE_PROMPT}],
        ids=["reuse", "needle"],
    )
    def test_out_of_range_split_exit_2(self, tmp_path, capsys, split, overrides):
        budget = {"ratio": 0.25, "w": 4, "c": 5}
        hybrid = {
            "kind": "Hybrid",
            "split": split,
            "budget": budget,
            "inner_a": {"kind": "ChunkKV", "budget": budget},
            "inner_b": {"kind": "SnapKVStyle", "budget": budget},
        }
        cfg = base_config(policies=[hybrid], **overrides)
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "split" in capsys.readouterr().err

    @pytest.fixture
    def prefill_calls(self, monkeypatch):
        """The (observe_rows, col_mass) of every prefill the CLI runs."""
        import kvlab.experiments

        calls = []
        real = kvlab.experiments.prefill

        def recording(model, tokens, observe_rows=1, col_mass=True):
            calls.append((observe_rows, col_mass))
            return real(model, tokens, observe_rows=observe_rows, col_mass=col_mass)

        monkeypatch.setattr(kvlab.experiments, "prefill", recording)
        return calls

    @pytest.mark.parametrize("outer_w", [4, 40])
    def test_observe_rows_come_from_inner_policies(self, tmp_path, prefill_calls, outer_w):
        # the Hybrid's own budget selects nothing, so its w keeps no observe rows
        inner = {"kind": "ChunkKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}}
        hybrid = {
            "kind": "Hybrid",
            "split": 2,
            "budget": {"ratio": 0.25, "w": outer_w, "c": 5},
            "inner_a": inner,
            "inner_b": {**inner, "budget": {"ratio": 0.25, "w": 3, "c": 5}},
        }
        cfg = base_config(policies=[hybrid])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        assert prefill_calls == [(4, False)]

    @pytest.mark.parametrize(
        "readers, rows",
        [([{"kind": "ChunkKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}}], 4), ([], 1)],
        ids=["chunkkv-w4", "no-reader"],
    )
    def test_observe_rows_come_from_row_readers(self, tmp_path, prefill_calls, readers, rows):
        # H2OStyle ranks col_mass and StreamingStyle reads no scores: their w
        # keeps no observe rows, and prefill always keeps the final row
        non_readers = [
            {"kind": "H2OStyle", "budget": {"max_len": 100, "w": 64}},
            {"kind": "StreamingStyle", "budget": {"max_len": 60, "w": 40}, "sink": 4},
        ]
        cfg = base_config(
            prompt={"kind": "random", "length": 200, "seed": 1},
            policies=[*non_readers, *readers],
        )
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        assert prefill_calls == [(rows, True)]

    @pytest.mark.parametrize(
        "policies, col_mass",
        [
            (["ChunkKV", "SnapKVStyle", "PyramidStyle", "StreamingStyle", "FullKV"], False),
            (["H2OStyle"], True),
            (["ChunkKV", "H2OStyle"], True),
            ([("ChunkKV", "StreamingStyle")], False),
            ([("H2OStyle", "ChunkKV")], True),
            ([("ChunkKV", "H2OStyle")], True),
        ],
        ids=["no-h2o", "h2o", "h2o-beside-chunkkv", "hybrid", "hybrid-h2o-a", "hybrid-h2o-b"],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_col_mass_is_built_exactly_when_an_h2o_runs(
        self, tmp_path, prefill_calls, policies, col_mass, command
    ):
        budget = {"ratio": 0.25, "w": 4, "c": 5}

        def spec(kind):
            if isinstance(kind, tuple):
                a, b = map(spec, kind)
                return {"kind": "Hybrid", "split": 2, "budget": budget, "inner_a": a, "inner_b": b}
            return {"kind": kind, "budget": budget}

        specs = [spec(kind) for kind in policies]
        cfg = base_config(policies=specs, sweep={"c": [5]})
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
        assert prefill_calls and {c for _, c in prefill_calls} == {col_mass}


def _with_budget(**budget):
    cfg = base_config()
    cfg["policies"][0]["budget"] = {**cfg["policies"][0]["budget"], **budget}
    return cfg


def _with_policy(kind, **extra):
    budget = {"ratio": 0.25, "w": 4, "c": 5}
    return base_config(policies=[{"kind": kind, "budget": budget, **extra}])


def _with_model(**fields):
    cfg = base_config()
    cfg["model"] = {**cfg["model"], **fields}
    return cfg


class TestConfigTypes:
    @pytest.mark.parametrize(
        "make_cfg, field",
        [
            (lambda: _with_budget(ratio="0.2"), "policies[0].budget.ratio"),
            (lambda: _with_budget(w="2"), "policies[0].budget.w"),
            (lambda: _with_budget(c=2.5), "policies[0].budget.c"),
            (lambda: base_config(reuse=2), "reuse"),
            (
                lambda: base_config(policies=[{"kind": "ChunkKV", "budget": [1]}]),
                "policies[0].budget",
            ),
            (lambda: base_config(policies=[1]), "policies[0]"),
            (lambda: base_config(policies={"kind": "ChunkKV"}), "policies"),
            (lambda: base_config(model=[]), "model"),
            (lambda: base_config(prompt=[]), "prompt"),
            (lambda: base_config(sweep=[1]), "sweep"),
            (lambda: _with_policy("StreamingStyle", sink="4"), "policies[0].sink"),
            (lambda: _with_policy("StreamingStyle", sink=None), "policies[0].sink"),
            (lambda: _with_policy("PyramidStyle", skew="0.1"), "policies[0].skew"),
            (
                lambda: _with_policy("ChunkKV", head_pool="yes"),
                "policies[0].head_pool",
            ),
            (lambda: _with_model(n_layers=2.5), "model.n_layers"),
            (lambda: _with_model(seed="3"), "model.seed"),
            (lambda: base_config(sweep={"c": [2.5]}), "sweep.c[0]"),
            (
                lambda: base_config(prompt={"kind": "random", "length": "16"}),
                "prompt.length",
            ),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "seq_len": []}),
                "prompt.seq_len",
            ),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "weak_offset": "2"}),
                "prompt.weak_offset",
            ),
            (lambda: _with_seed("prompt", "1"), "prompt.seed"),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "signal": "60"}),
                "prompt.signal",
            ),
        ],
        ids=[
            "ratio-string", "w-string", "c-float", "reuse-int", "budget-list",
            "policy-int", "policies-object", "model-list", "prompt-list",
            "sweep-list", "sink-string", "sink-null", "skew-string", "head-pool-string",
            "n-layers-float", "model-seed-string", "sweep-c-float", "length-string",
            "seq-len-list", "weak-offset-string", "prompt-seed-string", "signal-string",
        ],
    )
    def test_wrong_type_exits_2_naming_field(self, tmp_path, capsys, make_cfg, field):
        cfg = make_cfg()
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert "internal error" not in err

    def test_hybrid_split_string_exits_2(self, tmp_path, capsys):
        budget = {"ratio": 0.25, "w": 4, "c": 5}
        hybrid = {
            "kind": "Hybrid",
            "split": "2",
            "budget": budget,
            "inner_a": {"kind": "ChunkKV", "budget": budget},
            "inner_b": {"kind": "SnapKVStyle", "budget": budget},
        }
        cfg = base_config(policies=[hybrid])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "error: policies[0].split must be an integer" in capsys.readouterr().err

    def test_negative_sink_rejected_by_parse_config(self):
        with pytest.raises(ConfigError, match="sink"):
            parse_config(_with_policy("StreamingStyle", sink=-2))

    @pytest.mark.parametrize("width", [0, 2, 4])
    def test_even_pool_width_rejected_by_parse_config(self, width):
        cfg = base_config()
        cfg["policies"][1]["pool_width"] = width
        with pytest.raises(ConfigError, match="pool_width"):
            parse_config(cfg)


    @pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
    def test_schema_must_be_the_integer_1(self, tmp_path, capsys, schema):
        cfg = base_config(schema=schema)
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_integers_in_float_fields_stored_as_floats(self):
        pyramid = {"kind": "PyramidStyle", "budget": {"ratio": 1, "w": 4, "c": 5}, "skew": 0}
        cfg = parse_config(
            base_config(prompt={**NEEDLE_PROMPT, "signal": 60}, policies=[pyramid])
        )
        spec = cfg.policies[0]
        assert [type(v) for v in (cfg.prompt.needle.signal, spec.budget.ratio, spec.skew)] == [
            float, float, float
        ]


def _hybrid_with_inner_b(**inner_b):
    budget = {"ratio": 0.25, "w": 4, "c": 5}
    return _with_policy(
        "Hybrid", split=2,
        inner_a={"kind": "ChunkKV", "budget": budget},
        inner_b={"budget": budget, **inner_b},
    )


def _with_seed(section, seed):
    cfg = base_config()
    cfg[section] = {**cfg[section], "seed": seed}
    return cfg


class TestRangeErrorsBeforePrefill:
    """Range errors that need only the config and prompt length exit 2 unprefilled."""

    @pytest.mark.parametrize(
        "make_cfg, field",
        [
            (lambda: _with_policy("PyramidStyle", skew=1.5), "policies[0].skew"),
            (lambda: _with_policy("PyramidStyle", skew=-0.5), "policies[0].skew"),
            # ratio 0.25 of 48 is 12 positions; skew 0.5 leaves the last layer 6 < w + c = 9
            (lambda: _with_policy("PyramidStyle", skew=0.5), "policies[0].skew"),
            (lambda: _with_policy("StreamingStyle", sink=13), "policies[0].sink"),
            (
                lambda: _hybrid_with_inner_b(kind="StreamingStyle", sink=13),
                "policies[0].inner_b.sink",
            ),
            (
                lambda: _hybrid_with_inner_b(kind="PyramidStyle", skew=1.5),
                "policies[0].inner_b.skew",
            ),
            (
                lambda: base_config(
                    policies=[{"kind": "StreamingStyle", "budget": {"ratio": 0.5, "w": 4, "c": 5}, "sink": 13}],
                    sweep={"ratio": [0.5, 0.25]},
                ),
                "policies[0].sink",
            ),
            (lambda: base_config(sweep={"c": [5, 0]}), "c must be"),
            (lambda: base_config(sweep={"ratio": [1.5]}), "ratio must be"),
            (lambda: base_config(sweep={"n_reuse": [5]}), "sweep.n_reuse[0]"),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "observe_rows": 0}),
                "prompt: observe_rows must be >= 1",
            ),
            # a ratio budget of this length overflows the float arithmetic
            (
                lambda: base_config(
                    prompt={"kind": "random", "length": 10**400, "seed": 1},
                    policies=[{"kind": "StreamingStyle", "budget": {"ratio": 0.5}}],
                ),
                "policies[0].budget",
            ),
            # seeds outside Philox's key range [0, 2**128)
            (lambda: _with_seed("model", -1), "model: seed"),
            (lambda: _with_seed("model", 10**400), "model: seed"),
            (lambda: _with_seed("prompt", -1), "prompt: seed"),
            (lambda: _with_seed("prompt", 2**128), "prompt: seed"),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "seed": -1}),
                "prompt: seed",
            ),
            (lambda: base_config(sweep={"seeds": [0, -1]}), "sweep.seeds[1]"),
            # no skew can lift a max_len below w + c = 9
            (
                lambda: base_config(policies=[{
                    "kind": "PyramidStyle", "budget": {"max_len": 6, "w": 4, "c": 5}, "skew": 0.0,
                }]),
                "policies[0].budget: max_len 6 is below the minimum budget w + c = 9",
            ),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "signal": 1e39}),
                "prompt: signal",
            ),
            (
                lambda: base_config(prompt={"kind": "random", "length": 0, "seed": 1}),
                "prompt: random prompt needs length >= 1",
            ),
            # span 20..24 of a 60-token prompt, moved or widened past its end
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "span_start": 56}),
                "prompt: span must lie within [0, seq_len)",
            ),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "weak_offset": 5}),
                "prompt: weak_offset must index into the span",
            ),
            # sizes past numpy's index-sized integers: no array of them can be made
            (lambda: _with_model(n_layers=2**70), "model.n_layers"),
            (lambda: _with_model(n_heads=2**70), "model.n_heads"),
            (lambda: _with_model(head_dim=2**70), "model.head_dim"),
            (lambda: _with_model(vocab_size=2**70), "model.vocab_size"),
            # sizes numpy can index whose weights it cannot: refused before init_model
            (lambda: _with_model(n_layers=2**62), "model.n_layers"),
            (lambda: _with_model(n_heads=2**62), "model.n_heads"),
            (lambda: _with_model(head_dim=2**62), "model.head_dim"),
            (lambda: _with_model(vocab_size=2**62), "model.vocab_size"),
            (
                lambda: base_config(prompt={"kind": "random", "length": 2**70, "seed": 1}),
                "prompt.length",
            ),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "seq_len": 2**70}),
                "prompt.seq_len",
            ),
            # a prompt numpy can index whose first array it cannot
            (
                lambda: base_config(prompt={"kind": "random", "length": 2**62, "seed": 1}),
                "prompt.length",
            ),
            (
                lambda: base_config(prompt={**NEEDLE_PROMPT, "seq_len": 2**62}),
                "prompt.seq_len",
            ),
            # a needle prompt whose float64 score draw, observe_rows x seq_len, numpy cannot index
            (
                lambda: base_config(
                    prompt={**NEEDLE_PROMPT, "seq_len": 64, "observe_rows": 2**62}
                ),
                "prompt.observe_rows * prompt.seq_len",
            ),
            # the modeled compress cost, n_layers * n_heads * w * T, is a float
            (
                lambda: base_config(policies=[
                    {"kind": "StreamingStyle", "budget": {"max_len": 10**330, "w": 10**330}},
                ]),
                "policies[0].budget.w: its modeled cost overflows",
            ),
        ],
        ids=[
            "skew-above-1", "skew-negative", "skew-below-w-plus-c", "sink-above-budget",
            "hybrid-inner-sink", "hybrid-inner-skew", "sweep-cell-sink", "sweep-c-zero",
            "sweep-ratio-above-1", "sweep-n-reuse", "needle-observe-rows-zero",
            "streaming-ratio-huge-length", "model-seed-negative", "model-seed-huge",
            "prompt-seed-negative", "prompt-seed-2-to-128", "needle-seed-negative",
            "sweep-seed-negative", "pyramid-max-len-below-w-plus-c", "needle-signal-float32-inf",
            "random-length-zero", "needle-span-past-seq-len", "needle-weak-offset-past-span",
            "n-layers-2-to-70", "n-heads-2-to-70",
            "head-dim-2-to-70", "vocab-size-2-to-70", "n-layers-2-to-62", "n-heads-2-to-62",
            "head-dim-2-to-62", "vocab-size-2-to-62", "length-2-to-70", "seq-len-2-to-70",
            "length-2-to-62", "seq-len-2-to-62", "observe-rows-times-seq-len-2-to-62",
            "w-past-the-modeled-cost",
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_exit_2_naming_field_without_prefill(
        self, tmp_path, capsys, monkeypatch, make_cfg, field, command
    ):
        import kvlab.experiments

        calls = []
        real = kvlab.experiments.prefill
        monkeypatch.setattr(
            kvlab.experiments, "prefill", lambda *a: calls.append(1) or real(*a)
        )
        cfg = make_cfg()
        cfg.setdefault("sweep", {"c": [5]})
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "internal error" not in err
        assert calls == []

    def test_needle_seed_at_the_key_limit_runs(self, tmp_path):
        # each layer's needle scores draw from a key derived from the seed
        prompt = {**NEEDLE_PROMPT, "seed": 2**128 - 1}
        cfg = write_config(tmp_path, base_config(prompt=prompt))
        assert main(["needle", "--config", cfg]) == 0

    @pytest.mark.parametrize(
        "huge, wide",
        [
            # a chunk wider than the prompt is one chunk
            ({"kind": "ChunkKV", "budget": {"max_len": 20, "w": 4, "c": 10**400}},
             {"kind": "ChunkKV", "budget": {"max_len": 20, "w": 4, "c": 48}}),
            # a pool window reaching past both ends of the prompt covers all of it
            ({"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 10**400 + 1},
             {"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 2 * 48 - 1}),
        ],
        ids=["chunk-size", "pool-width"],
    )
    def test_widths_above_the_prompt_run_as_the_whole_prompt(self, tmp_path, huge, wide):
        kept = []
        for name, policy in (("huge", huge), ("wide", wide)):
            path = write_config(tmp_path, base_config(policies=[policy]))
            assert main(["simulate", "--config", path, "--out", str(tmp_path / name)]) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            kept.append(report["policies"][0]["layers"])
        assert kept[0] == kept[1]

    def test_signal_at_the_float32_limit_runs(self, tmp_path, capsys):
        cfg = base_config(prompt={**NEEDLE_PROMPT, "signal": 3.4e38})
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_without_axes(self, tmp_path, capsys):
        # simulate ignores an empty sweep section; sweep refuses it
        cfg = write_config(tmp_path, base_config(sweep={}))
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["sweep", "--config", cfg]) == 2
        assert "error: sweep requires a 'sweep' section with axes" in capsys.readouterr().err

    def test_valid_edges_still_run(self, tmp_path):
        # a sink equal to the budget, and a skew whose last layer gets exactly w + c
        cfg = base_config(policies=[
            {"kind": "StreamingStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "sink": 12},
            {"kind": "PyramidStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "skew": 0.25},
        ])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "make_cfg, path",
        [
            (lambda: {**base_config(), "polices": []}, "polices"),
            (lambda: _with_model(n_layer=4), "model.n_layer"),
            (
                lambda: base_config(prompt={"kind": "random", "length": 48, "seeds": 7}),
                "prompt.seeds",
            ),
            (lambda: base_config(prompt={**NEEDLE_PROMPT, "sead": 7}), "prompt.sead"),
            (lambda: base_config(sweep={"seed": [1, 2]}), "sweep.seed"),
            (
                lambda: _with_policy("SnapKVStyle", pool_widht=3),
                "policies[0].pool_widht",
            ),
            (
                lambda: _hybrid_with_inner_b(kind="ChunkKV", skwe=0.1),
                "policies[0].inner_b.skwe",
            ),
            (lambda: _with_budget(W=12), "policies[0].budget.W"),
            (lambda: base_config(reuse={"nreuse": 4}), "reuse.nreuse"),
            # not a field: every policy reads the softmax observe rows
            (
                lambda: _with_policy("ChunkKV", score_mode="raw"),
                "policies[0].score_mode",
            ),
            (
                lambda: _with_policy(
                    "Hybrid", split=2,
                    inner_a={"kind": "ChunkKV", "budget": {"ratio": 0.25}, "score_mode": "softmax"},
                    inner_b={"kind": "H2OStyle", "budget": {"ratio": 0.25}},
                ),
                "policies[0].inner_a.score_mode",
            ),
        ],
        ids=[
            "top-level", "model", "random-prompt", "needle-prompt", "sweep-axis",
            "policy", "hybrid-inner-b", "budget", "reuse", "score-mode", "hybrid-inner-a-score-mode",
        ],
    )
    def test_misspelled_key_exits_2_naming_its_path(self, tmp_path, capsys, make_cfg, path):
        cfg = make_cfg()
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: unknown field {path}\n" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "prompt, message",
        [
            ({"kind": "tokens", "tokens": [1, 2, 3]}, "unknown prompt kind 'tokens'"),
            ({**NEEDLE_PROMPT, "noise": "uniform"}, "unknown field prompt.noise"),
        ],
        ids=["tokens-kind", "needle-noise"],
    )
    def test_removed_prompt_inputs_exit_2_before_prefill(
        self, tmp_path, capsys, monkeypatch, prompt, message
    ):
        # every prompt is a seeded draw, and a needle's noise is uniform
        calls = _count_prefills(monkeypatch)
        cfg = base_config(prompt=prompt)
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestNeedleCommand:
    def test_needle_report(self, tmp_path):
        cfg = base_config(
            prompt=NEEDLE_PROMPT,
        )
        cfg["policies"][0]["budget"] = {"max_len": 9, "w": 4, "c": 5}
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 0
        out = json.loads((tmp_path / "out" / "needle.json").read_text())
        chunk = next(p for p in out["policies"] if p["policy"] == "ChunkKV")
        assert chunk["intact_all_layers"] is True

    def test_requires_needle_prompt(self, tmp_path):
        cfg = base_config()
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 2

    def test_follows_the_reuse_plan(self, tmp_path):
        # signal 0.3 over uniform noise: a layer's retention depends on its own draw
        weak = {**NEEDLE_PROMPT, "signal": 0.3, "seed": 2, "observe_rows": 4}
        budget = {"ratio": 0.25, "w": 4, "c": 5}
        policies = [
            {"kind": "SnapKVStyle", "budget": budget, "pool_width": 3},
            {"kind": "H2OStyle", "budget": budget},
            {"kind": "PyramidStyle", "budget": budget, "skew": 0.2},
        ]
        fractions = {}
        for n_reuse in (1, 4):  # base_config's model has 4 layers
            cfg = base_config(prompt=weak, policies=policies, reuse={"n_reuse": n_reuse})
            out = tmp_path / f"reuse{n_reuse}"
            assert main(["needle", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
            doc = json.loads((out / "needle.json").read_text())
            fractions[n_reuse] = [[l["fraction"] for l in p["per_layer"]] for p in doc["policies"]]
        for fresh, copied in zip(fractions[1], fractions[4], strict=True):
            assert copied == [copied[0]] * 4  # every layer copies layer 0's kept set
            assert len(set(fresh)) > 1  # every layer draws and compresses its own scores

    @pytest.mark.parametrize("n_reuse", [1, 2])
    def test_summary_reads_each_layer(self, tmp_path, n_reuse):
        # the mean and the all-layers flag summarize the per-layer entries, which
        # number every layer in order; a layer is intact when it keeps the whole span
        weak = {**NEEDLE_PROMPT, "signal": 0.3, "seed": 2, "observe_rows": 4}
        policies = [
            {"kind": "ChunkKV", "budget": {"max_len": 9, "w": 4, "c": 5}},
            {"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 3},
            {"kind": "H2OStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
        ]
        cfg = base_config(prompt=weak, policies=policies, reuse={"n_reuse": n_reuse})
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "needle.json").read_text())
        assert [p["policy"] for p in doc["policies"]] == ["ChunkKV", "SnapKVStyle", "H2OStyle"]
        for p in doc["policies"]:
            layers = p["per_layer"]
            assert [l["layer"] for l in layers] == [0, 1, 2, 3]  # base_config's 4 layers
            assert all(l["intact"] == (l["fraction"] == 1.0) for l in layers)
            assert p["intact_all_layers"] == all(l["intact"] for l in layers)
            # per-layer fractions are k / span_len, exact before rounding to 6 places
            assert p["mean_fraction"] == round(sum(l["fraction"] for l in layers) / 4, 6)
        assert {p["intact_all_layers"] for p in doc["policies"]} == {True, False}


class TestSweepMatchesSimulate:
    POLICIES = [
        {"kind": "ChunkKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
        {"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 3},
        {"kind": "H2OStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
        {"kind": "PyramidStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "skew": 0.2},
    ]

    def test_trace_sweep_rows_match_simulate(self, tmp_path):
        # each cell's Jaccard and fidelity are simulate's on that cell, and the
        # modeled cost at n_reuse 1 over that at n_reuse n is `speedup_estimate`
        # of n_heads * max(w, 1) * T per anchor layer and n_heads per copied one
        prompt = {"kind": "random", "length": 48}
        n_layers, n_heads, w, t = 4, 2, 4, 48  # base_config's model, POLICIES' w
        cost = float(n_heads * max(w, 1) * t), float(n_heads)
        sweep = {"c": [3, 5], "ratio": [0.25, 0.4], "n_reuse": [1, 2], "seeds": [1, 2]}
        cfg = base_config(prompt=prompt, policies=self.POLICIES, sweep=sweep)
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            rows = list(csv.DictReader(f))
        cells = {}
        for r in rows:
            cells.setdefault((r["c"], r["ratio"], r["n_reuse"], r["seed"]), []).append(r)
        assert len(cells) == 16
        for i, ((c, ratio, n_reuse, seed), got) in enumerate(cells.items()):
            budget = {"ratio": float(ratio), "w": 4, "c": int(c)}
            cell = base_config(
                prompt={**prompt, "seed": int(seed)},
                policies=[{**p, "budget": budget} for p in self.POLICIES],
                reuse={"n_reuse": int(n_reuse)},
            )
            argv = ["simulate", "--config", write_config(tmp_path, cell), "--out", str(tmp_path / f"cell{i}")]
            assert main(argv) == 0
            reps = json.loads((tmp_path / f"cell{i}" / "report.json").read_text())["policies"]
            fresh = cells[(c, ratio, "1", seed)]
            for row, rep, base in zip(got, reps, fresh, strict=True):
                assert row["policy"] == rep["policy"] == base["policy"]
                assert float(row["adjacent_jaccard"]) == rep["adjacent_jaccard"]
                assert float(row["kv_l1"]) == rep["fidelity"]["kv_l1"]
                assert float(row["attn_cos"]) == rep["fidelity"]["attn_cos"]
                speedup = float(base["micros_compress"]) / float(row["micros_compress"])
                assert round(speedup, 6) == round(speedup_estimate(n_layers, int(n_reuse), *cost), 6)


class TestReuseBench:
    def test_report_schema_and_baseline(self, tmp_path):
        cfg = base_config(
            reuse={"n_reuse": 2},
            sweep={"n_reuse": [1, 2]},
        )
        assert main(["reuse-bench", "--config", write_config(tmp_path, cfg)]) == 0
        out = json.loads((tmp_path / "out" / "reuse_bench.json").read_text())
        by_reuse = {r["n_reuse"]: r for r in out["results"]}
        assert set(by_reuse) == {1, 2}
        assert by_reuse[1]["analytic_speedup"] == pytest.approx(1.0)
        for r in out["results"]:
            assert "measured_speedup" in r and "analytic_speedup" in r

    def test_baseline_timed_once(self, tmp_path, monkeypatch):
        # five samples of each distinct plan, the n_reuse = 1 baseline first and
        # never again; the compress cost comes from the baseline, with no layer-0
        # timing of its own
        import kvlab.experiments

        plans, layers = [], []
        real = kvlab.experiments.run_with_reuse
        monkeypatch.setattr(
            kvlab.experiments,
            "run_with_reuse",
            lambda source, spec, plan: plans.append(plan.n_reuse) or real(source, spec, plan),
        )
        real_compress = kvlab.experiments.compress_layer
        monkeypatch.setattr(
            kvlab.experiments,
            "compress_layer",
            lambda source, layer, spec: layers.append(layer) or real_compress(source, layer, spec),
        )
        cfg = base_config(sweep={"n_reuse": [1, 2, 4]})
        assert main(["reuse-bench", "--config", write_config(tmp_path, cfg)]) == 0
        assert plans == [1] * 5 + [2] * 5 + [4] * 5
        assert layers == []
        out = json.loads((tmp_path / "out" / "reuse_bench.json").read_text())
        keys = {"n_reuse", "analytic_speedup", "measured_speedup", "t_compress_s", "t_select_s"}
        assert [set(r) for r in out["results"]] == [keys] * 3

