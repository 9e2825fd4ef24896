import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvlab.cli import main
from kvlab.experiments import ConfigError, parse_config


def base_config(out_dir, **overrides):
    cfg = {
        "schema": 1,
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
        "prompt": {"kind": "random", "length": 48, "seed": 1},
        "policies": [
            {"kind": "ChunkKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
            {"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 3},
        ],
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


TOKENS_PROMPT = {"kind": "tokens", "tokens": [(7 * i) % 64 for i in range(40)]}

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
            tmp_path / "out",
            policies=[{"kind": "FullKV", "budget": {"ratio": 1.0, "w": 0, "c": 1}}],
        )
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for prep in report["policies"]:
            for layer in prep["layers"]:
                assert all(h["ratio"] == 1.0 for h in layer["heads"])

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path / "out1", reuse={"n_reuse": 2})
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        first = (tmp_path / "out1" / "report.json").read_bytes()
        cfg["out_dir"] = str(tmp_path / "out2")
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        second = (tmp_path / "out2" / "report.json").read_bytes()
        assert first == second

    def test_invalid_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 99}))
        assert main(["simulate", "--config", str(p)]) == 2

    def test_integer_too_long_to_parse_exits_2_naming_the_file(self, tmp_path, capsys):
        # json.loads refuses integers of more than 4300 digits with a ValueError
        text = json.dumps(base_config(tmp_path / "out"))
        p = tmp_path / "huge.json"
        p.write_text(text.replace('"seed": 3', '"seed": ' + "9" * 5000, 1))
        assert main(["simulate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config {p}: " in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "similarity"])
    def test_config_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch, command):
        import kvlab.experiments

        def no_memory(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(kvlab.experiments, "init_model", no_memory)
        cfg = _with_model(tmp_path / "out", vocab_size=10**12)
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
        assert main(["simulate", "--config", write_config(tmp_path, base_config(tmp_path / "out"))]) == 2
        err = capsys.readouterr().err
        assert err == "error: the config's sizes need more memory than can be allocated\n"

    def test_prompt_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        # a random prompt's tokens are drawn after the model is built
        import kvlab.experiments

        def no_memory(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(kvlab.experiments, "prompt_tokens", no_memory)
        cfg = base_config(tmp_path / "out", prompt={"kind": "random", "length": 10**12, "seed": 1})
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the config's sizes need more memory than can be allocated")
        assert "internal error" not in err

    def test_timings_isolated(self, tmp_path):
        cfg = base_config(tmp_path / "out")
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
        cfg = base_config(tmp_path / "out", policies=[h2o, {**h2o, "h2o_normalize": "none"}])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert [p["policy"] for p in timings["policies"]] == ["H2OStyle", "H2OStyle"]


class TestOutputPath:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("via_flag", [True, False], ids=["flag", "config"])
    def test_a_file_in_the_way_exits_2_naming_the_field(self, tmp_path, capsys, below, via_flag):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" if below else afile
        cfg = base_config(tmp_path / "unused" if via_flag else out)
        argv = ["simulate", "--config", write_config(tmp_path, cfg)]
        assert main(argv + ["--out", str(out)] if via_flag else argv) == 2
        err = capsys.readouterr().err
        field = "--out" if via_flag else "out_dir"
        assert err.startswith(f"error: {field} {str(out)!r} cannot be a directory: ")
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize(
        "command, overrides, output",
        [
            ("simulate", {}, "report.json"),
            ("simulate", {}, "timings.json"),
            ("sweep", {"sweep": {"seeds": [0]}}, "sweep.csv"),
            ("similarity", {}, "similarity_ChunkKV.csv"),
            ("similarity", {}, "similarity_SnapKVStyle.pgm"),
            ("needle", {"prompt": NEEDLE_PROMPT}, "needle.json"),
            ("reuse-bench", {"reuse": {"n_reuse": 2}}, "reuse_bench.json"),
        ],
    )
    def test_a_directory_at_an_output_file_exits_2_naming_it(
        self, tmp_path, capsys, command, overrides, output
    ):
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        cfg = base_config(out, **overrides)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out / output}: ")
        assert captured.out == ""
        assert (out / output).is_dir()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_a_failed_write_names_the_file_the_os_does_not(self, tmp_path, capsys):
        # opening /dev/full succeeds, and the write fails with no filename on the error
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").symlink_to("/dev/full")
        argv = ["simulate", "--config", write_config(tmp_path, base_config(out))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'report.json'}: {os.strerror(28)}\n"  # ENOSPC
        assert (out / "timings.json").is_file()


class TestSweep:
    def test_row_count_product(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
            sweep={"c": [3, 5], "ratio": [0.2], "n_reuse": [1], "seeds": [0, 1]},
        )
        cfg["policies"] = cfg["policies"][:1]
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4

    def test_rectangular_csv(self, tmp_path):
        cfg = base_config(tmp_path / "out", sweep={"c": [5], "seeds": [0, 1]})
        main(["sweep", "--config", write_config(tmp_path, cfg)])
        with (tmp_path / "out" / "sweep.csv").open() as f:
            reader = csv.reader(f)
            header = next(reader)
            for row in reader:
                assert len(row) == len(header)

    def test_empty_axis_exit_2(self, tmp_path):
        cfg = base_config(tmp_path / "out", sweep={"c": []})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2

    def test_needle_prompt_applies_n_reuse(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
            prompt=NEEDLE_PROMPT,
            sweep={"c": [5], "ratio": [0.1], "n_reuse": [1, 4], "seeds": [0]},
        )
        cfg["policies"] = cfg["policies"][1:]  # SnapKVStyle
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            jaccard = {int(r["n_reuse"]): float(r["adjacent_jaccard"]) for r in csv.DictReader(f)}
        assert jaccard[4] == 1.0
        assert jaccard[1] < 1.0

    def test_prefill_once_per_seed_rows_in_cell_order(self, tmp_path, monkeypatch):
        calls = _count_prefills(monkeypatch)
        cfg = base_config(
            tmp_path / "out",
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

    def test_tokens_prompt_prefilled_once_for_all_seeds(self, tmp_path, monkeypatch):
        # a tokens prompt draws nothing from the seed: one source serves every seed
        calls = _count_prefills(monkeypatch)
        cfg = base_config(tmp_path / "out", prompt=TOKENS_PROMPT, sweep={"seeds": [1, 2, 3]})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        assert calls == [len(TOKENS_PROMPT["tokens"])]
        digest = hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest()
        # recorded while the sweep still prefilled the prompt once per seed
        assert digest == "67c54b39f63ea92f9ee3f564c89303bed72e0460dd5cc486f93284a648f55e9c"

    def test_no_process_pool_is_loaded(self, tmp_path):
        # a process pool's modules cost every command about 30 ms of imports
        path = write_config(tmp_path, base_config(tmp_path / "out", sweep={"seeds": [0, 1]}))
        code = (
            "import sys, kvlab.cli\n"
            f"kvlab.cli.load_config({path!r})\n"
            f"assert kvlab.cli.main(['sweep', '--config', {path!r}]) == 0\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"  # after the path sweep prints

    def test_workers_is_no_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out", sweep={"c": [3, 5]}))
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--config", path, "--workers", "2"])
        assert e.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_needle_sweep_follows_seeds_axis(self, tmp_path):
        weak = {**NEEDLE_PROMPT, "signal": 0.3}  # retention then depends on the noise draw
        cfg = base_config(tmp_path / "out", prompt=weak, sweep={"c": [3, 5], "seeds": [1, 2]})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            got = list(csv.DictReader(f))
        del cfg["sweep"]["seeds"]
        path = write_config(tmp_path, cfg)
        want = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["sweep", "--config", path, "--out", str(out), "--seed", seed]) == 0
            with (out / "sweep.csv").open() as f:
                want += csv.DictReader(f)
        cell = lambda row: (row["c"], row["seed"], row["policy"])
        assert sorted(got, key=cell) == sorted(want, key=cell)

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
        cfg = base_config(tmp_path / "out", prompt=prompt, policies=policies,
                          sweep={"n_reuse": [1, 2]})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        with (tmp_path / "out" / "sweep.csv").open() as f:
            rows = [r for r in csv.DictReader(f) if r["n_reuse"] == "1"]
        sim = base_config(tmp_path / "sim", prompt=prompt, policies=policies)
        assert main(["simulate", "--config", write_config(tmp_path, sim)]) == 0
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
        cfg = base_config(tmp_path / "out", sweep={"c": [3, 5], "n_reuse": [1, 2], "seeds": [0]})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 4  # one per cell, shared by both policies


class TestSeedOverride:
    def test_needle_prompt_follows_seed(self, tmp_path):
        weak = {**NEEDLE_PROMPT, "signal": 0.3}  # retention then depends on the noise draw
        cfg = base_config(tmp_path / "out", prompt=weak)
        path = write_config(tmp_path, cfg)
        outs = {}
        for name, extra in (("file", []), ("seed7", ["--seed", "7"])):
            assert main(["needle", "--config", path, "--out", str(tmp_path / name)] + extra) == 0
            outs[name] = json.loads((tmp_path / name / "needle.json").read_text())
        assert outs["file"]["case"]["seed"] == NEEDLE_PROMPT["seed"]
        assert outs["seed7"]["case"]["seed"] == 7
        assert outs["file"]["policies"] != outs["seed7"]["policies"]
        in_file = base_config(tmp_path / "out", prompt={**weak, "seed": 7})
        in_file_path = tmp_path / "in_file.json"
        in_file_path.write_text(json.dumps(in_file))
        assert main(["needle", "--config", str(in_file_path), "--out", str(tmp_path / "f7")]) == 0
        assert (tmp_path / "f7" / "needle.json").read_bytes() == (
            tmp_path / "seed7" / "needle.json"
        ).read_bytes()

    @pytest.mark.parametrize("prompt", [None, NEEDLE_PROMPT], ids=["random", "needle"])
    def test_report_echoes_effective_seed(self, tmp_path, prompt):
        cfg = base_config(tmp_path / "out")
        if prompt is not None:
            cfg["prompt"] = prompt
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--seed", "7"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["prompt"]["seed"] == 7
        in_file = {**cfg, "prompt": {**cfg["prompt"], "seed": 7}, "out_dir": str(tmp_path / "f7")}
        assert main(["simulate", "--config", write_config(tmp_path, in_file)]) == 0
        assert (tmp_path / "f7" / "report.json").read_bytes() == (
            tmp_path / "out" / "report.json"
        ).read_bytes()

    def test_needle_sweep_follows_seed(self, tmp_path):
        weak = {**NEEDLE_PROMPT, "signal": 0.3}
        cfg = base_config(tmp_path / "out", prompt=weak, sweep={"c": [3, 5]})
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--seed", "7"]) == 0
        in_file = {**cfg, "prompt": {**weak, "seed": 7}, "out_dir": str(tmp_path / "f7")}
        assert main(["sweep", "--config", write_config(tmp_path, in_file)]) == 0
        want = (tmp_path / "f7" / "sweep.csv").read_bytes()
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == want

    def test_tokens_sweep_keeps_its_rows_under_seed(self, tmp_path):
        # a tokens prompt draws nothing, so --seed changes no value, seed included
        cfg = base_config(tmp_path / "out", prompt=TOKENS_PROMPT, sweep={"c": [3, 5]})
        path = write_config(tmp_path, cfg)
        outs = []
        for name, seed in (("plain", []), ("seeded", ["--seed", "5"])):
            out = tmp_path / name
            assert main(["sweep", "--config", path, "--out", str(out), *seed]) == 0
            with (out / "sweep.csv").open() as f:
                outs.append(list(csv.DictReader(f)))
        assert outs[0] == outs[1] and len(outs[0]) == 2 * len(cfg["policies"])
        assert {r["seed"] for r in outs[1]} == {"0"}

    def test_seed_flag_with_sweep_seeds_exits_2(self, tmp_path, capsys):
        # the seeds axis sets every prompt seed, so a --seed would be dropped unseen
        cfg = base_config(tmp_path / "out", sweep={"c": [3, 5], "seeds": [3]})
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--seed", "9"]) == 2
        err = capsys.readouterr().err
        assert "--seed 9" in err and "sweep.seeds" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert main(["simulate", "--config", path, "--seed", "9"]) == 0  # simulate has no seeds axis

    @pytest.mark.parametrize("seed", [[], ["--seed", "5"]], ids=["file-seed", "cli-seed"])
    @pytest.mark.parametrize(
        "prompt",
        [{"kind": "random", "length": 48, "seed": 1}, TOKENS_PROMPT, NEEDLE_PROMPT],
        ids=["random", "tokens", "needle"],
    )
    def test_echoed_config_parses_again(self, tmp_path, prompt, seed):
        cfg = base_config(tmp_path / "out", prompt=prompt)
        assert main(["simulate", "--config", write_config(tmp_path, cfg), *seed]) == 0
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        seeded = seed and prompt is not TOKENS_PROMPT  # a tokens prompt has no seed to echo
        assert echo["prompt"] == ({**prompt, "seed": 5} if seeded else prompt)
        parse_config(echo)


class TestSimilarity:
    def test_outputs_per_policy(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        assert main(["similarity", "--config", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "out" / "similarity_ChunkKV.csv").exists()
        assert (tmp_path / "out" / "similarity_ChunkKV.pgm").exists()

    def test_pgm_header_and_roundtrip(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        main(["similarity", "--config", write_config(tmp_path, cfg)])
        lines = (tmp_path / "out" / "similarity_ChunkKV.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 4"
        assert lines[2] == "255"
        # diagonal pixels are identical-layer similarity
        for i, row in enumerate(lines[3:7]):
            assert row.split()[i] == "255"

    def test_csv_matches_report_to_3_decimals(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        main(["similarity", "--config", write_config(tmp_path, cfg)])
        main(["simulate", "--config", write_config(tmp_path, cfg)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        matrix = report["policies"][0]["similarity_matrix"]
        with (tmp_path / "out" / "similarity_ChunkKV.csv").open() as f:
            parsed = [[float(x) for x in row] for row in csv.reader(f)]
        for i in range(4):
            for j in range(4):
                assert parsed[i][j] == pytest.approx(matrix[i][j], abs=5e-4)

    def test_identical_indices_all_max(self, tmp_path):
        # streaming keeps the same positions on every layer
        cfg = base_config(
            tmp_path / "out",
            model={"n_layers": 2, "n_heads": 1, "head_dim": 8, "vocab_size": 64, "seed": 3},
            policies=[{"kind": "StreamingStyle", "budget": {"max_len": 10, "w": 2, "c": 1}, "sink": 2}],
        )
        main(["similarity", "--config", write_config(tmp_path, cfg)])
        lines = (tmp_path / "out" / "similarity_StreamingStyle.pgm").read_text().splitlines()
        assert all(px == "255" for row in lines[3:] for px in row.split())

    def test_shared_names_get_their_report_index(self, tmp_path):
        # three ChunkKV and one SnapKVStyle: each policy writes its own pair
        budget = {"ratio": 0.25, "w": 4, "c": 5}
        policies = [
            {"kind": "ChunkKV", "budget": budget},
            {"kind": "SnapKVStyle", "budget": budget},
            {"kind": "ChunkKV", "budget": {**budget, "c": 2}},
            {"kind": "ChunkKV", "budget": budget, "head_pool": True},
        ]
        cfg = base_config(tmp_path / "out", policies=policies)
        assert main(["similarity", "--config", write_config(tmp_path, cfg)]) == 0
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        stems = ["ChunkKV_0", "SnapKVStyle", "ChunkKV_2", "ChunkKV_3"]
        assert sorted(p.name for p in out.glob("similarity_*")) == sorted(
            f"similarity_{stem}.{ext}" for stem in stems for ext in ("csv", "pgm")
        )
        report = json.loads((out / "report.json").read_text())
        matrices = [p["similarity_matrix"] for p in report["policies"]]
        assert matrices[0] != matrices[2]  # the files can tell the policies apart
        for stem, matrix in zip(stems, matrices, strict=True):
            with (out / f"similarity_{stem}.csv").open() as f:
                assert list(csv.reader(f)) == [[f"{v:.3f}" for v in row] for row in matrix]


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
        cfg = base_config(tmp_path / "out", policies=[hybrid], **overrides)
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
        cfg = base_config(tmp_path / "out", policies=[hybrid])
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
            tmp_path / "out",
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
        cfg = base_config(tmp_path / "out", policies=specs, sweep={"c": [5]})
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
        assert prefill_calls and {c for _, c in prefill_calls} == {col_mass}


def _with_budget(out_dir, **budget):
    cfg = base_config(out_dir)
    cfg["policies"][0]["budget"] = {**cfg["policies"][0]["budget"], **budget}
    return cfg


def _with_policy(out_dir, kind, **extra):
    budget = {"ratio": 0.25, "w": 4, "c": 5}
    return base_config(out_dir, policies=[{"kind": kind, "budget": budget, **extra}])


def _with_model(out_dir, **fields):
    cfg = base_config(out_dir)
    cfg["model"] = {**cfg["model"], **fields}
    return cfg


class TestConfigTypes:
    @pytest.mark.parametrize(
        "make_cfg, field",
        [
            (lambda out: _with_budget(out, ratio="0.2"), "policies[0].budget.ratio"),
            (lambda out: _with_budget(out, w="2"), "policies[0].budget.w"),
            (lambda out: _with_budget(out, c=2.5), "policies[0].budget.c"),
            (lambda out: base_config(out, reuse=2), "reuse"),
            (
                lambda out: base_config(out, policies=[{"kind": "ChunkKV", "budget": [1]}]),
                "policies[0].budget",
            ),
            (lambda out: base_config(out, policies=[1]), "policies[0]"),
            (lambda out: base_config(out, policies={"kind": "ChunkKV"}), "policies"),
            (lambda out: base_config(out, model=[]), "model"),
            (lambda out: base_config(out, prompt=[]), "prompt"),
            (lambda out: base_config(out, sweep=[1]), "sweep"),
            (lambda out: _with_policy(out, "StreamingStyle", sink="4"), "policies[0].sink"),
            (lambda out: _with_policy(out, "StreamingStyle", sink=None), "policies[0].sink"),
            (lambda out: _with_policy(out, "PyramidStyle", skew="0.1"), "policies[0].skew"),
            (
                lambda out: _with_policy(out, "ChunkKV", head_pool="yes"),
                "policies[0].head_pool",
            ),
            (lambda out: _with_model(out, n_layers=2.5), "model.n_layers"),
            (lambda out: _with_model(out, seed="3"), "model.seed"),
            (lambda out: base_config(out, sweep={"c": [2.5]}), "sweep.c[0]"),
            (
                lambda out: base_config(out, prompt={"kind": "random", "length": "16"}),
                "prompt.length",
            ),
            (
                lambda out: base_config(out, prompt={"kind": "tokens", "tokens": ["1", 2]}),
                "prompt.tokens[0]",
            ),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "seq_len": []}),
                "prompt.seq_len",
            ),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "weak_offset": "2"}),
                "prompt.weak_offset",
            ),
            (lambda out: {**base_config(out), "out_dir": 5}, "out_dir"),
        ],
        ids=[
            "ratio-string", "w-string", "c-float", "reuse-int", "budget-list",
            "policy-int", "policies-object", "model-list", "prompt-list",
            "sweep-list", "sink-string", "sink-null", "skew-string", "head-pool-string",
            "n-layers-float", "model-seed-string", "sweep-c-float", "length-string", "token-string",
            "seq-len-list", "weak-offset-string", "out-dir-int",
        ],
    )
    def test_wrong_type_exits_2_naming_field(self, tmp_path, capsys, make_cfg, field):
        cfg = make_cfg(tmp_path / "out")
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
        cfg = base_config(tmp_path / "out", policies=[hybrid])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "error: policies[0].split must be an integer" in capsys.readouterr().err

    def test_negative_sink_rejected_by_parse_config(self, tmp_path):
        with pytest.raises(ConfigError, match="sink"):
            parse_config(_with_policy(tmp_path / "out", "StreamingStyle", sink=-2))

    @pytest.mark.parametrize("width", [0, 2, 4])
    def test_even_pool_width_rejected_by_parse_config(self, tmp_path, width):
        cfg = base_config(tmp_path / "out")
        cfg["policies"][1]["pool_width"] = width
        with pytest.raises(ConfigError, match="pool_width"):
            parse_config(cfg)


    @pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
    def test_schema_must_be_the_integer_1(self, tmp_path, capsys, schema):
        cfg = base_config(tmp_path / "out", schema=schema)
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_integers_in_float_fields_stored_as_floats(self, tmp_path):
        pyramid = {"kind": "PyramidStyle", "budget": {"ratio": 1, "w": 4, "c": 5}, "skew": 0}
        cfg = parse_config(
            base_config(tmp_path, prompt={**NEEDLE_PROMPT, "signal": 60}, policies=[pyramid])
        )
        spec = cfg.policies[0]
        assert [type(v) for v in (cfg.prompt.needle.signal, spec.budget.ratio, spec.skew)] == [
            float, float, float
        ]


def _hybrid_with_inner_b(out_dir, **inner_b):
    budget = {"ratio": 0.25, "w": 4, "c": 5}
    return _with_policy(
        out_dir, "Hybrid", split=2,
        inner_a={"kind": "ChunkKV", "budget": budget},
        inner_b={"budget": budget, **inner_b},
    )


def _with_seed(out_dir, section, seed):
    cfg = base_config(out_dir)
    cfg[section] = {**cfg[section], "seed": seed}
    return cfg


class TestRangeErrorsBeforePrefill:
    """Range errors that need only the config and prompt length exit 2 unprefilled."""

    @pytest.mark.parametrize(
        "make_cfg, field",
        [
            (lambda out: _with_policy(out, "PyramidStyle", skew=1.5), "policies[0].skew"),
            (lambda out: _with_policy(out, "PyramidStyle", skew=-0.5), "policies[0].skew"),
            # ratio 0.25 of 48 is 12 positions; skew 0.5 leaves the last layer 6 < w + c = 9
            (lambda out: _with_policy(out, "PyramidStyle", skew=0.5), "policies[0].skew"),
            (lambda out: _with_policy(out, "StreamingStyle", sink=13), "policies[0].sink"),
            (
                lambda out: _hybrid_with_inner_b(out, kind="StreamingStyle", sink=13),
                "policies[0].inner_b.sink",
            ),
            (
                lambda out: _hybrid_with_inner_b(out, kind="PyramidStyle", skew=1.5),
                "policies[0].inner_b.skew",
            ),
            (
                lambda out: base_config(
                    out,
                    policies=[{"kind": "StreamingStyle", "budget": {"ratio": 0.5, "w": 4, "c": 5}, "sink": 13}],
                    sweep={"ratio": [0.5, 0.25]},
                ),
                "policies[0].sink",
            ),
            (lambda out: base_config(out, sweep={"c": [5, 0]}), "c must be"),
            (lambda out: base_config(out, sweep={"ratio": [1.5]}), "ratio must be"),
            (lambda out: base_config(out, sweep={"n_reuse": [5]}), "sweep.n_reuse[0]"),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "observe_rows": 0}),
                "prompt: observe_rows must be >= 1",
            ),
            # a ratio budget of this length overflows the float arithmetic
            (
                lambda out: base_config(
                    out,
                    prompt={"kind": "random", "length": 10**400, "seed": 1},
                    policies=[{"kind": "StreamingStyle", "budget": {"ratio": 0.5}}],
                ),
                "policies[0].budget",
            ),
            # seeds outside Philox's key range [0, 2**128)
            (lambda out: _with_seed(out, "model", -1), "model: seed"),
            (lambda out: _with_seed(out, "model", 10**400), "model: seed"),
            (lambda out: _with_seed(out, "prompt", -1), "prompt: seed"),
            (lambda out: _with_seed(out, "prompt", 2**128), "prompt: seed"),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "seed": -1}),
                "prompt: seed",
            ),
            (lambda out: base_config(out, sweep={"seeds": [0, -1]}), "sweep.seeds[1]"),
            # no skew can lift a max_len below w + c = 9
            (
                lambda out: base_config(out, policies=[{
                    "kind": "PyramidStyle", "budget": {"max_len": 6, "w": 4, "c": 5}, "skew": 0.0,
                }]),
                "policies[0].budget: max_len 6 is below the minimum budget w + c = 9",
            ),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "signal": 1e39}),
                "prompt: signal",
            ),
            (
                lambda out: base_config(out, prompt={"kind": "tokens", "tokens": [1, 99, 2]}),
                "prompt.tokens[1]",
            ),
            (
                lambda out: base_config(out, prompt={"kind": "tokens", "tokens": [1, 2, -1]}),
                "prompt.tokens[2]",
            ),
            # sizes past numpy's index-sized integers: no array of them can be made
            (lambda out: _with_model(out, n_layers=2**70), "model.n_layers"),
            (lambda out: _with_model(out, n_heads=2**70), "model.n_heads"),
            (lambda out: _with_model(out, head_dim=2**70), "model.head_dim"),
            (lambda out: _with_model(out, vocab_size=2**70), "model.vocab_size"),
            # sizes numpy can index whose weights it cannot: refused before init_model
            (lambda out: _with_model(out, n_layers=2**62), "model.n_layers"),
            (lambda out: _with_model(out, n_heads=2**62), "model.n_heads"),
            (lambda out: _with_model(out, head_dim=2**62), "model.head_dim"),
            (lambda out: _with_model(out, vocab_size=2**62), "model.vocab_size"),
            (
                lambda out: base_config(out, prompt={"kind": "random", "length": 2**70, "seed": 1}),
                "prompt.length",
            ),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "seq_len": 2**70}),
                "prompt.seq_len",
            ),
            # a prompt numpy can index whose first array it cannot
            (
                lambda out: base_config(out, prompt={"kind": "random", "length": 2**62, "seed": 1}),
                "prompt.length",
            ),
            (
                lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "seq_len": 2**62}),
                "prompt.seq_len",
            ),
            # a needle prompt whose float64 score draw, observe_rows x seq_len, numpy cannot index
            (
                lambda out: base_config(
                    out, prompt={**NEEDLE_PROMPT, "seq_len": 64, "observe_rows": 2**62}
                ),
                "prompt.observe_rows * prompt.seq_len",
            ),
            # the modeled compress cost, n_layers * n_heads * w * T, is a float
            (
                lambda out: base_config(out, policies=[
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
            "token-above-vocab", "token-negative", "n-layers-2-to-70", "n-heads-2-to-70",
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
        cfg = make_cfg(tmp_path / "out")
        cfg.setdefault("sweep", {"c": [5]})
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "internal error" not in err
        assert calls == []

    @pytest.mark.parametrize(
        "prompt", [{"kind": "random", "length": 48}, NEEDLE_PROMPT], ids=["random", "needle"]
    )
    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["minus-1", "2-to-128"])
    def test_seed_flag_outside_key_range_exits_2_without_prefill(
        self, tmp_path, capsys, monkeypatch, prompt, seed
    ):
        import kvlab.experiments

        calls = []
        real = kvlab.experiments.prefill
        monkeypatch.setattr(
            kvlab.experiments, "prefill", lambda *a: calls.append(1) or real(*a)
        )
        cfg = write_config(tmp_path, base_config(tmp_path / "out", prompt=prompt))
        assert main(["simulate", "--config", cfg, "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert "--seed: seed must be in [0, 2**128)" in err
        assert calls == []

    def test_needle_seed_at_the_key_limit_runs(self, tmp_path):
        # each layer's needle scores draw from a key derived from the seed
        prompt = {**NEEDLE_PROMPT, "seed": 2**128 - 1}
        cfg = write_config(tmp_path, base_config(tmp_path / "out", prompt=prompt))
        assert main(["simulate", "--config", cfg]) == 0

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
            cfg = base_config(tmp_path / name, policies=[policy])
            assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            kept.append(report["policies"][0]["layers"])
        assert kept[0] == kept[1]

    def test_signal_at_the_float32_limit_runs(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", prompt={**NEEDLE_PROMPT, "signal": 3.4e38})
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_without_axes(self, tmp_path, capsys):
        # simulate ignores an empty sweep section; sweep refuses it
        cfg = write_config(tmp_path, base_config(tmp_path / "out", sweep={}))
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["sweep", "--config", cfg]) == 2
        assert "error: sweep requires a 'sweep' section with axes" in capsys.readouterr().err

    def test_valid_edges_still_run(self, tmp_path):
        # a sink equal to the budget, and a skew whose last layer gets exactly w + c
        cfg = base_config(tmp_path / "out", policies=[
            {"kind": "StreamingStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "sink": 12},
            {"kind": "PyramidStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "skew": 0.25},
        ])
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "make_cfg, path",
        [
            (lambda out: {**base_config(out), "polices": []}, "polices"),
            (lambda out: _with_model(out, n_layer=4), "model.n_layer"),
            (
                lambda out: base_config(out, prompt={"kind": "random", "length": 48, "seeds": 7}),
                "prompt.seeds",
            ),
            (lambda out: base_config(out, prompt={**TOKENS_PROMPT, "seed": 7}), "prompt.seed"),
            (lambda out: base_config(out, prompt={**NEEDLE_PROMPT, "sead": 7}), "prompt.sead"),
            (
                lambda out: _with_policy(out, "SnapKVStyle", pool_widht=3),
                "policies[0].pool_widht",
            ),
            (
                lambda out: _hybrid_with_inner_b(out, kind="ChunkKV", skwe=0.1),
                "policies[0].inner_b.skwe",
            ),
            (lambda out: _with_budget(out, W=12), "policies[0].budget.W"),
            (lambda out: base_config(out, reuse={"nreuse": 4}), "reuse.nreuse"),
            # not a field: every policy reads the softmax observe rows
            (
                lambda out: _with_policy(out, "ChunkKV", score_mode="raw"),
                "policies[0].score_mode",
            ),
            (
                lambda out: _with_policy(
                    out, "Hybrid", split=2,
                    inner_a={"kind": "ChunkKV", "budget": {"ratio": 0.25}, "score_mode": "softmax"},
                    inner_b={"kind": "H2OStyle", "budget": {"ratio": 0.25}},
                ),
                "policies[0].inner_a.score_mode",
            ),
        ],
        ids=[
            "top-level", "model", "random-prompt", "tokens-prompt", "needle-prompt",
            "policy", "hybrid-inner-b", "budget", "reuse", "score-mode", "hybrid-inner-a-score-mode",
        ],
    )
    def test_misspelled_key_exits_2_naming_its_path(self, tmp_path, capsys, make_cfg, path):
        cfg = make_cfg(tmp_path / "out")
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: unknown field {path}\n" in err
        assert "internal error" not in err


class TestNeedleCommand:
    def test_needle_report(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
            prompt=NEEDLE_PROMPT,
        )
        cfg["policies"][0]["budget"] = {"max_len": 9, "w": 4, "c": 5}
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 0
        out = json.loads((tmp_path / "out" / "needle.json").read_text())
        chunk = next(p for p in out["policies"] if p["policy"] == "ChunkKV")
        assert chunk["intact_all_layers"] is True

    def test_case_block_records_noise(self, tmp_path):
        weak = {**NEEDLE_PROMPT, "signal": 0.3, "seed": 2, "observe_rows": 4}
        outs = []
        for noise in ("uniform", "gaussian"):
            cfg = base_config(tmp_path / noise, prompt={**weak, "noise": noise})
            assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 0
            outs.append((tmp_path / noise / "needle.json").read_text())
            assert json.loads(outs[-1])["case"]["noise"] == noise
        assert outs[0] != outs[1]

    def test_requires_needle_prompt(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 2


class TestOneNeedleAnswer:
    """simulate, needle and sweep read needle retention off the same kept sets."""

    # signal 0.3 over uniform noise: retention depends on the draw and on reuse
    WEAK = {**NEEDLE_PROMPT, "signal": 0.3, "seed": 2, "observe_rows": 4}
    POLICIES = [
        {"kind": "ChunkKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
        {"kind": "SnapKVStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "pool_width": 3},
        {"kind": "H2OStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}},
        {"kind": "PyramidStyle", "budget": {"ratio": 0.25, "w": 4, "c": 5}, "skew": 0.2},
    ]

    @pytest.mark.parametrize("n_reuse", [1, 2])
    def test_needle_json_matches_report(self, tmp_path, n_reuse):
        cfg = base_config(
            tmp_path / "out", prompt=self.WEAK, policies=self.POLICIES, reuse={"n_reuse": n_reuse}
        )
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        assert main(["needle", "--config", path]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        needle = json.loads((tmp_path / "out" / "needle.json").read_text())
        for rep, got in zip(report["policies"], needle["policies"], strict=True):
            assert got["policy"] == rep["policy"]
            assert [p["fraction"] for p in got["per_layer"]] == rep["needle"]["per_layer_fraction"]
            assert got["mean_fraction"] == rep["needle"]["fraction"]
            assert got["intact_all_layers"] == rep["needle"]["intact_all_layers"]

    def _sweep_and_simulate(self, tmp_path, prompt):
        """Each sweep cell's rows and the report of `simulate` on the same cell."""
        sweep = {"c": [3, 5], "ratio": [0.25, 0.4], "n_reuse": [1, 2], "seeds": [1, 2]}
        cfg = base_config(tmp_path / "out", prompt=prompt, policies=self.POLICIES, sweep=sweep)
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
                tmp_path / f"cell{i}",
                prompt={**prompt, "seed": int(seed)},
                policies=[{**p, "budget": budget} for p in self.POLICIES],
                reuse={"n_reuse": int(n_reuse)},
            )
            assert main(["simulate", "--config", write_config(tmp_path, cell)]) == 0
            report = json.loads((tmp_path / f"cell{i}" / "report.json").read_text())
            yield got, report["policies"], cells[(c, ratio, "1", seed)]

    def test_sweep_rows_match_simulate(self, tmp_path):
        for got, reps, _ in self._sweep_and_simulate(tmp_path, self.WEAK):
            for row, rep in zip(got, reps, strict=True):
                assert row["policy"] == rep["policy"]
                assert float(row["needle_fraction"]) == rep["needle"]["fraction"]
                assert row["needle_intact"] == str(rep["needle"]["intact_all_layers"]).lower()

    def test_trace_sweep_rows_match_simulate(self, tmp_path):
        # a random prompt: Jaccard and fidelity are simulate's, and the modeled
        # cost at n_reuse 1 over that at n_reuse n is simulate's speedup_estimate
        prompt = {"kind": "random", "length": 48}
        for got, reps, fresh in self._sweep_and_simulate(tmp_path, prompt):
            for row, rep, base in zip(got, reps, fresh, strict=True):
                assert row["policy"] == rep["policy"] == base["policy"]
                assert float(row["adjacent_jaccard"]) == rep["adjacent_jaccard"]
                assert float(row["kv_l1"]) == rep["fidelity"]["kv_l1"]
                assert float(row["attn_cos"]) == rep["fidelity"]["attn_cos"]
                ratio = float(base["micros_compress"]) / float(row["micros_compress"])
                assert round(ratio, 6) == rep["speedup_estimate"]


class TestReuseBench:
    def test_report_schema_and_baseline(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
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
        cfg = base_config(tmp_path / "out", sweep={"n_reuse": [1, 2, 4]})
        assert main(["reuse-bench", "--config", write_config(tmp_path, cfg)]) == 0
        assert plans == [1] * 5 + [2] * 5 + [4] * 5
        assert layers == []
        out = json.loads((tmp_path / "out" / "reuse_bench.json").read_text())
        keys = {"n_reuse", "analytic_speedup", "measured_speedup", "t_compress_s", "t_select_s"}
        assert [set(r) for r in out["results"]] == [keys] * 3

    def test_needle_prompt_times_needle_scores(self, tmp_path, monkeypatch):
        import kvlab.experiments

        calls = []
        real = kvlab.experiments.prefill
        monkeypatch.setattr(
            kvlab.experiments, "prefill", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        cfg = base_config(tmp_path / "out", prompt=NEEDLE_PROMPT, reuse={"n_reuse": 2})
        assert main(["reuse-bench", "--config", write_config(tmp_path, cfg)]) == 0
        assert calls == []
        out = json.loads((tmp_path / "out" / "reuse_bench.json").read_text())
        assert [r["n_reuse"] for r in out["results"]] == [2]
