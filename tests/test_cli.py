import csv
import json

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
        import kvlab.experiments

        calls = []
        real = kvlab.experiments.prefill

        def counting(model, tokens, *args, **kwargs):
            calls.append(len(tokens))
            return real(model, tokens, *args, **kwargs)

        monkeypatch.setattr(kvlab.experiments, "prefill", counting)
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

    def test_workers_match_sequential(self, tmp_path):
        cfg = base_config(
            tmp_path / "out_seq", sweep={"c": [3, 5], "seeds": [0, 1]}
        )
        main(["sweep", "--config", write_config(tmp_path, cfg)])
        seq = (tmp_path / "out_seq" / "sweep.csv").read_bytes()
        cfg["out_dir"] = str(tmp_path / "out_par")
        main(["sweep", "--config", write_config(tmp_path, cfg), "--workers", "2"])
        par = (tmp_path / "out_par" / "sweep.csv").read_bytes()
        assert seq == par

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

    def test_needle_sweep_workers_follow_seed(self, tmp_path):
        weak = {**NEEDLE_PROMPT, "signal": 0.3}
        cfg = base_config(tmp_path / "out", prompt=weak, sweep={"c": [3, 5]})
        path = write_config(tmp_path, cfg)
        for name, workers in (("seq", "1"), ("par", "2")):
            out = str(tmp_path / name)
            assert main(["sweep", "--config", path, "--out", out, "--seed", "7", "--workers", workers]) == 0
        in_file = {**cfg, "prompt": {**weak, "seed": 7}, "out_dir": str(tmp_path / "f7")}
        assert main(["sweep", "--config", write_config(tmp_path, in_file)]) == 0
        want = (tmp_path / "f7" / "sweep.csv").read_bytes()
        assert (tmp_path / "seq" / "sweep.csv").read_bytes() == want
        assert (tmp_path / "par" / "sweep.csv").read_bytes() == want


    def test_tokens_sweep_seed_workers_match(self, tmp_path):
        cfg = base_config(tmp_path / "out", prompt=TOKENS_PROMPT, sweep={"c": [3, 5]})
        path = write_config(tmp_path, cfg)
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            args = ["--out", str(out), "--seed", "5", "--workers", workers]
            assert main(["sweep", "--config", path, *args]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

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
        ],
        ids=[
            "skew-above-1", "skew-negative", "skew-below-w-plus-c", "sink-above-budget",
            "hybrid-inner-sink", "hybrid-inner-skew", "sweep-cell-sink", "sweep-c-zero",
            "sweep-ratio-above-1", "sweep-n-reuse", "needle-observe-rows-zero",
            "streaming-ratio-huge-length", "model-seed-negative", "model-seed-huge",
            "prompt-seed-negative", "prompt-seed-2-to-128", "needle-seed-negative",
            "sweep-seed-negative",
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
        ],
        ids=[
            "top-level", "model", "random-prompt", "tokens-prompt", "needle-prompt",
            "policy", "hybrid-inner-b", "budget", "reuse",
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

    def test_requires_needle_prompt(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        assert main(["needle", "--config", write_config(tmp_path, cfg)]) == 2


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
