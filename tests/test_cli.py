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

    def test_timings_isolated(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        main(["simulate", "--config", write_config(tmp_path, cfg)])
        report = (tmp_path / "out" / "report.json").read_text()
        assert "perf" not in report
        assert (tmp_path / "out" / "timings.json").exists()


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


class TestConfigTypes:
    @pytest.mark.parametrize(
        "make_cfg, field",
        [
            (lambda out: _with_budget(out, ratio="0.2"), "budget.ratio"),
            (lambda out: _with_budget(out, w="2"), "budget.w"),
            (lambda out: _with_budget(out, c=2.5), "budget.c"),
            (lambda out: base_config(out, reuse=2), "reuse"),
            (
                lambda out: base_config(out, policies=[{"kind": "ChunkKV", "budget": [1]}]),
                "budget",
            ),
        ],
        ids=["ratio-string", "w-string", "c-float", "reuse-int", "budget-list"],
    )
    def test_wrong_type_exits_2_naming_field(self, tmp_path, capsys, make_cfg, field):
        cfg = make_cfg(tmp_path / "out")
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("width", [0, 2, 4])
    def test_even_pool_width_rejected_by_parse_config(self, tmp_path, width):
        cfg = base_config(tmp_path / "out")
        cfg["policies"][1]["pool_width"] = width
        with pytest.raises(ConfigError, match="pool_width"):
            parse_config(cfg)


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
