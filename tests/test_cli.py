"""End-to-end tests of the command line entry points."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from aspectcrf.cli import format_report_row, main
from aspectcrf.synthetic import generate_records, write_jsonl

CONFIG = {
    "hidden_size": 32,
    "batch_size": 64,
    "dropout": 0.3,
    "d_as": 50,
    "gamma": 1,
    "crf_heads": 2,
    "max_epochs": 2,
    "patience": 2,
    "seed": 0,
    "embedding_dim": 8,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.jsonl"
    test = root / "test.jsonl"
    write_jsonl(train, generate_records(36, np.random.default_rng(2)))
    write_jsonl(test, generate_records(12, np.random.default_rng(3)))
    config = root / "run.json"
    config.write_text(
        json.dumps({**CONFIG, "train_path": str(train), "test_path": str(test)}),
        encoding="utf-8",
    )
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    ckpt = workdir / "model.acrf"
    code = main(["train", "--config", str(workdir / "run.json"), "--out", str(ckpt)])
    assert code == 0
    return ckpt


class TestTrain:
    def test_writes_checkpoint_and_log(self, workdir, trained, capsys):
        assert trained.exists()
        log = workdir / "model.acrf.log.jsonl"
        assert log.exists()
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(records) == CONFIG["max_epochs"]
        assert records[0]["epoch"] == 1

    def test_report_format(self, workdir, capsys):
        out = workdir / "second.acrf"
        main(["train", "--config", str(workdir / "run.json"), "--out", str(out),
              "--seed", "5"])
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert "dataset\taccuracy\tmacro_f1\tconfig\tseed" in lines
        row = [l for l in lines if l.startswith("dev\t")][0]
        fields = row.split("\t")
        assert fields[4] == "5"  # seed override lands in the report
        float(fields[1]), float(fields[2])

    def test_format_report_row_two_decimals(self):
        row = format_report_row("test", 0.82857, 0.7378, "abc123", 1)
        assert row == "test\t82.86\t73.78\tabc123\t1"


class TestEval:
    def test_eval_prints_row(self, workdir, trained, capsys):
        code = main(["eval", "--ckpt", str(trained), "--test",
                     str(workdir / "test.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("dataset\t")
        assert "\ntest\t" in out

    def test_eval_missing_checkpoint(self, workdir, capsys):
        code = main(["eval", "--ckpt", str(workdir / "nope.acrf"), "--test",
                     str(workdir / "test.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("checkpoint-error:")

    @pytest.mark.parametrize("meta", [b"\xff\xfe", b'{"max_sentence_len": '])
    def test_eval_corrupt_checkpoint(self, workdir, trained, capsys, meta):
        # swap the meta block for non-UTF-8 bytes or malformed JSON
        blob = trained.read_bytes()
        config_len = struct.unpack_from("<I", blob, 8)[0]
        meta_at = 12 + config_len
        meta_end = meta_at + 4 + struct.unpack_from("<I", blob, meta_at)[0]
        bad = workdir / "corrupt.acrf"
        bad.write_bytes(blob[:meta_at] + struct.pack("<I", len(meta)) + meta + blob[meta_end:])
        code = main(["eval", "--ckpt", str(bad), "--test", str(workdir / "test.jsonl")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("checkpoint-error:")


    def test_eval_non_finite_checkpoint(self, workdir, trained, capsys):
        # the last eight bytes hold the last entry of the last tensor
        bad = workdir / "nan.acrf"
        bad.write_bytes(trained.read_bytes()[:-8] + struct.pack("<d", float("nan")))
        code = main(["eval", "--ckpt", str(bad), "--test", str(workdir / "test.jsonl")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("checkpoint-error:")


class TestExplain:
    def test_marginals_per_head_and_json_record(self, workdir, trained, capsys):
        text = "the pizza was great but service seemed awful ."
        code = main(["explain", "--ckpt", str(trained), "--text", text,
                     "--aspect", "24,31"])
        assert code == 0
        out = capsys.readouterr().out
        record = json.loads([l for l in out.splitlines() if l.startswith("{")][0])
        assert record["tokens"][5] == "service"
        assert record["aspect_span"] == [5, 5]
        assert len(record["per_head_marginals"]) == CONFIG["crf_heads"]
        assert len(record["per_head_marginals"][0]) == len(record["tokens"])
        assert record["predicted"] in ("positive", "neutral", "negative")
        assert "predicted:" in out

    def test_bad_aspect_argument(self, workdir, trained, capsys):
        code = main(["explain", "--ckpt", str(trained), "--text", "ok", "--aspect", "x"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config-error:")

    def test_unaligned_aspect_span(self, workdir, trained, capsys):
        code = main(["explain", "--ckpt", str(trained), "--text", "ok food",
                     "--aspect", "90,95"])
        assert code == 1
        assert capsys.readouterr().err.startswith("corpus-error:")

    @pytest.mark.parametrize("aspect", ["5,5", "-5,3", "9,4", "4,100"])
    def test_aspect_not_a_span(self, workdir, trained, capsys, aspect):
        # each of these used to resolve to a token of the text
        code = main(["explain", "--ckpt", str(trained), "--text", "the pizza was great",
                     f"--aspect={aspect}"])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config-error:")
        assert captured.out == ""


class TestSweepAndAblate:
    def test_sweep_table(self, workdir, capsys):
        code = main(["sweep", "--config", str(workdir / "run.json"), "--heads", "1,2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("heads\t")
        assert [l.split("\t")[0] for l in lines[1:]] == ["1", "2"]

    def test_sweep_bad_heads(self, workdir, capsys):
        code = main(["sweep", "--config", str(workdir / "run.json"), "--heads", "a,b"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config-error:")

    def test_sweep_checks_every_head_count_first(self, workdir, capsys, monkeypatch):
        def must_not_train(cfg, _):
            raise AssertionError(f"trained crf_heads={cfg.crf_heads} before checking every count")

        monkeypatch.setattr("aspectcrf.cli._train_once", must_not_train)
        code = main(["sweep", "--config", str(workdir / "run.json"), "--heads", "1,17"])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config-error:") and "crf_heads" in lines[0]
        assert captured.out == ""

    def test_ablate_rows(self, workdir, capsys):
        code = main(["ablate", "--config", str(workdir / "run.json"), "--flag", "decay"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dev[-decay]\t" in out
        assert "test[-decay]\t" in out


class TestStats:
    def test_counts_by_corpus(self, workdir, capsys):
        code = main(["stats", str(workdir / "train.jsonl"), str(workdir / "test.jsonl")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("corpus\t")
        assert len(lines) == 3
        counts = [int(v) for v in lines[1].split("\t")[1:4]]
        assert sum(counts) == 36


    def test_bad_offset_is_corpus_error(self, workdir, capsys):
        bad = workdir / "bad_offset.jsonl"
        bad.write_text(
            '{"text": "ok pizza", "aspect_char_start": "x", "aspect_char_end": 8, "label": "positive"}\n',
            encoding="utf-8",
        )
        code = main(["stats", str(bad)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("corpus-error:")

    def test_float_offset_is_corpus_error(self, workdir, capsys):
        bad = workdir / "float_offset.jsonl"
        bad.write_text(
            '{"text": "the pizza was great", "aspect_char_start": 4.9, "aspect_char_end": 9.2, '
            '"label": "positive"}\n',
            encoding="utf-8",
        )
        code = main(["stats", str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("corpus-error:") and "line 1" in lines[0]

    def test_bad_corpus_after_good_prints_nothing(self, workdir, capsys):
        bad = workdir / "negative_offset.jsonl"
        bad.write_text(
            '{"text": "ok pizza", "aspect_char_start": -5, "aspect_char_end": 8, "label": "positive"}\n',
            encoding="utf-8",
        )
        code = main(["stats", str(workdir / "train.jsonl"), str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("corpus-error:")


class TestErrorSurface:
    def test_missing_config_file(self, workdir, capsys):
        code = main(["train", "--config", str(workdir / "none.json"), "--out",
                     str(workdir / "x.acrf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config-error:")

    def test_config_without_train_path(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(CONFIG), encoding="utf-8")
        code = main(["train", "--config", str(bad), "--out", str(workdir / "x.acrf")])
        assert code == 1
        assert "train_path" in capsys.readouterr().err

    def test_malformed_corpus(self, workdir, capsys):
        broken = workdir / "broken.jsonl"
        broken.write_text("{oops\n", encoding="utf-8")
        cfg = workdir / "broken.json"
        cfg.write_text(
            json.dumps({**CONFIG, "train_path": str(broken)}), encoding="utf-8"
        )
        code = main(["train", "--config", str(cfg), "--out", str(workdir / "x.acrf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("corpus-error:")
