"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import review_corpus  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from aspectcrf import data, model, synthetic, training  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, level",
    [(19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_level_is_highest_percentile_with_ten_beyond(n, level):
    assert stats.tail_level(n) == level


def test_tail_level_leaves_ten_beyond_and_no_higher_level_does():
    for n in range(1, 12000, 7):
        level = stats.tail_level(n)
        higher = [lv for lv in stats.TAIL_LEVELS if level is None or lv > level * 10]
        if level is not None:
            assert stats.samples_beyond(n, round(level * 10)) >= 10
        assert all(stats.samples_beyond(n, lv) < 10 for lv in higher)


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).lognormal(size=257))
    for q in (0, 1, 50, 95, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(float(np.percentile(values, q)), rel=1e-12)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 6.0, 7.0, 2),
        Span("e", 6.5, 8.0, 2),  # overlaps d: the union [6, 8] counts once
        Span("f", 3.5, 4.5, 1),  # runs past its parent's end: clipped to [3.5, 4]
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 2.0, 1.0, 1.0, 1.5, 1.0])


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    outputs = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / name
        directory.mkdir()
        corpus, vectors = review_corpus.write_review_corpus(directory, seed, n_instances=300)
        outputs.append((corpus.read_bytes(), vectors.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] != outputs[2][0] and outputs[0][1] != outputs[2][1]


def test_generated_aspect_spans_survive_parsing(tmp_path):
    corpus, vectors = review_corpus.write_review_corpus(tmp_path, 9, n_instances=300)
    instances, vocab, report = data.parse_corpus(corpus)
    assert report.kept == 300 and report.dropped_unaligned == 0
    text = corpus.read_text()
    assert "<aspectTerm term=" in text
    embeddings = data.load_embeddings(vectors, vocab, np.random.default_rng(0), dim=review_corpus.EMBEDDING_DIM)
    assert 0.85 < embeddings.coverage < 1.0


def test_stratified_sample_spans_the_length_range():
    rng = np.random.default_rng(1)
    pool = [data.AspectInstance(tuple(range(2, 2 + int(n))), 0, 0, "neutral", "") for n in rng.integers(1, 80, 500)]
    sample = workloads.stratified(pool, 50)
    lengths = sorted(i.length for i in pool)
    assert len(sample) == 50
    assert [i.length for i in sample] == [lengths[int((j + 0.5) * 500 / 50)] for j in range(50)]


def test_speed_factor_uses_probes_inside_or_nearest():
    s = speed.Speed()
    s.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    s.durations = [0.008, 0.008, 0.008, 0.002, 0.002, 0.002, 0.002, 0.008]
    # probes at 2..6 lie inside [1.5, 6.5]: one at 8 ms, four at 2 ms
    assert s.factor(1.5, 6.5) == pytest.approx(speed.REFERENCE_PROBE_S * (1 / 0.008 + 4 / 0.002) / 5)
    # three inside [0, 2], plus the two nearest after it (3, 4)
    assert s.factor(0.0, 2.0) == pytest.approx(speed.REFERENCE_PROBE_S * (3 / 0.008 + 2 / 0.002) / 5)
    # none inside [7.5, 8]: the five nearest (3..7) are used
    assert s.factor(7.5, 8.0) == pytest.approx(speed.REFERENCE_PROBE_S * (4 / 0.002 + 1 / 0.008) / 5)
    assert s.scaled(1.5, 6.5) == pytest.approx(5.0 * s.factor(1.5, 6.5))


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    path = tmp_path / "tiny.jsonl"
    synthetic.write_jsonl(path, synthetic.generate_records(12, np.random.default_rng(0)))
    instances, vocab, _ = data.parse_corpus(path)
    config = workloads.SYN_CONFIG.replace(max_epochs=1, patience=1)
    originals = (model.evaluate, training.evaluate, model.forward)
    with Tracer() as tracer:
        assert training.evaluate is model.evaluate and training.evaluate is not originals[0]
        training.train(config, instances[:8], instances[8:], vocab, max_len=40)
    assert (model.evaluate, training.evaluate, model.forward) == originals
    summary = tracer.summary()
    # the dev evaluation is reached only through training's own binding
    assert summary["model.evaluate"]["calls"] == 1
    assert summary["autodiff.Tape.backward"]["calls"] == 1
    assert summary["training.adam_step"]["calls"] == 1
    assert tracer.taped_instances == 8
    assert summary["model.forward"]["tape_entries"] > 0
    assert tracer.backward_tape_entries / tracer.taped_instances > summary["model.forward"]["tape_entries"]
    assert 0.0 < tracer.batch_row_ratios[0] <= 1.0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == workloads.expected_per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
