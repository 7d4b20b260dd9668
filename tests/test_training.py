"""Tests for the optimizer, clipping and the training loop."""

from __future__ import annotations

import io
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf.autodiff import Tensor
from aspectcrf.config import RunConfig
from aspectcrf.data import AspectInstance, parse_corpus, split_train_dev
from aspectcrf.model import evaluate
from aspectcrf.synthetic import generate_records, write_jsonl
from aspectcrf.training import (
    AdamState,
    TrainingError,
    adam_step,
    clip_global_norm,
    corpus_max_len,
    train,
)
from reference import exp

FAST = dict(hidden_size=32, batch_size=64, dropout=0.3, d_as=50, gamma=1,
            crf_heads=1, embedding_dim=8, max_epochs=2, patience=1)


def fast_config(**overrides):
    return RunConfig(**{**FAST, **overrides})


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.jsonl"
    write_jsonl(path, generate_records(30, np.random.default_rng(5)))
    instances, vocab, _ = parse_corpus(path)
    train_set, dev_set = split_train_dev(instances, seed=0)
    return train_set, dev_set, vocab


class TestAdam:
    def test_single_step_closed_form(self):
        # m-hat = g, v-hat = g^2 after one step, so the update is
        # lr * g / (|g| + eps) regardless of the gradient scale
        t = Tensor(np.array([0.0, 10.0]), requires_grad=True, name="t")
        t.grad = np.array([1.0, -4.0])
        state = AdamState({"t": t})
        adam_step({"t": t}, state, lr=0.1)
        expected_step = 0.1 * np.array([1.0, -4.0]) / (np.array([1.0, 4.0]) + 1e-8)
        npt.assert_allclose(t.data, np.array([0.0, 10.0]) - expected_step, rtol=0, atol=1e-15)
        assert state.step == 1

    def test_two_steps_constant_gradient(self):
        # with a constant gradient the bias corrections cancel at every step
        t = Tensor(np.array([0.0]), requires_grad=True, name="t")
        state = AdamState({"t": t})
        for _ in range(2):
            t.grad = np.array([2.0])
            adam_step({"t": t}, state, lr=0.01)
        npt.assert_allclose(t.data, -2 * 0.01 * 2.0 / (2.0 + 1e-8), rtol=0, atol=1e-12)

    def test_zero_lr_freezes_parameters(self):
        t = Tensor(np.array([3.0]), requires_grad=True, name="t")
        t.grad = np.array([5.0])
        adam_step({"t": t}, AdamState({"t": t}), lr=0.0)
        npt.assert_array_equal(t.data, [3.0])

    def test_missing_gradient_means_no_movement(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="t")
        adam_step({"t": t}, AdamState({"t": t}), lr=0.5)
        npt.assert_array_equal(t.data, [1.0, 2.0])


class TestClipping:
    def test_norm_below_threshold_untouched(self):
        t = Tensor(np.zeros(3), requires_grad=True, name="t")
        t.grad = np.array([3.0, 0.0, 4.0])  # norm 5 is the boundary
        norm, clipped = clip_global_norm({"t": t})
        assert norm == 5.0 and not clipped
        npt.assert_array_equal(t.grad, [3.0, 0.0, 4.0])

    def test_scales_jointly_above_threshold(self):
        a = Tensor(np.zeros(1), requires_grad=True, name="a")
        b = Tensor(np.zeros(1), requires_grad=True, name="b")
        a.grad, b.grad = np.array([6.0]), np.array([8.0])  # joint norm 10
        norm, clipped = clip_global_norm({"a": a, "b": b})
        assert clipped and norm == 10.0
        npt.assert_allclose(a.grad, [3.0], rtol=0, atol=1e-15)
        npt.assert_allclose(b.grad, [4.0], rtol=0, atol=1e-15)
        joint = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        npt.assert_allclose(joint, 5.0, rtol=0, atol=1e-12)

    def test_all_zero_gradients_no_op(self):
        t = Tensor(np.zeros(2), requires_grad=True, name="t")
        t.grad = np.zeros(2)
        norm, clipped = clip_global_norm({"t": t})
        assert norm == 0.0 and not clipped


class TestTrainLoop:
    def test_returns_records_and_restores_best(self, tiny_corpus):
        train_set, dev_set, vocab = tiny_corpus
        cfg = fast_config(max_epochs=3, patience=3, seed=2)
        result = train(cfg, train_set, dev_set, vocab)
        assert result.epochs_run == 3
        assert len(result.log_records) == 3
        for rec in result.log_records:
            assert set(rec) == {"epoch", "train_loss", "dev_acc", "dev_f1", "seconds"}
        # returned parameters must reproduce the recorded best dev accuracy
        acc, f1, _ = evaluate(result.params, dev_set, cfg, result.max_len)
        npt.assert_allclose(acc, result.dev_accuracy, rtol=0, atol=1e-15)
        npt.assert_allclose(f1, result.dev_macro_f1, rtol=0, atol=1e-15)
        best = result.log_records[result.best_epoch - 1]
        npt.assert_allclose(best["dev_acc"], result.dev_accuracy, rtol=0, atol=1e-15)

    def test_lr_zero_early_stops_via_patience(self, tiny_corpus):
        # dev accuracy never improves after epoch 1, so patience=1 stops at 2
        train_set, dev_set, vocab = tiny_corpus
        cfg = fast_config(lr=0.0, max_epochs=50, patience=1, seed=0)
        result = train(cfg, train_set, dev_set, vocab)
        assert result.best_epoch == 1
        assert result.epochs_run == 2

    def test_log_stream_matches_records(self, tiny_corpus):
        train_set, dev_set, vocab = tiny_corpus
        cfg = fast_config(seed=1)
        stream = io.StringIO()
        ticks = itertools.count(0.0, 0.5)
        result = train(cfg, train_set, dev_set, vocab,
                       clock=lambda: next(ticks), log_stream=stream)
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(result.log_records)
        import json
        assert [json.loads(l) for l in lines] == result.log_records
        assert result.log_records[0]["seconds"] == 0.5

    def test_deterministic_given_seed(self, tiny_corpus):
        train_set, dev_set, vocab = tiny_corpus
        cfg = fast_config(seed=3)
        ticks1, ticks2 = itertools.count(0.0), itertools.count(0.0)
        r1 = train(cfg, train_set, dev_set, vocab, clock=lambda: next(ticks1))
        r2 = train(cfg, train_set, dev_set, vocab, clock=lambda: next(ticks2))
        assert r1.log_records == r2.log_records
        for name, t in r1.params.named_tensors().items():
            npt.assert_array_equal(t.data, r2.params.named_tensors()[name].data)

    def test_empty_split_rejected(self, tiny_corpus):
        train_set, dev_set, vocab = tiny_corpus
        with pytest.raises(TrainingError):
            train(fast_config(), [], dev_set, vocab)
        with pytest.raises(TrainingError):
            train(fast_config(), train_set, [], vocab)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_becomes_training_error(self, tiny_corpus, monkeypatch):
        train_set, dev_set, vocab = tiny_corpus

        def poisoned(*args, **kwargs):
            return exp(Tensor(np.array(1e6)))

        monkeypatch.setattr("aspectcrf.training.batch_loss", poisoned)
        with pytest.raises(TrainingError, match="non-finite"):
            train(fast_config(), train_set, dev_set, vocab)

    def test_corpus_max_len(self):
        a = [AspectInstance((2, 3), 0, 0, "positive", "x")]
        b = [AspectInstance((2, 3, 4, 5), 0, 0, "neutral", "y")]
        assert corpus_max_len(a, b) == 4
        assert corpus_max_len(a, []) == 2
