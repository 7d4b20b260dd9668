"""Tests for the output layer, loss, and evaluation metrics."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import Tape, Tensor
from aspectcrf.classifier import (
    PROB_FLOOR,
    Prediction,
    init_classifier,
    logits,
    metrics,
    nll_loss,
)


class TestLogitsAndPrediction:
    def test_logits_linear_oracle(self):
        rng = np.random.default_rng(0)
        params = init_classifier(5, rng)
        q = rng.normal(size=5)
        out = logits(Tensor(q), params).numpy()
        npt.assert_allclose(out, params.w.data @ q + params.b.data, rtol=0, atol=1e-14)

    def test_prediction_argmax_label(self):
        assert Prediction(np.array([0.2, 0.5, 0.3])).label == "neutral"
        assert Prediction(np.array([0.7, 0.2, 0.1])).label == "positive"
        assert Prediction(np.array([0.1, 0.2, 0.7])).label == "negative"


class TestNllLoss:
    def test_uniform_logits_loss_is_ln3(self):
        for label in ("positive", "neutral", "negative"):
            loss = nll_loss(ad.stack([Tensor(np.zeros(3))]), [label])
            npt.assert_allclose(loss.item(), np.log(3.0), rtol=0, atol=1e-12)

    def test_confident_correct_loss_near_zero(self):
        loss = nll_loss(ad.stack([Tensor(np.array([20.0, 0.0, 0.0]))]), ["positive"])
        assert loss.item() < 1e-8

    def test_floor_applies_and_warns(self):
        with pytest.warns(UserWarning, match="floored"):
            loss = nll_loss(ad.stack([Tensor(np.array([60.0, -60.0, 0.0]))]), ["neutral"])
        npt.assert_allclose(loss.item(), -np.log(PROB_FLOOR), rtol=0, atol=1e-6)

    def test_gradient_is_softmax_minus_onehot(self):
        # closed form for cross entropy through softmax
        z = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True, name="z")
        with Tape() as tape:
            tape.backward(nll_loss(ad.stack([z]), ["negative"]))
        p = np.exp(z.data) / np.exp(z.data).sum()
        expected = p - np.array([0.0, 0.0, 1.0])
        npt.assert_allclose(z.grad, expected, rtol=0, atol=1e-12)


class TestMetrics:
    def test_worked_example(self):
        # 12 instances, two confusions between positive and neutral:
        # per-class F1 = (2/3, 0.8, 1.0), macro 0.8222, accuracy 10/12
        gold = ["positive"] * 3 + ["neutral"] * 5 + ["negative"] * 4
        pred = (
            ["positive", "positive", "neutral"]
            + ["neutral"] * 4 + ["positive"]
            + ["negative"] * 4
        )
        accuracy, macro_f1 = metrics(pred, gold)
        npt.assert_allclose(accuracy, 10 / 12, rtol=0, atol=1e-12)
        npt.assert_allclose(macro_f1, (2 / 3 + 0.8 + 1.0) / 3, rtol=0, atol=1e-12)
        npt.assert_allclose(macro_f1, 0.8222, rtol=0, atol=5e-5)

    def test_perfect_predictions(self):
        gold = ["positive", "neutral", "negative"]
        accuracy, macro_f1 = metrics(gold, gold)
        assert accuracy == 1.0 and macro_f1 == 1.0

    def test_zero_fill_for_missing_classes(self):
        # all-positive predictions: neutral and negative contribute 0, not nan
        gold = ["positive", "neutral", "negative", "positive"]
        pred = ["positive"] * 4
        accuracy, macro_f1 = metrics(pred, gold)
        npt.assert_allclose(accuracy, 0.5, rtol=0, atol=1e-15)
        # positive: precision 1/2, recall 1 -> F1 = 2/3
        npt.assert_allclose(macro_f1, (2 / 3) / 3, rtol=0, atol=1e-12)

    def test_class_absent_everywhere_counts_zero(self):
        gold = ["positive", "positive"]
        pred = ["positive", "positive"]
        _, macro_f1 = metrics(pred, gold)
        npt.assert_allclose(macro_f1, 1.0 / 3, rtol=0, atol=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            metrics(["positive"], [])
        with pytest.raises(ValueError):
            metrics(["positive"], ["positive", "neutral"])
