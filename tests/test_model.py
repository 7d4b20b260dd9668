"""Tests for parameter assembly and the full forward path."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import Tape
from aspectcrf.config import RunConfig
from aspectcrf.data import AspectInstance, EmbeddingMatrix
from aspectcrf.model import (
    ModelParams,
    batch_loss,
    evaluate,
    forward,
    init_params,
    predict_instance,
    q_dim,
)
from reference import softmax

SMALL = dict(hidden_size=32, batch_size=64, dropout=0.3, d_as=50, gamma=1,
             crf_heads=2, embedding_dim=8)


def small_config(**overrides):
    merged = {**SMALL, **overrides}
    return RunConfig(**merged)


def instance(n=7, i=2, j=3, label="positive", vocab_size=20):
    ids = tuple((k % (vocab_size - 2)) + 2 for k in range(n))
    return AspectInstance(ids, i, j, label, "synthetic")


class TestInitParams:
    def test_shapes(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        assert params.embedding.shape == (20, 8)
        assert params.indicator.shape == (2, 50)
        assert len(params.gru_layers) == 1
        assert params.gru_layers[0].forward.w_ih.shape == (58, 96)
        assert params.gru_layers[0].forward.w_hh.shape == (32, 96)
        assert len(params.heads) == 2
        assert params.heads[0].w_emit.shape == (64, 2)
        assert params.cls.w.shape == (3, q_dim(cfg))

    def test_q_dim_switch(self):
        assert q_dim(small_config()) == 2 * 2 * 32
        assert q_dim(small_config(crf_heads=1)) == 64
        assert q_dim(small_config(no_structured_attention=True)) == 64

    def test_named_tensors_cover_everything(self):
        params = init_params(small_config(), 20, np.random.default_rng(0))
        names = set(params.named_tensors())
        expected = {
            "embedding", "indicator", "cls.w", "cls.b",
            "gru.l0.fwd.w_ih", "gru.l0.fwd.w_hh", "gru.l0.fwd.b_ih", "gru.l0.fwd.b_hh",
            "gru.l0.bwd.w_ih", "gru.l0.bwd.w_hh", "gru.l0.bwd.b_ih", "gru.l0.bwd.b_hh",
            "head0.w_emit", "head0.b_emit", "head0.trans", "head0.start", "head0.end",
            "head1.w_emit", "head1.b_emit", "head1.trans", "head1.start", "head1.end",
        }
        assert names == expected

    def test_embeddings_adopted_bit_exact(self):
        matrix = np.random.default_rng(1).normal(size=(20, 8))
        mask = np.zeros(20, dtype=bool)
        mask[5] = True
        emb = EmbeddingMatrix(matrix=matrix.copy(), pretrained=mask)
        params = init_params(small_config(), 20, np.random.default_rng(0), emb)
        npt.assert_array_equal(params.embedding.data, matrix)
        npt.assert_array_equal(params.pretrained_mask, mask)

    def test_embedding_shape_mismatch_rejected(self):
        emb = EmbeddingMatrix(matrix=np.zeros((20, 4)), pretrained=np.zeros(20, dtype=bool))
        with pytest.raises(ValueError, match="match"):
            init_params(small_config(), 20, np.random.default_rng(0), emb)

    def test_frozen_embeddings_not_trainable(self):
        cfg = small_config(embeddings_trainable=False)
        params = init_params(cfg, 20, np.random.default_rng(0))
        assert not params.embedding.requires_grad
        assert "embedding" not in params.trainable_tensors()
        assert "embedding" in params.named_tensors()

    def test_share_transitions_aliases_tensors(self):
        cfg = small_config(share_transitions=True)
        params = init_params(cfg, 20, np.random.default_rng(0))
        assert params.heads[1].trans is params.heads[0].trans
        assert params.heads[1].start is params.heads[0].start
        assert params.heads[1].w_emit is not params.heads[0].w_emit
        named = params.named_tensors()
        assert "head0.trans" in named and "head1.trans" not in named

    def test_same_seed_same_parameters(self):
        a = init_params(small_config(), 20, np.random.default_rng(4))
        b = init_params(small_config(), 20, np.random.default_rng(4))
        for name, t in a.named_tensors().items():
            npt.assert_array_equal(t.data, b.named_tensors()[name].data)


class TestForward:
    def test_logit_shape_and_marginals(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        result = forward(params, instance(), cfg, max_len=10)
        assert result.logits.shape == (3,)
        yes = result.head_marginals.numpy()
        assert yes.shape == (2, 7)
        assert np.all((yes >= 0) & (yes <= 1))

    def test_eval_mode_deterministic(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        a = forward(params, instance(), cfg, max_len=10).logits.numpy()
        b = forward(params, instance(), cfg, max_len=10).logits.numpy()
        npt.assert_array_equal(a, b)

    def test_train_mode_requires_rng(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        with pytest.raises(AssertionError):
            forward(params, instance(), cfg, max_len=10, train_mode=True)

    def test_ablation_mean_pooling_path(self):
        cfg = small_config(no_structured_attention=True)
        params = init_params(cfg, 20, np.random.default_rng(0))
        result = forward(params, instance(), cfg, max_len=10)
        assert result.logits.shape == (3,)
        assert result.head_marginals is None
        assert predict_instance(params, instance(), cfg, max_len=10).head_marginals == []

    def test_no_decay_equals_gamma_zero(self):
        # same parameters, the two configs must agree exactly
        base = small_config(gamma=2)
        params = init_params(base, 20, np.random.default_rng(3))
        ablated = forward(params, instance(), base.replace(no_decay=True), max_len=10)
        gamma0 = forward(params, instance(), base.replace(gamma=0), max_len=10)
        npt.assert_array_equal(ablated.logits.numpy(), gamma0.logits.numpy())
        decayed = forward(params, instance(), base, max_len=10)
        assert np.any(decayed.logits.numpy() != gamma0.logits.numpy())

    def test_loss_positive_scalar_and_backprop_reaches_embedding(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        with Tape() as tape:
            loss = batch_loss(params, [instance()], cfg, max_len=10)
            tape.backward(loss)
        assert loss.item() > 0
        assert params.embedding.grad is not None
        assert np.any(params.embedding.grad != 0)

    def test_dropout_train_mode_perturbs_logits(self):
        cfg = small_config(dropout=0.5)
        params = init_params(cfg, 20, np.random.default_rng(0))
        plain = forward(params, instance(), cfg, max_len=10).logits.numpy()
        dropped = forward(
            params, instance(), cfg, max_len=10,
            train_mode=True, rng=np.random.default_rng(8),
        ).logits.numpy()
        assert np.any(plain != dropped)


class TestPredictAndEvaluate:
    def test_prediction_carries_marginals(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        pred = predict_instance(params, instance(), cfg, max_len=10)
        assert pred.label in ("positive", "neutral", "negative")
        assert len(pred.head_marginals) == 2
        npt.assert_array_equal(
            np.stack(pred.head_marginals), forward(params, instance(), cfg, max_len=10).head_marginals.numpy()
        )
        npt.assert_allclose(pred.probabilities.sum(), 1.0, rtol=0, atol=1e-12)
        npt.assert_array_equal(pred.probabilities, softmax(forward(params, instance(), cfg, max_len=10).logits).numpy())

    def test_evaluate_consistent_with_predictions(self):
        cfg = small_config()
        params = init_params(cfg, 20, np.random.default_rng(0))
        instances = [instance(label=lbl) for lbl in ("positive", "neutral", "negative")]
        accuracy, _, predicted = evaluate(params, instances, cfg, max_len=10)
        agree = sum(1 for p, inst in zip(predicted, instances) if p == inst.label)
        npt.assert_allclose(accuracy, agree / 3, rtol=0, atol=1e-15)
