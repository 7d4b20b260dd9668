"""Tests for the Bi-GRU encoder, aspect indicator input, and position decay."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import Tape, Tensor
from aspectcrf.encoder import (
    IN_ASPECT_ROW,
    OUT_ASPECT_ROW,
    DecaySpec,
    GruLayerParams,
    apply_decay,
    bigru_encode,
    decay_weight,
    decay_weights,
    embed_input,
    init_gru_direction,
)
from reference import grad_check, per_direction_bigru, taped_gru_direction


def gru_cell_oracle(xp, hp, h):
    """Composed gate arithmetic, independent of the fused tape primitive."""
    H = h.shape[0]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    r = sig(xp[:H] + hp[:H])
    u = sig(xp[H:2 * H] + hp[H:2 * H])
    c = np.tanh(xp[2 * H:] + r * hp[2 * H:])
    return (1.0 - u) * c + u * h


def gru_direction_oracle(xp, w_hh, b_hh, reverse):
    """gru_cell_oracle looped over the sentence from h = 0, states in sentence order."""
    n, H = xp.shape[0], w_hh.shape[0]
    h = np.zeros(H)
    states = np.empty((n, H))
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h = gru_cell_oracle(xp[t], h @ w_hh + b_hh, h)
        states[t] = h
    return states


def make_layer(d_in, hidden, rng):
    return GruLayerParams(
        forward=init_gru_direction(d_in, hidden, rng, "fwd"),
        backward=init_gru_direction(d_in, hidden, rng, "bwd"),
    )


def layer_stack(num_layers, d_in, hidden, rng):
    """Layers whose weights are scaled up from init, so that gates saturate unevenly."""
    layers = [make_layer(d_in, hidden, rng)] + [make_layer(2 * hidden, hidden, rng) for _ in range(num_layers - 1)]
    for t in layer_tensors(layers):
        t.data[...] = rng.normal(scale=1.5, size=t.shape)
    return layers


def layer_tensors(layers):
    return [t for layer in layers for d in (layer.forward, layer.backward) for t in d]


def values_and_gradients(run, inputs, upstream):
    """run() and the gradients of sum(run() * upstream) into inputs."""
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = run()
        tape.backward(ad.reduce_sum(ad.mul(out, upstream)))
    return out.numpy(), [t.grad.copy() for t in inputs]


def run_layers(layer_op, x, layers, **kwargs):
    out = x
    for layer in layers:
        out = layer_op(out, layer.forward, layer.backward, **kwargs)
    return out


class TestBiGruOp:
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("hidden", [2, 4, 32])
    def test_bit_identical_to_per_direction_layers(self, num_layers, hidden):
        # values and gradients into x and every parameter equal the old layer
        # body: one projection and one gru_sequence per direction, then concat
        rng = np.random.default_rng(100 * num_layers + hidden)
        for n in range(1, 15):
            layers = layer_stack(num_layers, 3, hidden, rng)
            x = Tensor(rng.normal(size=(n, 3)), requires_grad=True, name="x")
            inputs = [x] + layer_tensors(layers)
            upstream = Tensor(rng.normal(size=(n, 2 * hidden)))
            fused, fused_grads = values_and_gradients(lambda: run_layers(ad.bigru, x, layers), inputs, upstream)
            ref, ref_grads = values_and_gradients(lambda: run_layers(per_direction_bigru, x, layers), inputs, upstream)
            npt.assert_array_equal(fused, ref)
            for got, want in zip(fused_grads, ref_grads):
                npt.assert_array_equal(got, want)

    def test_accumulates_into_x_after_later_ops_backward_direction_first(self):
        # x also feeds a mul recorded after the layer, so x.grad already holds
        # that term when the layer's adjoint adds the backward direction's and
        # then the forward direction's, as the per-direction tape did
        rng = np.random.default_rng(7)
        for n in (1, 5, 13):
            layers = layer_stack(1, 4, 8, rng)
            x = Tensor(rng.normal(size=(n, 4)), requires_grad=True, name="x")
            side = Tensor(rng.normal(scale=1e3, size=(n, 4)))
            upstream = Tensor(np.concatenate([rng.normal(size=(n, 16)), np.ones((n, 4))], axis=1))

            def run(layer_op):
                return lambda: ad.concat([run_layers(layer_op, x, layers), ad.mul(x, side)], axis=1)

            inputs = [x] + layer_tensors(layers)
            _, fused_grads = values_and_gradients(run(ad.bigru), inputs, upstream)
            _, ref_grads = values_and_gradients(run(per_direction_bigru), inputs, upstream)
            for got, want in zip(fused_grads, ref_grads):
                npt.assert_array_equal(got, want)

    def test_matches_taped_and_numpy_oracles(self):
        rng = np.random.default_rng(0)
        H = 4
        for n in range(1, 15):
            layers = layer_stack(1, 3, H, rng)
            x = Tensor(rng.normal(size=(n, 3)), requires_grad=True, name="x")
            inputs = [x] + layer_tensors(layers)
            upstream = Tensor(rng.normal(size=(n, 2 * H)))
            fused, fused_grads = values_and_gradients(lambda: run_layers(ad.bigru, x, layers), inputs, upstream)
            taped, taped_grads = values_and_gradients(
                lambda: run_layers(per_direction_bigru, x, layers, direction=taped_gru_direction), inputs, upstream
            )
            oracle = np.concatenate([
                gru_direction_oracle(x.data @ d.w_ih.data + d.b_ih.data, d.w_hh.data, d.b_hh.data, reverse)
                for d, reverse in ((layers[0].forward, False), (layers[0].backward, True))
            ], axis=1)
            npt.assert_allclose(fused, oracle, rtol=0, atol=1e-12)
            npt.assert_allclose(fused, taped, rtol=0, atol=1e-12)
            for got, want in zip(fused_grads, taped_grads):
                npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        layer = make_layer(2, 3, rng)
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True, name="x")
        w = Tensor(rng.normal(size=(5, 6)))  # fixed weights make the loss non-degenerate
        inputs = [x] + layer_tensors([layer])
        assert len(inputs) == 9
        report = grad_check(lambda: ad.reduce_sum(ad.mul(ad.bigru(x, layer.forward, layer.backward), w)), inputs)
        assert report.passed, report.failures

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(2)
        layer = make_layer(3, 2, rng)
        fwd, bwd = layer.forward, layer.backward
        x = Tensor(rng.normal(size=(4, 3)))
        bad = [
            (Tensor(np.zeros((0, 3))), fwd, bwd),  # no tokens
            (Tensor(np.zeros(3)), fwd, bwd),  # x not 2-D
            (Tensor(np.zeros((4, 5))), fwd, bwd),  # x width != d
            (x, fwd._replace(w_ih=Tensor(np.zeros((3, 5)))), bwd),  # w_ih not d x 3H
            (x, fwd, bwd._replace(w_hh=Tensor(np.zeros((2, 5))))),  # w_hh not H x 3H
            (x, fwd._replace(w_hh=Tensor(np.zeros(6))), bwd),  # w_hh not 2-D
            (x, fwd, bwd._replace(b_ih=Tensor(np.zeros(5)))),  # b_ih not 3H
            (x, fwd._replace(b_hh=Tensor(np.zeros((1, 6)))), bwd),  # b_hh not 1-D
            (x, fwd, init_gru_direction(4, 2, rng, "d4")),  # directions disagree on d
            (x, fwd, init_gru_direction(3, 3, rng, "h3")),  # directions disagree on H
            (x, init_gru_direction(3, 3, rng, "h3"), bwd),
        ]
        for args in bad:
            with pytest.raises(ad.DimensionError):
                ad.bigru(*args)

    def test_non_finite_upstream_gradient_rejected(self):
        rng = np.random.default_rng(4)
        layer = make_layer(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="x")
        with Tape() as tape:
            out = ad.bigru(x, layer.forward, layer.backward)
        (_, adjoint), = tape._entries
        for half in (slice(0, 2), slice(2, 4)):
            g = np.ones(out.shape)
            g[1, half] = np.nan
            with pytest.raises(ad.NonFiniteError, match="gradient flowing into"):
                adjoint(g)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_bigru_tape_entries_independent_of_length(self, num_layers):
        # one bigru entry per layer
        rng = np.random.default_rng(3)
        layers = [make_layer(3, 4, rng)] + [make_layer(8, 4, rng) for _ in range(num_layers - 1)]
        for n in (1, 2, 7, 30):
            with Tape() as tape:
                bigru_encode(Tensor(rng.normal(size=(n, 3))), layers)
            assert len(tape) == num_layers


class TestBiGru:
    def test_output_shape(self):
        rng = np.random.default_rng(2)
        layer = make_layer(3, 4, rng)
        out = bigru_encode(Tensor(rng.normal(size=(6, 3))), [layer])
        assert out.shape == (6, 8)

    def test_zero_weights_give_zero_states(self):
        # with all-zero parameters the update gate is 1/2 and the candidate
        # tanh(0) = 0, so the hidden state stays exactly zero at every step
        layer = make_layer(3, 4, np.random.default_rng(3))
        for d in (layer.forward, layer.backward):
            for t in (d.w_ih, d.w_hh, d.b_ih, d.b_hh):
                t.data[...] = 0.0
        out = bigru_encode(Tensor(np.random.default_rng(4).normal(size=(5, 3))), [layer])
        npt.assert_array_equal(out.numpy(), np.zeros((5, 8)))

    def test_reversal_symmetry(self):
        # running swapped directions over the reversed sequence must give the
        # row-reversed output with forward/backward halves exchanged
        rng = np.random.default_rng(5)
        layer = make_layer(3, 4, rng)
        swapped = GruLayerParams(forward=layer.backward, backward=layer.forward)
        x = rng.normal(size=(7, 3))
        out = bigru_encode(Tensor(x), [layer]).numpy()
        out_rev = bigru_encode(Tensor(x[::-1].copy()), [swapped]).numpy()
        H = 4
        recombined = np.concatenate([out_rev[::-1, H:], out_rev[::-1, :H]], axis=1)
        npt.assert_allclose(recombined, out, rtol=0, atol=1e-14)

    def test_stacked_layers_change_width_then_keep_it(self):
        rng = np.random.default_rng(6)
        layers = [make_layer(3, 4, rng), make_layer(8, 4, rng)]
        out = bigru_encode(Tensor(rng.normal(size=(5, 3))), layers)
        assert out.shape == (5, 8)

    def test_empty_sequence_rejected(self):
        layer = make_layer(3, 4, np.random.default_rng(7))
        with pytest.raises(ad.DimensionError):
            bigru_encode(Tensor(np.zeros((0, 3))), [layer])

    def test_gradients_flow_to_all_parameters(self):
        rng = np.random.default_rng(8)
        layer = make_layer(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            out = bigru_encode(x, [layer])
            tape.backward(ad.reduce_sum(ad.mul(out, Tensor(rng.normal(size=(4, 4))))))
        for d in (layer.forward, layer.backward):
            for t in (d.w_ih, d.w_hh, d.b_ih, d.b_hh):
                assert t.grad is not None and np.any(t.grad != 0.0)
        assert x.grad is not None

    def test_recurrent_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        layer = make_layer(2, 3, rng)
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True, name="x")
        w = Tensor(rng.normal(size=(5, 6)))
        params = [
            layer.forward.w_ih, layer.forward.w_hh, layer.forward.b_ih,
            layer.forward.b_hh, layer.backward.w_ih, x,
        ]
        report = grad_check(
            lambda: ad.reduce_sum(ad.mul(bigru_encode(x, [layer]), w)), params
        )
        assert report.passed, report.failures


class TestEmbedInput:
    def test_rows_concatenate_word_and_indicator(self):
        emb = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        ind = Tensor(np.array([[10.0, 20.0], [30.0, 40.0]]))
        out = embed_input((2, 0, 3), 1, 1, emb, ind).numpy()
        assert out.shape == (3, 5)
        npt.assert_array_equal(out[0], [6, 7, 8, 30, 40])  # outside the aspect
        npt.assert_array_equal(out[1], [0, 1, 2, 10, 20])  # inside
        npt.assert_array_equal(out[2], [9, 10, 11, 30, 40])

    def test_indicator_marks_whole_span(self):
        emb = Tensor(np.zeros((3, 2)))
        ind = Tensor(np.array([[1.0], [0.0]]))
        out = embed_input((0, 1, 2, 1), 1, 2, emb, ind).numpy()
        npt.assert_array_equal(out[:, 2], [0, 1, 1, 0])

    def test_ablation_erases_position_information(self):
        emb = Tensor(np.zeros((3, 2)))
        ind = Tensor(np.array([[1.0], [0.0]]))
        out = embed_input((0, 1, 2), 1, 1, emb, ind, no_aspect_indicator=True).numpy()
        npt.assert_array_equal(out[:, 2], [1, 1, 1])
        assert IN_ASPECT_ROW == 0 and OUT_ASPECT_ROW == 1


class TestDecay:
    def test_hand_values(self):
        # L = 20, aspect [5, 6], gamma = 2: d(3) = 2 -> 0.81, d(10) = 4 -> 0.64
        spec = DecaySpec(gamma=2, max_len=20)
        assert decay_weight(3, 5, 6, spec) == 0.81
        npt.assert_allclose(decay_weight(10, 5, 6, spec), 0.64, rtol=0, atol=1e-12)

    def test_aspect_span_weight_is_one(self):
        spec = DecaySpec(gamma=3, max_len=15)
        for t in (4, 5, 6):
            assert decay_weight(t, 4, 6, spec) == 1.0

    def test_gamma_zero_disables_decay(self):
        spec = DecaySpec(gamma=0, max_len=10)
        npt.assert_array_equal(decay_weights(10, 4, 5, spec), np.ones(10))

    def test_monotone_in_gamma_off_aspect(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            L = int(rng.integers(2, 50))
            i = int(rng.integers(0, L))
            j = int(rng.integers(i, L))
            t = int(rng.integers(0, L))
            if i <= t <= j:
                continue
            g = int(rng.integers(1, 3))
            lo = decay_weight(t, i, j, DecaySpec(gamma=g + 1, max_len=L))
            hi = decay_weight(t, i, j, DecaySpec(gamma=g, max_len=L))
            assert lo <= hi + 1e-12

    def test_distance_clamp_keeps_weight_positive(self):
        # positions beyond L - 1 reuse the weight at distance L - 1
        spec = DecaySpec(gamma=2, max_len=4)
        w = decay_weight(30, 0, 0, spec)
        assert w == decay_weight(3, 0, 0, spec) > 0.0

    def test_apply_decay_scales_rows(self):
        spec = DecaySpec(gamma=1, max_len=8)
        h = np.random.default_rng(11).normal(size=(5, 3))
        out = apply_decay(Tensor(h), 2, 2, spec).numpy()
        expected = h * decay_weights(5, 2, 2, spec)[:, None]
        npt.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_no_gradient_reaches_decay_factors(self):
        spec = DecaySpec(gamma=2, max_len=8)
        h = Tensor(np.random.default_rng(12).normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            out = apply_decay(h, 1, 2, spec)
            tape.backward(ad.reduce_sum(out))
        expected = np.tile(decay_weights(4, 1, 2, spec)[:, None], (1, 2))
        npt.assert_allclose(h.grad, expected, rtol=0, atol=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DecaySpec(gamma=-1, max_len=5)
        with pytest.raises(ValueError):
            DecaySpec(gamma=1, max_len=0)
