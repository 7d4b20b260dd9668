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


def taped_gru_direction(xp: Tensor, w_hh: Tensor, b_hh: Tensor, reverse: bool) -> Tensor:
    """Reference only: the recurrence as a per-step composition of taped primitives."""
    n, H = xp.shape[0], w_hh.shape[0]
    h = Tensor(np.zeros(H))
    states = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        hp = ad.add(ad.matmul(h, w_hh), b_hh)
        x = xp[t]
        r = ad.sigmoid(ad.add(x[:H], hp[:H]))
        u = ad.sigmoid(ad.add(x[H:2 * H], hp[H:2 * H]))
        c = ad.tanh(ad.add(x[2 * H:], ad.mul(r, hp[2 * H:])))
        h = ad.add(ad.mul(ad.sub(1.0, u), c), ad.mul(u, h))
        states[t] = h
    return ad.stack_rows(states)


def make_layer(d_in, hidden, rng):
    return GruLayerParams(
        forward=init_gru_direction(d_in, hidden, rng, "fwd"),
        backward=init_gru_direction(d_in, hidden, rng, "bwd"),
    )


def gru_inputs(n, H, rng):
    xp = Tensor(rng.normal(size=(n, 3 * H)), requires_grad=True, name="xp")
    w_hh = Tensor(rng.normal(size=(H, 3 * H)), requires_grad=True, name="w_hh")
    b_hh = Tensor(rng.normal(size=3 * H), requires_grad=True, name="b_hh")
    return xp, w_hh, b_hh


def values_and_gradients(run, inputs, upstream):
    """run(*inputs) and the gradients of sum(run(*inputs) * upstream) into inputs."""
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = run(*inputs)
        tape.backward(ad.reduce_sum(ad.mul(out, upstream)))
    return out.numpy(), [t.grad.copy() for t in inputs]


class TestGruSequence:
    def test_matches_composed_gates(self):
        # values against the numpy oracle, values and gradients into xp, w_hh
        # and b_hh against the taped per-step composition under random
        # upstream weights
        rng = np.random.default_rng(0)
        H = 4
        for reverse in (False, True):
            for n in range(1, 15):
                inputs = gru_inputs(n, H, rng)
                upstream = Tensor(rng.normal(size=(n, H)))
                fused, fused_grads = values_and_gradients(
                    lambda *a: ad.gru_sequence(*a, reverse=reverse), inputs, upstream
                )
                taped, taped_grads = values_and_gradients(
                    lambda *a: taped_gru_direction(*a, reverse=reverse), inputs, upstream
                )
                oracle = gru_direction_oracle(*(t.data for t in inputs), reverse)
                npt.assert_allclose(fused, oracle, rtol=0, atol=1e-12)
                npt.assert_allclose(fused, taped, rtol=0, atol=1e-12)
                for got, want in zip(fused_grads, taped_grads):
                    npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for reverse in (False, True):
            xp, w_hh, b_hh = gru_inputs(5, 3, rng)
            w = Tensor(rng.normal(size=(5, 3)))  # fixed weights make the loss non-degenerate
            report = ad.grad_check(
                lambda: ad.reduce_sum(ad.mul(ad.gru_sequence(xp, w_hh, b_hh, reverse), w)),
                [xp, w_hh, b_hh],
            )
            assert report.passed, report.failures

    def test_rejects_bad_shapes(self):
        xp, w_hh, b_hh = gru_inputs(3, 2, np.random.default_rng(2))
        bad = [
            (Tensor(np.zeros((0, 6))), w_hh, b_hh),  # no tokens
            (Tensor(np.zeros(6)), w_hh, b_hh),  # xp not 2-D
            (Tensor(np.zeros((3, 5))), w_hh, b_hh),  # xp width != 3H
            (xp, Tensor(np.zeros((2, 5))), b_hh),  # w_hh not H x 3H
            (xp, Tensor(np.zeros(6)), b_hh),  # w_hh not 2-D
            (xp, w_hh, Tensor(np.zeros(5))),  # b_hh not 3H
        ]
        for args in bad:
            with pytest.raises(ad.DimensionError):
                ad.gru_sequence(*args)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_bigru_tape_entries_independent_of_length(self, num_layers):
        # matmul + add + gru_sequence per direction, one concat per layer
        rng = np.random.default_rng(3)
        layers = [make_layer(3, 4, rng)] + [make_layer(8, 4, rng) for _ in range(num_layers - 1)]
        for n in (1, 2, 7, 30):
            with Tape() as tape:
                bigru_encode(Tensor(rng.normal(size=(n, 3))), layers)
            assert len(tape) == 7 * num_layers


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
        report = ad.grad_check(
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
