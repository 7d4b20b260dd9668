"""The packed batch path against the per-sentence references it replaced.

A batch's sentences are concatenated into one array of token rows plus their
lengths. Every output and gradient of the packed ``bigru``, ``crf_marginals``
and ``pool`` and of the batched model must equal the per-sentence reference
to 1e-12, for mixed lengths, ties, one-token sentences and B = 1.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import Tape, Tensor
from aspectcrf.config import RunConfig
from aspectcrf.data import AspectInstance
from aspectcrf.encoder import GruLayerParams, init_gru_direction
from aspectcrf.model import batch_loss, evaluate, forward, forward_batch, init_params, predict_instance
from reference import instance_bigru, instance_crf_marginals, instance_forward, reduce_sum

TOL = 1e-12
# mixed lengths, ties, one-token sentences, and B = 1
LENGTHS = [[5], [1], [3, 1, 5, 5, 2], [4, 4, 4], [1, 1, 1], [7, 2, 9, 1, 3, 3]]


def values_and_gradients(run, inputs, upstream):
    """run() and the gradients of sum(run() * upstream) into inputs."""
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = run()
        tape.backward(reduce_sum(ad.mul(out, Tensor(upstream))))
    return out.numpy(), [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]


def per_sentence(op, rows, lengths, params, upstream, axis):
    """``op(rows of one sentence, *params)`` sentence by sentence: outputs concatenated along
    ``axis``, the row gradients concatenated, the parameter gradients summed."""
    outs, row_grads = [], []
    param_grads = [np.zeros_like(p.data) for p in params]
    lo = 0
    for n in lengths:
        x = Tensor(rows[lo : lo + n], requires_grad=True)
        take = [slice(None)] * upstream.ndim
        take[axis] = slice(lo, lo + n)
        out, grads = values_and_gradients(lambda: op(x, *params), [x, *params], upstream[tuple(take)])
        outs.append(out)
        row_grads.append(grads[0])
        for acc, g in zip(param_grads, grads[1:]):
            acc += g
        lo += n
    return np.concatenate(outs, axis=axis), [np.concatenate(row_grads), *param_grads]


def assert_all_close(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        npt.assert_allclose(a, b, rtol=0, atol=TOL)


def gru_layer(d, hidden, rng):
    layer = GruLayerParams(init_gru_direction(d, hidden, rng, "fwd"), init_gru_direction(d, hidden, rng, "bwd"))
    for direction in (layer.forward, layer.backward):
        for t in direction:
            t.data[...] = rng.normal(scale=1.5, size=t.shape)  # gates saturate unevenly
    return layer


class TestPackedBiGru:
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_matches_per_sentence_reference(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        layer = gru_layer(5, 8, rng)
        params = [*layer.forward, *layer.backward]
        n = sum(lengths)
        rows, upstream = rng.normal(size=(n, 5)), rng.normal(size=(n, 16))
        x = Tensor(rows, requires_grad=True)
        packed, grads = values_and_gradients(
            lambda: ad.bigru(x, layer.forward, layer.backward, lengths), [x, *params], upstream
        )
        ref, ref_grads = per_sentence(
            lambda xs, *p: instance_bigru(xs, p[:4], p[4:]), rows, lengths, params, upstream, axis=0
        )
        assert_all_close([packed, *grads], [ref, *ref_grads])

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_one_sentence_is_bit_identical_to_reference(self, n):
        # the B = 1 case, with and without a lengths array, equals the per-sentence op bit for bit
        rng = np.random.default_rng(n)
        layer = gru_layer(3, 4, rng)
        x = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        inputs = [x, *layer.forward, *layer.backward]
        upstream = rng.normal(size=(n, 8))
        ref = values_and_gradients(lambda: instance_bigru(x, layer.forward, layer.backward), inputs, upstream)
        for lengths in (None, [n]):
            got = values_and_gradients(lambda: ad.bigru(x, layer.forward, layer.backward, lengths), inputs, upstream)
            npt.assert_array_equal(got[0], ref[0])
            for a, b in zip(got[1], ref[1]):
                npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("lengths", [[0, 6], [2, 3], [7], [[6]], [2.0, 4.0], []])
    def test_rejects_lengths_that_do_not_cover_the_rows(self, lengths):
        layer = gru_layer(2, 2, np.random.default_rng(0))
        with pytest.raises(ad.DimensionError, match="lengths"):
            ad.bigru(Tensor(np.zeros((6, 2))), layer.forward, layer.backward, lengths)


class TestPackedCrf:
    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("chains", [(), (3,)])
    def test_matches_per_sentence_reference(self, lengths, chains):
        rng = np.random.default_rng(sum(lengths) + len(chains))
        n = sum(lengths)
        rows = rng.uniform(-5, 5, size=(n, *chains, 2))
        params = [Tensor(rng.uniform(-5, 5, size=(*chains, *shape)), requires_grad=True)
                  for shape in ((2, 2), (2,), (2,))]
        upstream = rng.normal(size=(*chains, n))
        e = Tensor(rows, requires_grad=True)
        packed, grads = values_and_gradients(lambda: ad.crf_marginals(e, *params, lengths), [e, *params], upstream)
        ref, ref_grads = per_sentence(instance_crf_marginals, rows, lengths, params, upstream, axis=-1)
        assert_all_close([packed, *grads], [ref, *ref_grads])

    def test_rejects_bad_lengths(self):
        potentials = [Tensor(np.zeros(shape)) for shape in ((2, 2), (2,), (2,))]
        with pytest.raises(ad.DimensionError, match="lengths"):
            ad.crf_marginals(Tensor(np.zeros((4, 2))), *potentials, [2, 1])


class TestPool:
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_matches_per_sentence_product(self, lengths):
        rng = np.random.default_rng(len(lengths))
        n = sum(lengths)
        weights = Tensor(rng.random((3, n)), requires_grad=True)
        rows = rng.normal(size=(n, 4))
        upstream = rng.normal(size=(len(lengths), 12))
        x = Tensor(rows, requires_grad=True)
        packed, grads = values_and_gradients(lambda: ad.pool(weights, x, lengths), [x, weights], upstream)
        ref, ref_grads = [], [np.zeros((n, 4)), np.zeros((3, n))]
        lo = 0
        for b, size in enumerate(lengths):
            t = slice(lo, lo + size)
            ref.append((weights.data[:, t] @ rows[t]).reshape(-1))
            g = upstream[b].reshape(3, 4)
            ref_grads[0][t] = weights.data[:, t].T @ g
            ref_grads[1][:, t] = g @ rows[t].T
            lo += size
        assert_all_close([packed, *grads], [np.array(ref), *ref_grads])

    def test_without_lengths_is_one_sentence_vector(self):
        weights, x = Tensor(np.ones((2, 3))), Tensor(np.arange(6.0).reshape(3, 2))
        npt.assert_array_equal(ad.pool(weights, x).numpy(), [6.0, 9.0, 6.0, 9.0])
        assert ad.pool(weights, x, [3]).shape == (1, 4)


def batch_instances(lengths, rng, vocab_size=30):
    out = []
    for n in lengths:
        first = int(rng.integers(0, n))
        last = int(rng.integers(first, n))
        ids = tuple(int(t) for t in rng.integers(2, vocab_size, size=n))
        out.append(AspectInstance(ids, first, last, ("positive", "neutral", "negative")[n % 3], ""))
    return out


MODEL = dict(hidden_size=32, embedding_dim=5, d_as=50, crf_heads=2, batch_size=64, dropout=0.3, gamma=2)
VARIANTS = [{}, {"gru_layers": 2}, {"no_structured_attention": True}, {"no_aspect_indicator": True}]


class TestBatchedModel:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_instance_reference(self, variant):
        # logits, marginals and the loss gradient into every parameter
        config = RunConfig(**MODEL, **variant)
        rng = np.random.default_rng(5)
        params = init_params(config, 30, rng)
        for t in params.named_tensors().values():
            t.data[...] = rng.normal(scale=0.8, size=t.shape)
        named = params.named_tensors()
        instances = batch_instances([3, 1, 6, 6, 2, 9], rng)
        gold = [("positive", "neutral", "negative").index(inst.label) for inst in instances]

        def gradients(loss_fn):
            for t in named.values():
                t.zero_grad()
            with Tape() as tape:
                loss = loss_fn()
                tape.backward(loss)
            return loss.item(), {name: t.grad.copy() for name, t in named.items() if t.grad is not None}

        result = forward_batch(params, instances, config, max_len=12)
        refs = [instance_forward(params, inst, config, 12) for inst in instances]
        npt.assert_allclose(result.logits.numpy(), np.stack([lg.numpy() for lg, _ in refs]), rtol=0, atol=TOL)
        if config.no_structured_attention:
            assert result.head_marginals is None
        else:
            want = np.concatenate([yes.numpy() for _, yes in refs], axis=1)
            npt.assert_allclose(result.head_marginals.numpy(), want, rtol=0, atol=TOL)
        loss, grads = gradients(lambda: batch_loss(params, instances, config, max_len=12))
        ref_loss, ref_grads = gradients(
            lambda: ad.nll(ad.stack([instance_forward(params, inst, config, 12)[0] for inst in instances]), gold)
        )
        npt.assert_allclose(loss, ref_loss, rtol=0, atol=TOL)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            npt.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL, err_msg=name)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_instance_matches_reference_without_batch_axis(self, variant):
        config = RunConfig(**MODEL, **variant)
        rng = np.random.default_rng(6)
        params = init_params(config, 30, rng)
        for inst in batch_instances([1, 7], rng):
            result = forward(params, inst, config, max_len=12)
            logits, yes = instance_forward(params, inst, config, 12)
            assert result.logits.shape == (3,)
            npt.assert_allclose(result.logits.numpy(), logits.numpy(), rtol=0, atol=TOL)
            if yes is not None:
                npt.assert_allclose(result.head_marginals.numpy(), yes.numpy(), rtol=0, atol=TOL)
            batched = forward_batch(params, [inst], config, max_len=12)
            npt.assert_allclose(batched.logits.numpy()[0], result.logits.numpy(), rtol=0, atol=TOL)

    def test_dropout_draws_follow_the_instance_order(self):
        # a train-mode batch draws each instance's input and state masks in
        # turn, as forwarding the instances one by one from the same rng does
        config = RunConfig(**MODEL)
        params = init_params(config, 30, np.random.default_rng(7))
        instances = batch_instances([4, 1, 6], np.random.default_rng(8))
        batched = forward_batch(params, instances, config, 12, train_mode=True, rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        single = [forward(params, inst, config, 12, train_mode=True, rng=rng).logits.numpy() for inst in instances]
        npt.assert_allclose(batched.logits.numpy(), np.stack(single), rtol=0, atol=TOL)

    def test_evaluate_labels_equal_served_labels(self):
        config = RunConfig(**MODEL)
        rng = np.random.default_rng(10)
        params = init_params(config, 30, rng)
        for t in params.named_tensors().values():
            t.data[...] = rng.normal(scale=0.8, size=t.shape)
        instances = batch_instances([int(n) for n in rng.integers(1, 12, size=70)], rng)
        _, _, labels = evaluate(params, instances, config, max_len=12)  # chunks of 64 and 6
        assert labels == [predict_instance(params, inst, config, 12).label for inst in instances]


TWIN_SCRIPT = """
import hashlib, io, sys
import numpy as np
from aspectcrf.checkpoint import build_meta, serialize
from aspectcrf.config import RunConfig
from aspectcrf.data import parse_corpus, split_train_dev
from aspectcrf.synthetic import generate_records, write_jsonl
from aspectcrf.training import train

path = sys.argv[1]
write_jsonl(path, generate_records(240, np.random.default_rng(3)))
instances, vocab, _ = parse_corpus(path)
train_set, dev_set = split_train_dev(instances, seed=0)
config = RunConfig(hidden_size=32, batch_size=64, dropout=0.3, d_as=50, embedding_dim=30, crf_heads=2,
                   lr=0.05, max_epochs=2, patience=3)
log = io.StringIO()
result = train(config, train_set, dev_set, vocab, clock=lambda: 0.0, log_stream=log)
meta = build_meta(result.max_len, result.dev_accuracy, result.dev_macro_f1, result.best_epoch, vocab,
                  result.params.pretrained_mask)
blob = serialize(result.params, config, vocab, meta)
print(hashlib.sha256(blob + log.getvalue().encode()).hexdigest(), result.clip_events)
"""


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    # batch-sized products run on several BLAS threads when allowed; the
    # trained checkpoint and log must not change with the thread count
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", TWIN_SCRIPT, str(tmp_path / f"corpus{threads}.jsonl")],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.split())
    assert outputs[0] == outputs[1]
    assert int(outputs[0][1]) > 0  # clipping fired, so the clipped norm is covered too
