"""The seams of the model that the benchmark in ``perfbench/`` reads, kept working.

The benchmark's oracle check rebuilds a sentence's emissions from the
one-sentence encoder and CRF calls, and its tracer counts calls of the
``TRACED`` names by patching module attributes. Both are imported here
read-only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf import crf, data, encoder, model, synthetic, training
from aspectcrf.autodiff import Tensor
from aspectcrf.config import RunConfig
from aspectcrf.data import AspectInstance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from tracing import TRACED, Tracer, traced_name  # noqa: E402

# the names on the model's path; data loading and checkpoints are traced outside it
MODEL_PATH = [traced_name(m, a) for m, a in TRACED if m not in ("data", "checkpoint")]
CONFIG = RunConfig(hidden_size=32, batch_size=64, dropout=0.3, d_as=50, gamma=2, crf_heads=3,
                   embedding_dim=8, max_epochs=1, patience=1)


def trained_params(seed: int):
    rng = np.random.default_rng(seed)
    params = model.init_params(CONFIG, 40, rng)
    for t in params.named_tensors().values():
        t.data[...] = rng.normal(scale=0.7, size=t.shape)
    return params


def oracle_calls(params, inst: AspectInstance, max_len: int):
    """The per-sentence calls the benchmark's oracle check makes: each head's emissions."""
    x = encoder.embed_input(inst.token_ids, inst.aspect_start, inst.aspect_end, params.embedding,
                            params.indicator, no_aspect_indicator=CONFIG.no_aspect_indicator)
    h = encoder.bigru_encode(x, params.gru_layers)
    r = encoder.apply_decay(h, inst.aspect_start, inst.aspect_end,
                            encoder.DecaySpec(gamma=CONFIG.effective_gamma, max_len=max_len))
    return [crf.emissions(r, head).data for head in params.heads]


@pytest.mark.parametrize("n", range(1, crf.BRUTE_FORCE_MAX_LEN + 1))
def test_oracle_calls_reproduce_served_marginals(n):
    rng = np.random.default_rng(n)
    params = trained_params(n)
    first = int(rng.integers(0, n))
    inst = AspectInstance(tuple(int(t) for t in rng.integers(2, 40, size=n)), first,
                          int(rng.integers(first, n)), "neutral", "")
    served = model.predict_instance(params, inst, CONFIG, max_len=16).head_marginals
    assert len(served) == len(params.heads)
    for e, head, marginals in zip(oracle_calls(params, inst, 16), params.heads, served):
        recomputed = ad.crf_marginals(Tensor(e), head.trans, head.start, head.end).numpy()
        npt.assert_allclose(marginals, recomputed, rtol=0, atol=1e-12)
        _, oracle = crf.brute_force_oracle(e, head.trans.data, head.start.data, head.end.data)
        npt.assert_allclose(marginals, oracle, rtol=0, atol=1e-9)
    assert workloads._oracle_problems(params, CONFIG, 16, inst) == []


def test_oracle_emissions_match_the_batched_path():
    # the one-sentence emissions equal the ones the batched forward scores
    rng = np.random.default_rng(20)
    params = trained_params(20)
    instances = [AspectInstance(tuple(int(t) for t in rng.integers(2, 40, size=n)), 0, n - 1, "neutral", "")
                 for n in (3, 12, 7)]
    batched = model.forward_batch(params, instances, CONFIG, max_len=16).head_marginals.numpy()
    lo = 0
    for inst in instances:
        served = np.stack(model.predict_instance(params, inst, CONFIG, max_len=16).head_marginals)
        npt.assert_allclose(batched[:, lo : lo + inst.length], served, rtol=0, atol=1e-12)
        lo += inst.length


def test_tracer_counts_every_model_path_name(tmp_path):
    path = tmp_path / "tiny.jsonl"
    synthetic.write_jsonl(path, synthetic.generate_records(12, np.random.default_rng(0)))
    instances, vocab, _ = data.parse_corpus(path)
    config = workloads.SYN_CONFIG.replace(max_epochs=1, patience=1)
    originals = {name: getattr(sys.modules[f"aspectcrf.{name.split('.')[0]}"], name.split(".")[1])
                 for name in MODEL_PATH if name.count(".") == 1}
    with Tracer() as tracer:
        result = training.train(config, instances[:8], instances[8:], vocab, max_len=40)
        model.evaluate(result.params, instances, config, 40)
        model.predict_instance(result.params, instances[0], config, 40)
    summary = tracer.summary()
    assert tracer.nonfinite_errors == 0
    for name in MODEL_PATH:
        assert summary[name]["calls"] > 0, name
    for name, original in originals.items():
        assert getattr(sys.modules[f"aspectcrf.{name.split('.')[0]}"], name.split(".")[1]) is original
