"""Acceptance suite: one test per release criterion, numbered 1 through 9.

Each test asserts its criterion at the stated tolerance and prints one
summary line (visible with ``pytest -rA`` or ``-s``). Criterion 7 depends on
the SemEval-2014 restaurants corpus plus GloVe vectors and skips when those
files are not present.
"""

from __future__ import annotations

import io
import itertools
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from aspectcrf import autodiff as ad
from aspectcrf import crf, encoder
from aspectcrf.autodiff import Tape, Tensor
from aspectcrf.checkpoint import build_meta, load_checkpoint, save_checkpoint, serialize
from aspectcrf.classifier import init_classifier
from aspectcrf.config import RunConfig
from aspectcrf.data import (
    AspectInstance,
    label_counts,
    load_embeddings,
    parse_corpus,
    split_train_dev,
)
from aspectcrf.model import (
    ModelParams,
    batch_loss,
    evaluate,
    forward,
    predict_instance,
)
from aspectcrf.synthetic import generate_records, write_jsonl
from aspectcrf.training import corpus_max_len, train
from reference import grad_check, log_partition

# Frozen protocol for the synthetic end-to-end criteria (5, 6, 8, 9). The
# corpus seeds pin the data; the run seed pins the trajectory. Test sentences
# carry more clauses than training sentences, so the test set probes length
# generalization on top of distractor rejection.
SYN_TRAIN_SEED = 11
SYN_TEST_SEED = 99
SYN_TRAIN_SIZE = 500
SYN_TEST_SIZE = 300
SYN_TRAIN_CLAUSES = (2, 3)
SYN_TEST_CLAUSES = (8, 10)
SYN_CONFIG = dict(
    hidden_size=32, batch_size=64, dropout=0.3, d_as=50, gamma=1,
    gru_layers=1, crf_heads=2, lr=0.008, max_epochs=30, patience=30,
    seed=13, embedding_dim=50,
)

DATA_DIR = Path(os.environ.get("ASPECTCRF_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def fake_clock():
    counter = itertools.count()
    return lambda: 0.5 * next(counter)


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_crf_oracle_equivalence():
    """DP logZ and marginals match brute-force enumeration, 1000 random sets."""
    rng = np.random.default_rng(20240817)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        e = rng.uniform(-5, 5, size=(n, 2))
        head = crf.CrfHeadParams(
            w_emit=Tensor(np.zeros((2, 2))), b_emit=Tensor(np.zeros(2)),
            trans=Tensor(rng.uniform(-5, 5, size=(2, 2))),
            start=Tensor(rng.uniform(-5, 5, size=2)),
            end=Tensor(rng.uniform(-5, 5, size=2)),
        )
        yes = ad.crf_marginals(Tensor(e), head.trans, head.start, head.end).numpy()
        log_z = log_partition(Tensor(e), head).item()
        oracle_log_z, oracle_yes = crf.brute_force_oracle(
            e, head.trans.numpy(), head.start.numpy(), head.end.numpy()
        )
        err = max(
            abs(log_z - oracle_log_z),
            float(np.max(np.abs(yes - oracle_yes))),
            float(np.max(np.abs((1.0 - yes) - (1.0 - oracle_yes)))),
        )
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(f"criterion 1 PASS: 1000 potential sets, max abs err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_exponential_family_gradient_identity():
    """dlogZ/dE[t, y] equals the posterior marginal P(z_t = y | x)."""
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        e = rng.uniform(-5, 5, size=(n, 2))
        head = crf.CrfHeadParams(
            w_emit=Tensor(np.zeros((2, 2))), b_emit=Tensor(np.zeros(2)),
            trans=Tensor(rng.uniform(-5, 5, size=(2, 2))),
            start=Tensor(rng.uniform(-5, 5, size=2)),
            end=Tensor(rng.uniform(-5, 5, size=2)),
        )
        et = Tensor(e, requires_grad=True, name="e")
        with Tape() as tape:
            tape.backward(log_partition(et, head))
        yes = ad.crf_marginals(Tensor(e), head.trans, head.start, head.end).numpy()
        err = max(
            float(np.max(np.abs(et.grad[:, crf.YES] - yes))),
            float(np.max(np.abs(et.grad[:, crf.NO] - (1.0 - yes)))),
        )
        worst = max(worst, err)
        assert err <= 1e-8
    report(f"criterion 2 PASS: 100 instances, max abs err {worst:.2e}")


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_end_to_end_gradient_check():
    """Finite differences over every parameter of the full loss.

    Two heads, five tokens, hidden size 4. Hidden size 4 sits outside the
    configurable domain, so the parameters are assembled directly and the
    config only supplies behavior flags (decay on, no ablations). Dropout is
    off because the loss is built in eval mode.
    """
    rng = np.random.default_rng(20240819)
    H, d_word, d_as, vocab_size = 4, 6, 3, 9
    d_in = d_word + d_as
    layers = [encoder.GruLayerParams(
        forward=encoder.init_gru_direction(d_in, H, rng, "gru.l0.fwd"),
        backward=encoder.init_gru_direction(d_in, H, rng, "gru.l0.bwd"),
    )]
    heads = [crf.init_crf_head(2 * H, rng, f"head{k}") for k in range(2)]
    for head in heads:  # non-trivial structure potentials
        head.trans.data[...] = rng.uniform(-0.5, 0.5, size=(2, 2))
        head.start.data[...] = rng.uniform(-0.5, 0.5, size=2)
        head.end.data[...] = rng.uniform(-0.5, 0.5, size=2)
    params = ModelParams(
        embedding=Tensor(rng.uniform(-0.5, 0.5, size=(vocab_size, d_word)),
                         requires_grad=True, name="embedding"),
        indicator=Tensor(rng.uniform(-0.5, 0.5, size=(2, d_as)),
                         requires_grad=True, name="indicator"),
        gru_layers=layers,
        heads=heads,
        cls=init_classifier(2 * 2 * H, rng),
    )
    cfg = RunConfig(hidden_size=32, gamma=2, crf_heads=2)
    inst = AspectInstance((2, 3, 4, 5, 6), 1, 2, "negative", "fixture")

    started = time.perf_counter()
    tensors = list(params.named_tensors().values())
    check = grad_check(
        lambda: batch_loss(params, [inst], cfg, max_len=8),
        tensors,
        tolerance=1e-4,
    )
    elapsed = time.perf_counter() - started
    assert check.passed, check.failures
    assert check.max_rel_error < 1e-4
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    report(
        f"criterion 3 PASS: {check.num_coordinates} coordinates, "
        f"max rel err {check.max_rel_error:.2e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_decay_unit_suite():
    """Hand-computed factors, the in-span branch, and gamma monotonicity."""
    spec = encoder.DecaySpec(gamma=2, max_len=10)
    assert encoder.decay_weight(3, 4, 5, spec) == 0.81  # d=1: (9/10)^2
    npt.assert_allclose(encoder.decay_weight(2, 4, 5, spec), 0.64, rtol=0, atol=1e-12)
    for t in (4, 5):
        assert encoder.decay_weight(t, 4, 5, spec) == 1.0

    rng = np.random.default_rng(20240820)
    checked = 0
    for _ in range(1000):
        L = int(rng.integers(2, 41))
        i = int(rng.integers(0, L))
        j = int(rng.integers(i, L))
        t = int(rng.integers(0, L))
        gamma = int(rng.integers(0, 6))
        lo = encoder.decay_weight(t, i, j, encoder.DecaySpec(gamma=gamma, max_len=L))
        hi = encoder.decay_weight(t, i, j, encoder.DecaySpec(gamma=gamma + 1, max_len=L))
        assert 0.0 < hi <= lo + 1e-12 <= 1.0 + 1e-12
        if i <= t <= j:
            assert lo == hi == 1.0
        checked += 1
    report(f"criterion 4 PASS: hand values exact, {checked} monotonicity draws")


# ------------------------------------------------- synthetic corpus fixtures
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    train_path = root / "train.jsonl"
    test_path = root / "test.jsonl"
    write_jsonl(train_path, generate_records(
        SYN_TRAIN_SIZE, np.random.default_rng(SYN_TRAIN_SEED),
        min_clauses=SYN_TRAIN_CLAUSES[0], max_clauses=SYN_TRAIN_CLAUSES[1]))
    write_jsonl(test_path, generate_records(
        SYN_TEST_SIZE, np.random.default_rng(SYN_TEST_SEED),
        min_clauses=SYN_TEST_CLAUSES[0], max_clauses=SYN_TEST_CLAUSES[1]))
    train_instances, vocab, _ = parse_corpus(train_path)
    test_instances, _, dropped = parse_corpus(test_path, vocab=vocab, grow_vocab=False)
    assert len(test_instances) == SYN_TEST_SIZE and dropped.kept == SYN_TEST_SIZE
    train_set, dev_set = split_train_dev(train_instances, seed=0)
    return SimpleNamespace(
        root=root,
        train_set=train_set,
        dev_set=dev_set,
        test_set=test_instances,
        vocab=vocab,
        max_len=corpus_max_len(train_set, dev_set, test_instances),
    )


@pytest.fixture(scope="module")
def full_run(corpus):
    """The frozen SYN_CONFIG training run, with its CPU and wall seconds."""
    config = RunConfig(**SYN_CONFIG)
    cpu_started, wall_started = time.process_time(), time.perf_counter()
    result = train(config, corpus.train_set, corpus.dev_set, corpus.vocab,
                   max_len=corpus.max_len)
    seconds = SimpleNamespace(cpu=time.process_time() - cpu_started,
                              wall=time.perf_counter() - wall_started)
    return result, seconds


def marginal_separation(params, config, instances, max_len) -> float:
    """Mean Yes-marginal on the true opinion token minus the mean over all
    other non-aspect tokens, averaged over heads and instances."""
    on_opinion: list[float] = []
    elsewhere: list[float] = []
    for inst in instances:
        pred = predict_instance(params, inst, config, max_len)
        per_token = np.mean(pred.head_marginals, axis=0)
        opinion_idx = inst.aspect_end + 2  # generator places it two right of the span
        for t in range(len(inst.token_ids)):
            if inst.aspect_start <= t <= inst.aspect_end:
                continue
            (on_opinion if t == opinion_idx else elsewhere).append(float(per_token[t]))
    return float(np.mean(on_opinion) - np.mean(elsewhere))


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_synthetic_learnability(corpus, full_run):
    """>= 0.95 test accuracy within 30 epochs and 2 CPU minutes, and the
    attention marginals single out the true opinion token by >= 0.2."""
    result, seconds = full_run
    assert result.config.max_epochs == 30 and result.epochs_run <= 30
    accuracy, _, _ = evaluate(result.params, corpus.test_set, result.config, result.max_len)
    separation = marginal_separation(result.params, result.config, corpus.test_set, result.max_len)
    assert seconds.cpu < 120.0, f"training took {seconds.cpu:.0f} CPU s ({seconds.wall:.0f}s wall)"
    assert accuracy >= 0.95
    assert separation >= 0.2
    report(
        f"criterion 5 PASS: accuracy {accuracy:.4f} in {result.epochs_run} epochs "
        f"({seconds.cpu:.0f} CPU s, {seconds.wall:.0f}s wall), marginal separation {separation:.3f}"
    )


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_ablation_ordering(corpus, full_run):
    """Structured attention must beat mean pooling on the held-out corpus,
    and no_decay must be bit-identical to gamma = 0 under equal seeds."""
    full_result, _ = full_run
    full_acc, _, _ = evaluate(full_result.params, corpus.test_set,
                              full_result.config, full_result.max_len)
    ablated_config = RunConfig(**{**SYN_CONFIG, "no_structured_attention": True})
    ablated = train(ablated_config, corpus.train_set, corpus.dev_set, corpus.vocab,
                    max_len=corpus.max_len)
    ablated_acc, _, _ = evaluate(ablated.params, corpus.test_set,
                                 ablated_config, ablated.max_len)
    assert full_acc > ablated_acc, (full_acc, ablated_acc)

    short = dict(SYN_CONFIG, max_epochs=2, patience=2)
    runs = []
    logs = []
    for overrides in ({"no_decay": True}, {"gamma": 0}):
        stream = io.StringIO()
        runs.append(train(RunConfig(**{**short, **overrides}),
                          corpus.train_set, corpus.dev_set, corpus.vocab,
                          max_len=corpus.max_len, clock=fake_clock(), log_stream=stream))
        logs.append(stream.getvalue())
    assert logs[0] == logs[1]
    named_a = runs[0].params.named_tensors()
    named_b = runs[1].params.named_tensors()
    assert named_a.keys() == named_b.keys()
    for name in named_a:
        assert named_a[name].data.tobytes() == named_b[name].data.tobytes(), name
    report(
        f"criterion 6 PASS: full {full_acc:.4f} > mean-pool {ablated_acc:.4f} "
        f"(+{full_acc - ablated_acc:.4f}); no_decay == gamma-0 bitwise"
    )


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_restaurants_benchmark():
    """Label statistics and accuracy on the restaurants corpus, when present."""
    train_xml = next((p for p in (DATA_DIR / "Restaurants_Train.xml",
                                  DATA_DIR / "Restaurants_Train_v2.xml") if p.exists()), None)
    test_xml = DATA_DIR / "Restaurants_Test_Gold.xml"
    vectors = sorted(DATA_DIR.glob("glove*.txt"))
    if train_xml is None or not test_xml.exists() or not vectors:
        pytest.skip(f"restaurants corpus or embeddings not present under {DATA_DIR}")

    started = time.perf_counter()
    train_instances, vocab, _ = parse_corpus(train_xml)
    test_instances, _, _ = parse_corpus(test_xml, vocab=vocab, grow_vocab=False)
    counts = label_counts(test_instances)
    assert counts == {"positive": 728, "negative": 196, "neutral": 196}, counts

    embeddings = load_embeddings(vectors[0], vocab, np.random.default_rng(0), dim=300)
    train_set, dev_set = split_train_dev(train_instances, seed=0)
    max_len = corpus_max_len(train_set, dev_set, test_instances)
    base = RunConfig(hidden_size=64, batch_size=64, dropout=0.5, crf_heads=4,
                     lr=0.008, max_epochs=100, patience=10, seed=0,
                     embedding_dim=300)
    results = {gamma: train(base.replace(gamma=gamma), train_set, dev_set, vocab,
                            embeddings=embeddings, max_len=max_len)
               for gamma in (1, 2, 3)}
    best_gamma = max(results, key=lambda g: (results[g].dev_accuracy,
                                             results[g].dev_macro_f1, -g))
    best = results[best_gamma]
    accuracy, macro_f1, _ = evaluate(best.params, test_instances, best.config, max_len)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"benchmark took {elapsed:.0f}s"
    assert accuracy >= 0.790, accuracy
    report(
        f"criterion 7 PASS: gamma {best_gamma}, accuracy {accuracy:.4f}, "
        f"macro-F1 {macro_f1:.4f} (reported, not gated), {elapsed:.0f}s"
    )


# ------------------------------------------------------- determinism fixture
@pytest.fixture(scope="module")
def twin_runs(corpus):
    """Two trainings from one config and seed, with deterministic clocks."""
    config = RunConfig(**dict(SYN_CONFIG, max_epochs=2, patience=2))
    out = []
    for _ in range(2):
        stream = io.StringIO()
        result = train(config, corpus.train_set, corpus.dev_set, corpus.vocab,
                       max_len=corpus.max_len, clock=fake_clock(), log_stream=stream)
        meta = build_meta(result.max_len, result.dev_accuracy, result.dev_macro_f1,
                          result.best_epoch, corpus.vocab, result.params.pretrained_mask)
        blob = serialize(result.params, config, corpus.vocab, meta)
        out.append(SimpleNamespace(result=result, log=stream.getvalue(),
                                   meta=meta, blob=blob))
    return out


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_run_determinism(twin_runs):
    """Identical config and seed give byte-identical logs and checkpoints."""
    first, second = twin_runs
    assert first.log.encode() == second.log.encode()
    assert first.blob == second.blob
    assert len(first.log.splitlines()) == first.result.epochs_run
    report(
        f"criterion 8 PASS: {first.result.epochs_run} epoch lines and "
        f"{len(first.blob)} checkpoint bytes identical across runs"
    )


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_checkpoint_roundtrip(corpus, twin_runs, tmp_path):
    """Save, load, and forward: logits reproduce bit for bit."""
    source = twin_runs[0]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, source.result.params, source.result.config,
                    corpus.vocab, source.meta)
    loaded = load_checkpoint(path)
    assert loaded.meta == source.meta
    checked = 0
    for inst in corpus.test_set[:10]:
        before = forward(source.result.params, inst, source.result.config,
                         source.result.max_len).logits.numpy()
        after = forward(loaded.params, inst, loaded.config,
                        loaded.meta["max_sentence_len"]).logits.numpy()
        npt.assert_array_equal(before, after)
        checked += 1
    report(f"criterion 9 PASS: {checked} forwards bit-identical after reload")
