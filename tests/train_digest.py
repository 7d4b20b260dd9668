"""Bit-identity probe: sha256 of the checkpoint, log, parameters and served outputs of two short trainings.

Run from the repository root:

    PYTHONPATH=src python tests/train_digest.py

Each run trains ``SYN_CONFIG`` from ``test_acceptance`` for 3 epochs, once as
it is, once with ``gru_layers=2`` and once with 2000 extra vocabulary words
that no sentence holds, on the acceptance training corpus (generator seed 11,
500 instances, clauses (2, 3)). The extra words make the embedding table
mostly rows no batch touches, as in a real vocabulary, so that run goes
through Adam's live-row path. The corpus is split with
``split_train_dev`` at the config seed, the decay length is taken from train
plus dev, and the fake clock makes the log reproducible. The tensors digest covers each
``named_tensors()`` name and its float64 bytes, so it stays put when only the
checkpoint's config block changes. The served digest covers the float64 bytes
of ``predict_instance``'s probabilities and head marginals for every dev
instance, so a change to the serving path shows as its own pair. Two trees
that train and serve the same bits print the same twelve lines; pytest does not
collect this file.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import (  # noqa: E402
    SYN_CONFIG,
    SYN_TRAIN_CLAUSES,
    SYN_TRAIN_SEED,
    SYN_TRAIN_SIZE,
    fake_clock,
)

from aspectcrf.checkpoint import build_meta, serialize  # noqa: E402
from aspectcrf.config import RunConfig  # noqa: E402
from aspectcrf.data import parse_corpus, split_train_dev  # noqa: E402
from aspectcrf.model import predict_instance  # noqa: E402
from aspectcrf.synthetic import generate_records, write_jsonl  # noqa: E402
from aspectcrf.training import train  # noqa: E402

# name -> (config overrides, number of unseen words added to the vocabulary)
RUNS = {
    "syn": (dict(SYN_CONFIG, max_epochs=3), 0),
    "syn_2layer": (dict(SYN_CONFIG, max_epochs=3, gru_layers=2), 0),
    "syn_unseen": (dict(SYN_CONFIG, max_epochs=3), 2000),
}


def tensors_digest(named: dict) -> str:
    h = hashlib.sha256()
    for name, tensor in named.items():
        h.update(name.encode("utf-8") + b"\0")
        h.update(tensor.data.astype("<f8").tobytes())
    return h.hexdigest()


def served_digest(result, dev_set) -> str:
    h = hashlib.sha256()
    for inst in dev_set:
        pred = predict_instance(result.params, inst, result.config, result.max_len)
        for values in (pred.probabilities, *pred.head_marginals):
            h.update(values.astype("<f8").tobytes())
    return h.hexdigest()


def digests(overrides: dict, unseen: int, corpus_path: Path) -> tuple[str, str, str, str]:
    config = RunConfig(**overrides)
    instances, vocab, _ = parse_corpus(corpus_path)
    for k in range(unseen):
        vocab.add(f"unseen{k}")
    train_set, dev_set = split_train_dev(instances, seed=config.seed)
    log = io.StringIO()
    result = train(config, train_set, dev_set, vocab, clock=fake_clock(), log_stream=log)
    meta = build_meta(result.max_len, result.dev_accuracy, result.dev_macro_f1,
                      result.best_epoch, vocab, result.params.pretrained_mask)
    blob = serialize(result.params, config, vocab, meta)
    return (
        hashlib.sha256(blob).hexdigest(),
        hashlib.sha256(log.getvalue().encode()).hexdigest(),
        tensors_digest(result.params.named_tensors()),
        served_digest(result, dev_set),
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "train.jsonl"
        write_jsonl(corpus_path, generate_records(
            SYN_TRAIN_SIZE, np.random.default_rng(SYN_TRAIN_SEED),
            min_clauses=SYN_TRAIN_CLAUSES[0], max_clauses=SYN_TRAIN_CLAUSES[1]))
        for name, (overrides, unseen) in RUNS.items():
            ckpt, log, tensors, served = digests(overrides, unseen, corpus_path)
            print(f"{name} checkpoint {ckpt}")
            print(f"{name} log {log}")
            print(f"{name} tensors {tensors}")
            print(f"{name} served {served}")


if __name__ == "__main__":
    main()
