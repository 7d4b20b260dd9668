"""Bit-identity probe: sha256 of the checkpoint and the JSONL log of two short trainings.

Run from the repository root:

    PYTHONPATH=src python tests/train_digest.py

Each run trains ``SYN_CONFIG`` from ``test_acceptance`` for 3 epochs, once as
it is and once with ``gru_layers=2``, on the acceptance training corpus
(generator seed 11, 500 instances, clauses (2, 3)). The corpus is split with
``split_train_dev`` at the config seed, the decay length is taken from train
plus dev, and the fake clock makes the log reproducible. Two trees that train
the same bits print the same four lines; pytest does not collect this file.
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
from aspectcrf.synthetic import generate_records, write_jsonl  # noqa: E402
from aspectcrf.training import train  # noqa: E402

RUNS = {
    "syn": dict(SYN_CONFIG, max_epochs=3),
    "syn_2layer": dict(SYN_CONFIG, max_epochs=3, gru_layers=2),
}


def digests(overrides: dict, corpus_path: Path) -> tuple[str, str]:
    config = RunConfig(**overrides)
    instances, vocab, _ = parse_corpus(corpus_path)
    train_set, dev_set = split_train_dev(instances, seed=config.seed)
    log = io.StringIO()
    result = train(config, train_set, dev_set, vocab, clock=fake_clock(), log_stream=log)
    meta = build_meta(result.max_len, result.dev_accuracy, result.dev_macro_f1,
                      result.best_epoch, vocab, result.params.pretrained_mask)
    blob = serialize(result.params, config, vocab, meta)
    return hashlib.sha256(blob).hexdigest(), hashlib.sha256(log.getvalue().encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "train.jsonl"
        write_jsonl(corpus_path, generate_records(
            SYN_TRAIN_SIZE, np.random.default_rng(SYN_TRAIN_SEED),
            min_clauses=SYN_TRAIN_CLAUSES[0], max_clauses=SYN_TRAIN_CLAUSES[1]))
        for name, overrides in RUNS.items():
            ckpt, log = digests(overrides, corpus_path)
            print(f"{name} checkpoint {ckpt}")
            print(f"{name} log {log}")


if __name__ == "__main__":
    main()
