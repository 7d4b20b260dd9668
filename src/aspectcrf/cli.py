"""Command-line surface: train, eval, explain, sweep, ablate, stats.

Every command is deterministic given its arguments plus the config seed.
Failures print a single ``category: message`` line to stderr and exit
nonzero; nothing is partially written (the checkpoint and the epoch log of
``train`` are written to temporary files and moved into place only after
training finishes).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, build_meta, load_checkpoint, serialize
from .config import ConfigError, RunConfig
from .data import (
    AspectInstance,
    CorpusFormatError,
    EmbeddingMatrix,
    Vocabulary,
    char_span_to_token_span,
    label_counts,
    load_embeddings,
    parse_corpus,
    split_train_dev,
    tokenize,
)
from .model import evaluate, predict_instance
from .training import TrainingError, corpus_max_len, train

REPORT_HEADER = "dataset\taccuracy\tmacro_f1\tconfig\tseed"

ABLATION_FLAGS = {
    "indicator": "no_aspect_indicator",
    "decay": "no_decay",
    "attention": "no_structured_attention",
}


def format_report_row(dataset: str, accuracy: float, macro_f1: float, digest: str, seed: int) -> str:
    """One result line at the usual two-decimal percent precision."""
    return f"{dataset}\t{100 * accuracy:.2f}\t{100 * macro_f1:.2f}\t{digest}\t{seed}"


def _load_training_data(cfg: RunConfig):
    """Parse the train corpus, split off dev, and work out the decay length L.

    L covers every corpus named in the config (test included when given,
    since the decay reference is the longest sentence anywhere); the
    vocabulary grows from the training corpus only.
    """
    if not cfg.train_path:
        raise ConfigError("train_path: required")
    instances, vocab, report = parse_corpus(cfg.train_path)
    if not instances:
        raise CorpusFormatError(f"{cfg.train_path}: no usable instances")
    train_set, dev_set = split_train_dev(instances, cfg.seed)
    test_set: list[AspectInstance] = []
    if cfg.test_path:
        test_set, _, _ = parse_corpus(cfg.test_path, vocab=vocab, grow_vocab=False)
    max_len = corpus_max_len(train_set, dev_set, test_set)
    embeddings: EmbeddingMatrix | None = None
    if cfg.embeddings_path:
        embeddings = load_embeddings(
            cfg.embeddings_path, vocab, np.random.default_rng(cfg.seed), dim=cfg.embedding_dim
        )
    return train_set, dev_set, test_set, vocab, max_len, embeddings, report


def _train_once(cfg: RunConfig, log_path: Path | None):
    data = _load_training_data(cfg)
    train_set, dev_set, test_set, vocab, max_len, embeddings, report = data
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as stream:
            result = train(cfg, train_set, dev_set, vocab, embeddings, max_len, log_stream=stream)
    else:
        result = train(cfg, train_set, dev_set, vocab, embeddings, max_len)
    return result, test_set, report


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_name(out.name + ".log.jsonl")
    if log_path.resolve() == out.resolve():
        raise ConfigError(f"--log and --out both name {out}")
    for target in (out, log_path):
        if target.is_dir():  # a file cannot replace it; fail before training
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    # both files are written beside their targets and moved into place after
    # training, log first: a run that fails leaves neither, and one whose log
    # cannot be placed keeps any older checkpoint
    log_tmp = log_path.with_name(log_path.name + ".tmp")
    out_tmp = out.with_name(out.name + ".tmp")
    try:
        result, _, report = _train_once(cfg, log_tmp)
        meta = build_meta(
            result.max_len,
            result.dev_accuracy,
            result.dev_macro_f1,
            result.best_epoch,
            result.vocab,
            result.params.pretrained_mask,
        )
        out_tmp.write_bytes(serialize(result.params, cfg, result.vocab, meta))
        os.replace(log_tmp, log_path)
        os.replace(out_tmp, out)
    except BaseException:
        log_tmp.unlink(missing_ok=True)
        out_tmp.unlink(missing_ok=True)
        raise
    print(f"# {report}")
    print(f"# best epoch {result.best_epoch} of {result.epochs_run}; checkpoint {out}; log {log_path}")
    print(REPORT_HEADER)
    print(format_report_row("dev", result.dev_accuracy, result.dev_macro_f1, cfg.digest(), cfg.seed))
    return 0


def cmd_eval(args) -> int:
    loaded = load_checkpoint(args.ckpt)
    instances, _, _ = parse_corpus(args.test, vocab=loaded.vocab, grow_vocab=False)
    if not instances:
        raise CorpusFormatError(f"{args.test}: no evaluable instances")
    accuracy, macro_f1, _ = evaluate(loaded.params, instances, loaded.config, loaded.max_len)
    print(REPORT_HEADER)
    print(
        format_report_row(
            Path(args.test).stem, accuracy, macro_f1, loaded.config.digest(), loaded.config.seed
        )
    )
    return 0


def cmd_explain(args) -> int:
    loaded = load_checkpoint(args.ckpt)
    try:
        start_s, end_s = args.aspect.split(",")
        char_start, char_end = int(start_s), int(end_s)
    except ValueError as exc:
        raise ConfigError(f"--aspect must be START,END character offsets: {exc}") from exc
    if not 0 <= char_start < char_end:
        raise ConfigError(f"--aspect needs 0 <= START < END, got {char_start},{char_end}")
    tokens, spans = tokenize(args.text)
    if not tokens:
        raise CorpusFormatError("text produced no tokens")
    span = char_span_to_token_span(spans, char_start, char_end)
    if span is None:
        raise CorpusFormatError(
            f"aspect characters [{char_start}, {char_end}) align with no token"
        )
    if char_end > len(args.text):
        raise ConfigError(f"--aspect END {char_end} runs past the {len(args.text)}-character text")
    ids = tuple(loaded.vocab.lookup(t) for t in tokens)
    # label placeholder; prediction ignores it
    instance = AspectInstance(ids, span[0], span[1], "neutral", args.text)
    pred = predict_instance(loaded.params, instance, loaded.config, loaded.max_len)
    marginal_rows = pred.head_marginals or []
    print("head\t" + "\t".join(tokens))
    for k, row in enumerate(marginal_rows):
        print(f"h{k}\t" + "\t".join(f"{v:.6f}" for v in row))
    record = {
        "tokens": tokens,
        "aspect_span": [span[0], span[1]],
        "per_head_marginals": [row.tolist() for row in marginal_rows],
        "predicted": pred.label,
        "probabilities": pred.probabilities.tolist(),
    }
    print(json.dumps(record))
    print(f"predicted: {pred.label}")
    return 0


def cmd_sweep(args) -> int:
    cfg = RunConfig.from_file(args.config)
    try:
        head_counts = [int(v) for v in args.heads.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--heads must be a comma list of integers: {exc}") from exc
    if not head_counts:
        raise ConfigError("--heads: empty list")
    run_cfgs = [cfg.replace(crf_heads=count) for count in head_counts]  # validates every count before training
    print("heads\tdev_accuracy\tdev_macro_f1\ttest_accuracy\ttest_macro_f1")
    for run_cfg in run_cfgs:
        result, test_set, _ = _train_once(run_cfg, None)
        if test_set:
            test_acc, test_f1, _ = evaluate(result.params, test_set, run_cfg, result.max_len)
            tail = f"{100 * test_acc:.2f}\t{100 * test_f1:.2f}"
        else:
            tail = "-\t-"
        print(f"{run_cfg.crf_heads}\t{100 * result.dev_accuracy:.2f}\t{100 * result.dev_macro_f1:.2f}\t{tail}")
    return 0


def cmd_ablate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    field = ABLATION_FLAGS[args.flag]
    run_cfg = cfg.replace(**{field: True})  # config validation rejects double flags
    result, test_set, _ = _train_once(run_cfg, None)
    print(REPORT_HEADER)
    print(
        format_report_row(
            f"dev[-{args.flag}]", result.dev_accuracy, result.dev_macro_f1,
            run_cfg.digest(), run_cfg.seed,
        )
    )
    if test_set:
        test_acc, test_f1, _ = evaluate(result.params, test_set, run_cfg, result.max_len)
        print(
            format_report_row(
                f"test[-{args.flag}]", test_acc, test_f1, run_cfg.digest(), run_cfg.seed
            )
        )
    return 0


def cmd_stats(args) -> int:
    # every corpus parses before anything prints, so a bad one leaves stdout empty
    parsed = [(path, *parse_corpus(path, vocab=Vocabulary())) for path in args.paths]
    print("corpus\tpositive\tneutral\tnegative\tdropped_conflict\tdropped_unaligned")
    for path, instances, _, report in parsed:
        counts = label_counts(instances)
        print(
            f"{path}\t{counts['positive']}\t{counts['neutral']}\t{counts['negative']}"
            f"\t{report.dropped_conflict}\t{report.dropped_unaligned}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspectcrf",
        description="aspect sentiment classification with CRF structured attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default="model.acrf", help="checkpoint output path")
    p.add_argument("--log", default=None, help="epoch log path (default: <out>.log.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="per-head opinion marginals for one sentence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--aspect", required=True, metavar="START,END", help="aspect character span")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("sweep", help="train once per CRF head count")
    p.add_argument("--config", required=True)
    p.add_argument("--heads", required=True, help="comma list, e.g. 1,2,4,8")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="train with one component removed")
    p.add_argument("--config", required=True)
    p.add_argument("--flag", required=True, choices=sorted(ABLATION_FLAGS))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("stats", help="per-corpus polarity counts after filtering")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_stats)

    return parser


_ERROR_CATEGORIES = [
    (ConfigError, "config-error"),
    (CorpusFormatError, "corpus-error"),
    (CheckpointError, "checkpoint-error"),
    (TrainingError, "training-error"),
    (OSError, "path-error"),  # missing files, directories, paths under a regular file
]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(e for e, _ in _ERROR_CATEGORIES) as exc:
        for etype, category in _ERROR_CATEGORIES:
            if isinstance(exc, etype):
                print(f"{category}: {exc}", file=sys.stderr)
                break
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
