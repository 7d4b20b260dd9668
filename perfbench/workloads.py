"""The benchmark's workloads: set-up, measured phases and output checks.

Every workload runs the same sequence in one process, one caller, closed
loop:

1. set-up, repeated ``SETUP_REPS`` times (median reported): generate and
   write the corpus, parse it, load embeddings, ``init_params``, save and
   reload a checkpoint of that model;
2. warm-up (excluded from every timing);
3. train: one ``training.train`` call of a fixed number of epochs, with
   patience above the epoch count so early stopping never fires;
4. eval: whole ``model.evaluate`` passes over the eval set with the reloaded
   checkpoint, at least ``EVAL_MIN_INSTANCES`` instances;
5. explain: single-instance ``model.predict_instance`` requests cycling over
   the eval set, as ``aspectcrf explain`` serves them: at least
   ``EXPLAIN_MIN_REQUESTS`` (10 repeats of every eval sentence or more), then
   more until ``--seconds`` have passed since the train phase began;
6. output checks, untimed.

A traced run does only the minimum work, so its counts repeat exactly for a
given seed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from aspectcrf import checkpoint, crf, data, encoder, model, synthetic, training
from aspectcrf.config import RunConfig
from aspectcrf.data import AspectInstance, EmbeddingMatrix, Vocabulary

import review_corpus
import stats
from speed import Speed
from tracing import TRACED, Tracer, traced_name

SETUP_REPS = 3
EVAL_MIN_INSTANCES = 300
EXPLAIN_MIN_REQUESTS = 1500  # leaves 15 samples beyond p99
WARMUP_TRAIN, WARMUP_DEV = 8, 4
RELOAD_CHECKED = 8
ORACLE_INSTANCES = 6
ORACLE_TOLERANCE = 1e-9
PROBABILITY_SUM_TOLERANCE = 1e-12
END_TO_END = ("setup_s", "epoch_s", "train_inst_per_s", "eval_inst_per_s", "explain_ms_p50",
              "explain_ms_tail", "peak_rss_mb")

# the acceptance suite's SYN_CONFIG, with the benchmark's epoch count
SYN_CONFIG = RunConfig(
    hidden_size=32, batch_size=64, dropout=0.3, d_as=50, gamma=1, gru_layers=1,
    crf_heads=2, lr=0.008, max_epochs=2, patience=3, embedding_dim=50,
)
# the README's restaurants configuration
REVIEW_CONFIG = RunConfig(
    hidden_size=64, batch_size=64, dropout=0.5, d_as=50, gamma=2, gru_layers=1,
    crf_heads=4, lr=0.008, max_epochs=2, patience=3, embedding_dim=300,
)

SYN_CORPUS_SEED = 11
SYN_INSTANCES = 500
SYN_CLAUSES = (2, 3)
LONG_CLAUSES = (8, 10)
LONG_TRAIN, LONG_DEV, LONG_TEST, LONG_POOL = 32, 16, 150, 1000


@dataclass
class Corpus:
    train: list[AspectInstance]
    dev: list[AspectInstance]
    eval: list[AspectInstance]
    vocab: Vocabulary
    embeddings: EmbeddingMatrix | None
    max_len: int  # decay reference length, frozen into the checkpoint
    parsed: list[AspectInstance]  # the corpus the vocabulary came from, for the shape report


def stratified(instances: list[AspectInstance], k: int) -> list[AspectInstance]:
    """k instances evenly spaced in length order.

    Every seed then measures nearly the same length profile, so the spread
    between seeds reflects the program, not which sentences were drawn.
    """
    order = sorted(range(len(instances)), key=lambda i: (instances[i].length, i))
    return [instances[order[int((j + 0.5) * len(order) / k)]] for j in range(k)]


def _syn_corpus(seed: int, directory: Path) -> Corpus:
    # the ROADMAP's fixed corpus: generator seed 11 whatever the run seed
    path = directory / "syn.jsonl"
    records = synthetic.generate_records(SYN_INSTANCES, np.random.default_rng(SYN_CORPUS_SEED), *SYN_CLAUSES)
    synthetic.write_jsonl(path, records)
    instances, vocab, _ = data.parse_corpus(path)
    train, dev = data.split_train_dev(instances, seed=0)
    return Corpus(train, dev, dev, vocab, None, training.corpus_max_len(train, dev), instances)


def _long_corpus(seed: int, directory: Path) -> Corpus:
    # a restaurants-scale vocabulary and vector file, served on the
    # acceptance SYN_TEST sentence shape
    corpus_path, vectors_path = review_corpus.write_review_corpus(directory, seed)
    instances, vocab, _ = data.parse_corpus(corpus_path)
    embeddings = data.load_embeddings(vectors_path, vocab, np.random.default_rng(seed),
                                      dim=review_corpus.EMBEDDING_DIM)
    path = directory / "long.jsonl"
    records = synthetic.generate_records(LONG_POOL, np.random.default_rng(seed + 1), *LONG_CLAUSES)
    synthetic.write_jsonl(path, records)
    long, _, _ = data.parse_corpus(path, vocab=vocab, grow_vocab=False)
    test = stratified(long, LONG_TEST)
    picked = {id(inst) for inst in test}
    rest = [inst for inst in long if id(inst) not in picked]
    train = stratified(rest, LONG_TRAIN)
    picked.update(id(inst) for inst in train)
    dev = stratified([inst for inst in rest if id(inst) not in picked], LONG_DEV)
    return Corpus(train, dev, test, vocab, embeddings, training.corpus_max_len(instances), instances)


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig
    corpus: Callable[[int, Path], Corpus]
    idle: frozenset[str] = frozenset()  # traced functions that do no work here


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_syn", SYN_CONFIG, _syn_corpus, idle=frozenset({"data.load_embeddings"})),
        Workload("infer_long", REVIEW_CONFIG, _long_corpus),
    )
}


@dataclass
class Prepared:
    corpus: Corpus
    config: RunConfig
    params: model.ModelParams  # in memory, before the save
    loaded: checkpoint.Loaded
    checkpoint_bytes: int


def set_up(workload: Workload, seed: int, directory: Path) -> Prepared:
    directory.mkdir(parents=True)
    config = workload.config.replace(seed=seed)
    corpus = workload.corpus(seed, directory)
    params = model.init_params(config, len(corpus.vocab), np.random.default_rng(seed), corpus.embeddings)
    meta = checkpoint.build_meta(corpus.max_len, 0.0, 0.0, 0, corpus.vocab, params.pretrained_mask)
    path = directory / "model.acrf"
    checkpoint.save_checkpoint(path, params, config, corpus.vocab, meta)
    loaded = checkpoint.load_checkpoint(path)
    return Prepared(corpus, config, params, loaded, path.stat().st_size)


class Ledger:
    """Operations attempted and failed; a raised exception is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def attempt(self, what: str):
        problems: list[str] = []
        self.attempted += 1
        try:
            yield problems
        except Exception:  # the benchmark keeps running and counts the failure
            problems.append(traceback.format_exc(limit=4))
        if problems:
            self.failed += 1
            print(f"failed: {what}: {'; '.join(problems)}", file=sys.stderr)


@contextlib.contextmanager
def dev_evaluation_intervals(clock: Callable[[], float]):
    """(start, end) of each dev evaluation inside ``training.train``, one per epoch."""
    original = training.evaluate
    intervals: list[tuple[float, float]] = []

    def timed(*args, **kwargs):
        started = clock()
        try:
            return original(*args, **kwargs)
        finally:
            intervals.append((started, clock()))

    training.evaluate = timed
    try:
        yield intervals
    finally:
        training.evaluate = original


class EpochLog:
    """``log_stream`` for ``training.train``: each epoch record with its end time."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.records: list[tuple[float, dict]] = []

    def write(self, line: str) -> None:
        self.records.append((self.clock(), json.loads(line)))


def _prediction_problems(pred) -> list[str]:
    problems = []
    probs = pred.probabilities
    if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)):
        problems.append(f"class probabilities outside [0, 1]: {probs}")
    if abs(float(probs.sum()) - 1.0) > PROBABILITY_SUM_TOLERANCE:
        problems.append(f"class probabilities sum to 1{float(probs.sum()) - 1.0:+.3e}")
    for k, marg in enumerate(pred.head_marginals):
        if not (np.all(marg >= 0.0) and np.all(marg <= 1.0)):
            problems.append(f"head {k} marginal outside [0, 1]: min {marg.min()!r} max {marg.max()!r}")
    return problems


def _same_prediction(a, b) -> bool:
    return np.array_equal(a.probabilities, b.probabilities) and len(a.head_marginals) == len(
        b.head_marginals
    ) and all(np.array_equal(x, y) for x, y in zip(a.head_marginals, b.head_marginals))


def _oracle_instances(vocab_size: int, rng: np.random.Generator) -> list[AspectInstance]:
    out = []
    for _ in range(ORACLE_INSTANCES):
        n = int(rng.integers(1, crf.BRUTE_FORCE_MAX_LEN + 1))
        ids = tuple(int(t) for t in rng.integers(Vocabulary.NUM_SPECIAL, vocab_size, size=n))
        first = int(rng.integers(0, n))
        last = int(rng.integers(first, n))
        out.append(AspectInstance(ids, first, last, "neutral", ""))
    return out


def _oracle_problems(params, config: RunConfig, max_len: int, inst: AspectInstance) -> list[str]:
    """Served head marginals against brute-force enumeration on recomputed emissions."""
    served = model.predict_instance(params, inst, config, max_len).head_marginals
    x = encoder.embed_input(inst.token_ids, inst.aspect_start, inst.aspect_end, params.embedding,
                            params.indicator, no_aspect_indicator=config.no_aspect_indicator)
    h = encoder.bigru_encode(x, params.gru_layers)
    r = encoder.apply_decay(h, inst.aspect_start, inst.aspect_end,
                            encoder.DecaySpec(gamma=config.effective_gamma, max_len=max_len))
    problems = []
    for k, (head, marg) in enumerate(zip(params.heads, served)):
        e = crf.emissions(r, head).data
        _, yes = crf.brute_force_oracle(e, head.trans.data, head.start.data, head.end.data)
        err = float(np.max(np.abs(marg - yes)))
        if err > ORACLE_TOLERANCE:
            problems.append(f"n={inst.length} head {k}: marginals differ from the oracle by {err:.3e}")
    return problems


@dataclass
class Outcome:
    ledger: Ledger
    metrics: dict[str, tuple[float, str]]
    info: dict


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> Outcome:
    """One run of one workload; timings are taken on the calibrated clock (see speed.py)."""
    speed = Speed()
    with speed.sampling():
        return _measure(workload, seed, seconds, trace, workdir, spans_path, speed)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
             spans_path: Path | None, speed: Speed) -> Outcome:
    ledger = Ledger()
    clock = speed.now
    tracer = Tracer(clock)
    traced = tracer if trace else contextlib.nullcontext()

    # 1. set-up
    setup = []
    with traced:
        for rep in range(SETUP_REPS):
            gc.collect()
            started = clock()
            prepared = set_up(workload, seed, workdir / f"setup{rep}")
            setup.append((started, clock()))
            if rep:
                shutil.rmtree(workdir / f"setup{rep}")
    corpus, config, loaded = prepared.corpus, prepared.config, prepared.loaded
    serve_params, serve_config, serve_len = loaded.params, loaded.config, loaded.max_len

    for k, inst in enumerate(corpus.eval[:RELOAD_CHECKED]):
        with ledger.attempt(f"checkpoint reload, eval instance {k}") as problems:
            before = model.predict_instance(prepared.params, inst, config, corpus.max_len)
            after = model.predict_instance(serve_params, inst, serve_config, serve_len)
            if not _same_prediction(before, after):
                problems.append("prediction after reload is not bit-identical to the one before the save")

    # 2. warm-up, excluded from every timing
    warm_config = config.replace(max_epochs=1, patience=1)
    warm_train, warm_dev = corpus.train[:WARMUP_TRAIN], corpus.dev[:WARMUP_DEV]

    def warm_unit() -> float:
        started = clock()
        training.train(warm_config, warm_train, warm_dev, corpus.vocab, corpus.embeddings, corpus.max_len)
        model.predict_instance(serve_params, corpus.eval[0], serve_config, serve_len)
        return speed.scaled(started, clock())

    warm_unit()
    # the harness's own objects (corpus, vocabulary) would otherwise lengthen
    # every collection the program triggers; an explain process holds none of them
    gc.collect()
    gc.freeze()
    overhead_pct = None
    if trace:
        # alternate untraced and traced units; the faster of each side damps noise
        untraced_s, traced_s = [], []
        for _ in range(2):
            untraced_s.append(warm_unit())
            with Tracer(clock):
                traced_s.append(warm_unit())
        overhead_pct = 100.0 * (min(traced_s) - min(untraced_s)) / min(untraced_s)

    # 3. train
    log = EpochLog(clock)
    last_loss = None
    gc.collect()
    measure_started = clock()
    with traced, dev_evaluation_intervals(clock) as dev_intervals, ledger.attempt("train") as problems:
        training.train(config, corpus.train, corpus.dev, corpus.vocab, corpus.embeddings,
                       max_len=corpus.max_len, clock=clock, log_stream=log)
        records = [rec for _, rec in log.records]
        if len(records) != config.max_epochs:
            problems.append(f"ran {len(records)} epochs, expected {config.max_epochs}")
        for rec in records:
            if not math.isfinite(rec["train_loss"]):
                problems.append(f"epoch {rec['epoch']} train loss {rec['train_loss']}")
        last_loss = records[-1]["train_loss"]
    epochs, train_rates, raw_epochs, raw_rates = [], [], [], []
    for (end, rec), (dev_start, dev_end) in zip(log.records, dev_intervals):
        start = end - rec["seconds"]
        epochs.append(speed.scaled(start, end))
        train_rates.append(len(corpus.train) / speed.scaled(start, dev_start))
        raw_epochs.append(rec["seconds"])
        raw_rates.append(len(corpus.train) / (dev_start - start))

    # 4. eval
    passes, eval_labels = [], []
    gc.collect()
    attempted = 0
    with traced:
        while attempted * len(corpus.eval) < EVAL_MIN_INSTANCES:
            attempted += 1
            with ledger.attempt(f"evaluate pass {attempted}") as problems:
                started = clock()
                _, _, labels = model.evaluate(serve_params, corpus.eval, serve_config, serve_len)
                passes.append((started, clock()))
                if len(labels) != len(corpus.eval):
                    problems.append(f"{len(labels)} labels for {len(corpus.eval)} instances")
                eval_labels = labels
    eval_rates = [len(corpus.eval) / speed.scaled(a, b) for a, b in passes]

    # 5. explain
    requests = []
    gc.collect()
    attempted = 0
    with traced:
        # untraced runs keep serving until --seconds of measurement have passed
        while attempted < EXPLAIN_MIN_REQUESTS or (not trace and clock() - measure_started < seconds):
            k = attempted % len(corpus.eval)
            attempted += 1
            with ledger.attempt(f"explain request {attempted}") as problems:
                with speed.held():
                    started = clock()
                    pred = model.predict_instance(serve_params, corpus.eval[k], serve_config, serve_len)
                    requests.append((started, clock(), k))
                problems.extend(_prediction_problems(pred))
                if k < len(eval_labels) and pred.label != eval_labels[k]:
                    problems.append(f"evaluate labelled eval instance {k} {eval_labels[k]}, "
                                    f"predict_instance {pred.label}")
    latency_ms = [1000.0 * speed.scaled(a, b) for a, b, _ in requests]
    # the tail metric gives each request its sentence's median over repeats:
    # host stalls hit single requests and made the plain p99 swing by up to
    # 57 % between back-to-back runs, while sentence length sets the real tail
    repeats: dict[int, list[float]] = {}
    for (_, _, k), ms in zip(requests, latency_ms):
        repeats.setdefault(k, []).append(ms)
    sentence_ms = {k: stats.median(v) for k, v in repeats.items()}
    tail_ms = [sentence_ms[k] for _, _, k in requests]

    # 6. output checks
    for k, inst in enumerate(_oracle_instances(len(corpus.vocab), np.random.default_rng(seed))):
        with ledger.attempt(f"oracle instance {k}") as problems:
            problems.extend(_oracle_problems(serve_params, serve_config, serve_len, inst))

    tail = stats.tail_level(len(latency_ms))
    raw_latency_ms = [1000.0 * (b - a) for a, b, _ in requests]
    info = {
        "workload": workload.name,
        "seed": seed,
        "config_digest": config.digest(),
        "vocab_size": len(corpus.vocab),
        "instances": {"parsed": len(corpus.parsed), "train": len(corpus.train), "dev": len(corpus.dev),
                      "eval": len(corpus.eval)},
        "length_quantiles": {name: {f"p{q}": stats.percentile([float(i.length) for i in group], q)
                                    for q in (50, 90, 99, 100)}
                             for name, group in (("corpus", corpus.parsed), ("eval", corpus.eval))},
        "embedding_coverage": None if corpus.embeddings is None else corpus.embeddings.coverage,
        "samples": {"setup": len(setup), "epochs": len(epochs),
                    "eval_passes": len(passes), "explain_requests": len(latency_ms),
                    "explain_tail_percentile": tail,
                    "explain_min_repeats": min((len(v) for v in repeats.values()), default=0)},
        "explain_ms_p99_per_request": stats.percentile(latency_ms, 99) if requests else None,
        "calibration": {"probes": len(speed.durations),
                        "probe_ms_p50": 1000.0 * stats.median(speed.durations),
                        "probe_ms_min": 1000.0 * min(speed.durations),
                        "probe_ms_max": 1000.0 * max(speed.durations)},
        "raw_wall": {"setup_s": stats.median([b - a for a, b in setup]),
                     "epoch_s": stats.median(raw_epochs) if raw_epochs else None,
                     "train_inst_per_s": stats.median(raw_rates) if raw_rates else None,
                     "eval_inst_per_s": stats.median([len(corpus.eval) / (b - a) for a, b in passes]) if passes else None,
                     "explain_ms_p50": stats.percentile(raw_latency_ms, 50) if requests else None,
                     "explain_ms_p99": stats.percentile(raw_latency_ms, 99) if requests else None},
    }

    if not trace:
        if tail is None or tail < 99:
            raise RuntimeError(f"{len(latency_ms)} explain requests cannot resolve p99")
        metrics = {
            "setup_s": (stats.median([speed.scaled(a, b) for a, b in setup]), "s"),
            "epoch_s": (stats.median(epochs), "s"),
            "train_inst_per_s": (stats.median(train_rates), "1/s"),
            "eval_inst_per_s": (stats.median(eval_rates), "1/s"),
            "explain_ms_p50": (stats.percentile(latency_ms, 50), "ms"),
            "explain_ms_tail": (stats.percentile(tail_ms, 99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if tuple(metrics) != END_TO_END:
            raise RuntimeError(f"end-to-end metrics {list(metrics)} differ from {END_TO_END}")
        return Outcome(ledger, metrics, info)

    metrics = {}
    for name, row in tracer.summary().items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.tape_entries"] = (row["tape_entries"], "entries/inst")
        if name in workload.idle:
            continue
        with ledger.attempt(f"traced calls of {name}") as problems:
            if row["calls"] == 0:
                problems.append("no calls recorded: the wrapper missed a binding or the layer did no work")
    per_inst = tracer.backward_tape_entries / tracer.taped_instances if tracer.taped_instances else 0.0
    metrics["autodiff.tape_entries_per_inst"] = (per_inst, "entries/inst")
    metrics["autodiff.nonfinite_errors"] = (tracer.nonfinite_errors, "count")
    metrics["checkpoint.bytes"] = (prepared.checkpoint_bytes, "bytes")
    ratios = tracer.batch_row_ratios
    metrics["training.embedding_rows_touched_ratio"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")
    metrics["training.train_loss_last"] = (last_loss, "nats")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    if spans_path is not None:
        tracer.write(spans_path)
    return Outcome(ledger, metrics, info)


def expected_per_layer() -> list[str]:
    names = []
    for module, attr in TRACED:
        base = traced_name(module, attr)
        names += [f"{base}.calls", f"{base}.self_s", f"{base}.tape_entries"]
    return names + ["autodiff.tape_entries_per_inst", "autodiff.nonfinite_errors", "checkpoint.bytes",
                    "training.embedding_rows_touched_ratio", "training.train_loss_last", "trace.overhead_pct"]
