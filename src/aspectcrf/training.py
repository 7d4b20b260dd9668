"""Mini-batch Adam training with dev-set model selection.

Determinism contract: given (config, corpus), every run consumes one RNG
stream seeded from config.seed in a fixed order (parameter init, then per
epoch the shuffle followed by dropout draws), so two identical runs produce
identical parameters, logs, and checkpoints. Wall-clock seconds in the epoch
log come from an injectable clock; pass a fake clock to make logs
byte-reproducible.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Callable, IO

import numpy as np

from .autodiff import NonFiniteError, Tape
from . import autodiff as ad
from .config import RunConfig
from .data import AspectInstance, EmbeddingMatrix, Vocabulary
from .model import ModelParams, batch_loss, evaluate, init_params

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or empty split)."""


class AdamState:
    """First/second moment estimates per parameter, plus the step counter."""

    def __init__(self, named: dict[str, ad.Tensor]):
        self.m = {name: np.zeros_like(t.data) for name, t in named.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in named.items()}
        self.step = 0


def adam_step(named: dict[str, ad.Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; tensors without a gradient see g = 0.

    Per tensor this is m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    data -= lr (m / bc1) / (sqrt(v / bc2) + eps), evaluated in that order
    into two scratch arrays, so no other full-size temporary is made.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, tensor in named.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        step = g * (1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += step
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v *= ADAM_BETA2
        v += step
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, bc1, out=step)
        step *= lr
        step /= denom
        tensor.data -= step


def clip_global_norm(named: dict[str, ad.Tensor]) -> tuple[float, bool]:
    """Scale all gradients so their joint L2 norm is at most GRAD_CLIP_NORM."""
    total = 0.0
    for t in named.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = float(np.sqrt(total))
    if norm <= GRAD_CLIP_NORM or norm == 0.0:
        return norm, False
    scale = GRAD_CLIP_NORM / norm
    for t in named.values():
        if t.grad is not None:
            t.grad *= scale
    return norm, True


@dataclass
class TrainResult:
    params: ModelParams
    config: RunConfig
    vocab: Vocabulary
    max_len: int
    log_records: list[dict]
    best_epoch: int
    dev_accuracy: float
    dev_macro_f1: float
    epochs_run: int = 0
    clip_events: int = 0


def _snapshot(named: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in named.items()}


def _restore(named: dict[str, ad.Tensor], snap: dict[str, np.ndarray]) -> None:
    for name, t in named.items():
        t.data = snap[name].copy()


def corpus_max_len(*instance_lists: list[AspectInstance]) -> int:
    longest = 0
    for instances in instance_lists:
        for inst in instances:
            longest = max(longest, inst.length)
    return longest


def train(
    config: RunConfig,
    train_set: list[AspectInstance],
    dev_set: list[AspectInstance],
    vocab: Vocabulary,
    embeddings: EmbeddingMatrix | None = None,
    max_len: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
    log_stream: IO[str] | None = None,
) -> TrainResult:
    """Adam on mean per-batch NLL; keeps the best-dev parameters.

    ``max_len`` is the decay reference length L; when omitted it is the
    longest sentence across the given splits. Each epoch appends one JSON
    line {epoch, train_loss, dev_acc, dev_f1, seconds} to ``log_stream``.
    """
    if not train_set or not dev_set:
        raise TrainingError("train and dev splits must be non-empty")
    rng = np.random.default_rng(config.seed)
    params = init_params(config, len(vocab), rng, embeddings)
    named = params.named_tensors()
    trainable = params.trainable_tensors()
    state = AdamState(trainable)
    length = max_len if max_len is not None else corpus_max_len(train_set, dev_set)

    records: list[dict] = []
    best_metric = -1.0
    best_epoch = 0
    best_acc = best_f1 = 0.0
    best_params = _snapshot(named)
    stale = 0
    clip_events = 0
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        started = clock()
        order = rng.permutation(len(train_set))
        loss_sum = 0.0
        for batch_index, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_set[k] for k in order[lo : lo + config.batch_size]]
            if not batch:
                continue
            for t in trainable.values():
                t.zero_grad()
            try:
                with Tape() as tape:
                    loss = batch_loss(params, batch, config, length, train_mode=True, rng=rng)
                    tape.backward(loss)
            except NonFiniteError as exc:
                raise TrainingError(
                    f"non-finite loss in epoch {epoch}, batch {batch_index}: {exc}"
                ) from exc
            norm, clipped = clip_global_norm(trainable)
            if clipped:
                clip_events += 1
                logger.info(
                    "gradient norm %.3f clipped to %.1f (epoch %d batch %d)",
                    norm, GRAD_CLIP_NORM, epoch, batch_index,
                )
            adam_step(trainable, state, config.lr)
            loss_sum += loss.item() * len(batch)
        train_loss = loss_sum / len(train_set)
        dev_acc, dev_f1, _ = evaluate(params, dev_set, config, length)
        record = {
            "epoch": epoch,
            "train_loss": train_loss,
            "dev_acc": dev_acc,
            "dev_f1": dev_f1,
            "seconds": clock() - started,
        }
        records.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record) + "\n")
        metric = dev_acc if config.selection_metric == "accuracy" else dev_f1
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_acc, best_f1 = dev_acc, dev_f1
            best_params = _snapshot(named)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    _restore(named, best_params)
    return TrainResult(
        params=params,
        config=config,
        vocab=vocab,
        max_len=length,
        log_records=records,
        best_epoch=best_epoch,
        dev_accuracy=best_acc,
        dev_macro_f1=best_f1,
        epochs_run=epochs_run,
        clip_events=clip_events,
    )
