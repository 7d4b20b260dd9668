"""Final sentiment layer: softmax over (positive, neutral, negative) plus metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import PROB_FLOOR, Tensor  # PROB_FLOOR is re-exported for nll_loss callers
from .data import LABELS, LABEL_TO_ID


@dataclass
class ClassifierParams:
    w: Tensor  # 3 x q_dim
    b: Tensor  # 3


def init_classifier(q_dim: int, rng: np.random.Generator) -> ClassifierParams:
    return ClassifierParams(
        w=Tensor(rng.uniform(-0.1, 0.1, size=(3, q_dim)), requires_grad=True, name="cls.w"),
        b=Tensor(np.zeros(3), requires_grad=True, name="cls.b"),
    )


def logits(q: Tensor, params: ClassifierParams) -> Tensor:
    """W q + b: 3 logits for a pooled vector q, or B x 3 for a B x q_dim batch."""
    return ad.add(ad.matmul(q, ad.transpose(params.w)), params.b)


@dataclass
class Prediction:
    """Class distribution plus the per-head marginals that produced it."""

    probabilities: np.ndarray  # 3, order matches LABELS
    label: str = field(init=False)
    head_marginals: list[np.ndarray] | None = None

    def __post_init__(self):
        self.label = LABELS[int(np.argmax(self.probabilities))]


def nll_loss(batch_logits: Tensor, gold_labels: list[str]) -> Tensor:
    """Mean -log P(gold) over B x 3 logits; see ``autodiff.nll`` for the floor."""
    return ad.nll(batch_logits, [LABEL_TO_ID[label] for label in gold_labels])


def metrics(predicted: list[str], gold: list[str]) -> tuple[float, float]:
    """(accuracy, macro-F1) over the three polarity classes.

    Macro-F1 averages per-class F1 with the zero-fill convention: a class
    with no true positives (including one absent from both predictions and
    golds) contributes 0. This matters on test sets whose neutral class is
    tiny, where the convention shifts F1 by whole points.
    """
    if len(predicted) != len(gold) or not gold:
        raise ValueError("metrics needs equally sized, non-empty prediction/gold lists")
    correct = sum(1 for p, g in zip(predicted, gold) if p == g)
    f1_per_class = []
    for name in LABELS:
        tp = sum(1 for p, g in zip(predicted, gold) if p == name and g == name)
        fp = sum(1 for p, g in zip(predicted, gold) if p == name and g != name)
        fn = sum(1 for p, g in zip(predicted, gold) if p != name and g == name)
        if tp == 0:
            f1_per_class.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1_per_class.append(2 * precision * recall / (precision + recall))
    return correct / len(gold), sum(f1_per_class) / len(LABELS)
