"""Aspect-aware encoder: indicator embedding, stacked Bi-GRU, position decay.

Each token's input vector is its word embedding concatenated with one of two
learned indicator rows (inside / outside the aspect span). A stacked
bidirectional GRU contextualizes the sequence, and a deterministic position
decay then shrinks every hidden state by a factor that falls off
polynomially with the token's distance from the aspect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

IN_ASPECT_ROW = 0
OUT_ASPECT_ROW = 1


class GruDirectionParams(NamedTuple):
    """One GRU direction in the order ``autodiff.bigru`` takes it, gates fused as (reset, update, candidate)."""

    w_ih: Tensor  # d_in x 3H
    w_hh: Tensor  # H x 3H
    b_ih: Tensor  # 3H
    b_hh: Tensor  # 3H


@dataclass
class GruLayerParams:
    forward: GruDirectionParams
    backward: GruDirectionParams


def init_gru_direction(d_in: int, hidden: int, rng: np.random.Generator, name: str) -> GruDirectionParams:
    # uniform +-1/sqrt(H) weights, zero biases
    bound = 1.0 / np.sqrt(hidden)
    return GruDirectionParams(
        w_ih=Tensor(rng.uniform(-bound, bound, size=(d_in, 3 * hidden)), requires_grad=True, name=f"{name}.w_ih"),
        w_hh=Tensor(rng.uniform(-bound, bound, size=(hidden, 3 * hidden)), requires_grad=True, name=f"{name}.w_hh"),
        b_ih=Tensor(np.zeros(3 * hidden), requires_grad=True, name=f"{name}.b_ih"),
        b_hh=Tensor(np.zeros(3 * hidden), requires_grad=True, name=f"{name}.b_hh"),
    )


def bigru_encode(x: Tensor, layers: list[GruLayerParams], lengths=None) -> Tensor:
    """Stacked Bi-GRU: returns N x 2H with [forward_t ; backward_t] rows.

    ``x`` holds a batch's token rows, sentence after sentence, and
    ``lengths`` the sentence lengths (None: x is one sentence). Initial
    hidden states are zero; layer l+1 consumes layer l's output.
    """
    out = x
    for layer in layers:
        out = ad.bigru(out, layer.forward, layer.backward, lengths)  # one tape entry per layer
    return out


def _row_spans(rows: int, aspect_start, aspect_end, lengths):
    """Each row's position in its sentence and that sentence's aspect span.

    With ``lengths`` None the rows are one sentence and the span is the two
    ints; otherwise each sentence has its own span, one entry per sentence.
    """
    if lengths is None:
        return np.arange(rows), aspect_start, aspect_end
    lengths = np.asarray(lengths)
    position = np.arange(rows) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return position, np.repeat(aspect_start, lengths), np.repeat(aspect_end, lengths)


def embed_input(
    token_ids,
    aspect_start,
    aspect_end,
    embedding: Tensor,
    indicator: Tensor,
    no_aspect_indicator: bool = False,
    lengths=None,
) -> Tensor:
    """Rows of word vector + indicator row (in-aspect iff i <= t <= j).

    ``token_ids`` are a batch's sentences concatenated, with ``lengths`` and
    one aspect span per sentence, or one sentence and its span when
    ``lengths`` is None. The no_aspect_indicator ablation feeds the same
    shared row to every position, erasing where the aspect is.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    words = ad.gather_rows(embedding, ids)
    if no_aspect_indicator:
        ind_rows = np.full(len(ids), IN_ASPECT_ROW, dtype=np.intp)
    else:
        t, i, j = _row_spans(len(ids), aspect_start, aspect_end, lengths)
        ind_rows = np.where((i <= t) & (t <= j), IN_ASPECT_ROW, OUT_ASPECT_ROW)
    marks = ad.gather_rows(indicator, ind_rows)
    return ad.concat([words, marks], axis=1)


@dataclass(frozen=True)
class DecaySpec:
    """Decay exponent plus the reference length L.

    L is frozen at training time as the maximum sentence length over all
    loaded corpora. gamma = 0 turns the decay off (every factor is 1).
    """

    gamma: int
    max_len: int

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


def decay_weight(t, i, j, spec: DecaySpec):
    """Position decay factor in (0, 1]: 1 on [i, j], ((L - d)/L)^gamma outside.

    d is the distance to the nearer aspect edge, clamped to L - 1 so the
    factor stays positive even for test sentences longer than L. Takes ints or
    equal-length integer arrays, one entry per position.
    """
    d = np.minimum(np.maximum(np.maximum(i - t, t - j), 0), spec.max_len - 1)  # 0 inside the span
    return ((spec.max_len - d) / spec.max_len) ** spec.gamma


def apply_decay(h: Tensor, aspect_start, aspect_end, spec: DecaySpec, lengths=None) -> Tensor:
    """r_t = f(t) * h_t, over one sentence or a batch laid out as in ``embed_input``.

    The factors depend only on positions, so they are constants to the tape;
    no gradient flows into the decay."""
    t, i, j = _row_spans(h.shape[0], aspect_start, aspect_end, lengths)
    return ad.mul(h, Tensor(decay_weight(t, i, j, spec)[:, None]))
