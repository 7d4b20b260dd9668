"""Aspect-aware encoder: indicator embedding, stacked Bi-GRU, position decay.

Each token's input vector is its word embedding concatenated with one of two
learned indicator rows (inside / outside the aspect span). A stacked
bidirectional GRU contextualizes the sequence, and a deterministic position
decay then shrinks every hidden state by a factor that falls off
polynomially with the token's distance from the aspect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

IN_ASPECT_ROW = 0
OUT_ASPECT_ROW = 1


@dataclass
class GruDirectionParams:
    """One direction of one GRU layer, gates fused in (reset, update, candidate) order."""

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


def bigru_encode(x: Tensor, layers: list[GruLayerParams]) -> Tensor:
    """Stacked Bi-GRU: returns n x 2H with [forward_t ; backward_t] rows.

    Initial hidden states are zero; layer l+1 consumes layer l's output.
    """
    out = x
    for layer in layers:
        # per direction: one input projection for all tokens (n x 3H), then
        # the whole recurrence as one tape entry
        states = [
            ad.gru_sequence(ad.add(ad.matmul(out, d.w_ih), d.b_ih), d.w_hh, d.b_hh, reverse)
            for d, reverse in ((layer.forward, False), (layer.backward, True))
        ]
        out = ad.concat(states, axis=1)
    return out


def embed_input(
    token_ids,
    aspect_start: int,
    aspect_end: int,
    embedding: Tensor,
    indicator: Tensor,
    no_aspect_indicator: bool = False,
) -> Tensor:
    """Rows of word vector + indicator row (in-aspect iff i <= t <= j).

    The no_aspect_indicator ablation feeds the same shared row to every
    position, erasing where the aspect is.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    words = ad.gather_rows(embedding, ids)
    if no_aspect_indicator:
        ind_rows = np.full(len(ids), IN_ASPECT_ROW, dtype=np.intp)
    else:
        ind_rows = np.array(
            [IN_ASPECT_ROW if aspect_start <= t <= aspect_end else OUT_ASPECT_ROW for t in range(len(ids))],
            dtype=np.intp,
        )
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


def decay_weight(t: int, i: int, j: int, spec: DecaySpec) -> float:
    """Position decay factor in (0, 1]: 1 on [i, j], ((L - d)/L)^gamma outside.

    d is the distance to the nearer aspect edge, clamped to L - 1 so the
    factor stays positive even for test sentences longer than L.
    """
    if i <= t <= j:
        return 1.0
    d = i - t if t < i else t - j
    d = min(d, spec.max_len - 1)
    return ((spec.max_len - d) / spec.max_len) ** spec.gamma


def decay_weights(n: int, i: int, j: int, spec: DecaySpec) -> np.ndarray:
    return np.array([decay_weight(t, i, j, spec) for t in range(n)])


def apply_decay(h: Tensor, i: int, j: int, spec: DecaySpec) -> Tensor:
    """r_t = f(t) * h_t. The factors depend only on positions, so they are
    constants to the tape; no gradient flows into the decay."""
    n = h.shape[0]
    factors = Tensor(decay_weights(n, i, j, spec).reshape(n, 1))
    return ad.mul(h, factors)
