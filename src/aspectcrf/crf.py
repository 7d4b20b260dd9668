"""Linear-chain CRF structured attention heads.

Each head scores binary label sequences z over the tokens (Yes = the token
belongs to an opinion span for the aspect, No = it does not):

    score(z, x) = T[START -> z_1] + sum_t T[z_t -> z_{t+1}] + T[z_n -> END]
                  + sum_t E[t, z_t]

Emissions E come from a per-head linear layer on the decayed representations
r_t. The partition function and the posterior marginals P(z_t = Yes | x) are
computed exactly by the forward-backward recursions in log space, fused into
one tape op (``autodiff.crf_marginals``, which returns the marginals of label
0, hence YES = 0) whose adjoint reaches both potentials. All heads run as one
batched call of that op. The marginals weight r_t into one pooled vector per
head; heads are concatenated in fixed order.

A brute-force enumerator over all 2^n sequences serves as the reference
implementation for testing; it shares no code with the dynamic program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

YES = 0
NO = 1

BRUTE_FORCE_MAX_LEN = 12


@dataclass
class CrfHeadParams:
    """Trainable pieces of one head.

    The boundary transitions live in separate vectors rather than one 4x4
    matrix over {START, Yes, No, END} so that every stored tensor is finite;
    the textbook matrix would need -inf for its impossible moves.
    """

    w_emit: Tensor  # 2H x 2
    b_emit: Tensor  # 2
    trans: Tensor  # 2 x 2, trans[a, b] = T[a -> b] over {Yes, No}
    start: Tensor  # 2, T[START -> .]
    end: Tensor  # 2, T[. -> END]


def init_crf_head(rep_dim: int, rng: np.random.Generator, name: str) -> CrfHeadParams:
    # zero transitions make all marginals exactly 0.5 at step 0 when the
    # emission layer is symmetric; emission weights get the usual small uniform
    return CrfHeadParams(
        w_emit=Tensor(rng.uniform(-0.1, 0.1, size=(rep_dim, 2)), requires_grad=True, name=f"{name}.w_emit"),
        b_emit=Tensor(np.zeros(2), requires_grad=True, name=f"{name}.b_emit"),
        trans=Tensor(np.zeros((2, 2)), requires_grad=True, name=f"{name}.trans"),
        start=Tensor(np.zeros(2), requires_grad=True, name=f"{name}.start"),
        end=Tensor(np.zeros(2), requires_grad=True, name=f"{name}.end"),
    )


def emissions(r: Tensor, head: CrfHeadParams) -> Tensor:
    """Per-position label scores E (n x 2) from the decayed representations."""
    return ad.add(ad.matmul(r, head.w_emit), head.b_emit)


def multi_head(r: Tensor, heads: list[CrfHeadParams]) -> tuple[Tensor, Tensor]:
    """q = [s_1; ...; s_K] with s_k = sum_t P_k(z_t = Yes | x) r_t, plus the K x n marginals.

    All heads run as one batched CRF: their emission layers are concatenated
    into one n x 2H @ 2H x 2K product, their potentials are stacked, and one
    ``crf_marginals`` call covers every head, so the tape length does not
    depend on K. Heads that share transitions stack the same tensor, which
    then receives each head's gradient.
    """
    if not heads:
        raise ValueError("multi_head needs at least one head")
    n, rep = r.shape
    k = len(heads)
    w_emit = ad.concat([head.w_emit for head in heads], axis=1)  # 2H x 2K
    b_emit = ad.concat([head.b_emit for head in heads])  # 2K
    e = ad.reshape(ad.add(ad.matmul(r, w_emit), b_emit), (n, k, 2))
    yes = ad.crf_marginals(
        e,
        ad.stack([head.trans for head in heads]),
        ad.stack([head.start for head in heads]),
        ad.stack([head.end for head in heads]),
    )  # K x n
    q = ad.reshape(ad.matmul(yes, r), (k * rep,))
    return q, yes


def brute_force_oracle(
    e: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact (logZ, Yes-marginals) by enumerating all 2^n sequences.

    Plain arithmetic over explicit sequences, no dynamic program; refuses
    n > 12 since the enumeration is exponential.
    """
    n = e.shape[0]
    if n > BRUTE_FORCE_MAX_LEN:
        raise ValueError(f"brute force enumeration capped at n = {BRUTE_FORCE_MAX_LEN}, got {n}")
    scores = []
    sequences = list(itertools.product((YES, NO), repeat=n))
    for z in sequences:
        s = start[z[0]] + end[z[-1]]
        for t in range(n - 1):
            s += trans[z[t], z[t + 1]]
        for t in range(n):
            s += e[t, z[t]]
        scores.append(s)
    scores = np.array(scores)
    m = scores.max()
    log_z = m + np.log(np.exp(scores - m).sum())
    probs = np.exp(scores - log_z)
    yes = np.zeros(n)
    for z, p in zip(sequences, probs):
        for t in range(n):
            if z[t] == YES:
                yes[t] += p
    return float(log_z), yes
