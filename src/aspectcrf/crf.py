"""Linear-chain CRF structured attention heads.

Each head scores binary label sequences z over the tokens (Yes = the token
belongs to an opinion span for the aspect, No = it does not):

    score(z, x) = T[START -> z_1] + sum_t T[z_t -> z_{t+1}] + T[z_n -> END]
                  + sum_t E[t, z_t]

Emissions E come from a per-head linear layer on the decayed representations
r_t. The partition function and the posterior marginals P(z_t = Yes | x) are
computed exactly by the forward-backward recursions in log space, fused into
one tape op (``autodiff.crf_marginals``, which returns the marginals of label
0, hence YES = 0) whose adjoint reaches both potentials. The marginals weight
r_t into one pooled vector per head; heads are concatenated in fixed order.
``log_partition`` keeps the forward recursion as taped primitives, an
independent path for the gradient identity dlogZ/dE = marginals.

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


def score_sequence(e: Tensor, head: CrfHeadParams, z) -> Tensor:
    """Score of one explicit label sequence, boundary transitions included."""
    z = list(z)
    n = e.shape[0]
    if len(z) != n:
        raise ad.DimensionError(f"label sequence length {len(z)} != {n} positions")
    if any(label not in (YES, NO) for label in z):
        raise ValueError(f"labels must be YES/NO, got {z}")
    total = ad.add(head.start[z[0]], head.end[z[-1]])
    for t in range(n - 1):
        total = ad.add(total, head.trans[z[t], z[t + 1]])
    for t in range(n):
        total = ad.add(total, e[t, z[t]])
    return total


def _forward_messages(e: Tensor, head: CrfHeadParams) -> list[Tensor]:
    """alpha_t (length-2 log messages), t = 0..n-1."""
    n = e.shape[0]
    alpha = ad.add(head.start, e[0])
    msgs = [alpha]
    for t in range(1, n):
        # alpha_t[b] = lse_a(alpha_{t-1}[a] + T[a,b]) + E[t,b]
        moved = ad.log_sum_exp(ad.add(ad.reshape(alpha, (2, 1)), head.trans), axis=0)
        alpha = ad.add(moved, e[t])
        msgs.append(alpha)
    return msgs


def log_partition(e: Tensor, head: CrfHeadParams) -> Tensor:
    """log Z: log-sum-exp of score over all 2^n label sequences."""
    alpha = _forward_messages(e, head)
    return ad.log_sum_exp(ad.add(alpha[-1], head.end))


@dataclass
class MarginalTable:
    """Posterior Yes-marginals of one head plus its log-partition."""

    yes: Tensor  # n, P(z_t = Yes | x)
    log_z: Tensor  # scalar

    def numpy(self) -> np.ndarray:
        return self.yes.numpy()


def marginals(e: Tensor, head: CrfHeadParams) -> MarginalTable:
    """Exact P(z_t = Yes | x) for every position, differentiable; one tape entry."""
    yes, log_z = ad.crf_marginals(e, head.trans, head.start, head.end)
    return MarginalTable(yes=yes, log_z=log_z)


def pool_sentence(marginal: MarginalTable, r: Tensor) -> Tensor:
    """s = sum_t P(z_t = Yes | x) r_t; gradients flow through both factors."""
    n = r.shape[0]
    if marginal.yes.shape[0] != n:
        raise ad.DimensionError("marginal length does not match representation rows")
    weighted = ad.mul(r, ad.reshape(marginal.yes, (n, 1)))
    return ad.reduce_sum(weighted, axis=0)


def multi_head(r: Tensor, heads: list[CrfHeadParams]) -> tuple[Tensor, list[MarginalTable]]:
    """q = [s_1; ...; s_a] in fixed head order, plus each head's marginals."""
    if not heads:
        raise ValueError("multi_head needs at least one head")
    tables = []
    pooled = []
    for head in heads:
        table = marginals(emissions(r, head), head)
        tables.append(table)
        pooled.append(pool_sentence(table, r))
    q = pooled[0] if len(pooled) == 1 else ad.concat(pooled)
    return q, tables


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
