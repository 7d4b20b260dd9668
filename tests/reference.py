"""Test-only references that the fused ops and the model are checked against.

Nothing in ``src/`` calls these. They stay independent of the code they check:

- taped primitives (``sub``, ``neg``, ``index``, ``sigmoid``, ``tanh``,
  ``exp``, ``log``, ``clamp_min``, ``softmax``, ``log_sum_exp``) built on the
  tape internals the same way the kept primitives are;
- ``taped_nll``, the per-row loss composition the fused ``nll`` must match;
- ``dense_gather_rows``, the dense |V| x d scatter that ``gather_rows``'
  row-sparse adjoint must match, and ``dense_adam_step``, the temporary-heavy
  Adam update that ``adam_step`` must match;
- ``grad_check``, central finite differences against tape gradients;
- the CRF's explicit sequence score, its taped forward recursion and
  ``log_partition``, and the taped marginals that ``crf_marginals`` must match;
- ``gru_sequence``, one GRU direction as one tape op, and
  ``per_direction_bigru``, the Bi-GRU layer built from it with taped
  ``matmul``/``add``/``concat``, which the fused ``bigru`` must match bit for bit;
- ``taped_gru_direction``, the per-step composition both must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from aspectcrf import autodiff as ad
from aspectcrf.autodiff import (
    PROB_FLOOR,
    DimensionError,
    NonFiniteError,
    Tape,
    Tensor,
    _accumulate,
    _make,
    _unbroadcast,
    as_tensor,
)
from aspectcrf.crf import NO, YES, CrfHeadParams
from aspectcrf.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward, "sub")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward, "neg")


def index(a: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing with scatter-add gradient."""
    out_data = np.array(a.data[key])

    def backward(g):
        if not a.requires_grad:
            return
        full = np.zeros_like(a.data)
        full[key] += g
        _accumulate(a, full)

    return _make(out_data, (a,), backward, "index")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward, "sigmoid")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward, "tanh")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _make(out_data, (a,), backward, "log")


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """max(a, lo) elementwise; gradient passes where a >= lo."""
    out_data = np.maximum(a.data, lo)
    mask = a.data >= lo

    def backward(g):
        _accumulate(a, g * mask)

    return _make(out_data, (a,), backward, "clamp_min")


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, out_data * (g - dot))

    return _make(out_data, (a,), backward, "softmax")


def log_sum_exp(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """log(sum(exp(a))) with max-shift; exact for a single element.

    The adjoint is softmax(a) along the reduced axis.
    """
    a = as_tensor(a)
    if a.size == 0:
        raise DimensionError("log_sum_exp of an empty tensor")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_keep = m + np.log(s)
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis) if axis is not None else out_keep.reshape(())
    soft = e / s

    def backward(g):
        g_keep = np.asarray(g)
        if not keepdims:
            if axis is None:
                g_keep = g_keep.reshape((1,) * a.ndim)
            else:
                g_keep = np.expand_dims(g_keep, axis=axis)
        _accumulate(a, g_keep * soft)

    return _make(out_data, (a,), backward, "log_sum_exp")


def taped_nll(logits: Tensor, gold_ids) -> Tensor:
    """Reference mean NLL over B x C logits: per row -log(max(softmax(row)[gold],
    PROB_FLOOR)) as five taped primitives, then the mean of the stacked rows."""
    losses = [
        neg(log(clamp_min(index(softmax(index(logits, i)), gold), PROB_FLOOR)))
        for i, gold in enumerate(gold_ids)
    ]
    return ad.mean(ad.stack(losses))


def dense_gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-D tensor, got {a.shape}")
    out_data = a.data[idx]

    def backward(g):
        if not a.requires_grad:
            return
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _make(out_data, (a,), backward, "gather_rows")


def dense_adam_step(named: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; tensors without a gradient see g = 0."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, tensor in named.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# Relative errors are reported against this floor so that coordinates whose
# true gradient is comparable to finite-difference noise do not dominate.
_REL_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    """Outcome of comparing tape gradients against central differences."""

    max_rel_error: float
    num_coordinates: int
    tolerance: float
    failures: list[tuple[str, int, float, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    max_failures: int = 25,
) -> GradCheckReport:
    """Check tape gradients of a deterministic scalar function of ``params``.

    ``f`` must rebuild its computation from the live parameter tensors on
    every call (dropout disabled, fixed inputs). The analytic gradient comes
    from one taped run; each coordinate is then perturbed in place for a
    central finite difference.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-6, 1e-3], got {epsilon}")

    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        if not np.isfinite(loss.data).all():
            raise NonFiniteError("grad_check aborted: loss is non-finite at the evaluation point")
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    def eval_loss() -> float:
        value = f().item()
        if not np.isfinite(value):
            raise NonFiniteError("grad_check aborted: loss became non-finite during perturbation")
        return value

    report = GradCheckReport(max_rel_error=0.0, num_coordinates=0, tolerance=tolerance)
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = eval_loss()
            flat[i] = orig - epsilon
            down = eval_loss()
            flat[i] = orig
            fd = (up - down) / (2.0 * epsilon)
            ad = a_flat[i]
            rel = abs(fd - ad) / max(abs(fd), abs(ad), _REL_FLOOR)
            report.num_coordinates += 1
            if rel > report.max_rel_error:
                report.max_rel_error = rel
            if rel > tolerance and len(report.failures) < max_failures:
                report.failures.append((p.name or "<anon>", i, float(ad), float(fd), float(rel)))
    return report


def score_sequence(e: Tensor, head: CrfHeadParams, z) -> Tensor:
    """Score of one explicit label sequence, boundary transitions included."""
    z = list(z)
    n = e.shape[0]
    if len(z) != n:
        raise ad.DimensionError(f"label sequence length {len(z)} != {n} positions")
    if any(label not in (YES, NO) for label in z):
        raise ValueError(f"labels must be YES/NO, got {z}")
    total = ad.add(index(head.start, z[0]), index(head.end, z[-1]))
    for t in range(n - 1):
        total = ad.add(total, index(head.trans, (z[t], z[t + 1])))
    for t in range(n):
        total = ad.add(total, index(e, (t, z[t])))
    return total


def _forward_messages(e: Tensor, head: CrfHeadParams) -> list[Tensor]:
    """alpha_t (length-2 log messages), t = 0..n-1."""
    n = e.shape[0]
    alpha = ad.add(head.start, index(e, 0))
    msgs = [alpha]
    for t in range(1, n):
        # alpha_t[b] = lse_a(alpha_{t-1}[a] + T[a,b]) + E[t,b]
        moved = log_sum_exp(ad.add(ad.reshape(alpha, (2, 1)), head.trans), axis=0)
        alpha = ad.add(moved, index(e, t))
        msgs.append(alpha)
    return msgs


def log_partition(e: Tensor, head: CrfHeadParams) -> Tensor:
    """log Z: log-sum-exp of score over all 2^n label sequences."""
    alpha = _forward_messages(e, head)
    return log_sum_exp(ad.add(alpha[-1], head.end))


def taped_backward_messages(e: Tensor, head: CrfHeadParams) -> list[Tensor]:
    """beta_t (length-2 log messages), t = 0..n-1; beta_{n-1} = end scores."""
    n = e.shape[0]
    beta = head.end
    msgs = [beta]
    for t in range(n - 2, -1, -1):
        # beta_t[a] = lse_b(T[a,b] + E[t+1,b] + beta_{t+1}[b])
        beta = log_sum_exp(ad.add(head.trans, ad.add(index(e, t + 1), beta)), axis=1)
        msgs.append(beta)
    msgs.reverse()
    return msgs


def taped_marginals(e: Tensor, head: CrfHeadParams) -> Tensor:
    """Reference Yes-marginals composed from taped primitives, ~125 tape
    entries per call; the fused ``crf_marginals`` must reproduce it."""
    alpha = ad.stack(_forward_messages(e, head))  # n x 2
    beta = ad.stack(taped_backward_messages(e, head))  # n x 2
    log_z = log_sum_exp(ad.add(index(alpha, -1), head.end))
    posterior = exp(sub(ad.add(alpha, beta), log_z))  # n x 2
    return index(posterior, (slice(None), YES))


def taped_gru_direction(xp: Tensor, w_hh: Tensor, b_hh: Tensor, reverse: bool) -> Tensor:
    """Reference only: the recurrence as a per-step composition of taped primitives."""
    n, H = xp.shape[0], w_hh.shape[0]
    h = Tensor(np.zeros(H))
    states = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        hp = ad.add(ad.matmul(h, w_hh), b_hh)
        x = index(xp, t)
        r = sigmoid(ad.add(index(x, slice(None, H)), index(hp, slice(None, H))))
        u = sigmoid(ad.add(index(x, slice(H, 2 * H)), index(hp, slice(H, 2 * H))))
        c = tanh(ad.add(index(x, slice(2 * H, None)), ad.mul(r, index(hp, slice(2 * H, None)))))
        h = ad.add(ad.mul(sub(1.0, u), c), ad.mul(u, h))
        states[t] = h
    return ad.stack(states)


def gru_sequence(xp: Tensor, w_hh: Tensor, b_hh: Tensor, reverse: bool = False) -> Tensor:
    """One GRU direction over a whole sentence, gates in (reset, update, candidate) order.

    ``xp`` is the n x 3H input projection. From h = 0, each step t (last to
    first when ``reverse`` is set) computes

        hp = h @ w_hh + b_hh
        r  = sigmoid(xp[t, 0:H]  + hp[0:H])
        u  = sigmoid(xp[t, H:2H] + hp[H:2H])
        c  = tanh(xp[t, 2H:] + r * hp[2H:])
        h' = (1 - u) * c + u * h

    and returns the n x H hidden states in sentence order. One tape entry
    instead of four per token; the adjoint is backprop through time (Werbos
    1990) with hand-derived per-step terms, pinned against the primitive
    composition in the tests.
    """
    n, H = (xp.shape[0] if xp.ndim else 0), (w_hh.shape[0] if w_hh.ndim else 0)
    if n < 1 or xp.shape != (n, 3 * H) or w_hh.shape != (H, 3 * H) or b_hh.shape != (3 * H,):
        raise DimensionError(
            f"gru_sequence expects xp (n >= 1, 3H), w_hh (H, 3H), b_hh (3H,), "
            f"got {xp.shape}, {w_hh.shape}, {b_hh.shape}"
        )
    X, W, b = xp.data, w_hh.data, b_hh.data
    order = range(n - 1, -1, -1) if reverse else range(n)
    states = np.empty((n, H))
    prev = np.empty((n, H))  # the state each step started from
    ru = np.empty((n, 2 * H))
    c = np.empty((n, H))
    hp_c = np.empty((n, H))
    h = np.zeros(H)
    for t in order:
        prev[t] = h
        hp = h @ W + b
        ru[t] = 1.0 / (1.0 + np.exp(-(X[t, : 2 * H] + hp[: 2 * H])))
        hp_c[t] = hp[2 * H :]
        c[t] = np.tanh(X[t, 2 * H :] + ru[t, :H] * hp_c[t])
        h = states[t] = (1.0 - ru[t, H:]) * c[t] + ru[t, H:] * h
    r, u = ru[:, :H], ru[:, H:]

    def backward(g):
        # g_hp[t] is the gradient into step t's hidden projection hp
        g_hp = np.empty((n, 3 * H))
        g_xc = np.empty((n, H))
        carry = np.zeros(H)
        for t in reversed(order):
            gh = g[t] + carry
            g_hp[t, H : 2 * H] = gh * (prev[t] - c[t]) * u[t] * (1.0 - u[t])
            g_xc[t] = gh * (1.0 - u[t]) * (1.0 - c[t] * c[t])
            g_hp[t, :H] = g_xc[t] * hp_c[t] * r[t] * (1.0 - r[t])
            g_hp[t, 2 * H :] = g_xc[t] * r[t]
            carry = gh * u[t] + W @ g_hp[t]
        g_xp = g_hp.copy()
        g_xp[:, 2 * H :] = g_xc
        _accumulate(xp, g_xp)
        _accumulate(w_hh, prev.T @ g_hp)
        _accumulate(b_hh, g_hp.sum(axis=0))

    return _make(states, (xp, w_hh, b_hh), backward, "gru_sequence")


def per_direction_bigru(x: Tensor, fwd, bwd, direction=gru_sequence) -> Tensor:
    """One Bi-GRU layer as one input projection and one ``direction`` call per
    direction, then a concat: 7 tape entries with ``gru_sequence``."""
    states = [
        direction(ad.add(ad.matmul(x, w_ih), b_ih), w_hh, b_hh, reverse)
        for (w_ih, w_hh, b_ih, b_hh), reverse in ((fwd, False), (bwd, True))
    ]
    return ad.concat(states, axis=1)
