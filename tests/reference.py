"""Test-only references that the fused ops and the model are checked against.

Nothing in ``src/`` calls these. They stay independent of the code they check:

- taped primitives (``sub``, ``neg``, ``index``, ``sigmoid``, ``tanh``,
  ``exp``, ``log``, ``clamp_min``, ``softmax``, ``log_sum_exp``,
  ``reduce_sum``, ``mean``) built on the tape internals the same way the kept
  primitives are;
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
- ``taped_gru_direction``, the per-step composition both must match;
- ``instance_bigru`` and ``instance_crf_marginals``, the per-sentence ops
  that the packed ``bigru`` and ``crf_marginals`` must match sentence by
  sentence, and ``instance_forward``, the per-instance model built on them;
- ``temporary_clip_global_norm``, the clipping whose norm the
  temporary-free ``clip_global_norm`` must match to 1e-12 relative.
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
    softmax_weights,
)
from aspectcrf.crf import NO, YES, CrfHeadParams
from aspectcrf.encoder import DecaySpec, apply_decay, embed_input
from aspectcrf.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, GRAD_CLIP_NORM, AdamState


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


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None); the adjoint broadcasts back."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    out_data = np.asarray(out_data)

    def backward(g):
        g_keep = np.asarray(g)
        if not keepdims and axis is not None:
            g_keep = np.expand_dims(g_keep, axis=axis)
        _accumulate(a, np.broadcast_to(g_keep, a.shape).copy())

    return _make(out_data, (a,), backward, "reduce_sum")


def mean(a, axis: int | None = None) -> Tensor:
    """reduce_sum times 1/count, as taped primitives."""
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return ad.mul(reduce_sum(a, axis=axis), 1.0 / count)


def taped_nll(logits: Tensor, gold_ids) -> Tensor:
    """Reference mean NLL over B x C logits: per row -log(max(softmax(row)[gold],
    PROB_FLOOR)) as five taped primitives, then the mean of the stacked rows."""
    losses = [
        neg(log(clamp_min(index(softmax(index(logits, i)), gold), PROB_FLOOR)))
        for i, gold in enumerate(gold_ids)
    ]
    return mean(ad.stack(losses))


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


def temporary_clip_global_norm(named: dict[str, Tensor]) -> tuple[float, bool]:
    """Reference gradient clipping: the joint norm from a full-size g * g per tensor."""
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


def instance_bigru(x: Tensor, fwd, bwd) -> Tensor:
    """Reference: the per-sentence ``bigru`` that the packed op replaced.

    One bidirectional GRU layer over a sentence, gates in (reset, update, candidate) order.

    ``x`` is n x d, and ``fwd`` and ``bwd`` are each (w_ih d x 3H, w_hh H x 3H,
    b_ih 3H, b_hh 3H). Per direction, xp = x @ w_ih + b_ih, and from h = 0
    each step t (first to last forward, last to first backward) computes

        hp = h @ w_hh + b_hh
        r  = sigmoid(xp[t, 0:H]  + hp[0:H])
        u  = sigmoid(xp[t, H:2H] + hp[H:2H])
        c  = tanh(xp[t, 2H:] + r * hp[2H:])
        h' = (1 - u) * c + u * h

    Returns the n x 2H states [forward_t ; backward_t] in sentence order. One
    loop advances both directions, and one tape entry covers the layer. The
    adjoint is backprop through time (Werbos 1990) with hand-derived per-step
    terms; it equals the per-direction composition bit for bit and is pinned
    against the primitive composition in the tests.
    """
    H = fwd[1].shape[0] if fwd[1].ndim else 0
    want = [(x.shape[-1] if x.ndim else 0, 3 * H), (H, 3 * H), (3 * H,), (3 * H,)]
    if x.ndim != 2 or x.shape[0] < 1 or any([t.shape for t in p] != want for p in (fwd, bwd)):
        raise DimensionError(
            f"bigru expects x (n >= 1, d) and per direction w_ih (d, 3H), w_hh (H, 3H), b_ih (3H,), "
            f"b_hh (3H,), got {x.shape}, {[t.shape for t in fwd]}, {[t.shape for t in bwd]}"
        )
    n = x.shape[0]
    W = (fwd[1].data, bwd[1].data)  # w_hh
    b = np.stack((fwd[3].data, bwd[3].data))  # b_hh
    # xp in step order (step s: position s forward, n - 1 - s backward); axis 1 is the direction
    X = np.stack((x.data @ fwd[0].data + fwd[2].data, (x.data @ bwd[0].data + bwd[2].data)[::-1]), axis=1)
    states = np.empty((n, 2, H))
    prev = np.empty((n, 2, H))  # the state each step started from
    ru = np.empty((n, 2, 2 * H))
    c = np.empty((n, 2, H))
    hp_c = np.empty((n, 2, H))
    h = np.zeros((2, H))
    hp = np.empty((2, 3 * H))
    for s in range(n):
        prev[s] = h
        hp[0], hp[1] = h[0] @ W[0], h[1] @ W[1]
        hp += b
        ru[s] = 1.0 / (1.0 + np.exp(-(X[s, :, : 2 * H] + hp[:, : 2 * H])))
        hp_c[s] = hp[:, 2 * H :]
        c[s] = np.tanh(X[s, :, 2 * H :] + ru[s, :, :H] * hp_c[s])
        h = states[s] = (1.0 - ru[s, :, H:]) * c[s] + ru[s, :, H:] * h
    r, u = ru[..., :H], ru[..., H:]

    def backward(g):
        G = np.stack((g[:, :H], g[::-1, H:]), axis=1)  # upstream in step order
        # g_hp[s] is the gradient into step s's hidden projection hp
        g_hp = np.empty((n, 2, 3 * H))
        g_xc = np.empty((n, 2, H))
        carry = np.zeros((2, H))
        w_g = np.empty((2, H))
        for s in range(n - 1, -1, -1):
            gh = G[s] + carry
            g_hp[s, :, H : 2 * H] = gh * (prev[s] - c[s]) * u[s] * (1.0 - u[s])
            g_xc[s] = gh * (1.0 - u[s]) * (1.0 - c[s] * c[s])
            g_hp[s, :, :H] = g_xc[s] * hp_c[s] * r[s] * (1.0 - r[s])
            g_hp[s, :, 2 * H :] = g_xc[s] * r[s]
            w_g[0], w_g[1] = W[0] @ g_hp[s, 0], W[1] @ g_hp[s, 1]
            carry = gh * u[s] + w_g
        # per direction in sentence order, backward first as the per-direction tape ran
        for k, (w_ih, w_hh, b_ih, b_hh), order in ((1, bwd, slice(None, None, -1)), (0, fwd, slice(None))):
            g_h = np.ascontiguousarray(g_hp[order, k])
            g_x = g_h.copy()
            g_x[:, 2 * H :] = g_xc[order, k]
            _accumulate(w_hh, np.ascontiguousarray(prev[order, k]).T @ g_h)
            _accumulate(b_hh, g_h.sum(axis=0))
            _accumulate(b_ih, g_x.sum(axis=0))
            _accumulate(x, g_x @ w_ih.data.T)
            _accumulate(w_ih, x.data.T @ g_x)

    out = np.concatenate((states[:, 0], states[::-1, 1]), axis=1)
    return _make(out, (x, *fwd, *bwd), backward, "instance_bigru")


def instance_crf_marginals(e: Tensor, trans: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Reference: the per-sentence ``crf_marginals`` that the packed op replaced.

    Fused two-label linear-chain CRFs: P(z_t = 0 | x) for every chain and position.

    ``e`` holds the emission scores, n x ... x 2 with positions first; any
    axes between positions and labels index independent chains (the heads of
    the multi-head attention). Per chain, ``trans[..., a, b]`` scores a -> b
    and ``start``/``end`` (... x 2) score the moves from START and into END.
    The forward runs the forward-backward recursions in numpy, in log space,
    for all chains at once:

        alpha_0 = start + e_0,  alpha_t[b] = lse_a(alpha_{t-1}[a] + T[a, b]) + e_t[b]
        beta_{n-1} = end,       beta_t[a] = lse_b(T[a, b] + e_{t+1}[b] + beta_{t+1}[b])
        log Z = lse(alpha_{n-1} + end),  P(z_t = y | x) = exp(alpha_t[y] + beta_t[y] - log Z)

    and returns the label-0 marginals with positions last, ... x n. A single
    chain is the call without chain axes: n x 2 emissions give n marginals.

    One tape entry for all chains. The adjoint is reverse mode through both
    recursions (Eisner 2016, "Inside-Outside and Forward-Backward Algorithms
    Are Just Backprop"), so gradients reach all four inputs through log Z as
    well as through alpha and beta. It is pinned against the primitive
    composition in the tests.
    """
    chains = e.shape[1:-1]
    if e.ndim < 2 or e.shape[0] < 1 or e.shape[-1] != 2:
        raise DimensionError(f"crf_marginals expects n x ... x 2 emissions with n >= 1, got {e.shape}")
    if trans.shape != chains + (2, 2) or start.shape != chains + (2,) or end.shape != chains + (2,):
        raise DimensionError(
            f"crf_marginals expects trans {chains + (2, 2)}, start and end {chains + (2,)} "
            f"for emissions {e.shape}, got {trans.shape}, {start.shape}, {end.shape}"
        )
    E, T = e.data, trans.data
    n = E.shape[0]
    alpha = np.empty(E.shape)
    beta = np.empty(E.shape)
    alpha[0] = start.data + E[0]
    for t in range(1, n):
        moved = np.logaddexp(alpha[t - 1, ..., 0, None] + T[..., 0, :], alpha[t - 1, ..., 1, None] + T[..., 1, :])
        alpha[t] = moved + E[t]
    beta[-1] = end.data
    for t in range(n - 2, -1, -1):
        ahead = E[t + 1] + beta[t + 1]
        beta[t] = np.logaddexp(T[..., 0] + ahead[..., 0, None], T[..., 1] + ahead[..., 1, None])
    last = alpha[-1] + end.data
    log_z = np.logaddexp(last[..., 0], last[..., 1])
    yes = np.exp(alpha[..., 0] + beta[..., 0] - log_z)  # n x ...

    def backward(g):
        # yes = exp(alpha[.., 0] + beta[.., 0] - log Z): adjoint of that exponent
        g_s = np.moveaxis(g, -1, 0) * yes
        # -g_s summed over positions is log Z's adjoint, spread over
        # alpha_{n-1} + end by its lse weights
        g_last = -g_s.sum(axis=0)[..., None] * softmax_weights(last, axis=-1)
        g_beta = np.zeros(E.shape)
        g_beta[..., 0] = g_s
        g_alpha = g_beta.copy()
        g_alpha[-1] += g_last
        # lse weights of every step, normalised as softmaxes so that each set
        # sums to one: fwd[t-1, .., a, b] = d alpha_t[b] / d alpha_{t-1}[a],
        # bwd[t, .., a, b] = d beta_t[a] / d beta_{t+1}[b]
        fwd = softmax_weights(alpha[:-1, ..., :, None] + T, axis=-2)
        bwd = softmax_weights(T + (E[1:] + beta[1:])[..., None, :], axis=-1)
        for t in range(n - 1):
            g_beta[t + 1] += (g_beta[t][..., None, :] @ bwd[t])[..., 0, :]
        for t in range(n - 1, 0, -1):
            g_alpha[t - 1] += (fwd[t - 1] @ g_alpha[t][..., None])[..., 0]
        g_e = g_alpha.copy()
        g_e[1:] += np.einsum("t...a,t...ab->t...b", g_beta[:-1], bwd)
        g_trans = np.einsum("t...ab,t...b->...ab", fwd, g_alpha[1:]) + np.einsum("t...a,t...ab->...ab", g_beta[:-1], bwd)
        _accumulate(e, g_e)
        _accumulate(trans, g_trans)
        _accumulate(start, g_alpha[0])
        _accumulate(end, g_last + g_beta[-1])

    out = np.ascontiguousarray(np.moveaxis(yes, 0, -1))
    return _make(out, (e, trans, start, end), backward, "instance_crf_marginals")


def instance_forward(params, instance, config, max_len: int) -> tuple[Tensor, Tensor | None]:
    """Reference: one instance through the network as the per-instance path ran it, dropout off.

    Uses the one-sentence encoder calls and the per-sentence ``instance_bigru``
    and ``instance_crf_marginals``; returns the 3 logits and the K x n
    marginals (None under no_structured_attention).
    """
    i, j = instance.aspect_start, instance.aspect_end
    h = embed_input(instance.token_ids, i, j, params.embedding, params.indicator,
                    no_aspect_indicator=config.no_aspect_indicator)
    for layer in params.gru_layers:
        h = instance_bigru(h, layer.forward, layer.backward)
    r = apply_decay(h, i, j, DecaySpec(gamma=config.effective_gamma, max_len=max_len))
    if config.no_structured_attention:
        q, yes = mean(r, axis=0), None
    else:
        n, rep = r.shape
        heads = params.heads
        w_emit = ad.concat([head.w_emit for head in heads], axis=1)
        b_emit = ad.concat([head.b_emit for head in heads])
        e = ad.reshape(ad.add(ad.matmul(r, w_emit), b_emit), (n, len(heads), 2))
        yes = instance_crf_marginals(e, *(ad.stack([getattr(head, name) for head in heads])
                                          for name in ("trans", "start", "end")))
        q = ad.reshape(ad.matmul(yes, r), (len(heads) * rep,))
    return ad.add(ad.matmul(params.cls.w, q), params.cls.b), yes
