"""Reverse-mode automatic differentiation over dense float64 arrays.

Everything the model computes is expressed through the primitives in this
module. Operations executed while a :class:`Tape` is active are recorded so
that ``tape.backward(loss)`` can replay their adjoints in reverse order and
accumulate gradients into every tensor reachable from the loss that has
``requires_grad`` set. Without an active tape the same functions run
forward-only, which is what evaluation uses.

All values are float64; any NaN/Inf produced by a primitive raises
:class:`NonFiniteError` immediately rather than propagating silently.
"""

from __future__ import annotations

import math
import threading
import warnings
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "NonFiniteError",
    "Tensor",
    "Tape",
    "add",
    "mul",
    "matmul",
    "gather_rows",
    "concat",
    "stack",
    "reshape",
    "reduce_sum",
    "mean",
    "softmax_weights",
    "nll",
    "gru_sequence",
    "crf_marginals",
    "dropout_mask",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ArithmeticError):
    """A forward value or gradient stopped being finite."""


_tls = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


def _all_finite(arr: np.ndarray) -> bool:
    # fast path: any NaN or Inf entry poisons the sum, so a finite sum proves
    # every entry finite. The ufunc's reduce skips np.sum's Python wrapper,
    # which otherwise dominates the cost of checking the tiny arrays this runs
    # on after every op. A non-finite sum may still come from finite entries
    # that overflow when added (numpy then warns), so that case is decided
    # entry by entry.
    return math.isfinite(np.add.reduce(arr, axis=None)) or bool(np.isfinite(arr).all())


class Tensor:
    """Dense float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.array(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NonFiniteError(f"tensor {name or '<anon>'} contains non-finite entries")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return np.array(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


def as_tensor(x) -> Tensor:
    """Wrap numbers/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class Tape:
    """Ordered record of primitive operations from one forward pass.

    Used as a context manager; primitives executed inside record an adjoint
    closure when any input requires a gradient. ``backward`` replays the
    adjoints in reverse creation order, which is a valid topological order
    because every output is created after its inputs.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, backward: Callable) -> None:
        self._entries.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every reachable tensor."""
        if loss.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, adjoint in reversed(self._entries):
            g = out.grad
            if g is None:
                continue
            adjoint(g)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if not _all_finite(g):
        raise NonFiniteError(f"non-finite gradient flowing into {t.name or '<anon>'}")
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _make(out_data: np.ndarray, inputs: Sequence[Tensor], backward, op: str) -> Tensor:
    if not _all_finite(out_data):
        raise NonFiniteError(f"operation {op} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.name = None
    needs = False
    for t in inputs:
        if t.requires_grad:
            needs = True
            break
    out.requires_grad = needs
    if needs:
        tape = _active_tape()
        if tape is not None:
            tape.record(out, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward, "mul")


def matmul(a, b) -> Tensor:
    """Matrix product; 1-D operands are promoted to row/column vectors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise DimensionError(f"matmul supports 1-D/2-D operands, got {a.shape} x {b.shape}")
    a2 = a.data if a.ndim == 2 else a.data[None, :]
    b2 = b.data if b.ndim == 2 else b.data[:, None]
    if a2.shape[1] != b2.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out2 = a2 @ b2
    out_data = out2
    if b.ndim == 1:
        out_data = out_data[:, 0]
    if a.ndim == 1:
        out_data = out_data[0]

    def backward(g):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        ga = g2 @ b2.T
        gb = a2.T @ g2
        _accumulate(a, ga[0] if a.ndim == 1 else ga)
        _accumulate(b, gb[:, 0] if b.ndim == 1 else gb)

    return _make(out_data, (a, b), backward, "matmul")


def gather_rows(a: Tensor, indices) -> Tensor:
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


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(out_data, ts, backward, "concat")


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("stack of zero tensors")
    out_data = np.stack([t.data for t in ts], axis=0)

    def backward(g):
        for i, t in enumerate(ts):
            _accumulate(t, g[i])

    return _make(out_data, ts, backward, "stack")


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(out_data, (a,), backward, "reshape")


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
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
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis), 1.0 / count)


def softmax_weights(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of a plain array along ``axis``, shifted by the maximum first."""
    w = np.exp(x - x.max(axis=axis, keepdims=True))
    return w / w.sum(axis=axis, keepdims=True)


# Gold-class probabilities are floored here before the log, so that one
# saturated row gives a large but finite loss instead of an infinite one.
PROB_FLOOR = 1e-12


def nll(logits: Tensor, gold_ids) -> Tensor:
    """Mean negative log-likelihood of the gold classes over a B x C batch of logits.

    Row i contributes -log(max(p_i[gold_i], PROB_FLOOR)) with p_i the softmax
    of the row. A floored row warns and passes no gradient; every other row
    passes (p_i - onehot_i) / B. One tape entry for the batch. The adjoint
    takes the same steps as the taped softmax, index, clamp, log and negation
    it replaces, so values and gradients equal that composition bit for bit.
    """
    gold = np.asarray(gold_ids, dtype=np.intp)
    if logits.ndim != 2 or logits.shape[0] < 1 or gold.shape != logits.shape[:1]:
        raise DimensionError(
            f"nll expects B x C logits with B >= 1 and B gold ids, got {logits.shape} and {gold.shape}"
        )
    B = logits.shape[0]
    rows = np.arange(B)
    p = softmax_weights(logits.data)
    p_gold = p[rows, gold]
    kept = p_gold >= PROB_FLOOR
    for prob in p_gold[~kept]:
        warnings.warn(f"gold-class probability {float(prob):.3e} floored at {PROB_FLOOR}", stacklevel=2)
    clamped = np.maximum(p_gold, PROB_FLOOR)
    out_data = (-np.log(clamped)).sum() * (1.0 / B)

    def backward(g):
        g_p = (-(g * (1.0 / B)) / clamped) * kept
        g_rows = np.zeros_like(p)
        g_rows[rows, gold] = g_p
        _accumulate(logits, p * (g_rows - (g_p * p_gold)[:, None]))

    return _make(out_data, (logits,), backward, "nll")


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


def crf_marginals(e: Tensor, trans: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Fused two-label linear-chain CRFs: P(z_t = 0 | x) for every chain and position.

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

    return _make(np.ascontiguousarray(np.moveaxis(yes, 0, -1)), (e, trans, start, end), backward, "crf_marginals")


def dropout_mask(shape, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted-dropout mask: entries are 0 or 1/(1-p). p=0 is an identity mask."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    keep = rng.random(shape) >= p
    return Tensor(keep.astype(np.float64) / (1.0 - p))
