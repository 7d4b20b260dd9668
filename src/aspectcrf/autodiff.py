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
from typing import Callable, NamedTuple, Sequence

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
    "transpose",
    "softmax_weights",
    "nll",
    "bigru",
    "crf_marginals",
    "pool",
    "dropout_masks",
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


# Past a few hundred terms, OpenBLAS cuts a product's inner dimension into
# blocks that depend on its thread count, which moves the last bits of the
# sums. Longer inner dimensions are therefore summed here in fixed chunks, so
# that no result depends on the number of BLAS threads.
_INNER_CHUNK = 256


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands, summed over the inner dimension in chunks of _INNER_CHUNK."""
    if a.shape[1] <= _INNER_CHUNK:
        return a @ b
    out = a[:, :_INNER_CHUNK] @ b[:_INNER_CHUNK]
    for lo in range(_INNER_CHUNK, a.shape[1], _INNER_CHUNK):
        out += a[:, lo : lo + _INNER_CHUNK] @ b[lo : lo + _INNER_CHUNK]
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
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        # dropout masks and decay factors are constants: skip their products
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
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
    out_data = _dot(a2, b2)
    if b.ndim == 1:
        out_data = out_data[:, 0]
    if a.ndim == 1:
        out_data = out_data[0]

    def backward(g):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        ga = _dot(g2, b2.T)
        gb = _dot(a2.T, g2)
        _accumulate(a, ga[0] if a.ndim == 1 else ga)
        _accumulate(b, gb[:, 0] if b.ndim == 1 else gb)

    return _make(out_data, (a, b), backward, "matmul")


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; the gradient scatter-adds into the touched rows only.

    The adjoint sorts the ids stably and sums each id's incoming rows one
    after another in position order (a cumulative sum, never numpy's pairwise
    reduction), then adds each sum into its row of ``a.grad``, which it
    allocates only when it is still None. Every touched row so receives the
    same sum a dense |V| x d scatter would give, and the other rows are left
    alone instead of having zeros added to them.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-D tensor, got {a.shape}")
    out_data = a.data[idx]

    def backward(g):
        g = g.reshape(-1, a.shape[1])
        # the modulo folds negative ids onto the rows they selected
        flat = idx.reshape(-1) % a.shape[0]
        order = np.argsort(flat, kind="stable")
        ids = flat[order]
        first = np.ones(ids.size, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, ids.size))
        ids = ids[starts]
        rows = g[order[starts]]  # a row seen once is its own sum
        for k in np.flatnonzero(counts > 1):
            run = order[starts[k] : starts[k] + counts[k]]
            rows[k] = np.cumsum(g[run], axis=0)[-1]
        if not _all_finite(rows):
            raise NonFiniteError(f"non-finite gradient flowing into {a.name or '<anon>'}")
        if a.grad is None:
            # np.zeros, unlike zeros_like, leaves untouched rows' pages unmapped
            a.grad = np.zeros(a.shape)
        a.grad[ids] += rows

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


def transpose(a: Tensor) -> Tensor:
    """The transpose of a 2-D tensor."""
    if a.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D tensor, got {a.shape}")

    def backward(g):
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), backward, "transpose")


class _Packed(NamedTuple):
    """Sentences laid out step-major, longest first, as PyTorch's ``pack_padded_sequence`` lays them.

    Step s holds one row for each of the ``sizes[s]`` sentences longer than s,
    at packed rows ``bounds[s]:bounds[s + 1]``, in the same sentence order at
    every step. So the sentences a step continues are a prefix of the previous
    step's, and no step is padded. Packed row p reads token row ``fwd[p]`` when
    the sentences run first to last and ``bwd[p]`` when they run last to first.
    """

    sizes: list[int]
    bounds: list[int]
    fwd: np.ndarray | slice
    bwd: np.ndarray | slice
    last: np.ndarray | slice  # sentence slot -> packed row of its last token
    slot: np.ndarray  # packed row -> its sentence slot


def _checked_lengths(lengths, rows: int, op: str) -> np.ndarray:
    """Sentence lengths as an array, checked to be positive integers that cover the ``rows`` token rows."""
    lengths = np.asarray(lengths)
    if (lengths.ndim != 1 or lengths.size < 1 or lengths.dtype.kind not in "iu" or lengths.min() < 1
            or lengths.sum() != rows):
        raise DimensionError(f"{op} expects positive integer lengths summing to the {rows} rows, got {lengths}")
    return lengths


def _pack(lengths, rows: int, op: str) -> _Packed:
    """Packing of ``rows`` token rows into sentences of ``lengths``; None is one sentence of all rows."""
    if lengths is None:
        # one sentence: the packed rows are the token rows, and slices index them without copies
        return _Packed([1] * rows, list(range(rows + 1)), slice(None), slice(None, None, -1), slice(rows - 1, rows),
                       np.zeros(rows, dtype=np.intp))
    lengths = _checked_lengths(lengths, rows, op)
    order = np.argsort(-lengths, kind="stable")
    longest = lengths[order]
    active = np.arange(longest[0])[:, None] < longest  # step x slot
    step, slot = np.nonzero(active)  # row-major, so step by step
    sizes = active.sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    first = (np.cumsum(lengths) - lengths)[order][slot]  # each packed row's sentence start
    return _Packed(
        sizes.tolist(), bounds.tolist(), first + step, first + longest[slot] - 1 - step,
        bounds[longest - 1] + np.arange(longest.size), slot,
    )


def bigru(x: Tensor, fwd: Sequence[Tensor], bwd: Sequence[Tensor], lengths=None) -> Tensor:
    """One bidirectional GRU layer over a batch of sentences, gates in (reset, update, candidate) order.

    ``x`` is N x d: the batch's token rows, sentence after sentence, with
    ``lengths`` the sentence lengths (None: one sentence of all N rows).
    ``fwd`` and ``bwd`` are each (w_ih d x 3H, w_hh H x 3H, b_ih 3H, b_hh 3H).
    Per direction, xp = x @ w_ih + b_ih, and per sentence from h = 0 each step
    t (first to last forward, last to first backward) computes

        hp = h @ w_hh + b_hh
        r  = sigmoid(xp[t, 0:H]  + hp[0:H])
        u  = sigmoid(xp[t, H:2H] + hp[H:2H])
        c  = tanh(xp[t, 2H:] + r * hp[2H:])
        h' = (1 - u) * c + u * h

    Returns the N x 2H states [forward_t ; backward_t] in token order. The
    rows are packed (see ``_Packed``), so step s advances only the sentences
    still running, both directions in one product over a 2 x H x 3H stack, and
    each sentence's backward chain starts at its own last token. One tape
    entry covers the layer. The adjoint is backprop through time (Werbos
    1990) with hand-derived per-step terms; for one sentence it equals the
    per-direction composition bit for bit, and batches are pinned against
    per-sentence calls in the tests.
    """
    H = fwd[1].shape[0] if fwd[1].ndim else 0
    want = [(x.shape[-1] if x.ndim else 0, 3 * H), (H, 3 * H), (3 * H,), (3 * H,)]
    if x.ndim != 2 or x.shape[0] < 1 or any([t.shape for t in p] != want for p in (fwd, bwd)):
        raise DimensionError(
            f"bigru expects x (n >= 1, d) and per direction w_ih (d, 3H), w_hh (H, 3H), b_ih (3H,), "
            f"b_hh (3H,), got {x.shape}, {[t.shape for t in fwd]}, {[t.shape for t in bwd]}"
        )
    n = x.shape[0]
    pack = _pack(lengths, n, "bigru")
    steps = list(zip(pack.bounds, pack.bounds[1:]))
    W = np.stack((fwd[1].data, bwd[1].data))  # w_hh, 2 x H x 3H
    b = np.stack((fwd[3].data, bwd[3].data))[:, None]  # b_hh
    X = np.empty((2, n, 3 * H))  # xp of each packed row, directions first
    for k, (w_ih, _, b_ih, _), rows in ((0, fwd, pack.fwd), (1, bwd, pack.bwd)):
        xp = _dot(x.data, w_ih.data)
        xp += b_ih.data
        X[k] = xp[rows]
    # per step, directions first: the state it started from, (r, u), c and hp[2H:],
    # kept only when a tape records the op
    saved = [] if _active_tape() is not None and any(t.requires_grad for t in (x, *fwd, *bwd)) else None
    states = []
    h = np.zeros((2, pack.sizes[0], H))
    for lo, hi in steps:
        h = h[:, : hi - lo]
        hp = np.matmul(h, W)
        hp += b
        xs = X[:, lo:hi]
        gates = 1.0 / (1.0 + np.exp(-(xs[..., : 2 * H] + hp[..., : 2 * H])))
        hc = hp[..., 2 * H :]
        c = np.tanh(xs[..., 2 * H :] + gates[..., :H] * hc)
        if saved is not None:
            saved.append((h, gates, c, hc.copy()))  # a copy, so the rest of hp is freed
        u = gates[..., H:]
        h = (1.0 - u) * c + u * h
        states.append(h)
    states = np.concatenate(states, axis=1)

    def backward(g):
        G = np.stack((g[pack.fwd, :H], g[pack.bwd, H:]))  # upstream per packed row
        # g_hp[:, p] is the gradient into packed row p's hidden projection hp
        g_hp, g_xc = np.empty((2, n, 3 * H)), np.empty((2, n, H))
        carry = np.zeros((2, pack.sizes[0], H))  # a sentence's carry is 0 at its last step
        for (lo, hi), (h_s, ru, c, hc) in zip(reversed(steps), reversed(saved)):
            r, u = ru[..., :H], ru[..., H:]
            gh = G[:, lo:hi] + carry[:, : hi - lo]
            xc = g_xc[:, lo:hi] = gh * (1.0 - u) * (1.0 - c * c)
            gp = g_hp[:, lo:hi] = np.concatenate(
                (xc * hc * r * (1.0 - r), gh * (h_s - c) * u * (1.0 - u), xc * r), axis=-1
            )
            carry[:, : hi - lo] = gh * u + np.matmul(W, gp.transpose(0, 2, 1)).transpose(0, 2, 1)
        h_in = np.concatenate([step[0] for step in saved], axis=1)
        # per direction in token order, backward first as the per-direction tape ran
        for k, (w_ih, w_hh, b_ih, b_hh), rows in ((1, bwd, pack.bwd), (0, fwd, pack.fwd)):
            g_h = np.empty((n, 3 * H))
            g_h[rows] = g_hp[k]
            g_x = g_h.copy()
            g_x[rows, 2 * H :] = g_xc[k]
            h_k = np.empty((n, H))
            h_k[rows] = h_in[k]
            _accumulate(w_hh, _dot(h_k.T, g_h))
            _accumulate(b_hh, g_h.sum(axis=0))
            _accumulate(b_ih, g_x.sum(axis=0))
            _accumulate(x, _dot(g_x, w_ih.data.T))
            _accumulate(w_ih, _dot(x.data.T, g_x))

    out = np.empty((n, 2 * H))
    out[pack.fwd, :H] = states[0]
    out[pack.bwd, H:] = states[1]
    return _make(out, (x, *fwd, *bwd), backward, "bigru")


def crf_marginals(e: Tensor, trans: Tensor, start: Tensor, end: Tensor, lengths=None) -> Tensor:
    """Fused two-label linear-chain CRFs: P(z_t = 0 | x) for every chain and position.

    ``e`` holds the emission scores, N x ... x 2: the batch's token rows,
    sentence after sentence, with ``lengths`` the sentence lengths (None: one
    sentence of all N rows). Any axes between rows and labels index
    independent chains (the heads of the multi-head attention). Per chain,
    ``trans[..., a, b]`` scores a -> b and ``start``/``end`` (... x 2) score
    the moves from START and into END; every sentence shares them. The forward
    runs the forward-backward recursions in numpy, in log space, for all
    chains and sentences at once:

        alpha_0 = start + e_0,  alpha_t[b] = lse_a(alpha_{t-1}[a] + T[a, b]) + e_t[b]
        beta_{n-1} = end,       beta_t[a] = lse_b(T[a, b] + e_{t+1}[b] + beta_{t+1}[b])
        log Z = lse(alpha_{n-1} + end),  P(z_t = y | x) = exp(alpha_t[y] + beta_t[y] - log Z)

    with n each sentence's own length, and returns the label-0 marginals with
    rows last, ... x N. The rows are packed (see ``_Packed``), so each step
    advances only the sentences still running, and each beta recursion and
    log Z start at the sentence's own last token. A single chain is the call
    without chain axes: N x 2 emissions give N marginals.

    One tape entry for all chains. The adjoint is reverse mode through both
    recursions (Eisner 2016, "Inside-Outside and Forward-Backward Algorithms
    Are Just Backprop"), so gradients reach all four inputs through log Z as
    well as through alpha and beta. It is pinned against the primitive
    composition and against per-sentence calls in the tests.
    """
    chains = e.shape[1:-1]
    if e.ndim < 2 or e.shape[0] < 1 or e.shape[-1] != 2:
        raise DimensionError(f"crf_marginals expects n x ... x 2 emissions with n >= 1, got {e.shape}")
    if trans.shape != chains + (2, 2) or start.shape != chains + (2,) or end.shape != chains + (2,):
        raise DimensionError(
            f"crf_marginals expects trans {chains + (2, 2)}, start and end {chains + (2,)} "
            f"for emissions {e.shape}, got {trans.shape}, {start.shape}, {end.shape}"
        )
    T = trans.data
    n = e.shape[0]
    pack = _pack(lengths, n, "crf_marginals")
    steps = list(zip(pack.bounds, pack.bounds[1:]))
    first = pack.sizes[0]  # rows of step 0, one per sentence
    E = e.data[pack.fwd]
    alpha = [start.data + E[:first]]  # per step
    for lo, hi in steps[1:]:
        moves = alpha[-1][: hi - lo, ..., None] + T  # [.., a, b] = alpha[a] + T[a, b]
        alpha.append(np.logaddexp(moves[..., 0, :], moves[..., 1, :]) + E[lo:hi])
    alpha = np.concatenate(alpha)
    ends = np.repeat(end.data[None], first, axis=0)
    beta = [ends[: pack.sizes[-1]]]  # per step, last first
    for lo, hi in steps[-2::-1]:
        moves = T + (E[hi : hi + len(beta[-1])] + beta[-1])[..., None, :]  # [.., a, b] = T[a, b] + E[b] + beta[b]
        moved = np.logaddexp(moves[..., 0], moves[..., 1])
        # the sentences that end at this step start their beta from end
        beta.append(moved if len(moved) == hi - lo else np.concatenate((moved, ends[len(moved) : hi - lo])))
    beta = np.concatenate(beta[::-1])
    last = alpha[pack.last] + end.data  # per sentence slot
    log_z = np.logaddexp(last[..., 0], last[..., 1])
    yes = np.exp(alpha[..., 0] + beta[..., 0] - log_z[pack.slot])  # packed rows x ...

    def backward(g):
        # every row p after step 0 continues row pred[p - first]
        pred = np.arange(first, n) - np.repeat(np.array(pack.sizes[:-1], dtype=np.intp), pack.sizes[1:])
        # yes = exp(alpha[.., 0] + beta[.., 0] - log Z): adjoint of that exponent
        g_s = np.moveaxis(g, -1, 0)[pack.fwd] * yes
        # -g_s summed over a sentence's rows is its log Z's adjoint, spread
        # over alpha_{n-1} + end by its lse weights
        g_log_z = np.zeros(log_z.shape)
        np.add.at(g_log_z, pack.slot, g_s)
        g_last = -g_log_z[..., None] * softmax_weights(last, axis=-1)
        g_beta = np.zeros(E.shape)
        g_beta[..., 0] = g_s
        g_alpha = g_beta.copy()
        g_alpha[pack.last] += g_last
        # lse weights of every step, normalised as softmaxes so that each set
        # sums to one, per row p after step 0: fwd[p, .., a, b] = d alpha_p[b] /
        # d alpha_pred[a], bwd[p, .., a, b] = d beta_pred[a] / d beta_p[b]
        fwd = softmax_weights(alpha[pred][..., :, None] + T, axis=-2)
        bwd = softmax_weights(T + (E[first:] + beta[first:])[..., None, :], axis=-1)
        for (p_lo, _), (lo, hi) in zip(steps, steps[1:]):
            g_beta[lo:hi] += (g_beta[p_lo : p_lo + hi - lo][..., None, :] @ bwd[lo - first : hi - first])[..., 0, :]
        for (p_lo, _), (lo, hi) in zip(reversed(steps[:-1]), reversed(steps[1:])):
            g_alpha[p_lo : p_lo + hi - lo] += (fwd[lo - first : hi - first] @ g_alpha[lo:hi][..., None])[..., 0]
        g_e = g_alpha.copy()
        g_e[first:] += np.einsum("t...a,t...ab->t...b", g_beta[pred], bwd)
        g_trans = np.einsum("t...ab,t...b->...ab", fwd, g_alpha[first:]) + np.einsum(
            "t...a,t...ab->...ab", g_beta[pred], bwd
        )
        g_rows = np.empty(E.shape)
        g_rows[pack.fwd] = g_e
        _accumulate(e, g_rows)
        _accumulate(trans, g_trans)
        _accumulate(start, g_alpha[:first].sum(axis=0))
        _accumulate(end, g_last.sum(axis=0) + g_beta[pack.last].sum(axis=0))

    out = np.empty(yes.shape)
    out[pack.fwd] = yes
    return _make(np.ascontiguousarray(out.transpose(*range(1, out.ndim), 0)), (e, trans, start, end), backward,
                 "crf_marginals")


def pool(weights: Tensor, x: Tensor, lengths=None) -> Tensor:
    """Weighted sums of each sentence's rows: out[b, k] = sum_t weights[k, t] x[t] over sentence b's rows t.

    ``weights`` is K x N and ``x`` N x R, both over the batch's token rows,
    sentence after sentence, with ``lengths`` the sentence lengths. Returns
    B x KR, each sentence's K pooled vectors concatenated; without lengths
    all rows are one sentence and the result is the KR vector. One tape entry
    for the batch, one K x n @ n x R product per sentence.
    """
    if weights.ndim != 2 or x.ndim != 2 or weights.shape[1] != x.shape[0] or x.shape[0] < 1:
        raise DimensionError(f"pool expects K x N weights and N x R rows, N >= 1, got {weights.shape} and {x.shape}")
    if lengths is None:
        rows = [slice(None)]
    else:
        ends = np.cumsum(_checked_lengths(lengths, x.shape[0], "pool")).tolist()
        rows = [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]
    W, X = weights.data, x.data
    out = np.empty((len(rows), W.shape[0], X.shape[1]))
    for b, t in enumerate(rows):
        out[b] = _dot(W[:, t], X[t])

    def backward(g):
        g_w, g_x = np.empty(W.shape), np.empty(X.shape)
        for g_b, t in zip(g.reshape(out.shape), rows):
            g_w[:, t] = g_b @ X[t].T
            g_x[t] = W[:, t].T @ g_b
        _accumulate(weights, g_w)
        _accumulate(x, g_x)

    pooled = out.reshape(out[0].size) if lengths is None else out.reshape(len(rows), -1)
    return _make(pooled, (weights, x), backward, "pool")


def dropout_masks(lengths, widths, p: float, rng: np.random.Generator) -> list[Tensor]:
    """Inverted-dropout masks over the rows of sentences of ``lengths``, one per width: entries are 0 or 1/(1-p).

    The uniforms are drawn sentence by sentence and, within a sentence, mask
    by mask, so a batch draws what forwarding its sentences one at a time
    draws. p=0 gives identity masks.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    uniforms = [np.empty((sum(lengths), w)) for w in widths]
    lo = 0
    for n in lengths:
        for u in uniforms:
            rng.random(out=u[lo : lo + n])
        lo += n
    return [Tensor((u >= p) / (1.0 - p)) for u in uniforms]
