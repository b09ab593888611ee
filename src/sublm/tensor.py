"""Dense tensors with recorded operations and exact reverse-mode gradients.

Every operation computes its result eagerly with numpy and remembers its
inputs together with a backward rule.  ``backward(loss)`` walks the recording
in reverse topological order and accumulates gradients into the ``.grad`` of
the leaf tensors it reaches (parameters, inputs); interior nodes keep none.
Repeated calls accumulate additively until grads are cleared.  A whole LSTM
layer over a window is one recorded op (:func:`lstm`) with its own
backpropagation through time, so a window's recording does not grow with
its length.  It also runs packed variable-length sequences (a subword
LSTM's words, longest first, each step over the words still running), so no
step is spent on padding.  Likewise all of a CNN composer's convolution
banks, with their tanh and max-over-time pooling, are one op
(:func:`conv1d_max_over_time`), and so is a whole highway stack, gates and
all (:func:`highway`).  Syl-Concat's zero-padded subword concatenation is
one op (:func:`masked_concat`), and so is the learned attention of
Syl-Avg-A/B, scores, masked softmax and weighted sum together
(:func:`attention_pool`).

Default precision is 64-bit; 32-bit is opt-in per tensor.  Reductions run in
a fixed order, so results are bitwise reproducible for a fixed BLAS thread
count.  Stochastic ops take their rng as an argument, so a forward pass
repeats bitwise under an equal-seeded rng.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError

DEFAULT_DTYPE = np.float64

_ids = itertools.count()


class _Local(threading.local):
    def __init__(self):
        self.grad_enabled = True


_local = _Local()


class Tensor:
    """A dense float array plus the recording needed for reverse-mode grads.

    Leaf tensors (parameters, constants) have no parents; their ``grad``
    stays ``None`` until a ``backward`` pass reaches them.  Op outputs carry
    their parent tensors and a backward rule, and never hold a ``grad``.
    ``meta`` is op-specific data for inspection; gradients never read it.
    """

    __slots__ = ("data", "grad", "node_id", "op", "meta", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype != np.float32:
            arr = arr.astype(DEFAULT_DTYPE, copy=False)
        self.data = arr
        self.grad = None
        self.node_id = next(_ids)
        self.op = "leaf"
        self.meta = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r})"


class Graph:
    """An rng holder; entering and leaving it does nothing.

    No op reads it: stochastic ops take their rng as an argument.  It stays
    only because ``perfbench/checks.py`` still enters ``Graph(rng=...)``
    around its train-mode gradient check, and goes when that line does.
    """

    def __init__(self, rng=None):
        self.rng = rng

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class no_grad:
    """Context manager: ops inside produce leaf outputs (nothing recorded)."""

    def __enter__(self):
        self._prev = _local.grad_enabled
        _local.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _local.grad_enabled = self._prev
        return False


def custom_op(data, name: str, parents: Sequence[Tensor],
              backward: Callable) -> Tensor:
    """Wrap an externally computed result as a recorded operation.

    ``backward(out_grad)`` must return one contribution per parent: an array
    added to the parent's grad buffer, a callable mutating the buffer in
    place, or ``None``.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.node_id = next(_ids)
    out.meta = None
    if _local.grad_enabled:
        out.op = name
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.op = "leaf"
        out._parents = ()
        out._backward = None
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be scalar.  Interior nodes get no ``.grad``: their
    gradients live only while the walk needs them.  Calling twice without
    clearing grads adds the two passes together.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward target must be scalar, got shape {loss.data.shape}")

    # Reverse post-order over the recording: inputs always precede outputs.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.node_id in seen or node._backward is None:
            continue
        seen.add(node.node_id)
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and p.node_id not in seen:
                stack.append((p, False))

    pending: dict[int, tuple[Tensor, np.ndarray]] = {
        loss.node_id: (loss, np.ones((), dtype=loss.data.dtype))
    }
    for node in reversed(order):
        entry = pending.pop(node.node_id, None)
        if entry is None:
            continue
        for parent, contrib in zip(node._parents, node._backward(entry[1])):
            if contrib is None:
                continue
            buf = pending.get(parent.node_id)
            if buf is None:
                buf = (parent, np.zeros_like(parent.data))
                pending[parent.node_id] = buf
            if callable(contrib):
                contrib(buf[1])
            else:
                np.add(buf[1], contrib, out=buf[1])
    for node, g in pending.values():  # remaining entries are leaves
        node.grad = g if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def mul_scalar(a: Tensor, s) -> Tensor:
    return custom_op(a.data * s, "mul_scalar", (a,), lambda g: (g * s,))


def affine(x: Tensor, w: Tensor, b_vec: Tensor) -> Tensor:
    """y = x @ w + b_vec, bias broadcast over rows."""
    xv, wv, bv = x.data, w.data, b_vec.data
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise DimensionError(f"affine: input {xv.shape} incompatible with weight {wv.shape}")
    if bv.shape != (wv.shape[1],):
        raise DimensionError(f"affine: bias {bv.shape} incompatible with weight {wv.shape}")
    y = xv @ wv
    y += bv
    return custom_op(y, "affine", (x, w, b_vec),
                     lambda g: (g @ wv.T, xv.T @ g, g.sum(axis=0)))


def _check_ids(name: str, table: Tensor, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"{name}: id out of range for table with {table.data.shape[0]} rows")


def lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradients flow only to looked-up rows."""
    ids = np.asarray(ids)
    _check_ids("lookup", table, ids)
    width = table.data.shape[1]
    def bw(g):
        def scatter(buf):
            np.add.at(buf, ids.reshape(-1), g.reshape(-1, width))
        return (scatter,)
    return custom_op(table.data[ids], "lookup", (table,), bw)


def masked_concat(table: Tensor, rows: np.ndarray, lengths: np.ndarray) -> Tensor:
    """out[i] = the rows ``table[rows[i, t]]`` side by side, zeros for t >= ``lengths[i]``."""
    rows = np.asarray(rows)
    _check_ids("masked_concat", table, rows)
    (m, n), d = rows.shape, table.data.shape[1]
    mask = (np.arange(n) < np.asarray(lengths)[:, None])[:, :, None].astype(table.data.dtype)
    def bw(g):
        def scatter(buf):
            np.add.at(buf, rows.reshape(-1), (g.reshape(m, n, d) * mask).reshape(-1, d))
        return (scatter,)
    return custom_op((table.data[rows] * mask).reshape(m, n * d), "masked_concat", (table,), bw)


def weighted_sum_time(seq: Tensor, alpha: np.ndarray) -> Tensor:
    """out[i] = sum_t alpha[i, t] * seq[i, t, :] for fixed weights (or masks)."""
    sv = seq.data
    av = np.asarray(alpha)
    if av.shape != sv.shape[:2]:
        raise DimensionError(f"weighted_sum_time: weights {av.shape} vs sequence {sv.shape}")
    out = np.einsum("mn,mnd->md", av, sv)
    return custom_op(out, "weighted_sum_time", (seq,),
                     lambda g: (av[:, :, None] * g[:, None, :],))


def attention_pool(seq: Tensor, lengths: np.ndarray, bias: Tensor,
                   table: Tensor | None = None, rows: np.ndarray | None = None) -> Tensor:
    """Learned attention over time, as one op: out[i] = sum_t alpha[i, t] * seq[i, t, :].

    The scores are ``bias[t]``, plus ``table[rows[i, t], t]`` when a table is
    given; alpha is their softmax over t < ``lengths[i]`` and exactly 0
    beyond.  ``meta`` holds alpha.
    """
    sv = seq.data
    m, n = sv.shape[:2]
    lengths = np.asarray(lengths)
    if lengths.min() < 1:
        raise ValueError("attention_pool: every row needs at least one valid entry")
    if n > bias.data.shape[0] or (table is not None and n > table.data.shape[1]):
        raise DimensionError(f"attention_pool: {n} positions exceed the score width")
    scores = np.broadcast_to(bias.data[:n], (m, n))
    if table is not None:
        rows = np.asarray(rows)
        cols = np.broadcast_to(np.arange(n), (m, n))
        scores = table.data[rows, cols] + scores
    z = np.where(np.arange(n) < lengths[:, None], scores, -np.inf)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    alpha = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        d_alpha = np.einsum("mnd,md->mn", sv, g)
        dot = (d_alpha * alpha).sum(axis=1, keepdims=True)
        d_scores = alpha * (d_alpha - dot)
        def bias_scatter(buf):
            buf[:n] += d_scores.sum(axis=0)
        def table_scatter(buf):
            np.add.at(buf, (rows, cols), d_scores)
        return (alpha[:, :, None] * g[:, None, :], bias_scatter, table_scatter)[:len(parents)]

    parents = (seq, bias) if table is None else (seq, bias, table)
    out = custom_op(np.einsum("mn,mnd->md", alpha, sv), "attention_pool", parents, bw)
    out.meta = alpha
    return out


# ---------------------------------------------------------------------------
# model-level operations


def dropout(x: Tensor, rate: float, mode: str = "train", rng=None) -> Tensor:
    """Inverted dropout: train-time mask scaled by 1/keep, eval is identity.

    Train mode draws the mask from ``rng``, which it requires; equal-seeded
    rngs give bitwise-equal masks.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = 1.0 - rate
    scale = ((rng.random(x.data.shape) >= rate) / keep).astype(x.data.dtype, copy=False)
    return custom_op(x.data * scale, "dropout", (x,), lambda g_: (g_ * scale,))


def softmax_xent(logits: Tensor, targets: np.ndarray) -> tuple[Tensor, Tensor]:
    """Mean cross-entropy of integer targets under row-wise softmax.

    Returns ``(loss, probs)``; ``probs`` is detached (rows sum to 1, max
    subtracted for stability), only ``loss`` carries gradients.
    """
    lv = logits.data
    if lv.ndim != 2:
        raise DimensionError(f"softmax_xent: logits must be 2-D, got {lv.shape}")
    targets = np.asarray(targets).reshape(-1)
    m, v = lv.shape
    if targets.shape[0] != m:
        raise DimensionError(f"softmax_xent: {targets.shape[0]} targets for {m} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"softmax_xent: target out of range [0, {v})")
    zmax = lv.max(axis=1, keepdims=True)
    e = np.exp(lv - zmax)
    z = e.sum(axis=1, keepdims=True)
    probs = e / z
    rows = np.arange(m)
    nll = np.log(z[:, 0]) + zmax[:, 0] - lv[rows, targets]
    def bw(g):
        d = probs.copy()
        d[rows, targets] -= 1.0
        d *= g / m
        return (d,)
    loss = custom_op(np.asarray(nll.mean()), "softmax_xent", (logits,), bw)
    return loss, Tensor(probs, dtype=probs.dtype)


class LSTMCellParams:
    """Gate parameters of one LSTM cell, fused as (i, f, o, g) blocks."""

    def __init__(self, wx: Tensor, wh: Tensor, b: Tensor):
        self.wx = wx  # (input_dim, 4*hidden)
        self.wh = wh  # (hidden, 4*hidden)
        self.b = b    # (4*hidden,)

    @property
    def hidden_dim(self) -> int:
        return self.wh.data.shape[0]

    def tensors(self) -> dict[str, Tensor]:
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    @staticmethod
    def create(input_dim: int, hidden_dim: int, init, dtype=DEFAULT_DTYPE,
               forget_bias: float = 1.0) -> "LSTMCellParams":
        b = init((4 * hidden_dim,))
        b[hidden_dim:2 * hidden_dim] = forget_bias
        return LSTMCellParams(
            Tensor(init((input_dim, 4 * hidden_dim)), dtype=dtype),
            Tensor(init((hidden_dim, 4 * hidden_dim)), dtype=dtype),
            Tensor(b, dtype=dtype),
        )


def lstm(x: Tensor, h0: np.ndarray, c0: np.ndarray, params: LSTMCellParams,
         steps: int, counts: np.ndarray | None = None):
    """A standard 4-gate LSTM (no peepholes) over a whole window, as one op.

    Each step computes c = sigmoid(f)*c_prev + sigmoid(i)*tanh(g) and
    h = sigmoid(o)*tanh(c).  ``x`` is time-major, (rows, input_dim), and
    ``h0`` and ``c0`` are the (batch, hidden) starting state.  Without
    ``counts`` every lane runs every step: row k*batch + j is lane j at
    step k.  With ``counts``, the non-increasing live-lane count of each of
    the ``steps`` steps, the sequences are packed as by PyTorch's
    ``pack_padded_sequence``: lanes are sorted longest first, step k holds
    lanes 0..counts[k]-1 only, and ``x`` holds the live rows alone, step
    after step.  The input projection, the recurrence and its backward then
    touch live rows only.

    Returns ``(out, h, c)``: the outputs, one row per row of ``x``, as one
    recorded tensor, and each lane's last live h and c as plain arrays, so
    no gradient flows into the starting state.
    """
    xv, wx, wh = x.data, params.wx.data, params.wh.data
    d = params.hidden_dim
    total = xv.shape[0]
    counts = np.full(steps, total // steps) if counts is None else np.asarray(counts)
    if xv.ndim != 2 or xv.shape[1] != wx.shape[0] or counts.shape != (steps,) \
            or counts.sum() != total:
        raise DimensionError(
            f"lstm: input {xv.shape} is not {steps} steps of width {wx.shape[0]}")
    if np.any(np.diff(counts) > 0):
        raise ValueError("lstm: live-lane counts must be non-increasing")
    batch = int(counts[0])
    if np.shape(h0) != (batch, d) or np.shape(c0) != (batch, d):
        raise DimensionError(
            f"lstm: state shapes h {np.shape(h0)}, c {np.shape(c0)} "
            f"do not match batch {batch}, hidden {d}")
    # step k's rows of x are offs[k]:offs[k+1].  hs and cs hold the starting
    # state in their first ``batch`` rows, then one row per row of x, so lane
    # j's state before step k is row prev[k] + j.
    offs = np.concatenate(([0], np.cumsum(counts)))
    prev = np.concatenate(([0], batch + offs[:-2]))
    # all live rows' input projections in one GEMM; each step then adds
    # h_prev @ wh and activates in place, so ``gates`` ends up holding i, f, o, g
    gates = xv @ wx
    gates += params.b.data
    hs = np.empty((batch + total, d), dtype=gates.dtype)
    cs = np.empty_like(hs)
    hs[:batch], cs[:batch] = h0, c0
    for k in range(steps):
        lo, hi, p = offs[k], offs[k + 1], prev[k]
        a = gates[lo:hi]
        a += hs[p:p + hi - lo] @ wh
        a[:, :3 * d] *= 0.5
        np.tanh(a, out=a)
        a[:, :3 * d] += 1.0  # sigmoid(z) = (1 + tanh(z/2)) / 2
        a[:, :3 * d] *= 0.5
        i, f, o, g = a[:, :d], a[:, d:2 * d], a[:, 2 * d:3 * d], a[:, 3 * d:]
        c = f * cs[p:p + hi - lo] + i * g
        hs[batch + lo:batch + hi] = o * np.tanh(c)
        cs[batch + lo:batch + hi] = c

    def bw(g_out):
        dz = np.empty_like(gates)
        # lanes beyond a step's count have no later steps, so their entries
        # are still zero when the backward walk reaches their last step
        dh = np.zeros((batch, d), dtype=gates.dtype)
        dc = np.zeros_like(dh)
        for k in reversed(range(steps)):
            lo, hi, p = offs[k], offs[k + 1], prev[k]
            n = hi - lo
            dh_k = dh[:n] + g_out[lo:hi]
            a = gates[lo:hi]
            i, f, o, g = a[:, :d], a[:, d:2 * d], a[:, 2 * d:3 * d], a[:, 3 * d:]
            tc = np.tanh(cs[batch + lo:batch + hi])
            dc_k = dc[:n] + dh_k * o * (1.0 - tc * tc)
            dz[lo:hi, :d] = dc_k * g * i * (1.0 - i)
            dz[lo:hi, d:2 * d] = dc_k * cs[p:p + n] * f * (1.0 - f)
            dz[lo:hi, 2 * d:3 * d] = dh_k * tc * o * (1.0 - o)
            dz[lo:hi, 3 * d:] = dc_k * i * (1.0 - g * g)
            dc[:n] = dc_k * f
            dh[:n] = dz[lo:hi] @ wh.T
        h_prev = hs[np.concatenate([np.arange(p, p + n) for p, n in zip(prev, counts)])]
        return (dz @ wx.T, xv.T @ dz, h_prev.T @ dz, dz.sum(axis=0))

    out = custom_op(hs[batch:], "lstm", (x, params.wx, params.wh, params.b), bw)
    # lane j is live for the steps whose count exceeds j
    lengths = (counts[:, None] > np.arange(batch)).sum(axis=0)
    last = batch + offs[lengths - 1] + np.arange(batch)
    return out, hs[last], cs[last]


def conv1d_max_over_time(seq: Tensor, banks, lengths=None) -> Tensor:
    """Tanh convolution banks over time, max-pooled and concatenated, as one op.

    ``banks`` is a list of ``(width, weights, bias)`` with weights shaped
    (width*d, k); out[i, f] = max_t tanh(window(i, t) @ weights[:, f] + bias[f])
    over each bank's k columns in turn.  ``lengths``, when given, limits
    pooling of each row to windows starting inside its first
    ``min(max(lengths[i], max_width), n)`` positions, so trailing padding
    beyond that never matters; ``meta`` holds these extents.

    Each bank is one 2-D GEMM over all windows.  tanh is increasing, so the
    max is taken first and the bias and tanh touch the (m, k) maxima only;
    gradients flow through each (row, filter)'s argmax window alone.
    """
    sv = seq.data
    m, n, d = sv.shape
    widest = max(w for w, _, _ in banks)
    if widest > n:
        raise ConfigError(f"filter width {widest} exceeds {n} subword positions")
    extent = np.full(m, n) if lengths is None else np.minimum(
        np.maximum(np.asarray(lengths), widest), n)
    outs, saved = [], []
    for width, weights, bias in banks:
        t_count = n - width + 1
        win = np.lib.stride_tricks.sliding_window_view(sv, width, axis=1)  # m, T, d, width
        win = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(m * t_count, width * d)
        z = (win @ weights.data).reshape(m, t_count, -1)
        z[np.arange(t_count) > extent[:, None] - width] = -np.inf
        arg = z.argmax(axis=1)[:, None, :]  # m, 1, k
        y = np.take_along_axis(z, arg, axis=1)[:, 0, :] + bias.data
        np.tanh(y, out=y)
        outs.append(y)
        saved.append((width, t_count, win, weights.data, arg, y))

    def bw(g):
        contribs, dwins, off = [], [], 0
        for width, t_count, win, wv, arg, y in saved:
            k = y.shape[1]
            gz = g[:, off:off + k] * (1.0 - y * y)
            off += k
            dz = np.zeros((m, t_count, k), dtype=gz.dtype)
            np.put_along_axis(dz, arg, gz[:, None, :], axis=1)
            dz = dz.reshape(m * t_count, k)
            dwins.append((width, t_count, (dz @ wv.T).reshape(m, t_count, width, d)))
            contribs += [win.T @ dz, gz.sum(axis=0)]

        def scatter(buf):
            for width, t_count, dwin in dwins:
                for j in range(width):
                    buf[:, j:j + t_count] += dwin[:, :, j]
        return [scatter] + contribs

    parents = [seq] + [p for _, weights, bias in banks for p in (weights, bias)]
    out = custom_op(np.concatenate(outs, axis=1), "conv1d_max_over_time", parents, bw)
    out.meta = extent
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated on each sign's branch without overflow."""
    y = np.empty_like(z)
    pos = z >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ex = np.exp(z[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def highway(x: Tensor, layers) -> Tensor:
    """A stack of highway layers (Srivastava et al.) over the rows of ``x``, as one op.

    ``layers`` is a list of ``(w_t, b_t, w_h, b_h)``; each layer maps y to
    t * relu(y @ w_h + b_h) + (1 - t) * y with t = sigmoid(y @ w_t + b_t).
    With no layers, ``x`` itself is returned and nothing is recorded.
    """
    if not layers:
        return x
    y = x.data
    saved = []
    for w_t, b_t, w_h, b_h in layers:
        z = y @ w_t.data
        z += b_t.data
        t = _sigmoid(z)
        z = y @ w_h.data
        z += b_h.data
        h = np.maximum(z, 0.0)
        saved.append((y, t, h))
        y = t * h + (1.0 - t) * y

    def bw(g):
        grads = []
        for (w_t, _, w_h, _), (y, t, h) in zip(reversed(layers), reversed(saved)):
            dz_t = g * h
            dz_t -= g * y
            dz_t *= t
            dz_t *= 1.0 - t
            dz_h = g * t
            dz_h *= h > 0  # the relu input is positive exactly where h is
            grads.append((y.T @ dz_t, dz_t.sum(axis=0), y.T @ dz_h, dz_h.sum(axis=0)))
            g = g * (1.0 - t)
            g += dz_h @ w_h.data.T
            g += dz_t @ w_t.data.T
        return [g] + [d for layer in reversed(grads) for d in layer]

    parents = [x] + [p for layer in layers for p in layer]
    return custom_op(y, "highway", parents, bw)
