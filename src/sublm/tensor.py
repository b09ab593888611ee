"""Dense tensors with recorded operations and exact reverse-mode gradients.

Every operation computes its result eagerly with numpy and remembers its
inputs together with a backward rule.  ``backward(loss)`` walks the recording
newest first (:func:`recorded`) and accumulates gradients into the ``.grad``
of the leaf tensors it reaches (parameters, inputs); interior nodes keep none.
Repeated calls accumulate additively until grads are cleared.  A whole LSTM
layer over a window is one recorded op (:func:`lstm`), with its own
backpropagation through time and dropout on its outputs, so a window's
recording does not grow with its length.  It also runs packed
variable-length sequences (a subword LSTM's words, longest first, each step
over the words still running), so no step is spent on padding.  Likewise
all of a CNN composer's convolution banks, with their tanh and max-over-time
pooling, are one op (:func:`conv1d_max_over_time`), and so is a whole
highway stack, gates and all (:func:`highway`).  Syl-Concat's zero-padded
subword concatenation is one op (:func:`masked_concat`), and so is the
learned attention of Syl-Avg-A/B, scores, masked softmax and weighted sum
together (:func:`attention_pool`).  The output layer and its loss, the
logits exponentiated in place, are one op (:func:`output_nll`).

Default precision is 64-bit; 32-bit is opt-in per tensor.  Reductions run in
a fixed order, so results are bitwise reproducible for a fixed BLAS thread
count.  Stochastic ops take their rng as an argument, so a forward pass
repeats bitwise under an equal-seeded rng.

The walk runs the ops' weight-gradient GEMMs (``x.T @ g`` into a parameter)
on one helper thread (:func:`later`) while it goes on down the chain of
input gradients.  Each GEMM is the same call with the same operands on
either thread, and the walk adds each result into its buffer in the order
it would without the helper, so the bits never depend on it.  A process
forked from one that has run a walk starts its own helper on its first.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
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


def Graph(rng=None):
    """A context that does nothing: stochastic ops take their rng as an argument.
    ``perfbench/checks.py`` still enters ``Graph(rng=...)``; this goes with that line."""
    return contextlib.nullcontext()


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
    place, ``None``, or a :func:`later` ``Future`` of an array or of such a
    callable.  A task handed to :func:`later` must read only arrays that
    nothing writes afterwards.
    """
    out = Tensor(data)
    if _local.grad_enabled:
        out.op, out._parents, out._backward = name, tuple(parents), backward
    return out


def recorded(loss: Tensor) -> list[Tensor]:
    """Every tensor ``loss`` depends on, ``loss`` and the leaves included, newest first.

    An op's inputs exist before its output, so descending ``node_id`` order
    lists every node after all of its consumers.
    """
    found = {loss.node_id: loss}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.node_id not in found:
                found[p.node_id] = p
                stack.append(p)
    return [found[i] for i in sorted(found, reverse=True)]


_helper: ThreadPoolExecutor | None = None
_helper_pid: int | None = None


def later(fn: Callable, *args) -> Future:
    """``fn(*args)`` submitted to the walk's one helper thread.

    Backward rules hand their weight-gradient GEMMs to it: a parameter's
    gradient is needed only when the walk reaches that leaf, which
    :func:`recorded` lists last.  The helper is created on first use, and
    again in a forked child, which does not inherit the parent's thread.
    Two threads whose first walks race here may each start one; either
    serves, and no result depends on which.
    """
    global _helper, _helper_pid
    if _helper_pid != os.getpid():
        _helper = ThreadPoolExecutor(1, thread_name_prefix="sublm-backward")
        _helper_pid = os.getpid()
    return _helper.submit(fn, *args)


def _add(pending: dict, node: Tensor, contrib) -> None:
    """Add an array or apply a callable to ``node``'s gradient buffer."""
    buf = pending.get(node.node_id)
    if buf is None:
        buf = pending[node.node_id] = np.zeros_like(node.data)
    if callable(contrib):
        contrib(buf)
    else:
        np.add(buf, contrib, out=buf)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be scalar.  Interior nodes get no ``.grad``: their
    gradients live only while the walk needs them.  Calling twice without
    clearing grads adds the two passes together.

    Array and callable contributions are added at once.  A :func:`later`
    one waits, at most one per node, until the walk reaches its node or
    another contribution for that node arrives, so every buffer sums its
    contributions in the order the ops returned them, whichever thread
    computed them.  An exception raised in a helper task is raised here.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward target must be scalar, got shape {loss.data.shape}")
    pending = {loss.node_id: np.ones((), dtype=loss.data.dtype)}
    waiting: dict[int, Future] = {}
    try:
        for node in recorded(loss):
            if node.node_id in waiting:
                _add(pending, node, waiting.pop(node.node_id).result())
            g = pending.pop(node.node_id, None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, contrib in zip(node._parents, node._backward(g)):
                if contrib is None:
                    continue
                if parent.node_id in waiting:
                    _add(pending, parent, waiting.pop(parent.node_id).result())
                if isinstance(contrib, Future):
                    waiting[parent.node_id] = contrib
                else:
                    _add(pending, parent, contrib)
    finally:
        for fut in waiting.values():
            fut.cancel()


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def mul_scalar(a: Tensor, s) -> Tensor:
    return custom_op(a.data * s, "mul_scalar", (a,), lambda g: (g * s,))


def _check_affine(name: str, xv: np.ndarray, wv: np.ndarray, bv: np.ndarray) -> None:
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise DimensionError(f"{name}: input {xv.shape} incompatible with weight {wv.shape}")
    if bv.shape != (wv.shape[1],):
        raise DimensionError(f"{name}: bias {bv.shape} incompatible with weight {wv.shape}")


def _affine_grads(xv: np.ndarray, wv: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of x @ w + b for x, w and b, given g = d/dy; w's on the helper."""
    dw = later(np.matmul, xv.T, g)
    return (g @ wv.T, dw, g.sum(axis=0))


def affine(x: Tensor, w: Tensor, b_vec: Tensor) -> Tensor:
    """y = x @ w + b_vec, bias broadcast over rows."""
    xv, wv, bv = x.data, w.data, b_vec.data
    _check_affine("affine", xv, wv, bv)
    y = xv @ wv
    y += bv
    return custom_op(y, "affine", (x, w, b_vec), lambda g: _affine_grads(xv, wv, g))


def _check_ids(name: str, table: Tensor, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"{name}: id out of range for table with {table.data.shape[0]} rows")


def _scatter_rows(buf: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """buf[ids[i]] += rows[i] for each i in turn, as one flat ``np.add.at``."""
    width = buf.shape[1]
    flat = np.asarray(ids).reshape(-1, 1) * width + np.arange(width)
    np.add.at(buf.reshape(-1, copy=False), flat.reshape(-1), np.asarray(rows).reshape(-1))


def lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradients flow only to looked-up rows."""
    ids = np.asarray(ids)
    _check_ids("lookup", table, ids)
    return custom_op(table.data[ids], "lookup", (table,),
                     lambda g: (lambda buf: _scatter_rows(buf, ids, g),))


def masked_concat(table: Tensor, rows: np.ndarray, lengths: np.ndarray) -> Tensor:
    """out[i] = the rows ``table[rows[i, t]]`` side by side, zeros for t >= ``lengths[i]``."""
    rows = np.asarray(rows)
    _check_ids("masked_concat", table, rows)
    (m, n), d = rows.shape, table.data.shape[1]
    mask = (np.arange(n) < np.asarray(lengths)[:, None])[:, :, None].astype(table.data.dtype)
    return custom_op((table.data[rows] * mask).reshape(m, n * d), "masked_concat", (table,),
                     lambda g: (lambda buf: _scatter_rows(buf, rows, g.reshape(m, n, d) * mask),))


def weighted_sum_time(seq: Tensor, alpha: np.ndarray) -> Tensor:
    """out[i] = sum_t alpha[i, t] * seq[i, t, :] for fixed weights (or masks).

    ``meta`` holds alpha, as :func:`attention_pool`'s does.
    """
    sv = seq.data
    av = np.asarray(alpha)
    if av.shape != sv.shape[:2]:
        raise DimensionError(f"weighted_sum_time: weights {av.shape} vs sequence {sv.shape}")
    out = custom_op(np.einsum("mn,mnd->md", av, sv), "weighted_sum_time", (seq,),
                    lambda g: (av[:, :, None] * g[:, None, :],))
    out.meta = av
    return out


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
        _check_ids("attention_pool", table, rows)
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
            # score (i, t) lands on the one element table[rows[i, t], t]
            _scatter_rows(buf.reshape(-1, 1, copy=False), rows * buf.shape[1] + cols, d_scores)
        return (alpha[:, :, None] * g[:, None, :], bias_scatter, table_scatter)[:len(parents)]

    parents = (seq, bias) if table is None else (seq, bias, table)
    out = custom_op(np.einsum("mn,mnd->md", alpha, sv), "attention_pool", parents, bw)
    out.meta = alpha
    return out


# ---------------------------------------------------------------------------
# model-level operations


def _check_targets(name: str, targets, m: int, v: int) -> np.ndarray:
    """``targets`` flattened, one class id in [0, v) for each of m rows."""
    targets = np.asarray(targets).reshape(-1)
    if targets.shape[0] != m:
        raise DimensionError(f"{name}: {targets.shape[0]} targets for {m} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"{name}: target out of range [0, {v})")
    return targets


def _softmax_rows(lv: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None):
    """Row-wise softmax pieces of the logits ``lv`` for integer ``targets``.

    Writes ``e = exp(lv - row max)`` into ``out`` (a new array when None;
    ``lv`` itself to overwrite the logits) and returns it with its row sums
    ``z`` (m, 1) and each row's NLL ``log z + max - lv[target]``.
    """
    zmax = lv.max(axis=1, keepdims=True)
    picked = lv[np.arange(lv.shape[0]), targets]
    e = np.subtract(lv, zmax, out=out)
    np.exp(e, out=e)
    z = e.sum(axis=1, keepdims=True)
    return e, z, np.log(z[:, 0]) + zmax[:, 0] - picked


def _softmax_grad(e: np.ndarray, z: np.ndarray, targets: np.ndarray, g) -> np.ndarray:
    """d(mean NLL)/d(logits) times ``g``, in a new array; ``e`` is left as it is."""
    m = e.shape[0]
    d = e / z
    d[np.arange(m), targets] -= 1.0
    d *= g / m
    return d


def softmax_xent(logits: Tensor, targets: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Mean cross-entropy of integer targets under row-wise softmax.

    Returns ``(loss, nll)``: ``nll`` is each row's detached NLL (max
    subtracted for stability); only ``loss`` carries gradients.
    """
    lv = logits.data
    if lv.ndim != 2:
        raise DimensionError(f"softmax_xent: logits must be 2-D, got {lv.shape}")
    targets = _check_targets("softmax_xent", targets, *lv.shape)
    e, z, nll = _softmax_rows(lv, targets)
    loss = custom_op(np.asarray(nll.mean()), "softmax_xent", (logits,),
                     lambda g: (_softmax_grad(e, z, targets, g),))
    return loss, nll


def output_nll(h: Tensor, w: Tensor, b: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer targets under softmax(h @ w + b), as one op.

    The same numbers as ``softmax_xent(affine(h, w, b), targets)``, bitwise,
    but the logits are never a recorded tensor: they are exponentiated in
    place, so the forward keeps one (rows, V) buffer, and the backward
    allocates one more and hands the three parents their gradients
    directly.  ``meta`` holds each row's detached NLL.
    """
    hv, wv, bv = h.data, w.data, b.data
    _check_affine("output_nll", hv, wv, bv)
    targets = _check_targets("output_nll", targets, hv.shape[0], wv.shape[1])
    lv = hv @ wv
    lv += bv
    e, z, nll = _softmax_rows(lv, targets, out=lv)
    loss = custom_op(np.asarray(nll.mean()), "output_nll", (h, w, b),
                     lambda g: _affine_grads(hv, wv, _softmax_grad(e, z, targets, g)))
    loss.meta = nll
    return loss


def lstm_params(input_dim: int, hidden_dim: int, init) -> tuple[Tensor, Tensor, Tensor]:
    """A cell's ``(wx, wh, b)`` from ``init(shape)``, whatever its dtype.

    The gates are fused as (i, f, o, g) blocks of ``hidden_dim`` columns.
    The forget biases are set to 1 in ``init``'s own ``b`` when it is
    writeable; a read-only (shape-only) ``b`` is kept as it is.
    """
    b = init((4 * hidden_dim,))
    if b.flags.writeable:
        b[hidden_dim:2 * hidden_dim] = 1
    return (Tensor(init((input_dim, 4 * hidden_dim))),
            Tensor(init((hidden_dim, 4 * hidden_dim))), Tensor(b))


def lstm(x: Tensor, h0: np.ndarray, c0: np.ndarray, params, steps: int,
         counts: np.ndarray | None = None, dropout: float = 0.0, rng=None):
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
    touch live rows only.  ``params`` is the cell's ``(wx, wh, b)``.

    With ``dropout`` > 0, inverted dropout with a mask from ``rng`` applies to
    the outputs alone, never to the recurrence or the returned state.

    Returns ``(out, h, c)``: the outputs, one row per row of ``x``, as one
    recorded tensor, and each lane's last live h and c as plain arrays, so
    no gradient flows into the starting state.
    """
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {dropout}")
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout needs an rng")
    xv = x.data
    wx, wh, b = (p.data for p in params)
    d = wh.shape[0]
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
    gates += b
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
    out = hs[batch:]
    if dropout > 0.0:
        mask = rng.random(out.shape) >= dropout
        scale = (mask / (1.0 - dropout)).astype(out.dtype, copy=False)
        out = out * scale

    def bw(g_out):
        if dropout > 0.0:
            g_out = g_out * scale
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
        # each row's state before its step: rows prev[k]..prev[k]+counts[k]-1
        before = np.concatenate([np.arange(p, p + n) for p, n in zip(prev, counts)])
        dwx = later(np.matmul, xv.T, dz)
        dwh = later(lambda: hs[before].T @ dz)
        return (dz @ wx.T, dwx, dwh, dz.sum(axis=0))

    out = custom_op(out, "lstm", (x, *params), bw)
    # lane j is live for the steps whose count exceeds j
    lengths = (counts[:, None] > np.arange(batch)).sum(axis=0)
    last = batch + offs[lengths - 1] + np.arange(batch)
    return out, hs[last], cs[last]


def conv1d_max_over_time(seq: Tensor, banks, lengths: np.ndarray) -> Tensor:
    """Tanh convolution banks over time, max-pooled and concatenated, as one op.

    ``banks`` is a list of ``(width, weights, bias)`` with weights shaped
    (width*d, k); out[i, f] = max_t tanh(window(i, t) @ weights[:, f] + bias[f])
    over each bank's k columns in turn.  ``lengths`` limits pooling of each
    row to windows starting inside its first
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
    extent = np.minimum(np.maximum(np.asarray(lengths), widest), n)
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
            contribs += [later(np.matmul, win.T, dz), gz.sum(axis=0)]
            dwins.append((width, t_count, (dz @ wv.T).reshape(m, t_count, width, d)))

        def scatter(buf):
            for width, t_count, dwin in dwins:
                for j in range(width):
                    buf[:, j:j + t_count] += dwin[:, :, j]
        return [scatter] + contribs

    parents = [seq] + [p for _, weights, bias in banks for p in (weights, bias)]
    out = custom_op(np.concatenate(outs, axis=1), "conv1d_max_over_time", parents, bw)
    out.meta = extent
    return out


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
        t = y @ w_t.data
        t += b_t.data
        t *= 0.5
        np.tanh(t, out=t)
        t += 1.0  # sigmoid(z) = (1 + tanh(z/2)) / 2, as in lstm
        t *= 0.5
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
            grads.append((later(np.matmul, y.T, dz_t), dz_t.sum(axis=0),
                          later(np.matmul, y.T, dz_h), dz_h.sum(axis=0)))
            g = g * (1.0 - t)
            g += dz_h @ w_h.data.T
            g += dz_t @ w_t.data.T
        return [g] + [d for layer in reversed(grads) for d in layer]

    parents = [x] + [p for layer in layers for p in layer]
    return custom_op(y, "highway", parents, bw)
