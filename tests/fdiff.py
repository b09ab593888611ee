"""Central finite-difference oracle for gradient checks.

The oracle re-evaluates the forward function with perturbed parameters and
never touches the analytic backward path, so both sides stay independent.
"""

import numpy as np

from cnn_reference import preactivations
from highway_reference import highway
from sublm import tensor as T

STEP = 1e-5


def scalar_loss(out: T.Tensor, weights=None) -> T.Tensor:
    """sum(out * G) as one recorded op: the scalar loss every test builds.

    G is all ones, or the fixed array ``weights`` (broadcast onto ``out``),
    so d loss / d out = G exactly.
    """
    g = np.ones_like(out.data) if weights is None else np.broadcast_to(weights, out.shape)
    return T.custom_op(np.asarray((out.data * g).sum()), "scalar_loss", (out,),
                       lambda s: (s * g,))


def numeric_grad(loss_fn, param: T.Tensor, step: float = STEP) -> np.ndarray:
    """d loss / d param by central differences, perturbing in place."""
    flat = param.data.reshape(-1)
    grad = np.empty_like(flat)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss_fn().data)
            flat[i] = orig - step
            lo = float(loss_fn().data)
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(param.data.shape)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.abs(numeric).max(initial=0.0), 1e-3)
    return float(np.abs(analytic - numeric).max(initial=0.0) / denom)


def check_grads(loss_fn, params: dict, tol: float = 1e-4) -> float:
    """Assert every parameter's analytic gradient matches the fd oracle.

    ``loss_fn`` rebuilds the forward pass from the live parameter tensors.
    Returns the worst relative error seen.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_grad(loss_fn, p)
        err = rel_err(analytic, numeric)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e}"
        worst = max(worst, err)
    return worst


def fd_margin(loss: T.Tensor) -> float:
    """How far this forward pass sits from a non-differentiable point.

    Walks the recording behind ``loss`` and returns the smallest highway
    relu input magnitude or max-pool top-two gap found.  Central
    differences are only a valid oracle when this margin comfortably
    exceeds the step size.
    """
    margin = np.inf
    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if node.node_id in seen or node._backward is None:
            continue
        seen.add(node.node_id)
        if node.op == "highway":
            margin = min(margin, highway_relu_gap(node))
        elif node.op == "conv1d_max_over_time":
            margin = min(margin, conv_pool_gap(node))
        stack.extend(node._parents)
    return margin


def highway_relu_gap(node: T.Tensor) -> float:
    """Smallest relu input magnitude of any layer of a highway op.

    The op's parents are the input and then each layer's w_t, b_t, w_h and
    b_h; the relu inputs are recomputed from them layer by layer.
    """
    x, *params = (p.data for p in node._parents)
    layers = [params[i:i + 4] for i in range(0, len(params), 4)]
    _, relu_inputs = highway(x, layers)
    return min(float(np.abs(z).min()) for z in relu_inputs)


def conv_pool_gap(node: T.Tensor) -> float:
    """Smallest top-two gap of any bank's masked pre-activations over time.

    The fused conv op's parents are the sequence and then each bank's
    weights and bias; ``node.meta`` holds its per-row pooling extents.  The
    argmax window of a (row, filter) switches where the gap closes, so that
    gap is the op's distance from a kink (the bias and tanh cannot move it).
    """
    seq = node._parents[0].data
    m, n, d = seq.shape
    gap = np.inf
    for w in node._parents[1::2]:
        width = w.data.shape[0] // d
        if n - width + 1 < 2:
            continue  # a single window start: nothing to switch to
        z = preactivations(seq, w.data, width)
        valid = np.arange(z.shape[1])[None, :, None] <= (node.meta - width)[:, None, None]
        top2 = np.sort(np.where(valid, z, -np.inf), axis=1)[:, -2:, :]
        gaps = top2[:, 1, :] - top2[:, 0, :]
        finite = gaps[np.isfinite(gaps)]
        if finite.size:
            gap = min(gap, float(finite.min()))
    return gap


def safe_instance(build, seed: int, min_margin: float = 1e-3):
    """Deterministically find a seed whose instance is fd-checkable.

    ``build(rng)`` returns ``(loss_fn, params)``.  Seeds step by 1000 until
    the forward pass keeps every kink at least ``min_margin`` away, so the
    central-difference oracle stays valid.
    """
    for attempt in range(20):
        rng = np.random.default_rng(seed + 1000 * attempt)
        loss_fn, params = build(rng)
        if fd_margin(loss_fn()) > min_margin:
            return loss_fn, params
    raise AssertionError(f"no fd-safe instance found from seed {seed}")
