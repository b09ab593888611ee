"""Finite-difference checks for every differentiable operation.

Each case builds a small random instance, reduces the op output to a scalar
with ``fdiff.scalar_loss`` (a plain or a fixed-weight sum), and compares
analytic gradients against the central-difference oracle in fdiff (64-bit,
step 1e-5, rel err < 1e-4; tighter where stated).
"""

import importlib

import numpy as np
import pytest

from fdiff import check_grads, numeric_grad, rel_err, safe_instance, scalar_loss
from sublm import tensor as T
from sublm.composition import build_composer, uniform_init
from sublm.config import TrainConfig
from sublm.lm import LanguageModel, LogUniformSampler
from test_lm import EMBED_DIMS, SIZES, W_VOCAB, toy_corpus

SEEDS = range(20)


def t(rng, *shape, scale=1.0):
    return T.Tensor(rng.normal(scale=scale, size=shape))


@pytest.mark.parametrize("seed", SEEDS)
def test_affine_wrt_all_inputs(seed):
    rng = np.random.default_rng(seed)
    x, w, b = t(rng, 3, 4), t(rng, 4, 5), t(rng, 5)
    params = {"x": x, "w": w, "b": b}
    # spec pins 1e-6 for the weight gradient of sum(affine(...))
    check_grads(lambda: scalar_loss(T.affine(x, w, b)), params, tol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_lstm_cell_wrt_all_params(seed):
    # the whole-window op, with every lane live and with packed lanes of
    # random lengths
    rng = np.random.default_rng(seed)
    steps, b = 3, 3
    for lengths in (None, np.sort(rng.integers(1, steps + 1, size=b))[::-1]):
        check_lstm_grads(rng, steps, b, lengths)


@pytest.mark.parametrize("case", ["length-1", "equal-lengths", "full-counts"])
def test_packed_lstm_edge_cases(case, rng):
    # every lane one step long; all lanes the same length, given as counts;
    # and explicit full counts, each with a nonzero starting state
    lengths = {"length-1": [1, 1, 1], "equal-lengths": [2, 2, 2],
               "full-counts": [3, 3, 3]}[case]
    check_lstm_grads(rng, max(lengths), 3, np.array(lengths))


def check_lstm_grads(rng, steps, b, lengths, dropout=0.0):
    """Central differences of a weighted sum of the op's outputs; lanes are
    packed longest first when ``lengths`` is given."""
    p, d = 3, 4
    live = (np.ones((steps, b), dtype=bool) if lengths is None
            else np.arange(steps)[:, None] < lengths)
    rows = int(live.sum())
    params = {
        "wx": t(rng, p, 4 * d, scale=0.5),
        "wh": t(rng, d, 4 * d, scale=0.5),
        "b": t(rng, 4 * d, scale=0.5),
        "x": t(rng, rows, p),
    }
    cell = (params["wx"], params["wh"], params["b"])
    h0, c0 = rng.normal(scale=0.5, size=(b, d)), rng.normal(scale=0.5, size=(b, d))
    counts = None if lengths is None else live.sum(axis=1)
    weights = rng.normal(size=(rows, d))

    def loss():
        # fresh rng with the same seed per evaluation fixes the dropout mask
        out, _, _ = T.lstm(params["x"], h0, c0, cell, steps, counts, dropout=dropout,
                           rng=np.random.default_rng(99))
        return scalar_loss(out, weights)

    check_grads(loss, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_highway(seed):
    # two layers, so the second layer's gradient flows back through the first
    def build(rng):
        m, d = 3, 4
        params = {"x": t(rng, m, d)}
        layers = []
        for i in range(2):
            layer = (t(rng, d, d, scale=0.6), t(rng, d, scale=0.6),
                     t(rng, d, d, scale=0.6), t(rng, d, scale=0.6))
            params.update(zip((f"w_t{i}", f"b_t{i}", f"w_h{i}", f"b_h{i}"), layer))
            layers.append(layer)
        weights = rng.normal(size=(m, d))
        return (lambda: scalar_loss(T.highway(params["x"], layers), weights)), params

    loss_fn, params = safe_instance(build, seed)
    check_grads(loss_fn, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv1d_max_over_time(seed):
    def build(rng):
        m, n, d = 3, 5, 4
        seq = t(rng, m, n, d)
        banks = [(1, t(rng, d, 2), t(rng, 2)), (2, t(rng, 2 * d, 3), t(rng, 3))]
        lengths = rng.integers(1, n + 1, size=m)
        params = {"seq": seq, "f1": banks[0][1], "b1": banks[0][2],
                  "f2": banks[1][1], "b2": banks[1][2]}
        return (lambda: scalar_loss(T.conv1d_max_over_time(seq, banks, lengths))), params

    loss_fn, params = safe_instance(build, seed)
    check_grads(loss_fn, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv1d_banks_wider_than_short_words(seed):
    # a width-4 bank pools over pad positions of every word shorter than 4
    def build(rng):
        m, n, d = 4, 5, 3
        seq = t(rng, m, n, d)
        banks = [(w, t(rng, w * d, 2), t(rng, 2)) for w in (1, 2, 4)]
        lengths = rng.integers(1, n + 1, size=m)
        params = {"seq": seq}
        for w, f, b in banks:
            params.update({f"f{w}": f, f"b{w}": b})
        return (lambda: scalar_loss(T.conv1d_max_over_time(seq, banks, lengths))), params

    loss_fn, params = safe_instance(build, seed)
    check_grads(loss_fn, params)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_xent(seed):
    rng = np.random.default_rng(seed)
    logits = t(rng, 4, 7)
    targets = rng.integers(0, 7, size=4)
    check_grads(lambda: T.softmax_xent(logits, targets)[0], {"logits": logits}, tol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_output_nll(seed):
    # targets in the first and the last column, and one class twice
    rng = np.random.default_rng(seed)
    h, w, b = t(rng, 5, 3), t(rng, 3, 7), t(rng, 7)
    targets = np.array([0, 6, rng.integers(7), 0, rng.integers(7)])
    check_grads(lambda: T.output_nll(h, w, b, targets), {"h": h, "w": w, "b": b}, tol=1e-6)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_dropout_with_fixed_mask(seed):
    # the lstm op's output dropout, with every lane live and with packed lanes
    rng = np.random.default_rng(seed)
    for lengths in (None, np.array([3, 2, 1])):
        check_lstm_grads(rng, 3, 3, lengths, dropout=0.4)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_elementwise_chain(seed):
    # mul_scalar, the one elementwise op: train() scales each window's loss
    rng = np.random.default_rng(seed)
    a = t(rng, 3, 3)
    weights = rng.normal(size=(3, 3))
    check_grads(lambda: scalar_loss(T.mul_scalar(T.mul_scalar(a, 0.5), -1.7), weights),
                {"a": a})


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_lookup_and_masked_ops(seed):
    rng = np.random.default_rng(seed)
    table = t(rng, 8, 4)
    amat = t(rng, 8, 5)
    bias = t(rng, 5)
    ids = rng.integers(0, 8, size=(3, 5))
    lengths = rng.integers(1, 6, size=3)
    weights = rng.normal(size=(3, 20))

    # attention pooling with per-position scores alone and with a score table too
    check_grads(lambda: scalar_loss(T.attention_pool(T.lookup(table, ids), lengths, bias)),
                {"table": table, "bias": bias})
    check_grads(lambda: scalar_loss(T.attention_pool(T.lookup(table, ids), lengths, bias,
                                                     amat, ids)),
                {"table": table, "amat": amat, "bias": bias})
    check_grads(lambda: scalar_loss(T.masked_concat(table, ids, lengths), weights),
                {"table": table})
    # fixed per-position weights, zero past each row's length as a mask gives them
    alpha = rng.normal(size=(3, 5)) * (np.arange(5) < lengths[:, None])
    check_grads(lambda: scalar_loss(T.weighted_sum_time(T.lookup(table, ids), alpha)),
                {"table": table})


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_structural_ops(seed):
    rng = np.random.default_rng(seed)
    a = t(rng, 4, 3)
    ids = rng.integers(0, 3, size=(2, 4))
    lengths = rng.integers(1, 5, size=2)
    weights = rng.normal(size=(2, 12))

    def loss():
        # the concatenated table is itself an op output: rows 1..3 of 1.5 a
        table = T.mul_scalar(T.lookup(a, np.arange(1, 4)), 1.5)
        return scalar_loss(T.masked_concat(table, ids, lengths), weights)

    check_grads(loss, {"a": a})


def test_rel_err_helper_detects_mismatch(rng):
    g = rng.normal(size=(3, 3))
    assert rel_err(g, g) == 0.0
    assert rel_err(g + 1e-2, g) > 1e-3


def test_numeric_grad_on_quadratic():
    x = T.Tensor(np.array([[2.0, -1.0], [0.5, 3.0]]))
    zero = T.Tensor(np.zeros(2))
    # d sum(x @ x) / d x[a, b] = (row sum of x)[b] + (column sum of x)[a]
    num = numeric_grad(lambda: scalar_loss(T.affine(x, x, zero)), x)
    want = x.data.sum(axis=1)[None, :] + x.data.sum(axis=0)[:, None]
    assert np.abs(num - want).max() < 1e-8


# every op the program records, and the fd test that covers it
FD_TESTS = {
    "affine": "test_gradients::test_affine_wrt_all_inputs",
    "attention_pool": "test_gradients::test_lookup_and_masked_ops",
    "conv1d_max_over_time": "test_gradients::test_conv1d_max_over_time",
    "highway": "test_gradients::test_highway",
    "lookup": "test_gradients::test_lookup_and_masked_ops",
    "lstm": "test_gradients::test_lstm_cell_wrt_all_params",
    "masked_concat": "test_gradients::test_lookup_and_masked_ops",
    "mul_scalar": "test_gradients::test_elementwise_chain",
    "output_nll": "test_gradients::test_output_nll",
    "sampled_softmax": "test_lm::TestSampledSoftmax::test_gradient_matches_fd_with_fixed_pool",
    "weighted_sum_time": "test_gradients::test_lookup_and_masked_ops",
}


def test_fd_tests_cover_every_recorded_op(rng):
    corpus = toy_corpus(rng)
    ids = rng.integers(0, W_VOCAB, size=(2, 3))
    sampled = dict(sampler=LogUniformSampler(np.arange(W_VOCAB, 0, -1)), sample_count=3)
    recorded = {"mul_scalar"}  # train() scales each window's loss by its length
    for variant, dims in EMBED_DIMS.items():
        init = uniform_init(rng, 0.3)
        comp = build_composer(TrainConfig(variant=variant, **dims), SIZES, init=init)
        model = LanguageModel(comp, d_lm=5, vocab_size=W_VOCAB, dropout_rate=0.5,
                              init=init)
        for mode, extra in (("eval", {}), ("train", {}), ("train", sampled)):
            loss, _ = model.window_nll(ids, ids, corpus, model.zero_state(2), mode=mode,
                                       rng=np.random.default_rng(0), **extra)
            recorded.update(node.op for node in T.recorded(loss) if node.op != "leaf")
    assert recorded == set(FD_TESTS)
    for op, path in FD_TESTS.items():
        module, *names = path.split("::")
        target = importlib.import_module(module)
        for name in names:
            target = getattr(target, name)
        assert callable(target), op
