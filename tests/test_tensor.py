import multiprocessing

import numpy as np
import pytest

from cnn_reference import conv_max_over_time, conv_max_over_time_grads
from fdiff import check_grads, scalar_loss
from highway_reference import highway
from lstm_reference import lstm_steps
from sublm import tensor as T
from sublm.errors import ConfigError, DimensionError


def t(x):
    return T.Tensor(np.asarray(x, dtype=float))


def scalar_product(a, b):
    """a * b for 1x1 tensors, as a 1x1 affine map."""
    return scalar_loss(T.affine(a, b, t([0.0])))


class TestAffine:
    def test_identity(self):
        y = T.affine(t([[1.0, 2.0]]), t([[1.0, 0.0], [0.0, 1.0]]), t([0.0, 0.0]))
        assert y.data.tolist() == [[1.0, 2.0]]

    def test_hand_arithmetic(self):
        y = T.affine(t([[1.0, 1.0]]), t([[2.0], [3.0]]), t([1.0]))
        assert y.data.tolist() == [[6.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            T.affine(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(5)))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_bias_mismatch(self):
        with pytest.raises(DimensionError):
            T.affine(t(np.zeros((2, 3))), t(np.zeros((3, 5))), t(np.zeros(4)))


class TestLstmCell:
    """The fused LSTM op against the per-step numpy reference."""

    def _params(self, rng, p, d, case):
        if case == "random":
            wx, wh, b = (rng.normal(scale=0.5, size=s) for s in ((p, 4 * d), (d, 4 * d), 4 * d))
        else:
            wx, wh, b = np.zeros((p, 4 * d)), np.zeros((d, 4 * d)), np.zeros(4 * d)
            if case == "saturated-forget":
                b[d:2 * d] = 20.0
        return t(wx), t(wh), t(b)

    def _run(self, rng, case, packed, steps=4, batch=3, p=3, d=4):
        params = self._params(rng, p, d, case)
        h0, c0 = rng.normal(size=(batch, d)), rng.normal(size=(batch, d))
        xs = rng.normal(size=(steps, batch, p))
        if packed:
            # lanes longest first, the longest running every step
            lengths = np.sort(rng.integers(1, steps + 1, size=batch))[::-1]
            lengths[0] = steps
            live = np.arange(steps)[:, None] < lengths
            out, h, c = T.lstm(t(xs[live]), h0, c0, params, steps, live.sum(axis=1))
        else:
            lengths, live = None, np.ones((steps, batch), dtype=bool)
            out, h, c = T.lstm(t(xs.reshape(steps * batch, p)), h0, c0, params, steps)
        ref_out, ref_h, ref_c = lstm_steps(xs, h0, c0, *(w.data for w in params), lengths)
        return (out, h, c), (ref_out[live], ref_h, ref_c), (h0, c0)

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("case", ["random", "zero", "saturated-forget"])
    def test_matches_reference_cell(self, rng, case, packed):
        (out, h, c), (ref_out, ref_h, ref_c), _ = self._run(rng, case, packed)
        assert np.abs(out.data - ref_out).max() < 1e-12
        assert np.abs(h - ref_h).max() < 1e-12 and np.abs(c - ref_c).max() < 1e-12

    def test_zero_params_zero_state(self, rng):
        params = self._params(rng, 3, 4, "zero")
        out, h, c = T.lstm(t(rng.normal(size=(2, 3))), np.zeros((2, 4)),
                           np.zeros((2, 4)), params, 1)
        # all gates sit at 0.5 but the candidate is tanh(0)=0
        assert np.all(out.data == 0.0) and np.all(h == 0.0) and np.all(c == 0.0)

    def test_saturated_forget_gate_copies_cell(self, rng):
        (_, _, c), _, (_, c0) = self._run(rng, "saturated-forget", False, steps=1)
        assert np.abs(c - c0).max() < 1e-6

    def test_inactive_lane_keeps_its_state_exactly(self, rng):
        # a finished lane's state is that of its last real step
        params = self._params(rng, 3, 4, "random")
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        x = t(rng.normal(size=(3, 3)))  # lane 0 runs two steps, lane 1 one
        out, h, c = T.lstm(x, h0, c0, params, 2, np.array([2, 1]))
        _, h1, c1 = T.lstm(t(x.data[:2]), h0, c0, params, 1)
        assert np.array_equal(h[1], h1[1]) and np.array_equal(c[1], c1[1])
        assert np.array_equal(out.data[1], h1[1]) and np.array_equal(h[0], out.data[2])

    def test_counts_must_not_increase(self, rng):
        params = self._params(None, 3, 4, "zero")
        with pytest.raises(ValueError):
            T.lstm(t(np.zeros((3, 3))), np.zeros((1, 4)), np.zeros((1, 4)), params, 2,
                   np.array([1, 2]))

    def test_dimension_mismatch(self):
        params = self._params(None, 3, 4, "zero")
        with pytest.raises(DimensionError):
            T.lstm(t(np.zeros((2, 3))), np.zeros((3, 4)), np.zeros((2, 4)), params, 1)
        with pytest.raises(DimensionError):
            T.lstm(t(np.zeros((5, 3))), np.zeros((2, 4)), np.zeros((2, 4)), params, 2)
        with pytest.raises(DimensionError):  # the counts cover 3 rows, x has 4
            T.lstm(t(np.zeros((4, 3))), np.zeros((2, 4)), np.zeros((2, 4)), params, 2,
                   np.array([2, 1]))

    def _dropout_instance(self, rng, batch=3, p=3, d=4):
        """A two-step random instance: (x, h0, c0, params)."""
        return (t(rng.normal(size=(2 * batch, p))), rng.normal(size=(batch, d)),
                rng.normal(size=(batch, d)), self._params(rng, p, d, "random"))

    def test_dropout_rate_zero_unchanged(self, rng):
        x, h0, c0, params = self._dropout_instance(rng)
        plain = T.lstm(x, h0, c0, params, 2)
        draws = np.random.default_rng(5)
        before = draws.bit_generator.state
        out, h, c = T.lstm(x, h0, c0, params, 2, dropout=0.0, rng=draws)
        assert np.array_equal(out.data, plain[0].data)
        assert np.array_equal(h, plain[1]) and np.array_equal(c, plain[2])
        assert draws.bit_generator.state == before

    def test_dropout_keep_fraction(self, rng):
        x, h0, c0, params = self._dropout_instance(rng, batch=2500, d=20)
        plain = T.lstm(x, h0, c0, params, 2)[0].data
        out = T.lstm(x, h0, c0, params, 2, dropout=0.5, rng=np.random.default_rng(7))[0].data
        ratio = out / plain
        kept = np.count_nonzero(ratio) / ratio.size
        assert abs(kept - 0.5) < 0.01
        # inverted scaling preserves the expectation
        assert np.all((ratio == 0.0) | (np.abs(ratio - 2.0) < 1e-12))
        assert abs(ratio.mean() - 1.0) < 0.02

    def test_dropout_bad_rate(self, rng):
        x, h0, c0, params = self._dropout_instance(rng)
        for rate in (1.0, -0.1):
            with pytest.raises(ConfigError):
                T.lstm(x, h0, c0, params, 2, dropout=rate, rng=np.random.default_rng(0))

    def test_dropout_needs_an_rng(self, rng):
        x, h0, c0, params = self._dropout_instance(rng)
        with pytest.raises(ValueError, match="rng"):
            T.lstm(x, h0, c0, params, 2, dropout=0.5)

    def test_dropout_equal_seeded_rngs_give_bitwise_equal_outputs(self, rng):
        x, h0, c0, params = self._dropout_instance(rng, batch=6, d=6)
        y1, y2 = (T.lstm(x, h0, c0, params, 2, dropout=0.5,
                         rng=np.random.default_rng(123))[0].data for _ in range(2))
        assert np.array_equal(y1, y2)
        assert np.count_nonzero(y1 == 0.0) > 0

    def test_dropout_drops_the_outputs_not_the_state(self, rng):
        x, h0, c0, params = self._dropout_instance(rng)
        plain, h_plain, c_plain = T.lstm(x, h0, c0, params, 2)
        out, h, c = T.lstm(x, h0, c0, params, 2, dropout=0.3, rng=np.random.default_rng(9))
        assert np.array_equal(h, h_plain) and np.array_equal(c, c_plain)
        mask = np.random.default_rng(9).random(plain.shape) >= 0.3
        assert np.array_equal(out.data, plain.data * (mask / (1.0 - 0.3)))


class TestConvMaxOverTime:
    """The fused conv op against the plain-numpy reference."""

    def _instance(self, rng, dtype, with_lengths):
        m, n, d = 6, 5, 4
        seq = T.Tensor(rng.normal(size=(m, n, d)), dtype=dtype)
        banks = [(width, T.Tensor(rng.normal(scale=0.4, size=(width * d, k)), dtype=dtype),
                  T.Tensor(rng.normal(scale=0.4, size=k), dtype=dtype))
                 for width, k in ((1, 3), (2, 2), (4, 5))]
        # 1 and 2 are shorter than the widest filter
        lengths = np.array([1, 2, 3, 4, 5, 2]) if with_lengths else np.full(m, n)
        arrays = [(width, w.data, b.data) for width, w, b in banks]
        return seq, banks, lengths, arrays

    @pytest.mark.parametrize("with_lengths", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_bitwise_equals_reference(self, rng, dtype, with_lengths):
        seq, banks, lengths, arrays = self._instance(rng, dtype, with_lengths)
        out = T.conv1d_max_over_time(seq, banks, lengths)
        ref = conv_max_over_time(seq.data, arrays, lengths)
        assert out.data.dtype == ref.dtype == dtype
        assert np.array_equal(out.data, ref)

    @pytest.mark.parametrize("with_lengths", [False, True])
    def test_gradients_match_reference(self, rng, with_lengths):
        seq, banks, lengths, arrays = self._instance(rng, np.float64, with_lengths)
        out = T.conv1d_max_over_time(seq, banks, lengths)
        g = rng.normal(size=out.data.shape)
        T.backward(scalar_loss(out, g))
        dseq, dbanks = conv_max_over_time_grads(seq.data, arrays, lengths, g)
        assert np.abs(seq.grad - dseq).max() < 1e-12
        for (_, w, b), (dw, db) in zip(banks, dbanks):
            assert np.abs(w.grad - dw).max() < 1e-12
            assert np.abs(b.grad - db).max() < 1e-12


class TestHighway:
    """The fused highway op against the per-layer numpy reference."""

    def _instance(self, rng, dtype, layers, m=5, d=4):
        x = T.Tensor(rng.normal(size=(m, d)), dtype=dtype)
        params = [tuple(T.Tensor(rng.normal(scale=0.6, size=s), dtype=dtype)
                        for s in ((d, d), d, (d, d), d)) for _ in range(layers)]
        return x, params

    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_forward_matches_reference(self, rng, dtype, tol, layers):
        x, params = self._instance(rng, dtype, layers)
        out = T.highway(x, params)
        ref, _ = highway(x.data, [[p.data for p in layer] for layer in params])
        assert out.data.dtype == ref.dtype == dtype
        assert np.abs(out.data - ref).max() < tol

    def test_no_layers_returns_the_input(self, rng):
        x, _ = self._instance(rng, np.float64, 0)
        assert T.highway(x, []) is x


class TestSoftmaxXent:
    def test_uniform(self):
        loss, nll = T.softmax_xent(t(np.zeros((3, 10))), np.array([0, 4, 9]))
        assert np.abs(nll - np.log(10)).max() < 1e-12
        assert abs(loss.item() - np.log(10)) < 1e-12

    def test_saturated(self):
        loss, _ = T.softmax_xent(t([[100.0, 0.0]]), np.array([0]))
        assert loss.item() < 1e-6

    def test_rows_sum_to_one(self, rng):
        # every class of every row as a target: nll against a log-sum-exp
        # oracle, and exp(-nll) summed over a row's classes
        lv = rng.normal(scale=5.0, size=(8, 40))
        targets = np.tile(np.arange(40), 8)
        loss, nll = T.softmax_xent(t(np.repeat(lv, 40, axis=0)), targets)
        shift = lv.max(axis=1, keepdims=True)
        lse = np.log(np.exp(lv - shift).sum(axis=1, keepdims=True)) + shift
        oracle = (lse - lv).reshape(-1)
        assert np.abs(nll - oracle).max() < 1e-12
        assert abs(loss.item() - oracle.mean()) < 1e-12
        assert np.abs(np.exp(-nll).reshape(8, 40).sum(axis=1) - 1.0).max() < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.softmax_xent(t(np.zeros((2, 5))), np.array([0, 5]))


class TestOutputNll:
    def _instance(self, rng, dtype, m=6, d=4, v=9):
        h, w, b = (T.Tensor(rng.normal(size=shape), dtype=dtype)
                   for shape in ((m, d), (d, v), (v,)))
        targets = np.array([0, v - 1, 3, 3, 0, v - 1])[:m]
        return h, w, b, targets

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_affine_then_softmax_xent(self, rng, dtype):
        h, w, b, targets = self._instance(rng, dtype)
        fused = T.output_nll(h, w, b, targets)
        T.backward(fused)
        fused_grads = [p.grad for p in (h, w, b)]
        h.grad = w.grad = b.grad = None
        loss, nll = T.softmax_xent(T.affine(h, w, b), targets)
        T.backward(loss)
        assert fused.data.dtype == fused.meta.dtype == dtype
        assert np.array_equal(fused.data, loss.data)
        assert np.array_equal(fused.meta, nll)
        for got, p in zip(fused_grads, (h, w, b)):
            assert got.dtype == dtype and np.array_equal(got, p.grad)

    def test_repeated_backward_adds_the_same_gradients(self, rng):
        h, w, b, targets = self._instance(rng, np.float64)
        loss = T.output_nll(h, w, b, targets)
        T.backward(loss)
        once = [p.grad.copy() for p in (h, w, b)]
        T.backward(loss)
        for g, p in zip(once, (h, w, b)):
            assert np.array_equal(p.grad, 2 * g)

    @pytest.mark.parametrize("shapes", [((6,), (4, 9), (9,)), ((6, 4), (5, 9), (9,)),
                                        ((6, 4), (4, 9), (8,)), ((6, 4), (4, 9, 1), (9,))])
    def test_shape_mismatch(self, shapes):
        h, w, b = (t(np.zeros(shape)) for shape in shapes)
        with pytest.raises(DimensionError):
            T.output_nll(h, w, b, np.zeros(6, dtype=np.int64))

    def test_target_count_mismatch(self, rng):
        h, w, b, targets = self._instance(rng, np.float64)
        with pytest.raises(DimensionError):
            T.output_nll(h, w, b, targets[:-1])

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_target_out_of_range(self, rng, bad):
        h, w, b, targets = self._instance(rng, np.float64)
        targets[2] = bad
        with pytest.raises(IndexError):
            T.output_nll(h, w, b, targets)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = t(rng.normal(size=(3, 4)))
        T.backward(scalar_loss(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_repeated_calls_accumulate(self):
        a, b = t([[2.0]]), t([[5.0]])
        y = scalar_product(a, b)
        T.backward(y)
        T.backward(y)
        assert a.grad.tolist() == [[10.0]] and b.grad.tolist() == [[4.0]]

    def test_linearity_of_summed_losses(self, rng):
        x = t(rng.normal(size=(4, 4)))
        w = t(rng.normal(size=(4, 4)))
        b = t(rng.normal(size=4))
        g1, g2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        # an affine map, then one highway layer whose gate and body share its
        # w and b, so every leaf is reached along more than one path
        out = T.highway(T.affine(x, w, b), [(w, b, w, b)])
        # sum(out * (g1 + g2)) is the sum of the losses sum(out * g1) and sum(out * g2)
        T.backward(scalar_loss(out, g1 + g2))
        joint = (x.grad.copy(), w.grad.copy(), b.grad.copy())
        x.grad = w.grad = b.grad = None
        T.backward(scalar_loss(out, g1))
        T.backward(scalar_loss(out, g2))
        assert np.abs(joint[0] - x.grad).max() < 1e-12
        assert np.abs(joint[1] - w.grad).max() < 1e-12
        assert np.abs(joint[2] - b.grad).max() < 1e-12

    def test_non_scalar_loss_rejected(self, rng):
        with pytest.raises(ValueError):
            T.backward(t(rng.normal(size=(2, 2))))

    def test_shared_subgraph(self):
        # u = 3x feeds both the input and the weight of one affine map:
        # q = u * u + y = 9x^2 + y, so dq/dx = 18x and dq/dy = 1
        x, y = t([[2.0]]), t([-4.0])
        u = T.mul_scalar(x, 3.0)
        q = scalar_loss(T.affine(u, u, y))
        assert q.item() == 32.0
        T.backward(q)
        assert x.grad.tolist() == [[36.0]] and y.grad.tolist() == [1.0]

    def test_recorded_lists_every_node_after_its_consumers(self, rng):
        # u has three consumers, and they are created in another order than
        # a depth-first post-order walk from the loss would list them
        x, w, b = t(rng.normal(size=(2, 2))), t(rng.normal(size=(2, 2))), t(rng.normal(size=2))

        def add(*xs):
            return T.custom_op(sum(a.data for a in xs), "add", xs, lambda g: (g,) * len(xs))

        def loss_fn():
            u = T.mul_scalar(x, 3.0)
            late = T.affine(u, w, b)
            early = T.mul_scalar(u, -0.5)
            mid = T.affine(T.mul_scalar(u, 2.0), w, b)
            return scalar_loss(add(mid, add(early, T.affine(late, w, b))))

        loss = loss_fn()
        nodes = T.recorded(loss)
        position = {node.node_id: i for i, node in enumerate(nodes)}
        assert nodes[0] is loss and len(position) == len(nodes) == 12
        for node in nodes:
            for parent in node._parents:
                assert position[parent.node_id] > position[node.node_id], parent.op
        assert sum(node.op == "leaf" for node in nodes) == 3
        check_grads(loss_fn, dict(x=x, w=w, b=b))

    def test_grads_land_on_leaves_only(self, rng):
        x = t(rng.normal(size=(2, 3)))
        y = T.mul_scalar(x, 0.5)
        loss = scalar_loss(y)
        T.backward(loss)
        assert x.grad is not None
        assert y.grad is None and loss.grad is None


class TestHelperThread:
    def test_forked_child_runs_its_own_backward(self, rng):
        x, w, b = t(rng.normal(size=(5, 4))), t(rng.normal(size=(4, 3))), t(rng.normal(size=3))
        # this process's helper thread exists from here on
        T.backward(scalar_loss(T.affine(x, w, b)))
        expected = w.grad.copy()

        def child():
            w.grad = None
            T.backward(scalar_loss(T.affine(x, w, b)))
            if not np.array_equal(w.grad, expected):
                raise AssertionError("the child's gradient differs")

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("a forked child's backward did not finish in 60 s")
        assert proc.exitcode == 0

    def test_shared_weights_sum_in_the_inline_order(self, rng, monkeypatch):
        # w is the input and the weight of the affine map and every highway
        # weight, so its buffer gets helper results before and after an array
        w, b = t(rng.normal(size=(4, 4))), t(rng.normal(size=4))
        weights = rng.normal(size=(4, 4))

        def grads():
            w.grad = b.grad = None
            out = T.highway(T.affine(w, w, b), [(w, b, w, b), (w, b, w, b)])
            T.backward(scalar_loss(out, weights))
            return [p.grad.tobytes() for p in (w, b)]

        on_helper = grads()
        # run inline, each helper result is added the moment its op returns it
        monkeypatch.setattr(T, "later", lambda fn, *args: fn(*args))
        assert grads() == on_helper

    def test_a_failing_helper_task_raises_from_backward(self, rng):
        x, w = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3)))

        def bw(g):
            # shapes (2, 3) and (2, 3) do not multiply
            return (g, T.later(np.matmul, x.data, w.data))

        loss = scalar_loss(T.custom_op(x.data + w.data, "add", (x, w), bw))
        with pytest.raises(ValueError, match="matmul"):
            T.backward(loss)
        assert all(p.grad is None or isinstance(p.grad, np.ndarray) for p in (x, w))
        # the helper still serves the next walk
        x.grad = w.grad = None
        T.backward(scalar_loss(T.affine(x, t(np.ones((3, 1))), t([0.0]))))
        assert np.array_equal(x.grad, np.ones((2, 3)))


class TestGraph:
    def test_no_grad_produces_leaves(self, rng):
        x = t(rng.normal(size=(2, 2)))
        with T.no_grad():
            y = T.mul_scalar(x, 2.0)
        assert y.op == "leaf" and y._backward is None


class TestOpsMisc:
    def test_lookup_grad_only_touched_rows(self, rng):
        table = t(rng.normal(size=(6, 3)))
        out = T.lookup(table, np.array([1, 1, 4]))
        T.backward(scalar_loss(out))
        assert np.array_equal(table.grad[1], np.full(3, 2.0))
        assert np.array_equal(table.grad[4], np.ones(3))
        untouched = [0, 2, 3, 5]
        assert np.all(table.grad[untouched] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_scatters_bitwise_equal_2d_add_at(self, rng, dtype):
        # lookup and masked_concat scatter flat; repeated ids must add up in
        # the same order as the row-wise np.add.at
        table = T.Tensor(rng.normal(size=(5, 3)), dtype=dtype)
        ids = np.array([[4, 1, 4], [1, 1, 0]])
        lengths = np.array([3, 2])
        g = rng.normal(size=(2, 9)).astype(dtype)
        for out, rows in ((T.lookup(table, ids.reshape(-1)), g.reshape(6, 3)),
                          (T.masked_concat(table, ids, lengths),
                           (g.reshape(2, 3, 3) * (np.arange(3) < lengths[:, None])[:, :, None]
                            ).reshape(6, 3))):
            table.grad = None
            T.backward(scalar_loss(out, g.reshape(out.shape)))
            expected = np.zeros_like(table.data)
            np.add.at(expected, ids.reshape(-1), rows)
            assert table.grad.dtype == dtype
            assert np.array_equal(table.grad, expected)

    def test_lookup_out_of_range(self, rng):
        with pytest.raises(IndexError):
            T.lookup(t(rng.normal(size=(4, 2))), np.array([4]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_attention_pool_row_out_of_range(self, rng, bad):
        # a row of -1 would read the table's last row
        seq = t(rng.normal(size=(2, 3, 2)))
        table = t(rng.normal(size=(4, 3)))
        rows = np.array([[0, 1, 2], [3, bad, 0]])
        with pytest.raises(IndexError, match="attention_pool"):
            T.attention_pool(seq, np.array([3, 2]), t(rng.normal(size=3)), table, rows)

    def test_masked_softmax_rows(self, rng):
        # attention_pool's weights: a softmax over each row's first lengths[i] entries
        seq = t(rng.normal(size=(3, 5, 2)))
        bias = t(rng.normal(size=6))
        table = t(rng.normal(size=(4, 5)))
        ids = rng.integers(0, 4, size=(3, 5))
        for out in (T.attention_pool(seq, np.array([1, 3, 5]), bias),
                    T.attention_pool(seq, np.array([1, 3, 5]), bias, table, ids)):
            alpha = out.meta
            assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-12
            assert np.all(alpha[0, 1:] == 0.0)
            assert np.all(alpha[1, 3:] == 0.0)
            assert np.all(alpha[2] > 0.0)
            assert np.abs(out.data - np.einsum("mn,mnd->md", alpha, seq.data)).max() < 1e-15

    def test_concat_and_slices_roundtrip(self, rng):
        # row 1 of a masked concatenation sends its gradients back to the source rows
        a = t(rng.normal(size=(3, 2)))
        flat = T.masked_concat(a, np.array([[0, 1, 0], [2, 1, 0]]), np.array([3, 2]))
        assert flat.data[1].tolist() == a.data[2].tolist() + a.data[1].tolist() + [0.0, 0.0]
        col_weights = np.arange(1.0, 7.0)
        T.backward(scalar_loss(T.lookup(flat, np.array([1])), col_weights))
        assert a.grad.tolist() == [[0.0, 0.0], [3.0, 4.0], [1.0, 2.0]]

    def test_conv_width_exceeds_positions(self, rng):
        seq = t(rng.normal(size=(2, 3, 4)))
        banks = [(5, t(rng.normal(size=(20, 2))), t(np.zeros(2)))]
        with pytest.raises(ConfigError):
            T.conv1d_max_over_time(seq, banks, np.full(2, 3))

    def test_conv_width1_basis_vector(self, rng):
        # one width-1 filter equal to a basis vector picks tanh of the max coordinate
        m, n, d = 3, 4, 5
        seq = t(rng.normal(size=(m, n, d)))
        w = np.zeros((d, 1))
        w[2, 0] = 1.0
        banks = [(1, t(w), t(np.zeros(1)))]
        out = T.conv1d_max_over_time(seq, banks, np.full(m, n))
        expected = np.tanh(seq.data[:, :, 2]).max(axis=1, keepdims=True)
        assert np.abs(out.data - expected).max() < 1e-15

    def test_conv_single_position(self, rng):
        seq = t(rng.normal(size=(2, 1, 3)))
        banks = [(1, t(rng.normal(size=(3, 2))), t(rng.normal(size=2)))]
        out = T.conv1d_max_over_time(seq, banks, np.full(2, 1))
        expected = np.tanh(seq.data[:, 0, :] @ banks[0][1].data + banks[0][2].data)
        assert np.abs(out.data - expected).max() < 1e-15
