import numpy as np
import pytest

from fdiff import check_grads, fd_margin, safe_instance, scalar_loss
from lstm_reference import lstm_step, lstm_steps
from sublm import tensor as T
from sublm.composition import (COMPOSERS, Composer, HighwayStack, ModelSizes,
                               build_composer, uniform_init, zeros_init)
from sublm.config import TrainConfig
from sublm.errors import ConfigError
from sublm.training import build_model

S_VOCAB = 9
W_VOCAB = 7


def make(variant, rng=None, n=4, d_s=3, **kw):
    cfg_kw = dict(variant=variant, d_s=d_s)
    if variant == "word-direct":
        cfg_kw = dict(variant=variant, d_w=kw.pop("d_w", 5))
    elif variant == "syl-lstm":
        cfg_kw["d_w"] = kw.pop("d_w", 4)
    elif variant == "syl-cnn":
        cfg_kw["cnn_max_width"] = kw.pop("cnn_max_width", 2)
        cfg_kw["cnn_depth_unit"] = kw.pop("cnn_depth_unit", 2)
    elif variant == "syl-concat":
        cfg_kw["d_hw"] = kw.pop("d_hw", 5)
    cfg_kw.update(kw)
    init = zeros_init if rng is None else uniform_init(rng, 0.35)
    return build_composer(TrainConfig(**cfg_kw), ModelSizes(W_VOCAB, S_VOCAB, n), init=init)


def random_batch(rng, m=3, n=4):
    lengths = rng.integers(1, n + 1, size=m)
    rows = np.full((m, n), 0, dtype=np.int64)
    for i in range(m):
        rows[i, :lengths[i]] = rng.integers(1, S_VOCAB, size=lengths[i])
    word_ids = rng.integers(0, W_VOCAB, size=m)
    return word_ids, rows, lengths


def recorded_ops(out):
    """Sorted op names of every recorded node behind ``out``."""
    return sorted(node.op for node in T.recorded(out) if node.op != "leaf")


def out_dim(cfg, n=8):
    return build_composer(cfg, ModelSizes(W_VOCAB, S_VOCAB, n)).out_dim


class TestConfig:
    def test_cnn_width_table(self):
        # widths [1..L] with depths [c*l] give d_hw = c * (1 + ... + L)
        for L, c, want in [(3, 60, 360), (2, 120, 360), (4, 35, 350)]:
            cfg = TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=L, cnn_depth_unit=c)
            assert out_dim(cfg) == want

    def test_cnn_width_exceeding_n_rejected(self):
        cfg = TrainConfig(variant="syl-cnn", d_s=4, cnn_max_width=3, cnn_depth_unit=2)
        with pytest.raises(ConfigError):
            out_dim(cfg, 2)
        with pytest.raises(ConfigError, match="max_subwords"):
            out_dim(cfg, 0)

    def test_linear_output_is_subword_dim(self):
        cfg = TrainConfig(variant="syl-sum", d_s=11)
        assert out_dim(cfg) == 11

    def test_concat_needs_d_hw(self):
        with pytest.raises(ConfigError):
            out_dim(TrainConfig(variant="syl-concat", d_s=4), 3)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            out_dim(TrainConfig(variant="syl-bpe", d_s=4), 3)

    def test_explicit_banks(self):
        cfg = TrainConfig(variant="syl-cnn", d_s=4, cnn_max_width=1, cnn_depth_unit=35)
        assert out_dim(cfg) == 35

    @pytest.mark.parametrize("variant", sorted(COMPOSERS))
    def test_each_variant_owns_its_call(self, variant):
        # perfbench counts composed rows by wrapping the __call__ of each
        # direct Composer subclass that defines one
        cls = type(make(variant))
        assert cls in Composer.__subclasses__() and "__call__" in vars(cls)


class TestHighway:
    def test_carry_saturation_identity(self, rng):
        hw = HighwayStack(6, 1, zeros_init)
        hw.params["hw0.b_t"].data[:] = -20.0
        x = T.Tensor(rng.normal(size=(4, 6)))
        y = hw(x)
        assert np.abs(y.data - x.data).max() < 1e-6

    def test_transform_saturation_zeroes(self, rng):
        hw = HighwayStack(6, 1, zeros_init)
        hw.params["hw0.b_t"].data[:] = 20.0
        x = T.Tensor(rng.normal(size=(4, 6)))
        y = hw(x)
        assert np.abs(y.data).max() < 1e-6

    def test_gradients(self):
        def build(rng):
            hw = HighwayStack(8, 2, uniform_init(rng, 0.3))
            x = T.Tensor(rng.normal(size=(4, 8)))
            return (lambda: scalar_loss(hw(x))), dict(hw.params, x=x)

        loss_fn, params = safe_instance(build, 0)
        check_grads(loss_fn, params)

    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_whole_stack_is_one_recorded_op(self, rng, layers):
        hw = HighwayStack(6, layers, uniform_init(rng, 0.3))
        x = T.Tensor(rng.normal(size=(4, 6)))
        y = hw(x)
        assert recorded_ops(y) == ["highway"]
        assert y._parents[0] is x and len(y._parents) == 1 + 4 * layers

    def test_zero_layers_record_nothing(self, rng):
        hw = HighwayStack(6, 0, zeros_init)
        x = T.Tensor(rng.normal(size=(4, 6)))
        assert hw(x) is x

    def test_dim_mismatch(self, rng):
        hw = HighwayStack(6, 1, zeros_init)
        with pytest.raises(ConfigError):
            hw(T.Tensor(rng.normal(size=(2, 5))))


class TestSylLSTM:
    def test_single_subword_equals_one_cell(self, rng):
        comp = make("syl-lstm", rng)
        rows = np.array([[3, 0, 0, 0]])
        lengths = np.array([1])
        out = comp(np.array([0]), rows, lengths)
        zeros = np.zeros((1, comp.config.d_w))
        h, _ = lstm_step(comp.e_s.data[[3]], zeros, zeros,
                         *(p.data for p in comp.cell))
        assert np.abs(out.data - h).max() < 1e-12

    def test_each_word_matches_reference_over_its_subwords(self, rng):
        comp = make("syl-lstm", rng)
        _, rows, lengths = random_batch(rng, m=6)
        out = comp(None, rows, lengths).data
        weights = [p.data for p in comp.cell]
        for i, L in enumerate(lengths):
            zeros = np.zeros((1, comp.config.d_w))
            seq = comp.e_s.data[rows[i, :L]][:, None, :]
            _, h, _ = lstm_steps(seq, zeros, zeros, *weights)
            assert np.abs(out[i] - h[0]).max() < 1e-12

    def test_append_pad_bitwise_invariant(self, rng):
        comp = make("syl-lstm", rng)
        _, rows, lengths = random_batch(rng)
        base = comp(None, rows, lengths).data
        wider = np.concatenate([rows, np.zeros((3, 2), dtype=np.int64)], axis=1)
        assert np.array_equal(comp(None, wider, lengths).data, base)

    def test_junk_in_pad_positions_is_ignored(self, rng):
        comp = make("syl-lstm", rng)
        _, rows, lengths = random_batch(rng)
        junk = rows.copy()
        for i, L in enumerate(lengths):
            junk[i, L:] = rng.integers(0, S_VOCAB, size=rows.shape[1] - L)
        assert np.array_equal(comp(None, junk, lengths).data,
                              comp(None, rows, lengths).data)


class TestSylCNN:
    def test_output_width(self, rng):
        comp = make("syl-cnn", rng, cnn_max_width=2, cnn_depth_unit=3)
        _, rows, lengths = random_batch(rng)
        assert comp(None, rows, lengths).data.shape == (3, 9)

    def test_append_pad_bitwise_invariant(self, rng):
        comp = make("syl-cnn", rng)
        _, rows, lengths = random_batch(rng)
        base = comp(None, rows, lengths).data
        pad = np.zeros((3, 3), dtype=np.int64)
        assert np.array_equal(comp(None, np.concatenate([rows, pad], 1), lengths).data, base)

    def test_junk_beyond_pool_extent_ignored(self, rng):
        comp = make("syl-cnn", rng)
        _, rows, lengths = random_batch(rng)
        extent = np.maximum(lengths, comp.config.cnn_max_width)
        junk = rows.copy()
        for i, e in enumerate(extent):
            junk[i, e:] = rng.integers(0, S_VOCAB, size=rows.shape[1] - e)
        assert np.array_equal(comp(None, junk, lengths).data,
                              comp(None, rows, lengths).data)

    def test_recorded_ops_do_not_grow_with_bank_count(self, rng):
        # one lookup, one conv op for every bank, then the highway op
        def ops_for(max_width):
            comp = make("syl-cnn", rng, n=6, cnn_max_width=max_width, cnn_depth_unit=2)
            _, rows, lengths = random_batch(rng, n=6)
            return recorded_ops(comp(None, rows, lengths))

        one = ops_for(1)
        six = ops_for(6)
        assert one == six
        assert one == ["conv1d_max_over_time", "highway", "lookup"]

    def test_fd_margin_sees_the_conv_kinks(self, rng):
        # no highway, so no relu: only the conv op can make the margin finite
        comp = make("syl-cnn", rng, highway_layers=0)
        _, rows, lengths = random_batch(rng)
        margin = fd_margin(scalar_loss(comp(None, rows, lengths)))
        assert np.isfinite(margin) and margin > 0.0

    def test_short_words_use_pad_vectors_as_needed(self, rng):
        # a one-subword word under a width-2 filter must see one pad vector
        comp = make("syl-cnn", rng)
        rows = np.array([[2, 0, 0, 0]])
        lengths = np.array([1])
        base = comp(None, rows, lengths).data.copy()
        comp.e_s.data[0] += 0.5  # perturb the pad embedding
        assert not np.array_equal(comp(None, rows, lengths).data, base)


class TestLinearFamily:
    def test_sum_single_subword_is_embedding(self, rng):
        comp = make("syl-sum", rng)
        rows = np.array([[5, 0, 0, 0]])
        x = comp.combine(rows, np.array([1]))
        assert np.array_equal(x.data[0], comp.e_s.data[5])

    def test_avg_of_identical_vectors_is_that_vector(self, rng):
        comp = make("syl-avg", rng)
        rows = np.array([[4, 4, 0, 0]])
        x = comp.combine(rows, np.array([2]))
        assert np.abs(x.data[0] - comp.e_s.data[4]).max() < 1e-12

    def test_avg_a_with_zero_scores_equals_avg(self, rng):
        avg_a = make("syl-avg-a", rng)
        avg_a.a.data[:] = 0.0
        avg = make("syl-avg")
        avg.e_s.data[:] = avg_a.e_s.data
        _, rows, lengths = random_batch(rng)
        xa = avg_a.combine(rows, lengths)
        xb = avg.combine(rows, lengths)
        assert np.abs(xa.data - xb.data).max() < 1e-12

    @pytest.mark.parametrize("variant", ["syl-avg", "syl-avg-a", "syl-avg-b"])
    def test_weights_sum_to_one(self, variant, rng):
        comp = make(variant, rng)
        _, rows, lengths = random_batch(rng)
        with T.no_grad():
            alpha = comp.combine(rows, lengths).meta
        assert isinstance(alpha, np.ndarray)
        assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-12

    def test_sum_weights_are_ones_on_valid(self, rng):
        comp = make("syl-sum", rng)
        _, rows, lengths = random_batch(rng)
        with T.no_grad():
            alpha = comp.combine(rows, lengths).meta
        assert np.array_equal(alpha.sum(axis=1), lengths.astype(float))

    def test_sum_permutation_invariance_pre_highway(self, rng):
        comp = make("syl-sum", rng)
        rows = np.array([[1, 5, 3, 0]])
        lengths = np.array([3])
        x = comp.combine(rows, lengths).data
        perm = np.array([[3, 1, 5, 0]])
        assert np.abs(comp.combine(perm, lengths).data - x).max() < 1e-12

    @pytest.mark.parametrize("variant", ["syl-sum", "syl-avg", "syl-avg-a", "syl-avg-b"])
    def test_append_pad_bitwise_invariant(self, variant, rng):
        comp = make(variant, rng, n=6)
        _, rows, lengths = random_batch(rng, n=4)
        base = comp(None, rows, lengths).data
        pad = np.zeros((3, 2), dtype=np.int64)
        wider = np.concatenate([rows, pad], 1)
        assert np.array_equal(comp(None, wider, lengths).data, base)


class TestSylConcat:
    def test_preprojection_layout(self):
        comp = make("syl-concat", n=3, d_s=2)
        comp.e_s.data[1] = [1.0, 2.0]
        comp.e_s.data[2] = [3.0, 4.0]
        x = comp.concat_vector(np.array([[1, 2, 0]]), np.array([2]))
        assert x.data.tolist() == [[1.0, 2.0, 3.0, 4.0, 0.0, 0.0]]

    def test_pad_positions_contribute_zero_not_pad_embedding(self, rng):
        comp = make("syl-concat", rng, n=3, d_s=2)
        rows = np.array([[1, 2, 0]])
        lengths = np.array([2])
        base = comp(None, rows, lengths).data.copy()
        comp.e_s.data[0] += 1.0  # pad embedding must not matter
        assert np.array_equal(comp(None, rows, lengths).data, base)
        junk = np.array([[1, 2, 7]])  # nor the id sitting in a pad slot
        assert np.array_equal(comp(None, junk, lengths).data, base)

    def test_identical_subword_sequences_identical_vectors(self, rng):
        comp = make("syl-concat", rng)
        rows = np.array([[1, 2, 3, 0], [1, 2, 3, 0]])
        lengths = np.array([3, 3])
        out = comp(None, rows, lengths).data
        assert np.array_equal(out[0], out[1])

    def test_fd_margin_sees_the_highway_kinks(self, rng):
        # the highway op holds the only relu of a syl-concat loss
        comp = make("syl-concat", rng)
        _, rows, lengths = random_batch(rng)
        margin = fd_margin(scalar_loss(comp(None, rows, lengths)))
        assert np.isfinite(margin) and margin > 0.0


class TestWordDirect:
    def test_lookup_and_sparse_grads(self, rng):
        comp = make("word-direct", rng)
        ids = np.array([2, 2, 5])
        out = comp(ids, None, None)
        assert np.array_equal(out.data, comp.e_w.data[ids])
        T.backward(scalar_loss(out))
        grad = comp.e_w.grad
        assert np.all(grad[2] == 2.0) and np.all(grad[5] == 1.0)
        others = [i for i in range(W_VOCAB) if i not in (2, 5)]
        assert np.all(grad[others] == 0.0)


VARIANTS_FOR_GRAD = ["word-direct", "syl-lstm", "syl-cnn", "syl-sum",
                     "syl-avg", "syl-avg-a", "syl-avg-b", "syl-concat"]


def variant_instance(variant, rng):
    comp = make(variant, rng)
    word_ids, rows, lengths = random_batch(rng)
    return (lambda: scalar_loss(comp(word_ids, rows, lengths))), comp.params


@pytest.mark.parametrize("variant", VARIANTS_FOR_GRAD)
@pytest.mark.parametrize("seed", range(3))
def test_variant_gradients(variant, seed):
    loss_fn, params = safe_instance(lambda rng: variant_instance(variant, rng),
                                    seed + 100)
    check_grads(loss_fn, params)


RECORDED_OPS = {
    "word-direct": ["lookup"],
    "syl-lstm": ["lookup", "lookup", "lstm"],
    "syl-cnn": ["conv1d_max_over_time", "highway", "lookup"],
    "syl-sum": ["highway", "lookup", "weighted_sum_time"],
    "syl-avg": ["highway", "lookup", "weighted_sum_time"],
    "syl-avg-a": ["attention_pool", "highway", "lookup"],
    "syl-avg-b": ["attention_pool", "highway", "lookup"],
    "syl-concat": ["affine", "highway", "masked_concat"],
}


@pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
@pytest.mark.parametrize("variant", [v for v in COMPOSERS if COMPOSERS[v].uses_subwords])
def test_subword_table_is_the_first_draw(variant, precision, dtype):
    # the base class draws e_s before any parameter of the variant's own
    cfg = TrainConfig(variant=variant, d_s=3, d_w=4, d_hw=6, d_lm=5, cnn_max_width=2,
                      cnn_depth_unit=2, init_range=0.1, precision=precision)
    model = build_model(cfg, ModelSizes(W_VOCAB, S_VOCAB, 4), np.random.default_rng(11))
    name, e_s = next(iter(model.params.items()))
    assert name == "composer.e_s" and e_s.data.shape == (S_VOCAB, 3)
    expected = np.random.default_rng(11).uniform(-0.1, 0.1, (S_VOCAB, 3)).astype(dtype)
    assert e_s.data.dtype == dtype and e_s.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("variant", VARIANTS_FOR_GRAD)
def test_composer_call_records_at_most_three_ops(variant, rng):
    comp = make(variant, rng)
    word_ids, rows, lengths = random_batch(rng)
    ops = recorded_ops(comp(word_ids, rows, lengths))
    assert ops == RECORDED_OPS[variant] and len(ops) <= 3
