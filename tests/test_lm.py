import math
import tracemalloc

import numpy as np
import pytest

from fdiff import check_grads, safe_instance, scalar_loss
from lstm_reference import lstm_step, lstm_steps
from sublm import lm
from sublm import tensor as T
from sublm.composition import ModelSizes, build_composer, uniform_init
from sublm.config import TrainConfig
from sublm.corpus import EncodedCorpus, eval_windows
from sublm.errors import ConfigError, DimensionError
from sublm.lm import (LanguageModel, LogUniformSampler, _sample_unique,
                      evaluate_stream, full_softmax_nll, perplexity,
                      sample_count_for, sampled_softmax_nll)

W_VOCAB, S_VOCAB, N = 6, 8, 3
SIZES = ModelSizes(W_VOCAB, S_VOCAB, N)


class UniformSampler:
    """Uniform proposal over ``v`` ids; its expected-count corrections cancel."""

    def __init__(self, v):
        self.probs = np.full(v, 1.0 / v)

    def sample(self, rng, count):
        return _sample_unique(rng, self.probs, count)


def toy_corpus(rng):
    """Subword table for a 6-word vocabulary over an 8-subword alphabet."""
    lengths = rng.integers(1, N + 1, size=W_VOCAB)
    rows = np.zeros((W_VOCAB, N), dtype=np.int64)
    for i in range(W_VOCAB):
        rows[i, :lengths[i]] = rng.integers(1, S_VOCAB, size=lengths[i])
    return EncodedCorpus(streams={}, subword_rows=rows, row_lengths=lengths)


def toy_model(rng=None, d_lm=5, dropout=0.0, variant="syl-sum", dtype=np.float64):
    init = np.zeros if rng is None else uniform_init(rng, 0.3, dtype)
    kw = {"d_hw": 4} if variant == "syl-concat" else {}
    comp = build_composer(TrainConfig(variant=variant, d_s=4, **kw), SIZES, init=init)
    return LanguageModel(comp, d_lm=d_lm, vocab_size=W_VOCAB,
                         dropout_rate=dropout, init=init)


def recorded_nodes(loss):
    """The number of recorded nodes behind ``loss``."""
    return sum(node.op != "leaf" for node in T.recorded(loss))


class TestForward:
    def test_single_step_equals_stacked_cells(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        ids = np.array([[2], [4]])  # batch 2, one step
        x = model.embed_window(ids, corpus)
        state = model.zero_state(2)
        h, _ = model.lm_forward(x, 1, state, mode="eval")
        seq = x.data
        for cell, (h0, c0) in zip(model.cells, state):
            seq, _ = lstm_step(seq, h0, c0, *(p.data for p in cell))
        assert np.abs(h.data - seq).max() < 1e-12

    def test_window_matches_reference_cells(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(2, 5))
        x = model.embed_window(ids, corpus)
        state = model.zero_state(2)
        state[0] = (rng.normal(size=(2, 5)), rng.normal(size=(2, 5)))
        h, new_state = model.lm_forward(x, 5, state, mode="eval")
        seq = x.data.reshape(5, 2, -1)
        for li, (cell, (h0, c0)) in enumerate(zip(model.cells, state)):
            seq, h_ref, c_ref = lstm_steps(seq, h0, c0,
                                           *(p.data for p in cell))
            assert np.abs(new_state[li][0] - h_ref).max() < 1e-12
            assert np.abs(new_state[li][1] - c_ref).max() < 1e-12
        assert np.abs(h.data - seq.reshape(10, -1)).max() < 1e-12

    def test_recorded_nodes_do_not_grow_with_window_length(self, rng):
        # one recorded op per LSTM layer, in the word LM and in the composer
        init = uniform_init(rng, 0.3)
        comp = build_composer(TrainConfig(variant="syl-lstm", d_s=4, d_w=3), SIZES,
                              init=init)
        model = LanguageModel(comp, d_lm=5, vocab_size=W_VOCAB, dropout_rate=0.5,
                              init=init)
        corpus = toy_corpus(rng)

        def node_count(steps):
            ids = rng.integers(0, W_VOCAB, size=(2, steps))
            loss, _ = model.window_nll(ids, ids, corpus, model.zero_state(2),
                                       mode="train", rng=np.random.default_rng(0))
            return recorded_nodes(loss)

        assert node_count(3) == node_count(30)

    @pytest.mark.parametrize("mode", ["Train", "test", ""])
    def test_unknown_mode_is_a_config_error(self, rng, mode):
        model = toy_model(rng, dropout=0.5)
        ids = rng.integers(0, W_VOCAB, size=(2, 4))
        with pytest.raises(ConfigError, match="mode"):
            model.window_nll(ids, ids, toy_corpus(rng), model.zero_state(2),
                             mode=mode, rng=np.random.default_rng(0))

    def test_eval_twice_is_bitwise(self, rng):
        model = toy_model(rng, dropout=0.5)
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(2, 4))
        outs = []
        for _ in range(2):
            x = model.embed_window(ids, corpus)
            h, _ = model.lm_forward(x, 4, model.zero_state(2), mode="eval")
            outs.append(h.data)
        assert np.array_equal(outs[0], outs[1])

    def test_two_windows_with_carried_state_match_one(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(2, 6))
        x = model.embed_window(ids, corpus)
        h_full, _ = model.lm_forward(x, 6, model.zero_state(2), mode="eval")

        state = model.zero_state(2)
        halves = []
        for part in (ids[:, :3], ids[:, 3:]):
            xp = model.embed_window(part, corpus)
            h, state = model.lm_forward(xp, 3, state, mode="eval")
            halves.append(h.data.reshape(3, 2, -1))
        joined = np.concatenate(halves, axis=0)
        assert np.abs(joined - h_full.data.reshape(6, 2, -1)).max() < 1e-10

    def test_window_nll_matches_per_position_xent(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(2, 3))
        targets = rng.integers(0, W_VOCAB, size=(2, 3))
        loss, _ = model.window_nll(ids, targets, corpus, model.zero_state(2))
        x = model.embed_window(ids, corpus)
        h, _ = model.lm_forward(x, 3, model.zero_state(2), mode="eval")
        ref, _ = T.softmax_xent(model.logits(h), targets.T.reshape(-1))
        assert abs(loss.item() - ref.item()) < 1e-15


EMBED_DIMS = {
    "word-direct": dict(d_w=4),
    "syl-lstm": dict(d_s=4, d_w=5),
    "syl-cnn": dict(d_s=4, cnn_max_width=2, cnn_depth_unit=2),
    "syl-sum": dict(d_s=4),
    "syl-avg": dict(d_s=4),
    "syl-avg-a": dict(d_s=4),
    "syl-avg-b": dict(d_s=4),
    "syl-concat": dict(d_s=4, d_hw=5),
}


@pytest.mark.parametrize("variant", list(EMBED_DIMS))
def test_embed_window_composes_each_distinct_word_once(variant, rng, monkeypatch):
    init = uniform_init(rng, 0.3)
    comp = build_composer(TrainConfig(variant=variant, **EMBED_DIMS[variant]), SIZES,
                          init=init)
    model = LanguageModel(comp, d_lm=5, vocab_size=W_VOCAB, init=init)
    corpus = toy_corpus(rng)
    ids = rng.integers(0, W_VOCAB, size=(3, 7))  # 21 tokens of 6 words
    flat = ids.T.reshape(-1)
    weights = rng.normal(size=(flat.size, comp.out_dim))
    composed = []
    call = type(comp).__call__

    def counting_call(self, word_ids, rows, lengths):
        composed.append(np.asarray(word_ids))
        return call(self, word_ids, rows, lengths)

    monkeypatch.setattr(type(comp), "__call__", counting_call)

    def vectors_and_grads(embed):
        for p in comp.params.values():
            p.grad = None
        out = embed()
        T.backward(scalar_loss(out, weights))
        return out.data, {name: p.grad for name, p in comp.params.items()}

    out, grads = vectors_and_grads(lambda: model.embed_window(ids, corpus))
    assert len(composed) == 1
    assert sorted(composed[0].tolist()) == sorted(set(flat.tolist()))
    ref, ref_grads = vectors_and_grads(
        lambda: comp(flat, corpus.subword_rows[flat], corpus.row_lengths[flat]))
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    for name, g in ref_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


@pytest.mark.parametrize("variant", list(EMBED_DIMS))
def test_train_window_records_the_nodes_of_an_eval_window(variant, rng):
    # dropout lives inside each lstm op; the sampled and the full softmax
    # are one op each
    init = uniform_init(rng, 0.3)
    comp = build_composer(TrainConfig(variant=variant, **EMBED_DIMS[variant]), SIZES,
                          init=init)
    model = LanguageModel(comp, d_lm=5, vocab_size=W_VOCAB, dropout_rate=0.5, init=init)
    corpus = toy_corpus(rng)
    ids = rng.integers(0, W_VOCAB, size=(2, 4))

    def nodes(mode, **sampled):
        loss, _ = model.window_nll(ids, ids, corpus, model.zero_state(2), mode=mode,
                                   rng=np.random.default_rng(0), **sampled)
        return recorded_nodes(loss)

    sampled = dict(sampler=UniformSampler(W_VOCAB), sample_count=3)
    assert nodes("train") == nodes("eval")
    assert nodes("train", **sampled) == nodes("eval")


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_window_backward_twice_doubles_every_gradient(mode, rng):
    # the backward must not consume what the forward saved
    model = toy_model(rng, dropout=0.5)
    ids = rng.integers(0, W_VOCAB, size=(2, 4))
    loss, _ = model.window_nll(ids, ids, toy_corpus(rng), model.zero_state(2), mode=mode,
                               rng=np.random.default_rng(0))
    T.backward(loss)
    once = {name: p.grad.copy() for name, p in model.params.items()}
    T.backward(loss)
    for name, g in once.items():
        assert np.array_equal(model.params[name].grad, 2 * g), name


def test_full_softmax_window_keeps_about_two_logit_buffers(rng):
    """A full-softmax training window and its backward, under tracemalloc.

    At a small d_lm and a large V the (rows, V) logits dominate.  The
    output op keeps one such buffer through the forward and allocates one
    more in its backward; recording the logits as a node of their own
    would add about two more.
    """
    v, batch, steps = 4000, 4, 10
    init = uniform_init(rng, 0.1)
    comp = build_composer(TrainConfig(variant="word-direct", d_w=4), ModelSizes(v, 1, 0),
                          init=init)
    model = LanguageModel(comp, d_lm=8, vocab_size=v, dropout_rate=0.5, init=init)
    corpus = EncodedCorpus(streams={}, subword_rows=np.zeros((v, 1), dtype=np.int64),
                           row_lengths=np.ones(v, dtype=np.int64))
    ids, targets = rng.integers(0, v, size=(2, batch, steps))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loss, _ = model.window_nll(ids, targets, corpus, model.zero_state(batch),
                                   mode="train", rng=np.random.default_rng(0))
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loss.data.dtype == np.float64
    assert peak - start <= 2.5 * batch * steps * v * 8


class TestPerplexity:
    def test_zero_model_gives_vocab_size(self, rng):
        model = toy_model()  # all parameters zero except forget biases
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=50)
        assert abs(perplexity(model, stream, corpus, steps=7) - W_VOCAB) < 0.5

    def test_single_word_vocab_gives_one(self, rng):
        comp = build_composer(TrainConfig(variant="word-direct", d_w=3), ModelSizes(1, 1, 0))
        model = LanguageModel(comp, d_lm=4, vocab_size=1, dropout_rate=0.0)
        corpus = EncodedCorpus(streams={}, subword_rows=np.zeros((1, 1), dtype=np.int64),
                               row_lengths=np.ones(1, dtype=np.int64))
        stream = np.zeros(20, dtype=np.int64)
        assert perplexity(model, stream, corpus, steps=5) == pytest.approx(1.0)

    def test_chunked_equals_whole_stream(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=61)
        ref, count_ref, _ = evaluate_stream(model, stream, corpus, steps=60)
        for steps in (3, 7, 13):
            total, count, _ = evaluate_stream(model, stream, corpus, steps=steps)
            assert count == count_ref == len(stream) - 1
            assert abs(total - ref) < 1e-8

    def test_records_cover_targets(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=23)
        _, count, records = evaluate_stream(model, stream, corpus, steps=5,
                                            collect_records=True)
        assert len(records) == count == 22
        assert [p for p, _, _ in records] == list(range(1, 23))
        assert all(wid == stream[pos] for pos, wid, _ in records)
        assert all(0.0 < prob <= 1.0 for _, _, prob in records)

    def test_record_probs_are_the_softmax_at_the_target(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=23)
        _, _, records = evaluate_stream(model, stream, corpus, steps=22,
                                        collect_records=True)
        x = model.embed_window(stream[None, :-1], corpus)
        h, _ = model.lm_forward(x, 22, model.zero_state(1), mode="eval")
        lv = model.logits(h).data
        e = np.exp(lv - lv.max(axis=1, keepdims=True))
        probs = (e / e.sum(axis=1, keepdims=True))[np.arange(22), stream[1:]]
        assert np.abs(np.array([p for _, _, p in records]) / probs - 1.0).max() < 1e-12

    # 100 targets (less than a block), 128 (one block), 131 (a block of 128
    # or more plus a short last window, for most steps)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("steps", [1, 5, 22, 127, 128, 129])
    @pytest.mark.parametrize("targets", [100, 128, 131])
    def test_block_scoring_equals_one_window_at_a_time(self, rng, dtype, steps, targets):
        model = toy_model(rng, dtype=dtype)
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=targets + 1)
        ref_total, ref_records, state = 0.0, [], model.zero_state(1)
        with T.no_grad():
            for inputs, window_targets, carry in eval_windows(stream, steps):
                if not carry:
                    state = model.zero_state(1)
                loss, state = model.window_nll(inputs, window_targets, corpus, state)
                t, done = inputs.shape[1], len(ref_records)
                ref_total += loss.item() * t
                ref_records += [(done + 1 + j, int(window_targets[0, j]),
                                 math.exp(-loss.meta[j])) for j in range(t)]
        total, count, records = evaluate_stream(model, stream, corpus, steps=steps,
                                                collect_records=True)
        assert count == targets
        assert total == pytest.approx(ref_total, rel=1e-12, abs=0)
        assert [r[:2] for r in records] == [r[:2] for r in ref_records]
        assert np.array([r[2] for r in records]) == pytest.approx(
            np.array([r[2] for r in ref_records]), rel=1e-12, abs=0)

    # a 300-token stream: 299 targets in windows of ``steps``, the last one short
    @pytest.mark.parametrize("steps,block_windows,block_rows", [
        (5, [26, 26, 8], [130, 130, 39]),
        (35, [4, 4, 1], [140, 140, 19]),
        (129, [1, 1, 1], [129, 129, 41]),
    ])
    def test_one_embed_and_softmax_per_window_one_logits_per_block(
            self, rng, monkeypatch, steps, block_windows, block_rows):
        """Windows run ``embed_window`` and ``full_softmax_nll`` once each, in
        stream order, and each block of at least 128 rows one ``logits``
        before its windows' ``full_softmax_nll`` calls.

        The benchmark in ``perfbench/`` counts the ``full_softmax_nll`` calls
        as its attempted eval windows (a NaN there is a failed window) and
        times a window from one ``embed_window`` call to the next.
        """
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=300)
        calls = []
        embed, softmax, logits = (LanguageModel.embed_window, lm.full_softmax_nll,
                                  LanguageModel.logits)

        def spy(name, fn, record):
            def wrapped(*args):
                calls.append((name, record(*args)))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(LanguageModel, "embed_window",
                            spy("embed", embed, lambda self, ids, _: ids.tolist()))
        monkeypatch.setattr(lm, "full_softmax_nll",
                            spy("softmax", softmax, lambda _, y: y.tolist()))
        monkeypatch.setattr(LanguageModel, "logits",
                            spy("logits", logits, lambda self, h: h.shape[0]))
        evaluate_stream(model, stream, corpus, steps=steps)

        windows = list(eval_windows(stream, steps))
        assert [ids for name, ids in calls if name == "embed"] == \
            [x.tolist() for x, _, _ in windows]
        assert [y for name, y in calls if name == "softmax"] == \
            [y.reshape(-1).tolist() for _, y, _ in windows]
        assert [n for name, n in calls if name == "logits"] == block_rows
        assert [name for name, _ in calls if name != "embed"] == \
            sum((["logits"] + ["softmax"] * n for n in block_windows), [])


def sampled_reference(hv, wv, bv, targets, drawn, tries, probs):
    """Sampled-softmax loss and h/w/b gradients, one row at a time.

    Row r's candidates are its target and the ``len(drawn) - 1`` drawn ids
    other than the excluded one: the target when drawn, else the last id
    drawn.  Logits carry the correction log(1 - (1-q)^tries).
    """
    m = len(targets)
    log_expected = np.log(-np.expm1(tries * np.log1p(-probs)))
    loss, dh, dw, db = 0.0, np.zeros_like(hv), np.zeros_like(wv), np.zeros_like(bv)
    for r, y in enumerate(targets):
        excluded = y if y in drawn else drawn[-1]
        negatives = [c for c in drawn if c != excluded]
        assert len(negatives) == len(drawn) - 1
        cands = [y] + negatives
        logits = hv[r] @ wv[:, cands] + bv[cands] - log_expected[cands]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        loss -= np.log(p[0]) / m
        p[0] -= 1.0
        p /= m
        dh[r] = wv[:, cands] @ p
        for c, pc in zip(cands, p):
            dw[:, c] += pc * hv[r]
            db[c] += pc
    return loss, dh, dw, db


class TestSampledSoftmax:
    def _setup(self, rng, v=12, m=5, d=4):
        h = T.Tensor(rng.normal(size=(m, d)))
        w = T.Tensor(rng.normal(scale=0.4, size=(d, v)))
        b = T.Tensor(rng.normal(scale=0.1, size=v))
        targets = rng.integers(0, v, size=m)
        return h, w, b, targets

    def test_all_negatives_uniform_equals_full(self, rng):
        h, w, b, targets = self._setup(rng)
        v = w.data.shape[1]
        full, _ = full_softmax_nll(T.affine(h, w, b), targets)
        sampled = sampled_softmax_nll(h, w, b, targets, v - 1, UniformSampler(v),
                                      np.random.default_rng(0))
        assert abs(sampled.item() - full.item()) < 1e-6

    @pytest.mark.parametrize("count", [0, 12, 13])
    def test_sample_count_outside_the_vocabulary_is_a_config_error(self, rng, count):
        # 12 is the whole vocabulary: a pool of count + 1 distinct ids cannot exist
        h, w, b, targets = self._setup(rng)
        with pytest.raises(ConfigError, match="sample count"):
            sampled_softmax_nll(h, w, b, targets, count, UniformSampler(12),
                                np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_target_out_of_range_is_an_index_error(self, rng, bad):
        # a target of -1 would score word V-1 in its place
        h, w, b, targets = self._setup(rng)
        targets[2] = bad
        with pytest.raises(IndexError, match="sampled_softmax_nll: target out of range"):
            sampled_softmax_nll(h, w, b, targets, 6, UniformSampler(12),
                                np.random.default_rng(0))

    def test_target_count_mismatch_is_a_dimension_error(self, rng):
        h, w, b, targets = self._setup(rng)
        with pytest.raises(DimensionError, match="4 targets for 5 rows"):
            sampled_softmax_nll(h, w, b, targets[:-1], 6, UniformSampler(12),
                                np.random.default_rng(0))

    def test_paper_sample_fraction(self):
        assert sample_count_for(50_000, 0.2) == 10_000

    def test_gradient_matches_fd_with_fixed_pool(self, rng):
        h, w, b, targets = self._setup(rng)
        sampler = LogUniformSampler(np.arange(12, 0, -1))

        def loss_fn():
            return sampled_softmax_nll(h, w, b, targets, 6, sampler,
                                       np.random.default_rng(11))

        check_grads(loss_fn, {"h": h, "w": w, "b": b})

    def _pool_and_targets(self, sampler, k, seed):
        """The pool a call seeded with ``seed`` draws, and six targets: one
        mid-pool, the last-drawn id, one outside the pool, and duplicates."""
        pool, tries = sampler.sample(np.random.default_rng(seed), k + 1)
        outside = np.setdiff1d(np.arange(len(sampler.probs)), pool)
        targets = np.array([pool[3], pool[k], outside[0], pool[3], outside[0], pool[k]])
        return pool, tries, targets

    def test_backward_matches_per_row_reference(self, rng):
        v, k = 12, 7
        sampler = LogUniformSampler(np.arange(v, 0, -1))
        pool, tries, targets = self._pool_and_targets(sampler, k, seed=3)
        h, w, b, _ = self._setup(rng, v=v, m=len(targets))
        ref = sampled_reference(h.data, w.data, b.data, targets, pool, tries, sampler.probs)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            params = [T.Tensor(p.data, dtype=dtype) for p in (h, w, b)]
            loss = sampled_softmax_nll(*params, targets, k, sampler, np.random.default_rng(3))
            T.backward(loss)
            assert loss.data.dtype == dtype
            assert abs(loss.item() - ref[0]) <= tol * abs(ref[0])
            for p, expected in zip(params, ref[1:]):
                assert p.grad.dtype == dtype
                assert np.abs(p.grad - expected).max() <= tol * np.abs(expected).max()

    def test_gradient_matches_fd_with_targets_in_each_slot(self, rng):
        v, k = 12, 7
        sampler = LogUniformSampler(np.arange(v, 0, -1))
        _, _, targets = self._pool_and_targets(sampler, k, seed=4)
        h, w, b, _ = self._setup(rng, v=v, m=len(targets))

        def loss_fn():
            return sampled_softmax_nll(h, w, b, targets, k, sampler,
                                       np.random.default_rng(4))

        check_grads(loss_fn, {"h": h, "w": w, "b": b})

    def test_expected_gradient_near_full_softmax(self):
        # Monte-Carlo oracle: average sampled gradients over 200 resamplings
        # and compare against the exact full-softmax gradient.
        rng = np.random.default_rng(5)
        v, d, m = 20, 6, 4
        h = T.Tensor(rng.normal(size=(m, d)))
        w = T.Tensor(rng.normal(scale=0.4, size=(d, v)))
        b = T.Tensor(rng.normal(scale=0.1, size=v))
        targets = rng.integers(0, v, size=m)
        sampler = LogUniformSampler(rng.integers(1, 100, size=v))

        for p in (h, w, b):
            p.grad = None
        loss, _ = full_softmax_nll(T.affine(h, w, b), targets)
        T.backward(loss)
        ref = {name: p.grad.copy() for name, p in (("h", h), ("w", w), ("b", b))}

        reps = 200
        acc = {name: 0.0 for name in ref}
        srng = np.random.default_rng(77)
        for _ in range(reps):
            for p in (h, w, b):
                p.grad = None
            T.backward(sampled_softmax_nll(h, w, b, targets, 15, sampler, srng))
            for name, p in (("h", h), ("w", w), ("b", b)):
                acc[name] = acc[name] + p.grad
        for name in ref:
            rel = (np.linalg.norm(acc[name] / reps - ref[name])
                   / np.linalg.norm(ref[name]))
            assert rel < 0.05, f"{name}: {rel:.3%}"


class TestTrainingSmoke:
    def test_loss_decreases_over_ten_sgd_steps(self, rng):
        model = toy_model(rng, d_lm=8)
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(4, 5))
        targets = rng.integers(0, W_VOCAB, size=(4, 5))
        losses = []
        for _ in range(10):
            for p in model.params.values():
                p.grad = None
            loss, _ = model.window_nll(ids, targets, corpus, model.zero_state(4),
                                       mode="eval")
            T.backward(loss)
            losses.append(loss.item())
            for p in model.params.values():
                if p.grad is not None:
                    p.data -= 0.1 * p.grad
        assert all(b < a for a, b in zip(losses, losses[1:]))


@pytest.mark.parametrize("seed", range(3))
def test_full_pipeline_gradients(seed):
    # composed word vectors -> two-layer LSTM -> softmax, all parameters
    def build(rng):
        model = toy_model(rng, d_lm=4, variant="syl-concat")
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(2, 2))
        targets = rng.integers(0, W_VOCAB, size=(2, 2))

        def loss_fn():
            loss, _ = model.window_nll(ids, targets, corpus, model.zero_state(2),
                                       mode="eval")
            return loss

        return loss_fn, model.params

    loss_fn, params = safe_instance(build, seed + 40)
    check_grads(loss_fn, params)
