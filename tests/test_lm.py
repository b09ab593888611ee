import math

import numpy as np
import pytest

from fdiff import check_grads, safe_instance
from lstm_reference import lstm_step, lstm_steps
from sublm import tensor as T
from sublm.composition import CompositionConfig, build_composer, uniform_init
from sublm.corpus import EncodedCorpus
from sublm.lm import (LanguageModel, LogUniformSampler, UniformSampler,
                      evaluate_stream, full_softmax_nll, perplexity,
                      sample_count_for, sampled_softmax_nll, timed_perplexity)

W_VOCAB, S_VOCAB, N = 6, 8, 3


def toy_corpus(rng):
    """Subword table for a 6-word vocabulary over an 8-subword alphabet."""
    lengths = rng.integers(1, N + 1, size=W_VOCAB)
    rows = np.zeros((W_VOCAB, N), dtype=np.int64)
    for i in range(W_VOCAB):
        rows[i, :lengths[i]] = rng.integers(1, S_VOCAB, size=lengths[i])
    return EncodedCorpus(streams={}, subword_rows=rows, row_lengths=lengths)


def toy_model(rng=None, d_lm=5, dropout=0.0, variant="syl-sum"):
    init = np.zeros if rng is None else uniform_init(rng, 0.3)
    kw = {"d_hw": 4} if variant == "syl-concat" else {}
    comp = build_composer(CompositionConfig(variant=variant, d_s=4, n=N, **kw),
                          W_VOCAB, S_VOCAB, init=init)
    return LanguageModel(comp, d_lm=d_lm, vocab_size=W_VOCAB,
                         dropout_rate=dropout, init=init)


class TestForward:
    def test_single_step_equals_stacked_cells(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        ids = np.array([[2], [4]])  # batch 2, one step
        x = model.embed_window(ids, corpus)
        state = model.zero_state(2)
        h, _ = model.lm_forward(x, 1, state, mode="eval")
        seq = x.data
        for cell, (h0, c0) in zip(model.cells, state.layers):
            seq, _ = lstm_step(seq, h0, c0, *(p.data for p in cell.tensors().values()))
        assert np.abs(h.data - seq).max() < 1e-12

    def test_window_matches_reference_cells(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        ids = rng.integers(0, W_VOCAB, size=(2, 5))
        x = model.embed_window(ids, corpus)
        state = model.zero_state(2)
        state.layers[0] = (rng.normal(size=(2, 5)), rng.normal(size=(2, 5)))
        h, new_state = model.lm_forward(x, 5, state, mode="eval")
        seq = x.data.reshape(5, 2, -1)
        for li, (cell, (h0, c0)) in enumerate(zip(model.cells, state.layers)):
            seq, h_ref, c_ref = lstm_steps(seq, h0, c0,
                                           *(p.data for p in cell.tensors().values()))
            assert np.abs(new_state.layers[li][0] - h_ref).max() < 1e-12
            assert np.abs(new_state.layers[li][1] - c_ref).max() < 1e-12
        assert np.abs(h.data - seq.reshape(10, -1)).max() < 1e-12

    def test_recorded_nodes_do_not_grow_with_window_length(self, rng):
        # one recorded op per LSTM layer, in the word LM and in the composer
        init = uniform_init(rng, 0.3)
        comp = build_composer(CompositionConfig(variant="syl-lstm", d_s=4, d_w=3, n=N),
                              W_VOCAB, S_VOCAB, init=init)
        model = LanguageModel(comp, d_lm=5, vocab_size=W_VOCAB, dropout_rate=0.5,
                              init=init)
        corpus = toy_corpus(rng)

        def node_count(steps):
            ids = rng.integers(0, W_VOCAB, size=(2, steps))
            with T.Graph(seed=0) as g:
                loss, _ = model.window_nll(ids, ids, corpus, model.zero_state(2),
                                           mode="train", rng=g.rng)
            seen, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if node._backward is not None and node.node_id not in seen:
                    seen.add(node.node_id)
                    stack.extend(node._parents)
            return len(seen)

        assert node_count(3) == node_count(30)

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
    comp = build_composer(CompositionConfig(variant=variant, n=N, **EMBED_DIMS[variant]),
                          W_VOCAB, S_VOCAB, init=init)
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
        T.backward(T.tsum(T.mul_array(out, weights)))
        return out.data, {name: p.grad for name, p in comp.params.items()}

    out, grads = vectors_and_grads(lambda: model.embed_window(ids, corpus))
    assert len(composed) == 1
    assert sorted(composed[0].tolist()) == sorted(set(flat.tolist()))
    ref, ref_grads = vectors_and_grads(
        lambda: comp(flat, corpus.subword_rows[flat], corpus.row_lengths[flat]))
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    for name, g in ref_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


class TestPerplexity:
    def test_zero_model_gives_vocab_size(self, rng):
        model = toy_model()  # all parameters zero except forget biases
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=50)
        assert abs(perplexity(model, stream, corpus, steps=7) - W_VOCAB) < 0.5

    def test_single_word_vocab_gives_one(self, rng):
        comp = build_composer(CompositionConfig(variant="word-direct", d_w=3), 1, 1)
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

    def test_timed_perplexity_reports_throughput(self, rng):
        model = toy_model(rng)
        corpus = toy_corpus(rng)
        stream = rng.integers(0, W_VOCAB, size=40)
        ppl, tps, records = timed_perplexity(model, stream, corpus, steps=8)
        assert len(records) == len(stream) - 1
        assert ppl == pytest.approx(perplexity(model, stream, corpus, steps=8))
        assert tps > 0


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

    def test_oversized_sample_count_falls_back(self, rng, caplog):
        h, w, b, targets = self._setup(rng)
        v = w.data.shape[1]
        full, _ = full_softmax_nll(T.affine(h, w, b), targets)
        with caplog.at_level("WARNING", logger="sublm"):
            sampled = sampled_softmax_nll(h, w, b, targets, v, UniformSampler(v),
                                          np.random.default_rng(0))
        assert "full softmax" in caplog.text
        assert sampled.item() == pytest.approx(full.item())

    def test_paper_sample_fraction(self):
        assert sample_count_for(50_000, 0.2) == 10_000

    def test_gradient_matches_fd_with_fixed_pool(self, rng):
        h, w, b, targets = self._setup(rng)
        sampler = LogUniformSampler(np.arange(12, 0, -1))

        def loss_fn():
            return sampled_softmax_nll(h, w, b, targets, 6, sampler,
                                       np.random.default_rng(11))

        check_grads(loss_fn, {"h": h, "w": w, "b": b})

    def test_backward_bitwise_equals_scatter_add_form(self, rng):
        # the scatter-free backward against the np.add.at form, with targets
        # inside the shared pool, so their rows move a negative to position k
        v, m, k = 12, 6, 7
        h, w, b, _ = self._setup(rng, v=v, m=m)
        sampler = UniformSampler(v)
        pool, tries = sampler.sample(np.random.default_rng(3), k + 1)
        targets = np.concatenate([pool[[0, 2, k]], rng.integers(0, v, size=m - 3)])
        T.backward(sampled_softmax_nll(h, w, b, targets, k, sampler,
                                       np.random.default_rng(3)))

        hv, wv, bv = h.data, w.data, b.data
        pos_of = np.full(v, -1)
        pos_of[pool] = np.arange(k + 1)
        select = np.broadcast_to(np.arange(k), (m, k)).copy()
        hit = pos_of[targets]
        swap_rows = np.nonzero((hit >= 0) & (hit < k))[0]
        assert {0, 1} <= set(swap_rows.tolist()) and 2 not in swap_rows
        select[swap_rows, hit[swap_rows]] = k
        pool_logits = hv @ wv[:, pool] + bv[pool]
        target_logits = np.einsum("md,dm->m", hv, wv[:, targets]) + bv[targets]
        log_expected = np.log(-np.expm1(tries * np.log1p(-sampler.probs)))
        logits = np.concatenate([target_logits[:, None],
                                 np.take_along_axis(pool_logits, select, axis=1)], axis=1)
        logits = logits - log_expected[np.concatenate([targets[:, None], pool[select]], axis=1)]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        dlogits = e / e.sum(axis=1, keepdims=True)
        dlogits[:, 0] -= 1.0
        dlogits *= 1.0 / m
        d_pool = np.zeros((m, k + 1))
        np.add.at(d_pool, (np.arange(m)[:, None], select), dlogits[:, 1:])
        dw, db = np.zeros_like(wv), np.zeros_like(bv)
        np.add.at(dw.T, targets, dlogits[:, :1] * hv)
        dw[:, pool] += hv.T @ d_pool
        np.add.at(db, targets, dlogits[:, 0])
        np.add.at(db, pool, d_pool.sum(axis=0))
        dh = dlogits[:, :1] * wv[:, targets].T + d_pool @ wv[:, pool].T
        assert np.array_equal(h.grad, dh)
        assert np.array_equal(w.grad, dw) and np.array_equal(b.grad, db)

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
