"""Word-level two-layer LSTM language model over composed word vectors.

The model predicts the next word with a softmax over the word vocabulary;
training can swap in a sampled-softmax estimator for the gradient, but every
reported perplexity comes from the full softmax at batch size 1 over the
whole stream, with state carried across windows.

Scoring (:func:`evaluate_stream`) runs the composer and the word LSTM one
window at a time but the output layer once per block of at least
``SCORE_BLOCK_ROWS`` top-layer rows.  At batch 1 the output GEMM's cost is
mostly fixed per call (OpenBLAS packs the whole d_lm x V weight each time):
at d_lm 300, V 10k, f32 on one core, 35 rows took 4.5-6.0 ms and 140 rows
9.5 ms, so 128 rows brings a 35-step window's share to about 2.4 ms while a
block's logits stay a few MiB.  A logits row depends on its own hidden row
alone, so block scoring gives the same losses and records as scoring each
window alone; that they are bitwise equal rests on BLAS computing a row the
same way whatever the row count, which OpenBLAS was seen to do but does not
promise.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .composition import Composer, zeros_init
from .corpus import EncodedCorpus, eval_windows
from .errors import ConfigError
from .tensor import Tensor


class LanguageModel:
    """Composer plus a two-layer word LSTM and an output softmax layer.

    Dropout is applied between the LSTM layers and on the hidden-to-output
    connection, never to the composed word vector.
    """

    NUM_LAYERS = 2

    def __init__(self, composer: Composer, d_lm: int, vocab_size: int,
                 dropout_rate: float = 0.5, init=zeros_init):
        self.composer = composer
        self.d_lm = d_lm
        self.dropout_rate = dropout_rate
        self.cells = [T.lstm_params(composer.out_dim, d_lm, init),
                      T.lstm_params(d_lm, d_lm, init)]
        self.w_out = Tensor(init((d_lm, vocab_size)))
        self.b_out = Tensor(init((vocab_size,)))
        self.params: dict[str, Tensor] = {}
        self.params.update({f"composer.{k}": v for k, v in composer.params.items()})
        for i, cell in enumerate(self.cells):
            self.params.update(zip((f"lm.l{i}.wx", f"lm.l{i}.wh", f"lm.l{i}.b"), cell))
        self.params["lm.w_out"] = self.w_out
        self.params["lm.b_out"] = self.b_out

    def zero_state(self, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Zero (h, c) arrays of shape (batch, d_lm), one pair per layer.

        The state is carried from one window into the next as plain arrays,
        not tensors, so no gradient flows across a window boundary.
        """
        dtype = self.w_out.data.dtype
        return [(np.zeros((batch, self.d_lm), dtype=dtype),
                 np.zeros((batch, self.d_lm), dtype=dtype))
                for _ in range(self.NUM_LAYERS)]

    def embed_window(self, word_ids: np.ndarray, corpus: EncodedCorpus) -> Tensor:
        """Compose word vectors for a (batch, steps) window of word ids.

        Returns a time-major flat tensor of shape (steps*batch, d_w): row
        k*batch + i is the vector of lane i at step k.  Each distinct word
        of the window is composed once and its vector gathered into every
        row that holds it; composition depends on the word type alone and
        has no dropout, so this equals composing every token.  Nothing is
        kept between calls.
        """
        flat = np.asarray(word_ids).T.reshape(-1)
        distinct, inverse = np.unique(flat, return_inverse=True)
        vectors = self.composer(distinct, corpus.subword_rows[distinct],
                                corpus.row_lengths[distinct])
        return T.lookup(vectors, inverse)

    def lm_forward(self, x: Tensor, steps: int, state: list,
                   mode: str = "eval", rng=None) -> tuple[Tensor, list]:
        """Run the stacked LSTM over a time-major flat window.

        Output is (steps*batch, d_lm).  In train mode each layer's ``lstm`` op
        drops out its outputs, not its recurrence; the returned state holds
        each layer's final (h, c) for carrying into the next window.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        rate = self.dropout_rate if mode == "train" else 0.0
        new_state = []
        layer_in = x
        for cell, (h, c) in zip(self.cells, state):
            layer_in, h, c = T.lstm(layer_in, h, c, cell, steps, dropout=rate, rng=rng)
            new_state.append((h, c))
        return layer_in, new_state

    def hidden(self, word_ids, corpus: EncodedCorpus, state: list,
               mode: str = "eval", rng=None) -> tuple[Tensor, list]:
        """Top-layer output of a (batch, steps) window and the new state:
        ``embed_window`` then ``lm_forward``."""
        word_ids = np.asarray(word_ids)
        x = self.embed_window(word_ids, corpus)
        return self.lm_forward(x, word_ids.shape[1], state, mode=mode, rng=rng)

    def logits(self, h: Tensor) -> Tensor:
        return T.affine(h, self.w_out, self.b_out)

    def window_nll(self, word_ids, targets, corpus, state, mode="eval",
                   rng=None, sampler=None, sample_count=0):
        """Mean per-token NLL of one window; sampled estimator when asked.

        Returns (loss, new_state).  ``targets`` is (batch, steps); sampling
        applies only in train mode with a sampler, whose ``sample_count``
        must lie in (0, V), and runs ``sampled_softmax_nll``.  Otherwise the
        full softmax is the one op ``tensor.output_nll``, which never
        records the logits, and ``loss.meta`` is the detached per-row NLL,
        time-major like ``embed_window``'s rows.
        """
        h, new_state = self.hidden(word_ids, corpus, state, mode=mode, rng=rng)
        flat_targets = np.asarray(targets).T.reshape(-1)
        if mode == "train" and sampler is not None:
            loss = sampled_softmax_nll(h, self.w_out, self.b_out, flat_targets,
                                       sample_count, sampler, rng)
        else:
            loss = T.output_nll(h, self.w_out, self.b_out, flat_targets)
        return loss, new_state


def full_softmax_nll(logits: Tensor, targets: np.ndarray):
    """Mean negative log-likelihood (natural log) plus each row's NLL.

    ``evaluate_stream`` calls it once per window on that window's slice of
    a block's logits.  ``LanguageModel.window_nll`` does not: it runs
    ``tensor.output_nll``, the same arithmetic fused with the output layer.
    """
    return T.softmax_xent(logits, targets)


def _sample_unique(rng: np.random.Generator, probs: np.ndarray, count: int):
    """``count`` distinct ids by rejection from the proposal, plus the try count.

    The number of with-replacement tries consumed makes the expected-count
    correction ``1 - (1-q)^tries`` exact in expectation for every class, so
    the estimator degenerates to the full softmax when the candidates cover
    the vocabulary under a uniform proposal.
    """
    v = len(probs)
    seen = np.zeros(v, dtype=bool)
    chosen: list[int] = []
    tries = 0
    while len(chosen) < count:
        draw = rng.choice(v, size=max(count, 32), replace=True, p=probs)
        for x in draw:
            tries += 1
            if not seen[x]:
                seen[x] = True
                chosen.append(int(x))
                if len(chosen) == count:
                    break
    return np.asarray(chosen, dtype=np.int64), tries


class LogUniformSampler:
    """Zipf-shaped proposal over the vocabulary, ranked by training frequency.

    P(rank r) = log((r+2)/(r+1)) / log(V+1): heavier on frequent words, the
    standard proposal for sampled softmax over frequency-sorted vocabularies.
    """

    def __init__(self, word_freq: np.ndarray):
        v = len(word_freq)
        ranks = np.empty(v, dtype=np.int64)
        order = np.argsort(-np.asarray(word_freq), kind="stable")
        ranks[order] = np.arange(v)
        r = ranks.astype(np.float64)
        self.probs = (np.log((r + 2.0) / (r + 1.0))) / math.log(v + 1.0)
        self.probs /= self.probs.sum()

    def sample(self, rng: np.random.Generator, count: int):
        """``count`` distinct word ids and the rejection-try count."""
        return _sample_unique(rng, self.probs, count)


def sample_count_for(vocab_size: int, fraction: float) -> int:
    """Appendix-recipe sample count: a fixed fraction of the vocabulary."""
    return max(1, int(round(vocab_size * fraction)))


def sampled_softmax_nll(h: Tensor, w_out: Tensor, b_out: Tensor,
                        targets: np.ndarray, sample_count: int, sampler,
                        rng: np.random.Generator) -> Tensor:
    """Sampled-softmax NLL estimate for training gradients.

    One shared pool of k + 1 distinct ids (k = ``sample_count``, which must
    lie in (0, V)) is drawn per call.  A row's candidates are its target
    plus k negatives: the pool less one excluded id, which is the target
    when the pool holds it and otherwise the last id drawn.  So k = V-1
    degenerates to the full softmax.  Logits get a log-expected-count
    correction ``log(1 - (1-q)^tries)`` under the proposal q.  The pool is
    scored in sorted id order as one (m, k+1) matrix whose excluded slot is
    -inf in each row, next to a separate column of target logits.
    """
    hv, wv, bv = h.data, w_out.data, b_out.data
    (m, d), v = hv.shape, wv.shape[1]
    if not 0 < sample_count < v:
        raise ConfigError(f"sampled softmax needs 0 < sample count < vocabulary size "
                          f"{v}, got {sample_count}; lower sample_fraction or use "
                          f"softmax = full")
    targets = T._check_targets("sampled_softmax_nll", targets, m, v)
    k = sample_count
    drawn, tries = sampler.sample(rng, k + 1)
    pool = np.sort(drawn)
    ids = np.concatenate([pool, targets])
    with np.errstate(divide="ignore"):
        log_expected = np.log(-np.expm1(tries * np.log1p(-sampler.probs[ids])))
    bias = bv[ids] - log_expected.astype(hv.dtype, copy=False)
    slot = np.searchsorted(pool, targets)
    outside = pool[np.minimum(slot, k)] != targets
    slot[outside] = np.searchsorted(pool, drawn[k])

    # each gathered once, column-contiguous, and reused by the backward
    w_pool = np.take(wv, pool, axis=1)                 # d x (k+1)
    w_tgt = np.take(wv, targets, axis=1)               # d x m
    e = hv @ w_pool
    e += bias[:k + 1]
    e[np.arange(m), slot] = -np.inf
    t = np.einsum("md,dm->m", hv, w_tgt) + bias[k + 1:]
    zmax = np.maximum(e.max(axis=1), t)
    e -= zmax[:, None]
    np.exp(e, out=e)
    e_t = np.exp(t - zmax)
    z = e.sum(axis=1) + e_t
    nll = np.log(z) + zmax - t

    def bw(g):
        d_pool = e / z[:, None]
        d_pool *= g / m
        d_tgt = (e_t / z - 1.0) * (g / m)

        def dw():
            # on the helper thread; the scatter runs when the walk adds it
            cols = np.concatenate([hv.T @ d_pool, hv.T * d_tgt], axis=1)

            def scatter(buf):
                # row by row: each element still gets its columns in order,
                # and no (d, k + 1 + m) index array is built
                for row, col in zip(buf, cols):
                    np.add.at(row, ids, col)
            return scatter

        dw_later = T.later(dw)
        dh = d_tgt[:, None] * w_tgt.T + d_pool @ w_pool.T
        return (dh, dw_later, lambda buf: np.add.at(
            buf, ids, np.concatenate([d_pool.sum(axis=0), d_tgt])))

    return T.custom_op(np.asarray(nll.mean()), "sampled_softmax", (h, w_out, b_out), bw)


# evaluate_stream runs the output layer once per block of at least this many
# rows (see the module docstring)
SCORE_BLOCK_ROWS = 128


def _hidden_blocks(model: LanguageModel, stream: np.ndarray, corpus: EncodedCorpus,
                   steps: int):
    """Lists of (top-layer rows, targets) of consecutive eval windows.

    Each list but the last holds at least ``SCORE_BLOCK_ROWS`` rows, and at
    most ``SCORE_BLOCK_ROWS - 1 + steps``.
    """
    state = model.zero_state(1)
    block, rows = [], 0
    for inputs, targets, carry in eval_windows(stream, steps):
        if not carry:
            state = model.zero_state(1)
        h, state = model.hidden(inputs, corpus, state)
        block.append((h.data, targets.reshape(-1)))
        rows += targets.size
        if rows >= SCORE_BLOCK_ROWS:
            yield block
            block, rows = [], 0
    if block:
        yield block


def evaluate_stream(model: LanguageModel, stream: np.ndarray,
                    corpus: EncodedCorpus, steps: int,
                    collect_records: bool = False):
    """Full-softmax NLL over a whole stream at batch 1 with carried state.

    Each ``steps`` window runs ``model.hidden`` in eval mode, state carried,
    and sets its top-layer rows aside.  Once ``SCORE_BLOCK_ROWS`` (128) or
    more rows are pending, or the stream ends, ``model.logits`` runs once on
    all of them (the output GEMM costs mostly per call; see the module
    docstring), then ``full_softmax_nll`` once per window on that window's
    rows.  A window of 128 rows or more is scored alone.  A logits row
    depends on its own hidden row alone, so losses and records do not depend
    on the blocking (bitwise with OpenBLAS: observed, not promised), and with
    state carried they depend on ``steps`` only through rounding.  Every
    target token (positions 1..len-1) is scored exactly once.  Returns
    ``(total_nll, token_count, records)`` where records, when requested,
    hold one (position, word_id, prob) triple per target token.
    """
    total_nll = 0.0
    count = 0
    records = [] if collect_records else None
    with T.no_grad():
        for block in _hidden_blocks(model, stream, corpus, steps):
            logits = model.logits(Tensor(np.concatenate([h for h, _ in block]))).data
            for _, targets in block:
                t = targets.size
                loss, nll = full_softmax_nll(Tensor(logits[:t]), targets)
                logits = logits[t:]
                total_nll += loss.item() * t
                if collect_records:
                    records += [(count + 1 + j, int(targets[j]), math.exp(-nll[j]))
                                for j in range(t)]
                count += t
    return total_nll, count, records


def _ppl(total_nll: float, count: int) -> float:
    mean = total_nll / count
    return math.exp(mean) if mean < 700.0 else math.inf


def perplexity(model: LanguageModel, stream: np.ndarray, corpus: EncodedCorpus,
               steps: int) -> float:
    """exp(mean NLL) over the stream; the reporting metric everywhere."""
    total, count, _ = evaluate_stream(model, stream, corpus, steps=steps)
    return _ppl(total, count)
