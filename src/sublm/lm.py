"""Word-level two-layer LSTM language model over composed word vectors.

The model predicts the next word with a softmax over the word vocabulary;
training can swap in a sampled-softmax estimator for the gradient, but every
reported perplexity comes from the full softmax at batch size 1 over the
whole stream, with state carried across windows.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import tensor as T
from .composition import Composer
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
                 dropout_rate: float = 0.5, init=None, dtype=np.float64):
        if init is None:
            init = np.zeros
        self.composer = composer
        self.d_lm = d_lm
        self.vocab_size = vocab_size
        self.dropout_rate = dropout_rate
        self.dtype = dtype
        self.cells = [
            T.LSTMCellParams.create(composer.out_dim, d_lm, init, dtype),
            T.LSTMCellParams.create(d_lm, d_lm, init, dtype),
        ]
        self.w_out = Tensor(init((d_lm, vocab_size)), dtype=dtype)
        self.b_out = Tensor(init((vocab_size,)), dtype=dtype)
        self.params: dict[str, Tensor] = {}
        self.params.update({f"composer.{k}": v for k, v in composer.params.items()})
        for i, cell in enumerate(self.cells):
            self.params.update({f"lm.l{i}.{k}": v for k, v in cell.tensors().items()})
        self.params["lm.w_out"] = self.w_out
        self.params["lm.b_out"] = self.b_out

    def zero_state(self, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Zero (h, c) arrays of shape (batch, d_lm), one pair per layer.

        The state is carried from one window into the next as plain arrays,
        not tensors, so no gradient flows across a window boundary.
        """
        return [(np.zeros((batch, self.d_lm), dtype=self.dtype),
                 np.zeros((batch, self.d_lm), dtype=self.dtype))
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

        Output is (steps*batch, d_lm) with dropout already applied to the
        hidden-to-output connection in train mode; the returned state holds
        each layer's final (h, c) for carrying into the next window.
        """
        new_state = []
        layer_in = x
        for cell, (h, c) in zip(self.cells, state):
            layer_in, h, c = T.lstm(layer_in, h, c, cell, steps)
            new_state.append((h, c))
            if mode == "train" and self.dropout_rate > 0:
                layer_in = T.dropout(layer_in, self.dropout_rate, mode="train", rng=rng)
        return layer_in, new_state

    def logits(self, h: Tensor) -> Tensor:
        return T.affine(h, self.w_out, self.b_out)

    def window_nll(self, word_ids, targets, corpus, state, mode="eval",
                   rng=None, sampler=None, sample_count=0):
        """Mean per-token NLL of one window; sampled estimator when asked.

        Returns (loss, new_state).  ``targets`` is (batch, steps); sampling
        applies only in train mode with a sampler, whose ``sample_count``
        must lie in (0, V).
        """
        word_ids = np.asarray(word_ids)
        batch, steps = word_ids.shape
        x = self.embed_window(word_ids, corpus)
        h, new_state = self.lm_forward(x, steps, state, mode=mode, rng=rng)
        flat_targets = np.asarray(targets).T.reshape(-1)
        if mode == "train" and sampler is not None:
            loss = sampled_softmax_nll(h, self.w_out, self.b_out, flat_targets,
                                       sample_count, sampler, rng)
        else:
            loss, _ = full_softmax_nll(self.logits(h), flat_targets)
        return loss, new_state


def full_softmax_nll(logits: Tensor, targets: np.ndarray):
    """Mean negative log-likelihood (natural log) plus the full distributions."""
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

    Per position the candidates are the target plus ``sample_count`` distinct
    sampled negatives; logits get a log-expected-count correction
    ``log(1 - (1-q)^k)`` under the proposal q.  The shared pool holds
    ``sample_count + 1`` distinct ids, so the count must lie in (0, V).
    """
    hv = h.data
    m, d = hv.shape
    v = w_out.data.shape[1]
    targets = np.asarray(targets).reshape(-1)
    if not 0 < sample_count < v:
        raise ConfigError(f"sampled softmax needs 0 < sample count < vocabulary size "
                          f"{v}, got {sample_count}; lower sample_fraction or use "
                          f"softmax = full")
    k = sample_count
    # one shared pool of k+1 distinct ids; per row the target is excluded
    # from its k negatives, so k = V-1 degenerates to the full softmax
    pool, tries = sampler.sample(rng, k + 1)
    pos_of = np.full(v, -1, dtype=np.int64)
    pos_of[pool] = np.arange(k + 1)
    select = np.broadcast_to(np.arange(k), (m, k)).copy()
    hit = pos_of[targets]
    swap_rows = np.nonzero((hit >= 0) & (hit < k))[0]
    select[swap_rows, hit[swap_rows]] = k

    wv, bv = w_out.data, b_out.data
    pool_logits = hv @ wv[:, pool] + bv[pool]          # m x (k+1)
    target_logits = np.einsum("md,dm->m", hv, wv[:, targets]) + bv[targets]
    neg_logits = np.take_along_axis(pool_logits, select, axis=1)

    with np.errstate(divide="ignore"):
        log_expected = np.log(-np.expm1(tries * np.log1p(-sampler.probs)))
    cand_ids = np.concatenate([targets[:, None], pool[select]], axis=1)
    logits = np.concatenate([target_logits[:, None], neg_logits], axis=1)
    logits = logits - log_expected[cand_ids].astype(logits.dtype, copy=False)

    zmax = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - zmax)
    z = e.sum(axis=1, keepdims=True)
    nll = np.log(z[:, 0]) + zmax[:, 0] - logits[:, 0]

    def bw(g):
        dlogits = e / z
        dlogits[:, 0] -= 1.0
        dlogits *= g / m
        # each row's k selected pool positions are distinct: a plain scatter
        d_pool = np.zeros((m, k + 1), dtype=dlogits.dtype)
        np.put_along_axis(d_pool, select, dlogits[:, 1:], axis=1)
        dh = dlogits[:, :1] * wv[:, targets].T + d_pool @ wv[:, pool].T

        def dw(buf):
            np.add.at(buf.T, targets, dlogits[:, :1] * hv)
            buf[:, pool] += hv.T @ d_pool

        def db(buf):
            np.add.at(buf, targets, dlogits[:, 0])
            buf[pool] += d_pool.sum(axis=0)  # the pool ids are distinct

        return (dh, dw, db)

    return T.custom_op(np.asarray(nll.mean()), "sampled_softmax", (h, w_out, b_out), bw)


def evaluate_stream(model: LanguageModel, stream: np.ndarray,
                    corpus: EncodedCorpus, steps: int = 70,
                    collect_records: bool = False):
    """Full-softmax NLL over a whole stream at batch 1 with carried state.

    Every target token (positions 1..len-1) is scored exactly once.  Returns
    ``(total_nll, token_count, records)`` where records, when requested, hold
    one (position, word_id, prob) triple per target token.
    """
    total_nll = 0.0
    count = 0
    records = [] if collect_records else None
    state = model.zero_state(1)
    with T.no_grad():
        for inputs, targets, carry in eval_windows(stream, steps):
            if not carry:
                state = model.zero_state(1)
            t = inputs.shape[1]
            x = model.embed_window(inputs, corpus)
            h, state = model.lm_forward(x, t, state, mode="eval")
            flat_targets = targets.T.reshape(-1)
            loss, probs = full_softmax_nll(model.logits(h), flat_targets)
            total_nll += loss.item() * t
            if collect_records:
                target_probs = probs.data[np.arange(t), flat_targets]
                base = count + 1
                for j in range(t):
                    records.append((base + j, int(flat_targets[j]),
                                    float(target_probs[j])))
            count += t
    return total_nll, count, records


def _ppl(total_nll: float, count: int) -> float:
    mean = total_nll / count
    return math.exp(mean) if mean < 700.0 else math.inf


def perplexity(model: LanguageModel, stream: np.ndarray, corpus: EncodedCorpus,
               steps: int = 70) -> float:
    """exp(mean NLL) over the stream; the reporting metric everywhere."""
    total, count, _ = evaluate_stream(model, stream, corpus, steps=steps)
    return _ppl(total, count)


def timed_perplexity(model, stream, corpus, steps: int = 70):
    """(perplexity, tokens/sec, records) from one timed scoring pass, with
    the per-token records of ``evaluate_stream``."""
    start = time.perf_counter()
    total, count, records = evaluate_stream(model, stream, corpus, steps=steps,
                                            collect_records=True)
    elapsed = max(time.perf_counter() - start, 1e-9)
    return _ppl(total, count), count / elapsed, records
