"""Model-comparison instruments: shared errors, perplexity by token
frequency, PCA component counts of word embeddings, and evaluation reports.

All functions work on per-token records, the ``(position, word_id, prob)``
triples ``lm.evaluate_stream`` returns (one per test token per model), or on
frozen checkpointed models; everything is pure and deterministic.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from . import tensor as T
from .corpus import EncodedCorpus, tsv
from .errors import ConfigError
from .lm import LanguageModel, _ppl, evaluate_stream
from .training import count_parameters

log = logging.getLogger("sublm")

Record = tuple[int, int, float]  # (position, word_id, prob)


def dump_records(records: list[Record]) -> str:
    return tsv([("position", "word_id", "prob")]
               + [(pos, wid, f"{prob:.17g}") for pos, wid, prob in records])


def _check_same_tokens(a: list[Record], b: list[Record]) -> None:
    if len(a) != len(b) or any(x[:2] != y[:2] for x, y in zip(a, b)):
        raise ValueError("record lists cover different token sets")


def shared_errors(records_a: list[Record], records_b: list[Record],
                  p_star: float):
    """Fraction of errors shared by two models at threshold p_star.

    A model errs on a token when it assigns the correct word a probability
    below p_star.  Returns (frac_shared, err_rate_a, err_rate_b) where
    frac_shared is |A and B| / |A or B| (1.0 when neither model errs).
    """
    _check_same_tokens(records_a, records_b)
    errs_a = {pos for pos, _, prob in records_a if prob < p_star}
    errs_b = {pos for pos, _, prob in records_b if prob < p_star}
    union = errs_a | errs_b
    frac = len(errs_a & errs_b) / len(union) if union else 1.0
    total = len(records_a)
    return frac, len(errs_a) / total, len(errs_b) / total


def shared_errors_table(records_a, records_b, p_star_grid):
    """Rows of (p_star, err_a, err_b, frac_shared) over a threshold sweep."""
    rows = []
    for p_star in p_star_grid:
        frac, err_a, err_b = shared_errors(records_a, records_b, p_star)
        rows.append((p_star, err_a, err_b, frac))
    return rows


def default_freq_bins(max_freq: int) -> list[int]:
    """Powers-of-ten bin edges [0, 1, 10, ...] covering max_freq."""
    edges = [0, 1]
    while edges[-1] <= max_freq:
        edges.append(edges[-1] * 10)
    return edges


def ppl_by_frequency(records: list[Record], word_freq, bin_edges):
    """Per-bin perplexity over half-open frequency bins [e_i, e_{i+1}).

    A token's training frequency is ``word_freq[word_id]``.  Bins must cover
    every token's frequency; together they see each test token exactly once.
    Returns (rows, overall_ppl) with rows of (lo, hi, count, ppl); empty bins
    report a count of 0 and no ppl.  A probability of 0 is an infinite NLL,
    and a ppl that overflows is inf.
    """
    edges = list(bin_edges)
    if sorted(edges) != edges or len(edges) < 2:
        raise ValueError("bin edges must be an increasing sequence")
    nll_sums = [0.0] * (len(edges) - 1)
    counts = [0] * (len(edges) - 1)
    for _, word_id, prob in records:
        freq = int(word_freq[word_id])
        idx = np.searchsorted(edges, freq, side="right") - 1
        if idx < 0 or idx >= len(counts):
            raise ValueError(
                f"token frequency {freq} falls outside the bins {edges}")
        nll_sums[idx] += -math.log(prob) if prob > 0.0 else math.inf
        counts[idx] += 1
    rows = []
    for i in range(len(counts)):
        ppl = _ppl(nll_sums[i], counts[i]) if counts[i] else None
        rows.append((edges[i], edges[i + 1], counts[i], ppl))
    overall = _ppl(sum(nll_sums), len(records)) if records else None
    return rows, overall


def pca_component_counts(embeddings: np.ndarray, thresholds):
    """Principal components needed to retain each variance fraction.

    Embeddings are z-scored per dimension (zero-variance dimensions are
    dropped with a warning), then the covariance is eigendecomposed; the
    count for a threshold is the smallest k whose top-k eigenvalues explain
    at least that fraction of the total variance.  Embeddings with no
    varying dimension are a ConfigError.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("embeddings must be (words, dims)")
    std = x.std(axis=0)
    keep = std > 0
    if not keep.any():
        raise ConfigError("PCA needs an embedding dimension that varies over the vocabulary")
    if not keep.all():
        log.warning("dropping %d zero-variance dimensions before PCA",
                    int((~keep).sum()))
        x = x[:, keep]
        std = std[keep]
    z = (x - x.mean(axis=0)) / std
    cov = (z.T @ z) / max(len(z) - 1, 1)
    eigvals = np.linalg.eigvalsh(cov)[::-1]
    if eigvals.min() < -1e-10:
        raise ValueError(f"covariance produced negative eigenvalue {eigvals.min()}")
    eigvals = np.clip(eigvals, 0.0, None)
    frac = np.cumsum(eigvals) / eigvals.sum()
    counts = []
    for theta in thresholds:
        if not 0.0 < theta < 1.0:
            raise ValueError(f"threshold {theta} outside (0, 1)")
        counts.append(int(np.searchsorted(frac, theta) + 1))
    return counts


def vocabulary_embeddings(model: LanguageModel, corpus: EncodedCorpus) -> np.ndarray:
    """The composed (post-highway) vector of every vocabulary word."""
    word_ids = np.arange(corpus.subword_rows.shape[0])
    with T.no_grad():
        out = model.composer(word_ids, corpus.subword_rows[word_ids],
                             corpus.row_lengths[word_ids])
    return out.data


def eval_report(named_models: list[tuple[str, LanguageModel]],
                named_streams: list[tuple[str, np.ndarray]],
                corpus: EncodedCorpus, steps: int):
    """Perplexity, size, and throughput of each model on each split.

    Each model scores each split in one timed ``evaluate_stream`` pass.
    Returns (rows, text, records): machine-readable tuples, an aligned
    table, and the per-token (position, word_id, prob) triples of each
    pass.  Rows are (model, split, ppl, param_count, tokens_per_sec).
    """
    rows = []
    records = {}
    for name, model in named_models:
        params = count_parameters(model)
        for split, stream in named_streams:
            start = time.perf_counter()
            total, count, records[name, split] = evaluate_stream(
                model, stream, corpus, steps=steps, collect_records=True)
            tps = count / max(time.perf_counter() - start, 1e-9)
            rows.append((name, split, _ppl(total, count), params, tps))
    header = ("model", "split", "ppl", "params", "tokens_per_sec")
    widths = [max(len(str(header[i])),
                  *(len(_fmt(row[i])) for row in rows)) for i in range(5)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(_fmt(v).ljust(widths[i]) for i, v in enumerate(row)))
    return rows, "\n".join(lines) + "\n", records


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)
