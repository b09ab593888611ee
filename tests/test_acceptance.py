"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion checks
its own runtime budget.  The extended full-corpus check is opt-in via the
SUBLM_PTB environment variable (a directory holding ptb.train.txt,
ptb.valid.txt, ptb.test.txt) because it is an overnight run.
"""

import math
import os
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from fdiff import check_grads, safe_instance
from sublm import tensor as T
from sublm.analysis import (pca_component_counts, ppl_by_frequency,
                            shared_errors)
from sublm.composition import COMPOSERS, HighwayStack, zeros_init
from sublm.config import TrainConfig
from sublm.corpus import build_vocabs, encode_corpus
from sublm.lm import LanguageModel, evaluate_stream, perplexity
from sublm.syllabify import Segmenter, hyphenate, load_default_patterns
from sublm.training import (ModelSizes, build_model, count_parameters,
                            model_from_checkpoint, train)
from test_analysis import FREQ, random_records, rec
from test_composition import make as make_composer
from test_composition import random_batch, variant_instance
from test_lm import toy_corpus, toy_model
from test_syllabify import parse_raw_patterns


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} {label}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"\nACCEPTANCE {number} {label}: FAIL "
              f"(over time budget: {elapsed:.1f}s >= {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"\nACCEPTANCE {number} {label}: PASS ({elapsed:.1f}s)")


VARIANTS = list(COMPOSERS)


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite (all variants + full LM, fd oracle)", 120):
        for variant in VARIANTS:
            for seed in range(20):
                loss_fn, params = safe_instance(
                    lambda rng: variant_instance(variant, rng), seed)
                check_grads(loss_fn, params, tol=1e-4)

        def lm_instance(rng):
            model = toy_model(rng, d_lm=4, variant="syl-concat")
            corpus = toy_corpus(rng)
            ids = rng.integers(0, 6, size=(2, 2))
            targets = rng.integers(0, 6, size=(2, 2))

            def loss_fn():
                loss, _ = model.window_nll(ids, targets, corpus,
                                           model.zero_state(2), mode="eval")
                return loss

            return loss_fn, model.params

        for seed in range(20):
            loss_fn, params = safe_instance(lm_instance, seed + 500)
            check_grads(loss_fn, params, tol=1e-4)


def oracle_points_hyphenate(word, pattern_map, left_min=2, right_min=3):
    """Independent oracle: apply every pattern by scanning all substrings."""
    m = len(word)
    if m < left_min + right_min:
        return [word]
    work = "." + word.lower() + "."
    points = [0] * (len(work) + 1)
    for start in range(len(work)):
        for stop in range(start + 1, len(work) + 1):
            pvec = pattern_map.get(work[start:stop])
            if pvec:
                for j, v in enumerate(pvec):
                    points[start + j] = max(points[start + j], v)
    parts, prev = [], 0
    for k in range(left_min, m - right_min + 1):
        if points[k + 1] % 2 == 1:
            parts.append(word[prev:k])
            prev = k
    parts.append(word[prev:])
    return parts


def test_criterion_2_hyphenation_oracle():
    with criterion(2, "hyphenation matches brute-force oracle on 10k words", 30):
        english = load_default_patterns()
        text = (resources.files("sublm") / "data" / "hyphen-en.pat").read_text("utf-8")
        pattern_map = {}
        for chars, points in parse_raw_patterns(text):
            existing = pattern_map.get(chars)
            if existing:  # identical letter strings merge by max, like the trie
                points = [max(a, b) for a, b in zip(existing, points)]
            pattern_map[chars] = points

        assert hyphenate("unconstitutional", english) == \
            ["un", "con", "sti", "tu", "tional"]

        rng = np.random.default_rng(2024)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        fragments = ["con", "sti", "tu", "tion", "al", "ing", "er", "pre",
                     "un", "ment", "ness", "able", "ly", "ize", "ation"]
        words = []
        for _ in range(6000):
            n = int(rng.integers(1, 18))
            words.append("".join(rng.choice(letters, size=n)))
        for _ in range(4000):
            k = int(rng.integers(2, 5))
            words.append("".join(rng.choice(fragments, size=k)))
        checked = 0
        for word in words:
            if word in english.exceptions:
                continue
            assert hyphenate(word, english) == \
                oracle_points_hyphenate(word, pattern_map), word
            checked += 1
        assert checked >= 9990


def test_criterion_3_composition_algebra():
    with criterion(3, "composition algebra identities", 60):
        rng = np.random.default_rng(7)
        # weights sum to one over the word's real positions
        for variant in ("syl-avg", "syl-avg-a", "syl-avg-b"):
            comp = make_composer(variant, np.random.default_rng(7))
            _, rows, lengths = random_batch(np.random.default_rng(8))
            with T.no_grad():
                alpha = comp.combine(rows, lengths).meta
            assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-12

        # syl-sum is permutation invariant before the highway
        comp = make_composer("syl-sum", np.random.default_rng(9))
        rows = np.array([[1, 5, 3, 0]])
        lengths = np.array([3])
        base = comp.combine(rows, lengths).data
        for perm in ([[5, 3, 1, 0]], [[3, 1, 5, 0]]):
            assert np.abs(comp.combine(np.array(perm), lengths).data - base).max() < 1e-6

        # appended padding never changes any masked variant's output
        for variant in ("syl-lstm", "syl-sum", "syl-avg", "syl-avg-a", "syl-avg-b"):
            comp = make_composer(variant, np.random.default_rng(10), n=6)
            _, rows, lengths = random_batch(np.random.default_rng(11), n=4)
            wide = np.concatenate([rows, np.zeros((3, 2), dtype=np.int64)], axis=1)
            assert np.array_equal(comp(None, wide, lengths).data,
                                  comp(None, rows, lengths).data)

        # avg-a with zero scores reduces to the plain average
        avg_a = make_composer("syl-avg-a", np.random.default_rng(12))
        avg_a.a.data[:] = 0.0
        avg = make_composer("syl-avg")
        avg.e_s.data[:] = avg_a.e_s.data
        _, rows, lengths = random_batch(np.random.default_rng(13))
        assert np.abs(avg_a.combine(rows, lengths).data -
                      avg.combine(rows, lengths).data).max() < 1e-12

        # saturated carry gate makes a highway layer the identity
        hw = HighwayStack(6, 1, zeros_init)
        hw.params["hw0.b_t"].data[:] = -20.0
        x = T.Tensor(rng.normal(size=(4, 6)))
        assert np.abs(hw(x).data - x.data).max() < 1e-6


def test_criterion_4_parameter_budgets():
    with criterion(4, "parameter budgets (5M configs and 13M Syl-Concat)", 1):
        sizes = ModelSizes(vocab_size=10_000, subword_vocab_size=6_000,
                           max_subwords=8)
        tuned = TrainConfig(variant="syl-concat", d_s=228, d_hw=781, d_lm=439)
        count = count_parameters(build_model(tuned, sizes))
        assert abs(count - 13e6) <= 0.1 * 13e6

        small_configs = [
            TrainConfig(variant="word-direct", d_w=108, d_lm=300),
            TrainConfig(variant="syl-lstm", d_s=50, d_w=300, d_lm=300),
            TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=2,
                        cnn_depth_unit=120, d_lm=300),
            TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=3,
                        cnn_depth_unit=60, d_lm=300),
            TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=4,
                        cnn_depth_unit=35, d_lm=300),
            TrainConfig(variant="syl-sum", d_s=175, d_lm=300),
            TrainConfig(variant="syl-avg", d_s=175, d_lm=300),
            TrainConfig(variant="syl-avg-a", d_s=175, d_lm=300),
            TrainConfig(variant="syl-avg-b", d_s=160, d_lm=300),
            TrainConfig(variant="syl-concat", d_s=50, d_hw=300, d_lm=300),
        ]
        for cfg in small_configs:
            count = count_parameters(build_model(cfg, sizes))
            assert abs(count - 5e6) <= 0.1 * 5e6, (cfg.variant, count)


def overfit_corpus():
    sents = ["the cat sat on the mat", "a dog ran in the park",
             "birds sing in the morning", "the sun sets in the west",
             "rain falls on the hills"]
    return "\n".join(sents[i % 5] for i in range(100)) + "\n"


def test_criterion_5_overfit_run():
    with criterion(5, "overfit run reaches train PPL < 1.3", 300):
        text = overfit_corpus()
        seg = Segmenter("chars")
        vocabs = build_vocabs(text, seg)
        corpus = encode_corpus({"train": text, "valid": text}, vocabs, seg)
        cfg = TrainConfig(variant="syl-sum", d_s=24, d_lm=48, batch_size=5,
                          bptt=8, max_epochs=50, dropout=0.0, seed=1)
        lines = []
        train(cfg, vocabs, corpus, log_line=lines.append)
        train_ppls = [float(l.split("\t")[2]) for l in lines]
        assert min(train_ppls) < 1.3
        assert len(train_ppls) <= 50


BIGRAM_WORDS = ["ka", "to", "mi", "ru"]
# state 4 renders as end-of-line; no self-loop so the line format is exact
BIGRAM_P = np.array([
    [0.50, 0.20, 0.15, 0.10, 0.05],
    [0.05, 0.50, 0.20, 0.15, 0.10],
    [0.10, 0.05, 0.50, 0.20, 0.15],
    [0.15, 0.10, 0.05, 0.50, 0.20],
    [0.40, 0.30, 0.20, 0.10, 0.00],
])


def bigram_entropy_rate():
    evals, evecs = np.linalg.eig(BIGRAM_P.T)
    pi = np.real(evecs[:, np.argmin(np.abs(evals - 1))])
    pi /= pi.sum()
    with np.errstate(divide="ignore"):
        logs = np.where(BIGRAM_P > 0, np.log(BIGRAM_P), 0.0)
    return float(-(pi[:, None] * BIGRAM_P * logs).sum())


def sample_bigram_text(n_tokens, seed):
    rng = np.random.default_rng(seed)
    lines, line = [], []
    state = 4
    for _ in range(n_tokens):
        state = int(rng.choice(5, p=BIGRAM_P[state]))
        if state == 4:
            lines.append(" ".join(line))
            line = []
        else:
            line.append(BIGRAM_WORDS[state])
    if line:
        lines.append(" ".join(line))
    return "\n".join(lines) + "\n"


def test_criterion_6_synthetic_entropy():
    with criterion(6, "synthetic bigram source: PPL within 10% of exp(H)", 600):
        target = math.exp(bigram_entropy_rate())
        seg = Segmenter("chars")
        train_text = sample_bigram_text(30_000, 10)
        vocabs = build_vocabs(train_text, seg)
        corpus = encode_corpus({"train": train_text,
                                "valid": sample_bigram_text(4_000, 11),
                                "test": sample_bigram_text(5_000, 12)},
                               vocabs, seg)
        # init_range 0.5: at these toy widths the paper's 0.05 init starves
        # the input pathway and the model cannot leave the unigram optimum
        cfg = TrainConfig(variant="syl-concat", d_s=16, d_hw=32, d_lm=32,
                          batch_size=20, bptt=20, max_epochs=15, dropout=0.0,
                          init_range=0.5, seed=3)
        ckpt = train(cfg, vocabs, corpus)
        model, _ = model_from_checkpoint(ckpt, ModelSizes.from_vocabs(vocabs))
        ppl = perplexity(model, corpus.streams["test"], corpus, steps=cfg.bptt)
        assert abs(ppl - target) / target < 0.10, (ppl, target)


def test_criterion_7_analysis_properties():
    with criterion(7, "analysis properties", 60):
        rng = np.random.default_rng(1)
        records = random_records(rng, 500)
        for p_star in (1e-4, 0.01, 0.1, 0.999):
            frac, _, _ = shared_errors(records, records, p_star)
            assert frac == 1.0

        rows, overall = ppl_by_frequency(records, FREQ, [0, 10_000])
        assert abs(rows[0][3] - overall) < 1e-9

        direction = rng.normal(size=10)
        rank1 = np.outer(rng.normal(size=2000), direction)
        rank1 += rng.normal(scale=1e-9, size=rank1.shape)
        assert pca_component_counts(rank1, [0.8, 0.9, 0.99]) == [1, 1, 1]

        data = rng.normal(size=(400, 16)) @ rng.normal(size=(16, 16))
        counts = pca_component_counts(data, [0.5, 0.8, 0.9, 0.95, 0.99])
        assert counts == sorted(counts)
        assert all(c <= 16 for c in counts)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "fixed seed gives bitwise-identical checkpoints and reports", 120):
        text = overfit_corpus()
        seg = Segmenter("chars")
        vocabs = build_vocabs(text, seg)
        corpus = encode_corpus({"train": text, "valid": text}, vocabs, seg)
        cfg = TrainConfig(variant="syl-concat", d_s=8, d_hw=12, d_lm=12,
                          batch_size=5, bptt=8, max_epochs=3, dropout=0.3, seed=11)
        blobs = []
        reports = []
        for run in range(2):
            ckpt = train(cfg, vocabs, corpus)
            path = tmp_path / f"run{run}.ckpt"
            ckpt.save(path)
            blobs.append(path.read_bytes())
            model, _ = model_from_checkpoint(ckpt, ModelSizes.from_vocabs(vocabs))
            _, _, raw = evaluate_stream(model, corpus.streams["valid"], corpus,
                                        steps=8, collect_records=True)
            reports.append(repr(raw))
        assert blobs[0] == blobs[1]
        assert reports[0] == reports[1]


@pytest.mark.skipif("SUBLM_PTB" not in os.environ,
                    reason="extended full-corpus run; set SUBLM_PTB to the "
                           "directory holding ptb.{train,valid,test}.txt")
def test_criterion_9_extended_full_corpus():
    ptb_dir = os.environ["SUBLM_PTB"]
    with criterion(9, "extended full-corpus Syl-Concat run", 16 * 3600):
        seg = Segmenter("liang", patterns=load_default_patterns())
        texts = {split: open(os.path.join(ptb_dir, f"ptb.{split}.txt"),
                             encoding="utf-8").read()
                 for split in ("train", "valid", "test")}
        vocabs = build_vocabs(texts["train"], seg)
        corpus = encode_corpus(texts, vocabs, seg)
        cfg = TrainConfig(variant="syl-concat", d_s=50, d_hw=300, d_lm=300,
                          budget=5_000_000, budget_tolerance=0.10,
                          softmax="full", seed=0, precision="f32")
        ckpt = train(cfg, vocabs, corpus, log_line=print)
        model, _ = model_from_checkpoint(ckpt, ModelSizes.from_vocabs(vocabs))
        ppl = perplexity(model, corpus.streams["test"], corpus, steps=cfg.bptt)
        print(f"extended run test PPL: {ppl:.2f}")
        assert ppl <= 90.0
