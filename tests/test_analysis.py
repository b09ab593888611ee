import math

import numpy as np
import pytest

from sublm.analysis import (default_freq_bins, dump_records, eval_report,
                            pca_component_counts, ppl_by_frequency,
                            shared_errors, shared_errors_table,
                            vocabulary_embeddings)
from sublm.composition import ModelSizes, build_composer, uniform_init
from sublm.config import TrainConfig
from sublm.corpus import EncodedCorpus, build_vocabs, encode_corpus
from sublm.errors import ConfigError
from sublm.lm import LanguageModel, perplexity
from sublm.syllabify import Segmenter


def rec(position, prob, word_id=0):
    """A scored token as ``evaluate_stream`` returns it."""
    return (position, word_id, prob)


# word frequencies in which each word id is its own training frequency, so a
# record's word id picks the frequency bin it falls in
FREQ = np.arange(1000)


def random_records(rng, count=1000):
    return [rec(i, float(p), word_id=int(f))
            for i, (p, f) in enumerate(zip(rng.uniform(1e-6, 1.0, size=count),
                                           rng.integers(0, 500, size=count)))]


class TestSharedErrors:
    def test_identical_models_share_everything(self, rng):
        records = random_records(rng, 200)
        for p_star in (1e-4, 0.01, 0.5, 0.999999):
            frac, err_a, err_b = shared_errors(records, records, p_star)
            assert frac == 1.0
            assert err_a == err_b

    def test_disjoint_errors_share_nothing(self):
        a = [rec(0, 0.001), rec(1, 0.9), rec(2, 0.9)]
        b = [rec(0, 0.9), rec(1, 0.001), rec(2, 0.9)]
        frac, err_a, err_b = shared_errors(a, b, 0.01)
        assert frac == 0.0
        assert err_a == err_b == pytest.approx(1 / 3)

    def test_brute_force_oracle_agreement(self, rng):
        a = random_records(rng, 1000)
        b = [rec(pos, float(p), wid)
             for (pos, wid, _), p in zip(a, rng.uniform(1e-6, 1.0, size=1000))]
        for p_star in (0.001, 0.01, 0.1, 0.5):
            frac, err_a, err_b = shared_errors(a, b, p_star)
            # oracle: explicit set construction
            ea = set()
            eb = set()
            for pos, _, prob in a:
                if prob < p_star:
                    ea.add(pos)
            for pos, _, prob in b:
                if prob < p_star:
                    eb.add(pos)
            want = len(ea & eb) / len(ea | eb) if (ea | eb) else 1.0
            assert frac == want
            assert err_a == len(ea) / 1000 and err_b == len(eb) / 1000

    def test_shared_set_grows_with_p_star(self, rng):
        a = random_records(rng, 500)
        b = [rec(pos, float(p), wid) for (pos, wid, _), p in
             zip(a, rng.uniform(1e-6, 1.0, size=500))]
        grid = [0.001, 0.01, 0.1, 0.5, 0.9]
        sizes = []
        for p_star in grid:
            ea = {pos for pos, _, prob in a if prob < p_star}
            eb = {pos for pos, _, prob in b if prob < p_star}
            sizes.append(len(ea & eb))
        assert sizes == sorted(sizes)

    def test_symmetry(self, rng):
        a = random_records(rng, 300)
        b = [rec(pos, float(p), wid) for (pos, wid, _), p in
             zip(a, rng.uniform(1e-6, 1.0, size=300))]
        frac_ab, err_a, err_b = shared_errors(a, b, 0.05)
        frac_ba, err_b2, err_a2 = shared_errors(b, a, 0.05)
        assert frac_ab == frac_ba and err_a == err_a2 and err_b == err_b2

    def test_mismatched_tokens_rejected(self):
        with pytest.raises(ValueError):
            shared_errors([rec(0, 0.5)], [rec(1, 0.5)], 0.1)

    def test_sweep_table(self, rng):
        a = random_records(rng, 100)
        rows = shared_errors_table(a, a, [0.01, 0.1])
        assert [r[0] for r in rows] == [0.01, 0.1]
        assert all(r[3] == 1.0 for r in rows)


class TestPplByFrequency:
    def test_single_bin_equals_overall(self, rng):
        records = random_records(rng, 400)
        rows, overall = ppl_by_frequency(records, FREQ, [0, 10_000])
        assert rows[0][2] == 400
        assert rows[0][3] == pytest.approx(overall, abs=1e-12)
        mean_nll = np.mean([-math.log(prob) for _, _, prob in records])
        assert overall == pytest.approx(math.exp(mean_nll))

    def test_log_weighted_recombination(self, rng):
        records = random_records(rng, 500)
        rows, overall = ppl_by_frequency(records, FREQ, [0, 1, 10, 100, 1000])
        total = sum(c for _, _, c, _ in rows)
        acc = sum(c * math.log(p) for _, _, c, p in rows if c)
        assert total == 500
        assert math.exp(acc / total) == pytest.approx(overall, rel=1e-9)

    def test_hand_computed_bins(self):
        # frozen oracle values: probs e^-1 and e^-3 in the low bin,
        # e^-2 in the high bin
        records = [rec(0, math.exp(-1), word_id=0), rec(1, math.exp(-3), word_id=0),
                   rec(2, math.exp(-2), word_id=5)]
        rows, overall = ppl_by_frequency(records, FREQ, [0, 1, 10])
        assert rows[0][3] == pytest.approx(math.exp(2.0))   # mean nll (1+3)/2
        assert rows[1][3] == pytest.approx(math.exp(2.0))   # single token nll 2
        assert overall == pytest.approx(math.exp(2.0))

    def test_frequency_outside_bins_rejected(self):
        with pytest.raises(ValueError):
            ppl_by_frequency([rec(0, 0.5, word_id=50)], FREQ, [0, 10])

    def test_default_bins_cover(self):
        edges = default_freq_bins(3724)
        assert edges == [0, 1, 10, 100, 1000, 10000]

    def test_zero_probability_and_overflow_read_inf(self):
        rows, overall = ppl_by_frequency([rec(0, 0.0, word_id=0), rec(1, 0.5, word_id=5),
                                          rec(2, 1e-310, word_id=50)], FREQ, [0, 1, 10, 100])
        assert rows[0][3] == math.inf and rows[1][3] == pytest.approx(2.0)
        assert rows[2][3] == math.inf and overall == math.inf

    def test_empty_bin_reported(self):
        rows, _ = ppl_by_frequency([rec(0, 0.5, word_id=0)], FREQ, [0, 1, 10])
        assert rows[1] == (1, 10, 0, None)


class TestPca:
    def test_isotropic_needs_virtually_all_components(self, rng):
        data = rng.normal(size=(20_000, 50))
        (count,) = pca_component_counts(data, [0.99])
        assert 47 <= count <= 50

    def test_rank_one_needs_one(self, rng):
        direction = rng.normal(size=8)
        data = np.outer(rng.normal(size=3000), direction)
        data += rng.normal(scale=1e-9, size=data.shape)  # keep dims nonzero
        counts = pca_component_counts(data, [0.5, 0.8, 0.95, 0.99])
        assert counts == [1, 1, 1, 1]

    def test_monotone_and_bounded(self, rng):
        data = rng.normal(size=(500, 12)) @ rng.normal(size=(12, 12))
        thresholds = [0.5, 0.8, 0.9, 0.95, 0.99]
        counts = pca_component_counts(data, thresholds)
        assert counts == sorted(counts)
        assert all(1 <= c <= 12 for c in counts)

    def test_zero_variance_dimension_dropped(self, rng, caplog):
        data = rng.normal(size=(200, 5))
        data[:, 2] = 7.0
        with caplog.at_level("WARNING", logger="sublm"):
            counts = pca_component_counts(data, [0.9])
        assert "zero-variance" in caplog.text
        assert counts[0] <= 4

    def test_one_varying_dimension_needs_one(self, rng):
        column = rng.normal(size=(40, 1))
        assert pca_component_counts(column, [0.5, 0.99]) == [1, 1]
        with_constant = np.hstack([column, np.full((40, 1), 3.0)])
        assert pca_component_counts(with_constant, [0.5, 0.99]) == [1, 1]

    @pytest.mark.parametrize("dims", [1, 3])
    def test_no_varying_dimension_is_a_config_error(self, dims):
        with pytest.raises(ConfigError, match="varies"):
            pca_component_counts(np.full((10, dims), 2.0), [0.9])

    def test_bad_threshold_rejected(self, rng):
        with pytest.raises(ValueError):
            pca_component_counts(rng.normal(size=(50, 4)), [1.5])


class TestEvalReport:
    def _tiny_model_setup(self, rng):
        text = "aa bb cc dd aa bb\ncc dd aa bb cc dd\n" * 4
        vocabs = build_vocabs(text, Segmenter("chars"))
        corpus = encode_corpus({"test": text}, vocabs)
        comp = build_composer(TrainConfig(variant="syl-sum", d_s=5),
                              ModelSizes.from_vocabs(vocabs), init=uniform_init(rng, 0.3))
        model = LanguageModel(comp, d_lm=6, vocab_size=vocabs.word_count,
                              dropout_rate=0.0, init=uniform_init(rng, 0.3))
        return model, vocabs, corpus

    def test_single_cell_matches_perplexity(self, rng):
        model, vocabs, corpus = self._tiny_model_setup(rng)
        stream = corpus.streams["test"]
        rows, text, records = eval_report([("m", model)], [("test", stream)], corpus,
                                          steps=5)
        assert list(records) == [("m", "test")]
        assert len(records["m", "test"]) == len(stream) - 1
        assert len(rows) == 1
        name, split, ppl, count, tps = rows[0]
        assert ppl == pytest.approx(perplexity(model, stream, corpus, steps=5))
        assert count == sum(p.data.size for p in model.params.values())
        assert tps > 0
        assert "tokens_per_sec" in text and "m" in text

    def test_embeddings_for_pca_cover_vocab(self, rng):
        model, vocabs, corpus = self._tiny_model_setup(rng)
        emb = vocabulary_embeddings(model, corpus)
        assert emb.shape == (vocabs.word_count, 5)
        counts = pca_component_counts(emb, [0.9])
        assert 1 <= counts[0] <= 5


class TestRecords:
    def test_ppl_by_frequency_bins_the_vocabulary_frequency(self):
        vocabs = build_vocabs("x y x z\n", Segmenter("chars"))
        x, y = vocabs.word_to_id["x"], vocabs.word_to_id["y"]  # seen twice and once
        rows, _ = ppl_by_frequency([rec(1, 0.25, word_id=x), rec(2, 0.5, word_id=y)],
                                   vocabs.word_freq, [0, 2, 3])
        assert rows == [(0, 2, 1, pytest.approx(2.0)), (2, 3, 1, pytest.approx(4.0))]

    def test_dump_format(self):
        out = dump_records([rec(3, 0.5, word_id=7)])
        lines = out.strip().split("\n")
        assert lines[0] == "position\tword_id\tprob"
        assert lines[1] == "3\t7\t0.5"
