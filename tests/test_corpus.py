import numpy as np
import pytest

from sublm import corpus as C
from sublm.errors import ConfigError
from sublm.syllabify import Segmenter, is_pseudo_token, load_default_patterns


@pytest.fixture(scope="module")
def chars():
    return Segmenter("chars")


@pytest.fixture(scope="module")
def liang():
    return Segmenter("liang", patterns=load_default_patterns())


class TestBuildVocabs:
    def test_hand_counted_example(self, chars):
        v = C.build_vocabs("a b a\n", chars)
        assert v.word_count == 4
        assert set(v.id_to_word) == {"a", "b", C.EOS, C.UNK}
        assert v.word_freq.sum() == 4  # a b a <eos>

    def test_freq_sorted_dense_ids(self, chars):
        v = C.build_vocabs("c c c b b a\nc\n", chars)
        assert v.id_to_word[0] == "c"
        assert v.word_freq[0] == 4
        assert sorted(v.word_to_id.values()) == list(range(v.word_count))

    def test_empty_corpus_rejected(self, chars):
        with pytest.raises(ConfigError):
            C.build_vocabs("", chars)
        with pytest.raises(ConfigError):
            C.build_vocabs("\n  \n", chars)

    def test_word_cap_absorbs_into_unk(self, chars):
        text = "a a a b b c d e\n"
        v = C.build_vocabs(text, chars, word_cap=4)
        assert v.word_count == 4
        assert C.UNK in v.word_to_id and C.EOS in v.word_to_id
        assert v.word_freq.sum() == 9  # 8 words + <eos>
        # c, d, e were dropped; their counts moved to <unk>
        assert v.word_freq[v.unk_id] == 3

    def test_subword_vocab_and_n(self, liang):
        v = C.build_vocabs("unconstitutional cat\n", liang)
        assert v.n == 5  # un con sti tu tional
        for sub in ("un", "con", "sti", "tu", "tional", "cat"):
            assert sub in v.sub_to_id
        assert C.PAD in v.sub_to_id and C.UNK_SUB in v.sub_to_id
        # pseudo-words are their own subword
        assert C.EOS in v.sub_to_id and C.UNK in v.sub_to_id

    def test_char_mode_subword_count_small(self, chars, rng):
        words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=6))
                 for _ in range(500)]
        v = C.build_vocabs(" ".join(words) + "\n", chars)
        assert v.subword_count < 100


class TestEncodeCorpus:
    def test_char_rows(self, chars):
        v = C.build_vocabs("cat dog horse\n", chars)
        enc = C.encode_corpus({"train": "cat dog horse\n"}, v, chars)
        wid = v.word_to_id["cat"]
        row = enc.subword_rows[wid]
        assert enc.row_lengths[wid] == 3
        assert [v.id_to_sub[i] for i in row[:3]] == ["c", "a", "t"]
        assert all(i == v.pad_sub_id for i in row[3:])

    def test_eos_row_is_single_pseudo_subword(self, chars):
        v = C.build_vocabs("cat dog\n", chars)
        enc = C.encode_corpus({"train": "cat dog\n"}, v, chars)
        row = enc.subword_rows[v.eos_id]
        assert enc.row_lengths[v.eos_id] == 1
        assert v.id_to_sub[row[0]] == C.EOS

    def test_oov_words_become_unk(self, chars):
        v = C.build_vocabs("cat dog\n", chars)
        enc = C.encode_corpus({"test": "cat bird\n"}, v, chars)
        decoded = [v.id_to_word[i] for i in enc.streams["test"]]
        assert decoded == ["cat", C.UNK, C.EOS]

    def test_roundtrip_with_unks(self, chars, rng):
        words = ["w%d" % i for i in range(30)]
        train = " ".join(rng.choice(words, size=200)) + "\n"
        v = C.build_vocabs(train, chars)
        test = "w0 w1 zebra w2\nw3 yak\n"
        enc = C.encode_corpus({"test": test}, v, chars)
        expected = [w if w in v.word_to_id else C.UNK for w in C.tokenize(test)]
        assert [v.id_to_word[i] for i in enc.streams["test"]] == expected

    def test_unknown_subwords_map_to_unk_sub(self, tmp_path, chars):
        # the subword file comes from the character segmenter; loading it
        # with another segmenter yields a subword ("ca") the file lacks
        C.save_vocabs(C.build_vocabs("cat\n", chars),
                      tmp_path / "words.tsv", tmp_path / "subwords.tsv")
        ext = Segmenter("external", overrides={"cat": ["ca", "t"]})
        v = C.load_vocabs(tmp_path / "words.tsv", tmp_path / "subwords.tsv", ext)
        enc = C.encode_corpus({"train": "cat\n"}, v)
        row = enc.subword_rows[v.word_to_id["cat"]]
        assert enc.row_lengths[v.word_to_id["cat"]] == 2
        assert row[0] == v.unk_sub_id
        assert v.id_to_sub[row[1]] == "t"


class TestSegmentOnce:
    TEXT = "unconstitutional cat\nmodel river <unk> cat\n"

    @staticmethod
    def count_segment_calls(monkeypatch):
        calls = []
        original = Segmenter.segment

        def segment(self, word):
            calls.append(word)
            return original(self, word)

        monkeypatch.setattr(Segmenter, "segment", segment)
        return calls

    def test_build_then_encode_segments_each_word_once(self, monkeypatch, liang):
        calls = self.count_segment_calls(monkeypatch)
        v = C.build_vocabs(self.TEXT, liang)
        C.encode_corpus({"train": self.TEXT}, v, liang)
        words = [w for w in v.id_to_word if not is_pseudo_token(w)]
        assert sorted(calls) == sorted(words)
        assert len(words) == 4

    def test_load_then_encode_segments_each_word_once(self, monkeypatch, tmp_path,
                                                       liang):
        C.save_vocabs(C.build_vocabs(self.TEXT, liang),
                      tmp_path / "words.tsv", tmp_path / "subwords.tsv")
        calls = self.count_segment_calls(monkeypatch)
        v = C.load_vocabs(tmp_path / "words.tsv", tmp_path / "subwords.tsv", liang)
        C.encode_corpus({"train": self.TEXT}, v, liang)
        assert sorted(calls) == sorted(w for w in v.id_to_word
                                       if not is_pseudo_token(w))

    def test_built_and_loaded_tables_are_equal(self, tmp_path, liang):
        built = C.build_vocabs(self.TEXT, liang)
        C.save_vocabs(built, tmp_path / "words.tsv", tmp_path / "subwords.tsv")
        loaded = C.load_vocabs(tmp_path / "words.tsv", tmp_path / "subwords.tsv",
                               liang)
        assert loaded.segmentations == built.segmentations
        a = C.encode_corpus({"train": self.TEXT}, built)
        b = C.encode_corpus({"train": self.TEXT}, loaded)
        assert np.array_equal(a.subword_rows, b.subword_rows)
        assert np.array_equal(a.row_lengths, b.row_lengths)
        assert np.array_equal(a.streams["train"], b.streams["train"])
        assert a.subword_rows.shape == (built.word_count, built.n)
        for w, parts in enumerate(built.segmentations):
            row = a.subword_rows[w]
            assert [built.id_to_sub[i] for i in row[:a.row_lengths[w]]] == parts
            assert (row[len(parts):] == built.pad_sub_id).all()


class TestBatchStream:
    def test_hand_layout(self):
        stream = np.arange(10)
        batches = list(C.batch_stream(stream, 2, 2))
        assert len(batches) == 2
        (x0, y0, c0), (x1, y1, c1) = batches
        assert x0.tolist() == [[0, 1], [5, 6]]
        assert y0.tolist() == [[1, 2], [6, 7]]
        assert (c0, c1) == (False, True)
        assert x1.tolist() == [[2, 3], [7, 8]]
        assert y1.tolist() == [[3, 4], [8, 9]]

    @pytest.mark.parametrize("length,b,t", [(10, 2, 2), (100, 4, 7), (57, 3, 5), (23, 1, 4)])
    def test_batch_count_formula(self, length, b, t):
        stream = np.arange(length)
        got = len(list(C.batch_stream(stream, b, t)))
        assert got == (length // b - 1) // t

    def test_too_short_names_minimum(self):
        with pytest.raises(ValueError) as exc:
            list(C.batch_stream(np.arange(5), 2, 2))
        assert "6" in str(exc.value)

    def test_lanes_preserve_corpus_order(self):
        stream = np.arange(40)
        lanes = [[] for _ in range(4)]
        for x, _, _ in C.batch_stream(stream, 4, 3):
            for i in range(4):
                lanes[i].extend(x[i].tolist())
        for lane in lanes:
            assert lane == sorted(lane)
            assert np.all(np.diff(lane) == 1)


class TestEvalWindows:
    @pytest.mark.parametrize("length,t", [(11, 3), (10, 5), (7, 10), (2, 4)])
    def test_every_target_once(self, length, t):
        stream = np.arange(length)
        targets = []
        for x, y, carry in C.eval_windows(stream, t):
            assert x.shape == y.shape and x.shape[0] == 1
            targets.extend(y[0].tolist())
        assert targets == list(range(1, length))

    def test_carry_flags(self):
        flags = [c for _, _, c in C.eval_windows(np.arange(10), 4)]
        assert flags == [False, True, True]


class TestVocabFiles:
    def test_save_load_roundtrip(self, tmp_path, chars):
        v = C.build_vocabs("cat dog cat bird\n", chars)
        C.save_vocabs(v, tmp_path / "words.tsv", tmp_path / "subwords.tsv")
        loaded = C.load_vocabs(tmp_path / "words.tsv", tmp_path / "subwords.tsv", chars)
        assert loaded.id_to_word == v.id_to_word
        assert loaded.id_to_sub == v.id_to_sub
        assert np.array_equal(loaded.word_freq, v.word_freq)
        assert loaded.n == v.n
        assert loaded.hashes() == v.hashes()

    def test_dump_format_is_pinned(self, chars):
        # hashes() digests these dumps, so the checkpoints' vocabulary hashes rest on them
        v = C.build_vocabs("the cat sat\nthe dog\n", chars)
        assert v.word_dump() == ("0\t<eos>\t2\n1\tthe\t2\n2\tcat\t1\n3\tdog\t1\n"
                                 "4\tsat\t1\n5\t<unk>\t0\n")
        assert v.subword_dump() == ("0\tt\t0\n1\t<eos>\t0\n2\ta\t0\n3\te\t0\n4\th\t0\n"
                                    "5\tc\t0\n6\td\t0\n7\tg\t0\n8\to\t0\n9\ts\t0\n"
                                    "10\t<pad>\t0\n11\t<unk>\t0\n12\t<unk_sub>\t0\n")

    def test_hash_changes_with_content(self, chars):
        a = C.build_vocabs("cat dog\n", chars)
        b = C.build_vocabs("cat bird\n", chars)
        assert a.hashes() != b.hashes()

    def test_malformed_file_rejected(self, tmp_path, chars):
        (tmp_path / "words.tsv").write_text("0\tcat\n")
        (tmp_path / "subwords.tsv").write_text("0\tc\t0\n")
        with pytest.raises(ConfigError):
            C.load_vocabs(tmp_path / "words.tsv", tmp_path / "subwords.tsv", chars)

    @pytest.mark.parametrize("name, kind, token", [("words.tsv", "word", "cat"),
                                                   ("subwords.tsv", "subword", "c")])
    def test_token_listed_twice_rejected(self, tmp_path, chars, name, kind, token):
        v = C.build_vocabs("cat dog cat bird\n", chars)
        C.save_vocabs(v, tmp_path / "words.tsv", tmp_path / "subwords.tsv")
        path = tmp_path / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines) + f"\n{len(lines)}\t{token}\t1\n")
        with pytest.raises(ConfigError, match=f"{kind} vocab line {len(lines) + 1}: "
                                              f"token '{token}' already has id"):
            C.load_vocabs(tmp_path / "words.tsv", tmp_path / "subwords.tsv", chars)
