"""Corpus ingestion, word/subword vocabularies, and BPTT batch streaming.

Corpora are plain UTF-8 text, whitespace tokenized, one sentence per line;
the loader appends ``<eos>`` to every line.  Word ids are dense and ordered
by descending training frequency (ties broken lexicographically), so id
order doubles as the frequency ranking used by the sampled-softmax proposal.
Each vocabulary word is segmented once, when the vocabulary is built or
loaded; ``encode_corpus`` reuses the segmentations ``Vocabularies`` keeps.
"""

from __future__ import annotations

import errno
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .syllabify import Segmenter, is_pseudo_token

UNK = "<unk>"
EOS = "<eos>"
UNK_SUB = "<unk_sub>"
PAD = "<pad>"


def tsv(rows) -> str:
    """Tab-separated text: one line per row, each value as ``str`` gives it
    (format a float first, say ``f"{x:.4f}"``), each line ending in a newline."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


@dataclass
class Vocabularies:
    """Word and subword vocabularies plus training-frequency bookkeeping.

    ``segmentations[w]`` lists the subwords of word id w, ``n`` the most any
    word has (the dumps and hashes leave them out); ``word_freq`` sums to
    the training token count.  ``word_to_id`` and ``sub_to_id`` are derived
    from the id lists.  Immutable by convention after construction.
    """

    id_to_word: list[str]
    word_freq: np.ndarray
    id_to_sub: list[str]
    segmentations: list[list[str]]
    word_to_id: dict[str, int] = field(init=False)
    sub_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        self.sub_to_id = {s: i for i, s in enumerate(self.id_to_sub)}

    @property
    def n(self) -> int:
        return max(map(len, self.segmentations))

    @property
    def word_count(self) -> int:
        return len(self.id_to_word)

    @property
    def subword_count(self) -> int:
        return len(self.id_to_sub)

    @property
    def unk_id(self) -> int:
        return self.word_to_id[UNK]

    @property
    def eos_id(self) -> int:
        return self.word_to_id[EOS]

    @property
    def pad_sub_id(self) -> int:
        return self.sub_to_id[PAD]

    @property
    def unk_sub_id(self) -> int:
        return self.sub_to_id[UNK_SUB]

    def word_dump(self) -> str:
        return tsv((i, w, int(self.word_freq[i])) for i, w in enumerate(self.id_to_word))

    def subword_dump(self) -> str:
        return tsv((i, s, 0) for i, s in enumerate(self.id_to_sub))

    def hashes(self) -> dict[str, str]:
        return {
            "words": hashlib.sha256(self.word_dump().encode()).hexdigest(),
            "subwords": hashlib.sha256(self.subword_dump().encode()).hexdigest(),
        }


@dataclass
class EncodedCorpus:
    """Token id streams per split plus the per-word subword table.

    ``subword_rows`` is |W| x n, left-aligned and pad-filled; row w holds the
    ids of ``Vocabularies.segmentations[w]``, ``row_lengths[w]`` of them real.
    """

    streams: dict[str, np.ndarray]
    subword_rows: np.ndarray
    row_lengths: np.ndarray


def read_text(path) -> str:
    """A UTF-8 text file's contents; one that does not decode raises an
    OSError naming the file and the offset of the first bad byte."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as err:
            raise OSError(errno.EILSEQ, f"not UTF-8 text (byte {err.start})",
                          str(path)) from None


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with <eos> appended per non-blank line."""
    tokens: list[str] = []
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        tokens.extend(words)
        tokens.append(EOS)
    return tokens


def _segment_words(words: list[str], segmenter: Segmenter) -> list[list[str]]:
    """Each word's subwords; a pseudo-token is its own, never segmented."""
    return [[w] if is_pseudo_token(w) else segmenter.segment(w) for w in words]


def build_vocabs(train_text: str, segmenter: Segmenter,
                 word_cap: int | None = None) -> Vocabularies:
    """Word vocabulary from the training split, subwords from segmenting it.

    ``word_cap`` keeps only the most frequent words (the pseudo-tokens are
    always retained); dropped words count toward ``<unk>`` so frequencies
    still sum to the token count.
    """
    tokens = tokenize(train_text)
    if not tokens:
        raise ConfigError("empty training corpus")
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    counts.setdefault(UNK, 0)
    counts.setdefault(EOS, 0)

    if word_cap is not None and len(counts) > word_cap:
        if word_cap < 2:
            raise ConfigError("word_cap must keep at least <unk> and <eos>")
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        keep = [UNK, EOS]
        for w in ranked:
            if len(keep) >= word_cap:
                break
            if w not in (UNK, EOS):
                keep.append(w)
        dropped = set(counts) - set(keep)
        counts[UNK] += sum(counts[w] for w in dropped)
        counts = {w: counts[w] for w in keep}

    id_to_word = sorted(counts, key=lambda w: (-counts[w], w))
    word_freq = np.array([counts[w] for w in id_to_word], dtype=np.int64)

    segmentations = _segment_words(id_to_word, segmenter)
    sub_counts: dict[str, int] = {}
    for w, parts in zip(id_to_word, segmentations):
        for p in parts:
            sub_counts[p] = sub_counts.get(p, 0) + counts[w]
    sub_counts.setdefault(UNK_SUB, 0)
    sub_counts.setdefault(PAD, 0)
    id_to_sub = sorted(sub_counts, key=lambda s: (-sub_counts[s], s))
    return Vocabularies(id_to_word=id_to_word, word_freq=word_freq,
                        id_to_sub=id_to_sub, segmentations=segmentations)


def encode_corpus(texts: dict[str, str], vocabs: Vocabularies,
                  segmenter=None) -> EncodedCorpus:
    """Encode split texts to id streams and build the subword table.

    The table comes from ``vocabs.segmentations``; ``segmenter`` is ignored,
    kept so that three-argument calls still work.  Out-of-vocabulary words
    map to <unk>, subwords missing from the subword vocabulary to <unk_sub>.
    """
    unk = vocabs.unk_id
    streams = {}
    for split, text in texts.items():
        ids = [vocabs.word_to_id.get(tok, unk) for tok in tokenize(text)]
        streams[split] = np.array(ids, dtype=np.int64)

    segs = vocabs.segmentations
    lengths = np.array([len(parts) for parts in segs], dtype=np.int64)
    rows = np.full((len(segs), vocabs.n), vocabs.pad_sub_id, dtype=np.int64)
    # a boolean mask visits row w's first lengths[w] cells in order, row by row
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = [
        vocabs.sub_to_id.get(p, vocabs.unk_sub_id) for parts in segs for p in parts]
    return EncodedCorpus(streams=streams, subword_rows=rows, row_lengths=lengths)


def batch_stream(stream: np.ndarray, batch_size: int, steps: int):
    """Contiguous-lane batches for truncated BPTT.

    The stream is cut into ``batch_size`` contiguous lanes; each batch
    advances every lane by ``steps`` tokens, with targets one step ahead.
    Yields ``(inputs, targets, carry_state)``; the remainder that does not
    fill a full grid is dropped.
    """
    needed = batch_size * (steps + 1)
    if len(stream) < needed:
        raise ConfigError(
            f"stream of {len(stream)} tokens is too short for "
            f"batch_size={batch_size}, steps={steps}: need at least {needed}")
    lane_len = len(stream) // batch_size
    lanes = stream[:lane_len * batch_size].reshape(batch_size, lane_len)
    for j in range((lane_len - 1) // steps):
        lo = j * steps
        yield lanes[:, lo:lo + steps], lanes[:, lo + 1:lo + steps + 1], j > 0


def check_eval_stream(stream: np.ndarray, steps: int) -> None:
    """Raise :class:`ConfigError` unless ``eval_windows(stream, steps)`` has a window."""
    if steps < 1:
        raise ConfigError(f"evaluation window must be at least 1 token, got {steps}")
    if len(stream) < 2:
        raise ConfigError("evaluation stream needs at least two tokens")


def eval_windows(stream: np.ndarray, steps: int):
    """Batch-1 windows covering every target token exactly once.

    The final window may be shorter than ``steps`` so that no token is
    skipped; the target count over all windows is ``len(stream) - 1``.
    """
    check_eval_stream(stream, steps)
    for lo in range(0, len(stream) - 1, steps):
        hi = min(lo + steps, len(stream) - 1)
        yield stream[lo:hi][None, :], stream[lo + 1:hi + 1][None, :], lo > 0


# ---------------------------------------------------------------------------
# vocabulary files: `id<TAB>token<TAB>freq`


def save_vocabs(vocabs: Vocabularies, words_path, subwords_path) -> None:
    with open(words_path, "w", encoding="utf-8") as f:
        f.write(vocabs.word_dump())
    with open(subwords_path, "w", encoding="utf-8") as f:
        f.write(vocabs.subword_dump())


def _parse_vocab_file(text: str, what: str) -> tuple[list[str], np.ndarray]:
    ids: dict[str, int] = {}  # in id order
    freqs: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ConfigError(f"{what} vocab line {lineno}: expected id<TAB>token<TAB>freq")
        idx, token, freq = fields
        if not (idx.isdecimal() and freq.isdecimal()):
            raise ConfigError(f"{what} vocab line {lineno}: id and freq must be integers")
        idx, freq = int(idx), int(freq)
        if idx != len(ids):
            raise ConfigError(f"{what} vocab line {lineno}: ids must be dense and ordered")
        if token in ids:
            raise ConfigError(f"{what} vocab line {lineno}: token {token!r} already has "
                              f"id {ids[token]}")
        ids[token] = idx
        freqs.append(freq)
    return list(ids), np.array(freqs, dtype=np.int64)


def load_vocabs(words_path, subwords_path, segmenter: Segmenter) -> Vocabularies:
    """Rebuild Vocabularies from dump files, segmenting each word once;
    subwords the file lacks (another segmenter's) encode as <unk_sub>."""
    id_to_word, word_freq = _parse_vocab_file(read_text(words_path), "word")
    id_to_sub, _ = _parse_vocab_file(read_text(subwords_path), "subword")
    for special, name in ((UNK, "word"), (EOS, "word")):
        if special not in id_to_word:
            raise ConfigError(f"{name} vocab is missing {special}")
    for special in (UNK_SUB, PAD):
        if special not in id_to_sub:
            raise ConfigError(f"subword vocab is missing {special}")
    return Vocabularies(id_to_word=id_to_word, word_freq=word_freq, id_to_sub=id_to_sub,
                        segmentations=_segment_words(id_to_word, segmenter))
