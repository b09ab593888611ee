import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublm.errors import ConfigError, PatternParseError
from sublm.syllabify import (PatternSet, Segmenter, char_segment, hyphenate,
                             load_default_patterns, load_patterns,
                             load_segmentation_overrides)

# Frozen 100-word English list for the oracle comparison.
ENGLISH_WORDS = """
although amendment american analysis animal answer anything apparent argument
associate atmosphere attention beautiful beginning behavior between building
business capital carefully century certainly character chemical children
circumstance committee community company computer condition congress
consider constitution continue corporation country courage daughter
decision democratic department development difference different difficult
direction discussion economic education eleven english environment
especially establish everything evidence example experience explanation
expression familiar finally foundation function fundamental generation
government happened hyphenation important impossible individual industrial
information instrument interest international knowledge language literature
machine magazine material mathematics measurement mountain national
necessary neighbor newspaper obvious occasion operation opportunity
particular performance perhaps philosophy physical political population
position possible practical president probably production professor
property question remember representative republican restaurant revolution
secretary sentence separate situation something sometimes standard
statement strength structure student substance suggest supercalifragilistic
technology television temperature themselves theory together tomorrow
understand university unconstitutional various vegetable yesterday
""".split()


def oracle_hyphenate(word, patterns, left_min=2, right_min=3):
    """Brute force: scan every pattern across the dotted word with str.find."""
    m = len(word)
    if m < left_min + right_min:
        return [word]
    work = "." + word.lower() + "."
    points = [0] * (len(work) + 1)
    for chars, pvec in patterns:
        start = work.find(chars)
        while start != -1:
            for j, v in enumerate(pvec):
                points[start + j] = max(points[start + j], v)
            start = work.find(chars, start + 1)
    parts, prev = [], 0
    for k in range(left_min, m - right_min + 1):
        if points[k + 1] % 2 == 1:
            parts.append(word[prev:k])
            prev = k
    parts.append(word[prev:])
    return parts


def parse_raw_patterns(text):
    """Independent pattern parse for the oracle: (letters, point vector)."""
    out = []
    for line in text.splitlines():
        line = line.split("%", 1)[0].strip()
        for token in line.split():
            chars = "".join(c for c in token if not c.isdigit())
            points = [0] * (len(chars) + 1)
            k = 0
            for c in token:
                if c.isdigit():
                    points[k] = int(c)
                else:
                    k += 1
            out.append((chars, points))
    return out


@pytest.fixture(scope="module")
def english():
    return load_default_patterns()


@pytest.fixture(scope="module")
def english_raw():
    from importlib import resources
    text = (resources.files("sublm") / "data" / "hyphen-en.pat").read_text("utf-8")
    return parse_raw_patterns(text)


class TestLoadPatterns:
    def test_single_pattern(self):
        ps = load_patterns("a1b\n", left_min=1, right_min=1)
        assert hyphenate("aab", ps) == ["aa", "b"]

    @pytest.mark.parametrize("text", ["1ba\nb1a\n", "b1a\n1ba\n"])
    def test_duplicate_letters_merge_by_max(self, text):
        ps = load_patterns(text, left_min=1, right_min=1)
        assert hyphenate("xbax", ps) == ["x", "b", "ax"]

    def test_empty_exceptions(self):
        ps = load_patterns("a1b\n", "")
        assert ps.exceptions == {}

    def test_comments_and_blanks(self):
        ps = load_patterns("% header\n\na1b  % trailing\n")
        assert "a" in ps.trie

    def test_consecutive_digits_rejected_with_line(self):
        with pytest.raises(PatternParseError) as exc:
            load_patterns("ok1\na12b\n")
        assert exc.value.line == 2

    def test_invalid_character_rejected(self):
        with pytest.raises(PatternParseError) as exc:
            load_patterns("a_b\n")
        assert exc.value.line == 1

    def test_misplaced_dot_rejected(self):
        with pytest.raises(PatternParseError):
            load_patterns("a.b\n")

    def test_exception_parse(self):
        ps = load_patterns("", "ta-ble\npro-ject\n")
        assert ps.exceptions["table"] == (2,)
        assert hyphenate("table", ps) == ["ta", "ble"]

    def test_exception_bad_dash(self):
        with pytest.raises(PatternParseError) as exc:
            load_patterns("", "ok-ay\n-bad\n")
        assert exc.value.line == 2

    def test_bad_mins(self):
        with pytest.raises(ConfigError):
            load_patterns("a1b", left_min=0)

    def test_standard_english_file_loads_clean(self, english):
        # the published classic list carries 4447 patterns
        count = 0
        stack = [english.trie]
        while stack:
            node = stack.pop()
            for key, child in node.items():
                if key is None:
                    count += 1
                else:
                    stack.append(child)
        assert count == 4447
        assert len(english.exceptions) == 14


class TestHyphenate:
    def test_paper_example(self, english):
        assert hyphenate("unconstitutional", english) == ["un", "con", "sti", "tu", "tional"]

    def test_short_word_whole(self, english):
        assert hyphenate("a", english) == ["a"]
        assert hyphenate("the", english) == ["the"]

    def test_exceptions_override(self, english):
        assert hyphenate("project", english) == ["project"]
        assert hyphenate("table", english) == ["ta", "ble"]

    def test_casing_preserved(self, english):
        assert hyphenate("Unconstitutional", english) == ["Un", "con", "sti", "tu", "tional"]

    def test_left_right_minima(self, english):
        for word in ENGLISH_WORDS:
            parts = hyphenate(word, english)
            assert len(parts[0]) >= english.left_min or len(parts) == 1
            assert len(parts[-1]) >= english.right_min or len(parts) == 1

    def test_non_letter_runs_are_own_parts(self, english):
        assert hyphenate("n't", english) == ["n", "'", "t"]
        assert hyphenate("1984", english) == ["1984"]
        assert hyphenate("mother-in-law", english) == ["mother", "-", "in", "-", "law"]

    def test_determinism(self, english):
        a = [hyphenate(w, english) for w in ENGLISH_WORDS]
        b = [hyphenate(w, english) for w in ENGLISH_WORDS]
        assert a == b

    def test_matches_bruteforce_oracle_on_english_words(self, english, english_raw):
        for word in ENGLISH_WORDS:
            if word.lower() in english.exceptions:
                continue
            assert hyphenate(word, english) == oracle_hyphenate(word, english_raw), word

    def test_matches_oracle_on_random_words(self, english, english_raw):
        rng = np.random.default_rng(42)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        for _ in range(500):
            n = int(rng.integers(1, 18))
            word = "".join(rng.choice(letters, size=n))
            if word in english.exceptions:
                continue
            assert hyphenate(word, english) == oracle_hyphenate(word, english_raw), word


class TestCharSegment:
    def test_basic(self):
        assert char_segment("cat") == ["c", "a", "t"]
        assert char_segment("a") == ["a"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            char_segment("")


class TestOverrides:
    def test_accept(self):
        overrides, rejected = load_segmentation_overrides(
            "unconstitutional\tun constitution al\n")
        assert overrides["unconstitutional"] == ["un", "constitution", "al"]
        assert rejected == []

    def test_reject_concat_mismatch(self):
        overrides, rejected = load_segmentation_overrides("cat\tdo g\n")
        assert "cat" not in overrides
        assert rejected[0][0] == 1

    def test_reject_missing_tab(self):
        _, rejected = load_segmentation_overrides("justoneword\n")
        assert rejected == [(1, "missing tab separator")]

    def test_line_numbers(self):
        text = "good\tgo od\nbad\tnope\nfine\tfi ne\n"
        overrides, rejected = load_segmentation_overrides(text)
        assert set(overrides) == {"good", "fine"}
        assert [line for line, _ in rejected] == [2]


class TestSegmenter:
    def test_modes(self, english):
        liang = Segmenter("liang", patterns=english)
        chars = Segmenter("chars")
        assert liang.segment("unconstitutional")[0] == "un"
        assert chars.segment("cat") == ["c", "a", "t"]

    def test_pseudo_tokens_never_segmented(self, english):
        for seg in (Segmenter("liang", patterns=english), Segmenter("chars")):
            assert seg.segment("<unk>") == ["<unk>"]
            assert seg.segment("<eos>") == ["<eos>"]

    def test_external_prefers_overrides_then_patterns(self, english):
        seg = Segmenter("external", patterns=english,
                        overrides={"table": ["tab", "le"]})
        assert seg.segment("table") == ["tab", "le"]
        assert seg.segment("unconstitutional") == ["un", "con", "sti", "tu", "tional"]

    def test_external_without_patterns_keeps_word(self):
        seg = Segmenter("external", overrides={})
        assert seg.segment("anything") == ["anything"]

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            Segmenter("bpe")

    def test_liang_needs_patterns(self):
        with pytest.raises(ConfigError):
            Segmenter("liang")


word_strategy = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
    min_size=1, max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(word=word_strategy)
def test_concatenation_invariant_all_modes(word):
    english = _ENGLISH_CACHE
    for seg in (Segmenter("liang", patterns=english), Segmenter("chars"),
                Segmenter("external", patterns=english, overrides={})):
        parts = seg.segment(word)
        assert parts and all(parts)
        assert "".join(parts) == word


_ENGLISH_CACHE = load_default_patterns()
