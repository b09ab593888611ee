"""Deterministic word-to-subword segmentation.

Three modes: Liang's pattern-based hyphenation (TeX pattern files), one part
per character, and externally supplied segmentations.  Hyphenation applies
only to letter runs; any maximal non-letter run inside a token is kept as a
part of its own.  Pseudo-tokens such as ``<unk>`` are never segmented.

All modes preserve the input exactly: the concatenation of the returned
parts equals the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import groupby

from .errors import ConfigError, PatternParseError

MODES = ("liang", "chars", "external")

_POINTS = None  # trie key holding a pattern's priority vector


@dataclass(frozen=True)
class PatternSet:
    """Compiled hyphenation patterns: a letter trie plus exceptions.

    Trie nodes are nested dicts keyed by character, with the ``None`` key
    holding the inter-letter priority vector of a pattern ending there.
    Exceptions map a lowercased word to its fixed break positions and always
    win over pattern matching.  Immutable after load; safe to share.
    """

    trie: dict
    exceptions: dict[str, tuple[int, ...]]
    left_min: int = 2
    right_min: int = 3


def load_patterns(pattern_text: str, exceptions_text: str = "",
                  left_min: int = 2, right_min: int = 3) -> PatternSet:
    """Build a PatternSet from TeX-style pattern and exception texts.

    One pattern per line; ``%`` starts a comment; ``.`` marks a word edge;
    digits 0..9 are break priorities between letters, merged by maximum when
    a letter string repeats.  Exception lines are words with ``-`` at each
    break point.  Malformed lines raise PatternParseError with the line.
    """
    if left_min < 1 or right_min < 1:
        raise ConfigError("left_min and right_min must be at least 1")
    trie: dict = {}
    for lineno, token in _tokens(pattern_text):
        chars, points = _parse_pattern(token, lineno)
        node = trie
        for ch in chars:
            node = node.setdefault(ch, {})
        node[_POINTS] = tuple(map(max, node.get(_POINTS, points), points))
    exceptions = dict(_parse_exception(token, lineno)
                      for lineno, token in _tokens(exceptions_text))
    return PatternSet(trie=trie, exceptions=exceptions,
                      left_min=left_min, right_min=right_min)


def _tokens(text: str):
    """(line number, token) for each whitespace-separated token, ``%`` comments removed."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.split("%", 1)[0].split():
            yield lineno, token


def _parse_pattern(token: str, lineno: int) -> tuple[str, tuple[int, ...]]:
    chars = []
    points = [0]
    prev_digit = False
    for pos, ch in enumerate(token):
        if ch.isdigit():
            if prev_digit:
                raise PatternParseError(
                    f"two consecutive digits in pattern {token!r}", line=lineno)
            points[-1] = int(ch)
            prev_digit = True
        elif ch == ".":
            if pos not in (0, len(token) - 1):
                raise PatternParseError(
                    f"'.' only marks word edges, misplaced in {token!r}", line=lineno)
            chars.append(ch)
            points.append(0)
            prev_digit = False
        elif ch.isalpha():
            chars.append(ch.lower())
            points.append(0)
            prev_digit = False
        else:
            raise PatternParseError(
                f"invalid character {ch!r} in pattern {token!r}", line=lineno)
    if not chars:
        raise PatternParseError(f"pattern {token!r} has no letters", line=lineno)
    return "".join(chars), tuple(points)


def _parse_exception(token: str, lineno: int) -> tuple[str, tuple[int, ...]]:
    if token.startswith("-") or token.endswith("-") or "--" in token:
        raise PatternParseError(f"misplaced '-' in exception {token!r}", line=lineno)
    word = []
    breaks = []
    for ch in token:
        if ch == "-":
            breaks.append(len(word))
        elif ch.isalpha():
            word.append(ch.lower())
        else:
            raise PatternParseError(
                f"invalid character {ch!r} in exception {token!r}", line=lineno)
    return "".join(word), tuple(breaks)


def load_default_patterns() -> PatternSet:
    """The bundled classic English TeX patterns and exceptions."""
    data = resources.files("sublm") / "data"
    return load_patterns((data / "hyphen-en.pat").read_text("utf-8"),
                         (data / "hyphen-en.exc").read_text("utf-8"))


def _lower_preserving_length(word: str) -> str:
    lowered = word.lower()
    if len(lowered) == len(word):
        return lowered
    # some casings expand when lowered; keep such characters as-is
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in word)


def _liang_points(lower: str, trie: dict) -> list[int]:
    """Max pattern priority before each position of '.'+lower+'.'."""
    work = "." + lower + "."
    points = [0] * (len(work) + 1)
    for start in range(len(work)):
        node = trie
        for ch in work[start:]:
            node = node.get(ch)
            if node is None:
                break
            stored = node.get(_POINTS)
            if stored is not None:
                for j, value in enumerate(stored):
                    if value > points[start + j]:
                        points[start + j] = value
    return points


def _hyphenate_letters(run: str, ps: PatternSet) -> list[str]:
    lower = _lower_preserving_length(run)
    breaks = ps.exceptions.get(lower)
    if breaks is None:
        m = len(run)
        if m < ps.left_min + ps.right_min:
            return [run]
        points = _liang_points(lower, ps.trie)
        # a break after k letters sits before work position k+1
        breaks = [k for k in range(ps.left_min, m - ps.right_min + 1)
                  if points[k + 1] % 2 == 1]
    parts = []
    prev = 0
    for k in breaks:
        parts.append(run[prev:k])
        prev = k
    parts.append(run[prev:])
    return parts


def hyphenate(word: str, ps: PatternSet) -> list[str]:
    """Split a word at Liang pattern breaks; casing is preserved.

    Letter runs are hyphenated independently; digit/punctuation runs pass
    through as single parts.  Words never fail to segment: anything the
    patterns do not break is returned whole.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    parts: list[str] = []
    for is_alpha, chunk in groupby(word, key=str.isalpha):
        run = "".join(chunk)
        if is_alpha:
            parts.extend(_hyphenate_letters(run, ps))
        else:
            parts.append(run)
    return parts


def char_segment(word: str) -> list[str]:
    """One part per Unicode scalar value."""
    if not word:
        raise ValueError("cannot segment an empty word")
    return list(word)


def load_segmentation_overrides(text: str):
    """Parse ``word<TAB>part1 part2 ...`` lines into a segmentation map.

    Lines whose parts do not concatenate back to the word are rejected, not
    fatal; they come back as ``(line_number, reason)`` pairs alongside the
    accepted map.
    """
    overrides: dict[str, list[str]] = {}
    rejected: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            rejected.append((lineno, "missing tab separator"))
            continue
        word, _, rest = line.partition("\t")
        parts = rest.split()
        if not word or not parts:
            rejected.append((lineno, "empty word or parts"))
            continue
        if "".join(parts) != word:
            rejected.append((lineno, f"parts do not concatenate to {word!r}"))
            continue
        overrides[word] = parts
    return overrides, rejected


def is_pseudo_token(word: str) -> bool:
    """Pseudo-tokens like <unk> or <eos> are a single subword of their own."""
    return len(word) > 2 and word.startswith("<") and word.endswith(">")


class Segmenter:
    """Maps words to subword sequences under a fixed mode.

    ``liang`` hyphenates with a PatternSet; ``chars`` splits into characters;
    ``external`` consults an override map first and falls back to patterns
    (when given) or to the whole word.  Stateless after construction.
    """

    def __init__(self, mode: str, patterns: PatternSet | None = None,
                 overrides: dict[str, list[str]] | None = None):
        if mode not in MODES:
            raise ConfigError(f"unknown segmentation mode {mode!r}; expected one of {MODES}")
        if mode == "liang" and patterns is None:
            raise ConfigError("liang mode needs a PatternSet")
        if mode == "external" and overrides is None:
            raise ConfigError("external mode needs a segmentation override map")
        self.mode = mode
        self.patterns = patterns
        self.overrides = overrides or {}

    def segment(self, word: str) -> list[str]:
        if is_pseudo_token(word):
            return [word]
        if self.mode == "chars":
            return char_segment(word)
        if self.mode == "external":
            parts = self.overrides.get(word)
            if parts is not None:
                return list(parts)
            if self.patterns is None:
                return [word]
        return hyphenate(word, self.patterns)
