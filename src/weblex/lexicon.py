"""Curated expression lexicon: build, query, and TSV persistence.

The lexicon is the vocabulary consumed by the expression segmenter: a set
of word sequences (single words or multi-word expressions), each with an
optional target-language gloss. `build_lexicon` builds it from
(expression, gloss) rows, whether `lexicon build` read them from
hand-written lines or IBM1 harvested them, and it is saved as a UTF-8
TSV artifact in one exact spelling:

    #weblex-lexicon v=1 lowercase=0 max_order=2
    nɔncé	maman
    kuɖo jigbézǎn	joyeux anniversaire

One entry per line, each expression once and already normalized, then
TAB and its normalized gloss if it has one. The artifact has no comments
or blank lines; its first column may start with '#'.
"""

from __future__ import annotations

from functools import cached_property
from sys import intern
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError
from .formats import field_fault, read_artifact, write_artifact
from .textnorm import NormSettings, normalize, split_words


class Expression(NamedTuple):
    """A lexicon entry: one or more words, optionally glossed."""

    words: tuple[str, ...]
    gloss: str | None = None

    @property
    def text(self) -> str:
        return " ".join(self.words)


class BuildReport:
    """What happened while building a lexicon from an entry stream."""

    def __init__(self, duplicates: int = 0, rejected: list[tuple[int, str]] | None = None):
        self.duplicates, self.rejected = duplicates, rejected or []

    @property
    def clean(self) -> bool:
        return not (self.duplicates or self.rejected)


class ExpressionLexicon:
    """Immutable-after-build set of expressions keyed by exact word sequence."""

    def __init__(self, settings: NormSettings = NormSettings()):
        self.settings = settings
        self._entries: dict[tuple[str, ...], str | None] = {}
        self._max_order = 0

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, words: Sequence[str]) -> bool:
        return tuple(words) in self._entries

    __contains__ = contains

    def gloss_of(self, words: Sequence[str]) -> str | None:
        return self._entries.get(tuple(words))

    @property
    def max_order(self) -> int:
        """Length of the longest entry; 0 for an empty lexicon."""
        return self._max_order

    @cached_property
    def _trie(self) -> dict[str, dict]:
        """The entries as a word trie, built when the segmenter first needs
        it, after the lexicon is complete. Each node maps a word to the
        node after it; the key "" (no word is empty) marks that the words
        leading to the node form an entry. Every node holding only that
        marker is one shared leaf, swapped for a node of its own when a
        longer entry passes through it, so the leaf itself never changes.
        All keys are str, which keeps each dict in its compact layout."""
        leaf: dict[str, dict | None] = {"": None}
        root: dict = {}
        for words in self._entries:
            node = root
            for word in words[:-1]:
                child = node.get(word)
                if child is None:
                    child = node[word] = {}
                elif child is leaf:
                    child = node[word] = {"": None}
                node = child
            last = words[-1]
            child = node.get(last)
            if child is None:
                node[last] = leaf
            elif child is not leaf:
                child[""] = None
        return root

    def expressions(self) -> Iterator[Expression]:
        for words, gloss in self._entries.items():
            yield Expression(words, gloss)

    def _add(self, words: tuple[str, ...], gloss: str | None) -> bool:
        if words in self._entries:
            return False
        self._entries[words] = gloss
        if len(words) > self._max_order:
            self._max_order = len(words)
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpressionLexicon):
            return NotImplemented
        return self.settings == other.settings and self._entries == other._entries


def build_lexicon(
    pairs: Iterable[tuple[str, str | None]],
    settings: NormSettings = NormSettings(),
) -> tuple[ExpressionLexicon, BuildReport]:
    """Build a lexicon from (expression text, optional gloss) pairs.

    Texts and glosses are normalized, texts under `settings`. A pair that
    normalizes to no words or that a saved file could not hold is rejected
    (reported with its 1-based position in the stream); duplicate word
    sequences keep the first gloss and bump the duplicate count.
    """
    lex = ExpressionLexicon(settings)
    report = BuildReport()
    for pos, (text, gloss) in enumerate(pairs, start=1):
        text = normalize(text, settings.lowercase)
        gloss = gloss and normalize(gloss) or None
        if not text:
            report.rejected.append((pos, "empty expression after normalization"))
        elif why := field_fault(f"{text} {gloss}"):  # of its faults only a lone surrogate survives normalize
            report.rejected.append((pos, f"entry {why}"))
        elif not lex._add(tuple(split_words(text)), gloss):
            report.duplicates += 1
    return lex, report


def save_lexicon(lex: ExpressionLexicon, path: str) -> None:
    fields = {"lowercase": lex.settings.lowercase, "max_order": lex.max_order}
    rows = (expr.text if expr.gloss is None else f"{expr.text}\t{expr.gloss}" for expr in lex.expressions())
    write_artifact(path, "lexicon", fields, rows)


def load_lexicon(path: str) -> tuple[ExpressionLexicon, BuildReport]:
    """Load a lexicon as `save_lexicon` writes it; the returned report is always clean.

    Each row is a normalized expression, then TAB and its normalized gloss
    if it has one. A malformed or repeated row, or one longer than the
    header's max_order, raises FormatError naming its line, and so does a
    max_order no entry reaches.
    """
    (lowercase, declared_order), rows = read_artifact(path, "lexicon", {"lowercase": bool, "max_order": int})
    lex = ExpressionLexicon(NormSettings(lowercase))
    for lineno, line in rows:
        text, tab, gloss = line.partition("\t")
        if not text or text != normalize(text, lowercase) or tab and (not gloss or gloss != normalize(gloss)):
            raise FormatError(f"line {lineno}: expected a normalized 'expression<TAB>gloss' row, got {line!r}")
        words = tuple(map(intern, text.split(" ")))  # one str per distinct word, however many entries hold it
        if len(words) > declared_order:
            raise FormatError(f"line {lineno}: {len(words)} words, more than the header's max_order={declared_order}")
        if not lex._add(words, gloss if tab else None):
            raise FormatError(f"line {lineno}: duplicate expression {text!r}")
    if lex.max_order != declared_order:
        raise FormatError(f"line 1: header declares max_order={declared_order} but entries give {lex.max_order}")
    return lex, BuildReport()
