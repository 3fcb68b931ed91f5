"""Curated expression lexicon: build, query, and TSV persistence.

The lexicon is the vocabulary consumed by the expression segmenter: a set
of word sequences (single words or multi-word expressions), each with an
optional target-language gloss. It is built from hand-written
'expression<TAB>gloss' lines (`parse_lexicon_lines`, which skips `#`
comments and reports blank lines and duplicates) and saved as a UTF-8
TSV artifact in one exact spelling:

    #weblex-lexicon v=1 lowercase=0 max_order=2
    nɔncé	maman
    kuɖo jigbézǎn	joyeux anniversaire

One entry per line, each expression once and already normalized, then
TAB and its normalized gloss if it has one. The artifact has no comments
or blank lines; its first column may start with '#'.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError
from .formats import read_artifact, write_artifact
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

    def __init__(self, duplicates: int = 0, rejected: list[tuple[int, str]] | None = None,
                 blank_lines: list[int] | None = None):
        self.duplicates, self.rejected, self.blank_lines = duplicates, rejected or [], blank_lines or []

    @property
    def clean(self) -> bool:
        return not (self.duplicates or self.rejected or self.blank_lines)


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

    Expression texts are normalized and word-split under `settings`.
    Entries that normalize to nothing are rejected (reported with their
    1-based position in the stream); duplicate word sequences keep the
    first gloss and bump the duplicate count.
    """
    lex = ExpressionLexicon(settings)
    report = BuildReport()
    for pos, (text, gloss) in enumerate(pairs, start=1):
        _add_entry(lex, report, pos, text, gloss)
    return lex, report


def _add_entry(
    lex: ExpressionLexicon,
    report: BuildReport,
    pos: int,
    text: str,
    gloss: str | None,
) -> None:
    words = tuple(split_words(normalize(text, lex.settings.lowercase)))
    if not words:
        report.rejected.append((pos, "empty expression after normalization"))
        return
    if gloss is not None:
        gloss = normalize(gloss) or None
    if not lex._add(words, gloss):
        report.duplicates += 1


def save_lexicon(lex: ExpressionLexicon, path: str) -> None:
    fields = {"lowercase": lex.settings.lowercase, "max_order": lex.max_order}
    rows = (expr.text if expr.gloss is None else f"{expr.text}\t{expr.gloss}" for expr in lex.expressions())
    write_artifact(path, "lexicon", fields, rows)


def parse_lexicon_lines(
    numbered: Iterable[tuple[int, str]],
    settings: NormSettings = NormSettings(),
) -> tuple[ExpressionLexicon, BuildReport]:
    """Build a lexicon from numbered 'expression<TAB>gloss' lines.

    Lines starting with '#' are comments. Blank lines and entries that
    normalize to nothing are reported by line number; a line with more
    than two columns raises FormatError naming it.
    """
    lex = ExpressionLexicon(settings)
    report = BuildReport()
    for lineno, line in numbered:
        if line.startswith("#"):
            continue
        if not line.strip():
            report.blank_lines.append(lineno)
            continue
        columns = line.split("\t")
        if len(columns) > 2:
            raise FormatError(f"line {lineno}: expected 'expression<TAB>gloss', got {len(columns)} columns")
        _add_entry(lex, report, lineno, columns[0], columns[1] if len(columns) == 2 else None)
    return lex, report


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
        words = tuple(text.split(" "))
        if len(words) > declared_order:
            raise FormatError(f"line {lineno}: {len(words)} words, more than the header's max_order={declared_order}")
        if not lex._add(words, gloss if tab else None):
            raise FormatError(f"line {lineno}: duplicate expression {text!r}")
    if lex.max_order != declared_order:
        raise FormatError(f"line 1: header declares max_order={declared_order} but entries give {lex.max_order}")
    return lex, BuildReport()
