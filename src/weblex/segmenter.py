"""Expression segmentation: cover a sentence with the fewest lexicon matches.

Segmentation works on plain (start, end) word-index pairs. For a
sentence of n words and a lexicon of longest entry K:

1. The maximal matches are the lexicon spans not strictly inside another
   (a longer match is taken to be the more meaningful unit). `_sweep`
   finds them in one left-to-right pass down the lexicon's word trie
   (`ExpressionLexicon._trie`, nested `word -> node` dicts in which the
   key "" marks the end of an entry, and every entry nothing extends
   ends in one shared leaf): from each start it follows one word per
   step while the node has a child for it, remembering the last node
   that ends an entry, and keeps that longest match when it ends past
   every match kept so far. One str-keyed lookup and one marker test per
   word visited, at most K words per start: O(n·K) at worst, and most
   starts stop after one or two words.
2. `_cover` picks a complete, disjoint cover of the sentence from the
   maximal spans plus single-word fallbacks for uncovered words,
   minimizing the segment count and breaking ties by preferring the
   longer segment at the leftmost point of difference. Maximal spans
   have distinct starts, so the dynamic program weighs at most two
   choices per position (the span, and the fallback when the span is
   longer than one word): O(n).

`segment_texts` runs these two steps on a line and returns its segment
texts, for `tokenize_web` and the CLI's phb/web line path alike;
`segment_words` runs them on split words and alone wraps its segments in
`CandidateSpan` objects. The public three stages split step 1 in two for
callers that want the candidates themselves: `enumerate_candidates`
lists every span that is an entry (one dict lookup per (start, length)),
`filter_subsumed` keeps the maximal ones, and `select_cover` runs
`_cover` on them.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError
from .lexicon import ExpressionLexicon
from .textnorm import normal_words
from .vocab import END_ID, END_TOKEN, START_ID, START_TOKEN, Vocabulary

Span = tuple[int, int]


class CandidateSpan(NamedTuple):
    """Half-open word-index span [start, end); in_lexicon marks real matches."""

    start: int
    end: int
    in_lexicon: bool = True

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, other: "CandidateSpan") -> bool:
        """Strict span containment: other fits inside self and differs."""
        return (
            self.start <= other.start
            and other.end <= self.end
            and (self.start, self.end) != (other.start, other.end)
        )


class Segmentation:
    """Sorted, disjoint spans whose union is the whole sentence."""

    def __init__(self, segments: list[CandidateSpan]):
        self.segments = segments

    def __len__(self) -> int:
        return len(self.segments)

    def texts(self, words: Sequence[str]) -> list[str]:
        return [" ".join(words[s.start:s.end]) for s in self.segments]


def _sweep(words: Sequence[str], lex: ExpressionLexicon) -> list[Span]:
    """The maximal matches as sorted (start, end) pairs: the spans
    `filter_subsumed(enumerate_candidates(words, lex))` keeps, in one pass."""
    root = lex._trie
    n = len(words)
    kept = []
    reach = 0
    for start in range(n):
        node, longest, end = root, 0, start
        while end < n and (node := node.get(words[end])) is not None:
            end += 1
            if "" in node:
                longest = end
        if longest > reach:
            kept.append((start, longest))
            reach = longest
    return kept


def _cover(n: int, maximal: Iterable[Span]) -> list[tuple[int, int, bool]]:
    """Minimum-segment cover of [0, n) as (start, end, in_lexicon) triples.

    `maximal` holds at most one span per start, so every position has at
    most two choices: its lexicon span, and the single-word fallback
    when that span is not one word long. Ties go to the longer span.
    """
    ends = [0] * n
    for start, end in maximal:
        ends[start] = end
    best = [0] * (n + 1)
    pick = [0] * n
    for i in range(n - 1, -1, -1):
        end = ends[i]
        if end > i + 1 and best[end] <= best[i + 1]:
            best[i] = best[end] + 1
            pick[i] = end
        else:
            best[i] = best[i + 1] + 1
            pick[i] = i + 1
    segments = []
    i = 0
    while i < n:
        end = pick[i]
        segments.append((i, end, ends[i] == end))
        i = end
    return segments


def segment_texts(line: str, lex: ExpressionLexicon, seen: Counter[str] | None = None) -> list[str]:
    """The segment texts of `line`'s minimum-segment cover, normalized under
    `lex.settings`; a one-word segment is its word, with no join. When
    given, `seen["fallbacks"]` counts the single words not taken from a
    maximal match (even an entry inside a longer match)."""
    words = normal_words(line, lex.settings.lowercase)
    segments = _cover(len(words), _sweep(words, lex))
    if seen is not None:
        seen["fallbacks"] += sum(not in_lexicon for _, _, in_lexicon in segments)
    return [words[start] if end == start + 1 else " ".join(words[start:end]) for start, end, _ in segments]


def enumerate_candidates(words: Sequence[str], lex: ExpressionLexicon) -> list[CandidateSpan]:
    """Every contiguous span of 1..max_order words that is a lexicon entry.

    Spans are position-specific: the same expression occurring twice
    yields two spans. Output is sorted by (start, end).
    """
    entries = lex._entries  # tuple-keyed: one lookup per slice, no copy
    seq = tuple(words)
    n = len(seq)
    order = lex.max_order
    return [
        CandidateSpan(start, end)
        for start in range(n)
        for end in range(start + 1, min(n, start + order) + 1)
        if seq[start:end] in entries
    ]


def filter_subsumed(candidates: Sequence[CandidateSpan]) -> list[CandidateSpan]:
    """Keep only spans not strictly contained in another candidate span.

    Input may come in any order and hold duplicates; survivors keep their
    input order, and a duplicated survivor is kept every time.
    """
    spans = sorted({(c.start, c.end) for c in candidates})
    # of each start only the last (longest) span can be maximal, and it
    # is unless a span of an earlier start already reaches as far
    keep = set()
    reach = -1
    last = len(spans) - 1
    for k, (start, end) in enumerate(spans):
        if k < last and spans[k + 1][0] == start:
            continue
        if end > reach:
            keep.add((start, end))
            reach = end
    return [c for c in candidates if (c.start, c.end) in keep]


def select_cover(words: Sequence[str], maximal: Sequence[CandidateSpan]) -> Segmentation:
    """Choose a minimum-segment cover of the sentence.

    Allowed segments are the maximal lexicon spans plus, at any position
    lacking a one-word lexicon span, a single-word fallback (the word is
    treated as out-of-vocabulary). Among minimum-count covers the tie is
    broken left to right by taking the longest segment that still admits
    an optimal completion. Two different spans with the same start cannot
    both be maximal, so they raise ValueError.
    """
    by_start: dict[int, CandidateSpan] = {}
    for span in maximal:
        kept = by_start.setdefault(span.start, span)
        if kept.end != span.end:
            raise ValueError(f"spans ({span.start}, {kept.end}) and ({span.start}, {span.end}) "
                             "share a start, so they are not all maximal")
    spans = [(span.start, span.end) for span in by_start.values()]
    return Segmentation([
        by_start[start] if in_lexicon else CandidateSpan(start, end, in_lexicon=False)
        for start, end, in_lexicon in _cover(len(words), spans)
    ])


def segment_words(words: Sequence[str], lex: ExpressionLexicon) -> Segmentation:
    """Run the full pipeline on an already-normalized word sequence."""
    return Segmentation([CandidateSpan(*segment) for segment in _cover(len(words), _sweep(words, lex))])


def tag_segments(seg: Segmentation, words: Sequence[str]) -> list[str]:
    """Wrap each segment's surface text in the start/end tag pair."""
    return [f"{START_TOKEN} {text} {END_TOKEN}" for text in seg.texts(words)]


def tag_ids(ids: Sequence[int]) -> list[int]:
    """Wrap each id in the start/end tag ids, mirroring `tag_segments`."""
    return [x for i in ids for x in (START_ID, i, END_ID)]


def tokenize_web(
    text: str,
    lex: ExpressionLexicon,
    vocab: Vocabulary,
    emit_tags: bool = True,
) -> list[int]:
    """Normalize, segment, and encode one sentence to vocabulary ids.

    Each segment becomes its expression's id (the unk id when the
    expression is not in the vocabulary). With emit_tags, every segment
    id is wrapped in the reserved start/end tag ids, mirroring the
    tagged surface form.
    """
    if lex.settings != vocab.settings:
        raise ConfigError(
            f"lexicon settings {lex.settings} do not match vocabulary settings {vocab.settings}"
        )
    ids = vocab.encode(segment_texts(text, lex))
    return tag_ids(ids) if emit_tags else ids
