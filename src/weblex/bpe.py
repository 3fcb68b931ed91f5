"""Byte-pair-encoding subword model: learn merges, apply them, undo them.

Words are split to characters with an end-of-word marker suffixed to the
final character, then the most frequent adjacent symbol pair is merged
repeatedly until the symbol vocabulary reaches the target size or no
pair occurs at least twice. Equal frequencies are broken by taking the
lexicographically smallest (left, right) pair so learning is
deterministic. The model file stores the header plus one merge per
line:

    #weblex-bpe v=1 size=8500 marker=</w> lowercase=0
    l o
    lo w</w>

Learning counts the pairs of the distinct words once and keeps an index
from each pair to the words that hold it. A merge rewrites only the
words in its pair's index, subtracting their old pairs and adding their
new ones, and the next pair comes from a lazy max-heap keyed
(-count, pair) whose stale entries are skipped. A merge therefore costs
the length of the words it touches, not a pass over the whole
vocabulary.

Applying a model gives exactly what replaying its merges in order over
each word gives. Each distinct word is encoded once and memoised on the
model. Encoding repeatedly takes, among the word's adjacent pairs, the
merge of lowest rank at or above a bound, applies it, and raises the
bound past it; every merge it skips would have found nothing to merge.
A word of n characters costs O(n^2) dictionary lookups whatever the
number of merges. The bound matters: a model may hold two merges with
the same output (`a b`, `b c`, `a bc`, `abc d</w>`, `ab c`), and
merging the lowest-ranked pair without it would turn `abcd` into
`abcd</w>` where replay gives `abc d</w>`.

A model's merges are fixed when it is built. The constructor refuses a
size below 1 and any list `load_bpe` would refuse: a repeated pair, or a
symbol that is not a non-space, non-surrogate character, one followed by
the marker, or an earlier merge's output. It ranks the merges and starts
the memo once.

A word must be non-empty and must not contain the marker: decode could
not restore it, so learn and apply refuse it.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import FormatError
from .formats import field_fault, read_artifact, write_artifact
from .textnorm import NormSettings, normal_words

MARKER = "</w>"  # no proper prefix of it is also a suffix, so it ends a word only once

Pair = tuple[str, str]


class BpeModel:
    """A merge list in rank order, fixed when built, and its build settings."""

    marker = MARKER

    def __init__(self, merges: Iterable[Pair], target_size: int, *, settings: NormSettings = NormSettings()):
        self._merges = tuple((left, right) for left, right in merges)
        if fault := _merge_fault(self._merges):
            raise ValueError(f"merges[{fault[0]}]: {fault[1]}")
        if target_size < 1:
            raise ValueError(f"target_size must be at least 1, got {target_size}")
        self.target_size, self.settings = target_size, settings
        self._ranks = {pair: rank for rank, pair in enumerate(self._merges)}
        self._memo: dict[str, tuple[str, ...]] = {}  # word -> its subwords, filled by apply_bpe

    @property
    def merges(self) -> tuple[Pair, ...]:
        return self._merges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BpeModel):
            return NotImplemented
        return (self.merges, self.target_size, self.settings) == (other.merges, other.target_size, other.settings)


def _merge_fault(merges: Sequence[Pair]) -> tuple[int, str] | None:
    """The rank of the first merge that repeats an earlier pair or has a
    side no word can give or no file can hold, and why; None when there is none."""
    seen: set[Pair] = set()
    outputs: set[str] = set()
    for rank, pair in enumerate(merges):
        if pair in seen:
            return rank, f"duplicate merge {pair[0]} {pair[1]}"
        for part in pair:
            if part not in outputs and (not part or part[0].isspace() or part[1:] not in ("", MARKER)):
                return rank, f"symbol {part!r} is not a character, marked character, or output of an earlier merge"
            if field_fault(part):  # whitespace was refused above, so only a lone surrogate is left
                return rank, f"symbol {part!r} is not UTF-8 encodable"
        seen.add(pair)
        outputs.add(pair[0] + pair[1])
    return None


def _word_symbols(word: str) -> tuple[str, ...]:
    if not word:
        raise ValueError("cannot encode an empty word")
    if MARKER in word:
        raise ValueError(f"word {word!r} contains the end-of-word marker {MARKER!r}")
    return (*word[:-1], word[-1] + MARKER)


def _merge_symbols(symbols: tuple[str, ...], pair: Pair) -> tuple[str, ...]:
    left, right = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def learn_bpe(corpus: Iterable[str], target_size: int, *, settings: NormSettings = NormSettings()) -> BpeModel:
    """Learn a merge list over the corpus word-frequency table.

    Stops when the symbol vocabulary (characters plus merge outputs)
    reaches `target_size` or the best remaining pair occurs fewer than
    twice. The corpus must contain at least one word, and `target_size`
    must exceed the initial character-symbol count. A word holding the
    marker is refused with the number of its line.
    """
    ids: dict[str, int] = {}
    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    for lineno, line in enumerate(corpus, start=1):
        for word in normal_words(line, settings.lowercase):
            wid = ids.get(word)
            if wid is None:
                try:
                    words.append(_word_symbols(word))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                wid = ids[word] = len(freqs)
                freqs.append(0)
            freqs[wid] += 1
    if not words:
        raise ValueError("empty corpus: no words to learn from")

    symbols = {s for syms in words for s in syms}
    if target_size <= len(symbols):
        raise ValueError(
            f"target_size {target_size} must exceed the character-symbol floor of {len(symbols)}"
        )

    # counts holds only pairs that occur; where[pair] lists (possibly stale or
    # repeated) ids of the words holding it, so a merge visits only those
    counts: dict[Pair, int] = {}
    where: dict[Pair, list[int]] = {}
    for wid, syms in enumerate(words):
        for pair in zip(syms, syms[1:]):
            counts[pair] = counts.get(pair, 0) + freqs[wid]
            where.setdefault(pair, []).append(wid)
    # every counted pair keeps an entry whose count is at least its current
    # one, so a top entry that matches its current count is the best pair
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)

    merges: list[Pair] = []
    while len(symbols) < target_size:
        while heap and -heap[0][0] != counts.get(heap[0][1], 0):
            stale, pair = heapq.heappop(heap)
            count = counts.get(pair, 0)
            if 0 < count < -stale:
                heapq.heappush(heap, (-count, pair))
        if not heap or -heap[0][0] < 2:
            break
        pair = heapq.heappop(heap)[1]
        merges.append(pair)
        merged = pair[0] + pair[1]
        symbols.add(merged)

        delta: dict[Pair, int] = {}
        for wid in set(where.pop(pair)):
            old = words[wid]
            new = _merge_symbols(old, pair)
            if len(new) == len(old):  # a stale id: the word lost the pair earlier
                continue
            words[wid] = new
            freq = freqs[wid]
            for p in zip(old, old[1:]):
                delta[p] = delta.get(p, 0) - freq
            # a pair without the merged symbol was already adjacent in old
            for p in zip(new, new[1:]):
                delta[p] = delta.get(p, 0) + freq
                if merged in p:
                    where.setdefault(p, []).append(wid)
        for p, change in delta.items():
            if change:
                count = counts.get(p, 0) + change
                if count:
                    counts[p] = count
                else:
                    del counts[p]
                if change > 0:
                    heapq.heappush(heap, (-count, p))
    return BpeModel(merges, target_size, settings=settings)


def _encode(model: BpeModel, word: str) -> tuple[str, ...]:
    """The word's subwords: the lowest-ranked merge among its pairs, then
    the lowest ranked above that one, and so on."""
    symbols = _word_symbols(word)
    ranks, merges, size = model._ranks, model._merges, len(model._merges)  # rank `size`: no merge
    bound = 0
    while len(symbols) > 1:
        best = size
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair, size)
            if bound <= rank < best:
                best = rank
        if best == size:
            break
        symbols = _merge_symbols(symbols, merges[best])
        bound = best + 1
    return symbols


def apply_bpe(model: BpeModel, sentence: Sequence[str]) -> list[str]:
    """Split each word to marked characters and apply the merges in order.

    Unseen characters simply stay singleton symbols; concatenating a
    word's subwords and stripping the marker reproduces the word. A word
    holding the marker raises ValueError. The model memoises each
    distinct word it encodes.
    """
    memo = model._memo
    tokens: list[str] = []
    for word in sentence:
        symbols = memo.get(word)
        if symbols is None:
            symbols = memo[word] = _encode(model, word)
        tokens.extend(symbols)
    return tokens


def decode_bpe(tokens: Sequence[str]) -> list[str]:
    """Reassemble words from subword tokens; inverse of apply_bpe."""
    words = []
    current: list[str] = []
    for tok in tokens:
        head, sep, tail = tok.partition(MARKER)
        if not sep:
            current.append(tok)
            continue
        if tail:
            raise FormatError(f"marker {MARKER!r} inside token {tok!r}, expected it only at the end")
        current.append(head)
        word = "".join(current)
        if not word:
            raise FormatError("end-of-word marker produced an empty word")
        words.append(word)
        current = []
    if current:
        raise FormatError(f"trailing subwords {current!r} without an end-of-word marker")
    return words


def save_bpe(model: BpeModel, path: str) -> None:
    fields = {"size": model.target_size, "marker": MARKER, "lowercase": model.settings.lowercase}
    write_artifact(path, "bpe", fields, (f"{left} {right}" for left, right in model.merges))


def load_bpe(path: str) -> BpeModel:
    header = {"size": int, "marker": str, "lowercase": bool}
    (target_size, marker, lowercase), rows = read_artifact(path, "bpe", header)
    if marker != MARKER:
        raise FormatError(f"line 1: end-of-word marker {marker!r} is not {MARKER}")
    if target_size < 1:
        raise FormatError(f"line 1: size {target_size} is below 1")

    merges: list[Pair] = []
    try:
        for lineno, line in enumerate(rows, start=2):
            parts = line.split(" ")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise FormatError(f"line {lineno}: expected 'left<SPACE>right'")
            merges.append((parts[0], parts[1]))
        return BpeModel(merges, target_size, settings=NormSettings(lowercase))
    except (FormatError, ValueError):
        # the constructor checks the merges; name the first refused line
        if fault := _merge_fault(merges):
            raise FormatError(f"line {fault[0] + 2}: {fault[1]}") from None
        raise
