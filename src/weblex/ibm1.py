"""Lexical translation model and phrase-pair harvesting.

Trains word translation probabilities t(target | source) by
expectation-maximization over a sentence-aligned corpus, extracts the
best alignment per pair, collects all alignment-consistent contiguous
phrase pairs, and turns the frequent ones into an expression lexicon so
the segmenter can treat machine-extracted phrases as atomic units.

A table is its cells in row order, the order `save_table` writes them
and `load_table` reads them: three parallel lists of source word,
target word and probability, with no tuple per cell. Alignment reads a
target-keyed lookup, `{target: {source: p}}`, built once on first use.

EM runs on numbered cells: each co-occurring (source, target) word pair
is numbered once, in first-seen order, through one `{target: id}` dict
per source word, and every iteration indexes by that number a list t
and an `array("d")` of expected counts, 8 bytes a cell instead of a
float object (t stays a list: the E-step reads it faster), freeing the
old t before the M-step builds the new. Each new cell appends the
vocabularies' own word objects, one per distinct word, to the table's
word lists, and after the last iteration t itself is its probability
list. The floating-point operations and their order are kept on purpose
(the same sums over the same cells, the same accumulation order), so
the trained table, of plain floats, is bit-for-bit the one a dict-based
EM gives and its file bytes are stable.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from operator import truediv
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import FormatError
from .formats import field_fault, read_artifact, write_artifact
from .lexicon import ExpressionLexicon, build_lexicon
from .textnorm import NormSettings

NULL_WORD = "<NULL>"

# Probability assumed for pairs missing from the table when aligning;
# keeps the argmax defined for unseen words. Never used during training.
ALIGN_FLOOR = 1e-12

SentencePair = tuple[list[str], list[str]]
Alignment = list[int | None]


class TranslationTable:
    """t(target | source) cells in row order plus the vocabularies.

    `sources[i]`, `targets[i]` and `values[i]` are cell i's source word,
    target word and probability, in the order `save_table` writes the
    rows. `by_target` is the same cells keyed by target, then source,
    built on first use; `probs` is a read-only `{(source, target): p}`
    view in row order, built on each access.
    """

    def __init__(self, sources: list[str], targets: list[str], values: list[float], source_vocab: list[str],
                 target_vocab: list[str], null_word: bool = True, settings: NormSettings = NormSettings()):
        self.sources, self.targets, self.values = sources, targets, values
        self.source_vocab, self.target_vocab = source_vocab, target_vocab
        self.null_word, self.settings = null_word, settings
        self._by_target: dict[str, dict[str, float]] | None = None

    @property
    def by_target(self) -> dict[str, dict[str, float]]:
        if self._by_target is None:
            self._by_target = {}
            for e, f, p in zip(self.sources, self.targets, self.values):
                self._by_target.setdefault(f, {})[e] = p
        return self._by_target

    @property
    def probs(self) -> Mapping[tuple[str, str], float]:
        return MappingProxyType(dict(zip(zip(self.sources, self.targets), self.values)))

    def _fields(self) -> tuple:  # everything but the by_target cache
        return (self.sources, self.targets, self.values, self.source_vocab, self.target_vocab, self.null_word,
                self.settings)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if isinstance(other, TranslationTable) else NotImplemented


def _source_side(pair: SentencePair, null_word: bool) -> list[str]:
    return [NULL_WORD, *pair[0]] if null_word else list(pair[0])


def train_ibm1(
    corpus: Sequence[SentencePair],
    iterations: int,
    null_word: bool = True,
    settings: NormSettings = NormSettings(),
) -> TranslationTable:
    """Run `iterations` exact EM updates starting from a uniform table.

    Probabilities start uniform over the target vocabulary, so only
    co-occurring (source, target) pairs ever hold mass and each source
    word's distribution sums to one after every iteration.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    for idx, (src, tgt) in enumerate(corpus, start=1):
        if not src or not tgt:
            raise ValueError(f"pair {idx}: both sides must be non-empty")
        if null_word and NULL_WORD in src:
            raise ValueError(f"pair {idx}: source contains the reserved token {NULL_WORD!r}")
        if why := field_fault(" ".join((*src, *tgt))):
            raise ValueError(f"pair {idx}: a word {why}")

    source_vocab = list(dict.fromkeys(w for src, _ in corpus for w in src))
    target_vocab = list(dict.fromkeys(w for _, tgt in corpus for w in tgt))

    # number each co-occurring (source, target) cell once, in first-seen
    # order, through one {target: id} dict per source id; each new cell
    # appends the vocabularies' own word objects to cell_e and cell_f, so
    # the table holds one copy of each word; a pair becomes one row of
    # cell ids per target word, its sources in _source_side order
    source_words = [NULL_WORD] + source_vocab if null_word else source_vocab
    source_ids = {e: i for i, e in enumerate(source_words)}
    target_word = {f: f for f in target_vocab}
    ids: list[dict[str, int]] = [{} for _ in source_words]
    cell_source: list[int] = []
    cell_e: list[str] = []
    cell_f: list[str] = []
    pairs: list[tuple[list[int], list[tuple[int, ...]]]] = []
    for pair in corpus:
        sources = [source_ids[e] for e in _source_side(pair, null_word)]
        targets = [target_word[f] for f in pair[1]]
        columns = []
        for e in sources:
            cell_of, column = ids[e], []
            for f in targets:
                k = cell_of.get(f)
                if k is None:
                    k = cell_of[f] = len(cell_f)
                    cell_source.append(e)
                    cell_e.append(source_words[e])
                    cell_f.append(f)
                column.append(k)
            columns.append(column)
        pairs.append((sources, list(zip(*columns))))
    del ids, source_ids, target_word  # EM reads cell ids only

    t = [1.0 / len(target_vocab)] * len(cell_source)
    for _ in range(iterations):
        counts = array("d", [0.0]) * len(cell_source)
        totals = [0.0] * len(source_words)
        # E-step: distribute each target word's count over its candidates
        for sources, rows in pairs:
            for row in rows:
                ps = [t[k] for k in row]
                z = sum(ps)
                for k, e, p in zip(row, sources, ps):
                    delta = p / z
                    counts[k] += delta
                    totals[e] += delta
        del t  # M-step: renormalize per source word, the old t gone first so that two never coexist
        t = list(map(truediv, counts, map(totals.__getitem__, cell_source)))
        del counts
    return TranslationTable(cell_e, cell_f, t, source_vocab, target_vocab, null_word, settings)


def log_likelihood(table: TranslationTable, corpus: Sequence[SentencePair]) -> float:
    """Corpus log-likelihood of the training data under the table."""
    by_target, ll = table.by_target, 0.0
    for pair in corpus:
        sources = _source_side(pair, table.null_word)
        norm = math.log(len(sources))
        for f in pair[1]:
            get = by_target.get(f, {}).get
            ll += math.log(sum(get(e, 0.0) for e in sources)) - norm
    return ll


def align_best(table: TranslationTable, pair: SentencePair) -> Alignment:
    """Link every target position to its most probable source position.

    Ties go to the lowest source index; None marks a link to the null
    word (only when the table was trained with one). Refuses an empty
    source side; an empty target side gets no links.
    """
    src, tgt = pair
    if not src:
        raise ValueError("source side must be non-empty")
    by_target = table.by_target
    alignment: Alignment = []
    for f in tgt:
        get = by_target.get(f, {}).get
        best_i = 0
        best_p = get(src[0], ALIGN_FLOOR)
        for i in range(1, len(src)):
            p = get(src[i], ALIGN_FLOOR)
            if p > best_p:
                best_p, best_i = p, i
        link: int | None = best_i
        if table.null_word and get(NULL_WORD, ALIGN_FLOOR) > best_p:
            link = None
        alignment.append(link)
    return alignment


class PhrasePair(NamedTuple):
    source: str
    target: str
    count: int


def extract_phrases(
    corpus: Sequence[SentencePair],
    alignments: Sequence[Alignment],
    max_len: int = 7,
) -> list[PhrasePair]:
    """Harvest every alignment-consistent contiguous phrase pair.

    A (source span, target span) box is consistent when at least one
    link lies inside it and no link leaves it sideways: every link from
    a span position lands inside the other span. Target spans grow over
    unaligned boundary words. Output is aggregated over the corpus and
    ordered by descending count, then source text, then target text.
    Each alignment must hold one link per target word.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if len(corpus) != len(alignments):
        raise ValueError("corpus and alignments must correspond 1:1")
    counts: Counter[tuple[str, str]] = Counter()
    for idx, ((src, tgt), alignment) in enumerate(zip(corpus, alignments), start=1):
        if len(alignment) != len(tgt):
            raise ValueError(f"pair {idx}: alignment has {len(alignment)} links but target has {len(tgt)} words")
        targets_of: list[list[int]] = [[] for _ in src]
        for j, a in enumerate(alignment):
            # a link outside src joins no span but still blocks every box
            # whose target span holds it
            if a is not None and 0 <= a < len(src):
                targets_of[a].append(j)
        for i1 in range(len(src)):
            # grow the source span one word at a time; [j1, j2] is the
            # smallest target span holding every link from it, and
            # [low, high] the smallest source span holding every link
            # from [j1, j2]
            j1, j2 = len(tgt), -1
            low, high = len(src), -1
            for i2 in range(i1, min(len(src), i1 + max_len)):
                links = targets_of[i2]
                if links:
                    first, last = links[0], links[-1]  # in ascending order
                    if j2 < 0:
                        j1, j2 = first, first - 1
                    for a in alignment[first:j1] + alignment[j2 + 1:last + 1]:
                        if a is not None:
                            if a < low:
                                low = a
                            if a > high:
                                high = a
                    if first < j1:
                        j1 = first
                    if last > j2:
                        j2 = last
                elif j2 < 0:
                    continue
                if j2 - j1 + 1 > max_len:
                    break  # the target span only grows from here
                if low < i1 or high > i2:
                    continue
                source_text = " ".join(src[i1:i2 + 1])
                for lo in range(j1, max(-1, j2 - max_len), -1):
                    if lo != j1 and alignment[lo] is not None:
                        break
                    for hi in range(j2, min(len(tgt), lo + max_len)):
                        if hi != j2 and alignment[hi] is not None:
                            break
                        counts[(source_text, " ".join(tgt[lo:hi + 1]))] += 1
    pairs = [PhrasePair(s, t, c) for (s, t), c in counts.items()]
    pairs.sort(key=lambda p: (-p.count, p.source, p.target))
    return pairs


def build_phb_vocab(
    phrases: Sequence[PhrasePair],
    min_count: int = 1,
    settings: NormSettings = NormSettings(),
) -> ExpressionLexicon:
    """Turn frequent phrase pairs into an expression lexicon.

    Source texts with count >= min_count become entries; when one source
    has several targets the most frequent target wins (ties go to the
    lexicographically smallest), as `build_lexicon` keeps the first gloss.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    ordered = sorted(phrases, key=lambda p: (-p.count, p.source, p.target))
    lex, _ = build_lexicon(((p.source, p.target) for p in ordered if p.count >= min_count), settings)
    return lex


def save_table(table: TranslationTable, path: str) -> None:
    """Write the table, one 'source TAB target TAB probability' per line."""
    rows = (f"{e}\t{f}\t{p:.12g}" for e, f, p in zip(table.sources, table.targets, table.values))
    write_artifact(path, "ibm1", {"null": table.null_word, "lowercase": table.settings.lowercase}, rows)


def load_table(path: str) -> TranslationTable:
    """Load a table, refusing a row `save_table` would not write, a duplicate
    entry, and a source whose rows do not sum to 1.

    Each distinct word is kept as one shared str however many rows hold it.
    The target-keyed lookup is built in the same pass.
    """
    (null_word, lowercase), rows = read_artifact(path, "ibm1", {"null": bool, "lowercase": bool})
    by_target: dict[str, dict[str, float]] = {}
    sources: list[str] = []
    targets: list[str] = []
    values: list[float] = []
    sums: dict[str, float] = {}
    source_words: dict[str, str] = {}
    target_words: dict[str, str] = {}
    source, target = source_words.setdefault, target_words.setdefault
    for lineno, line in rows:
        columns = line.split("\t")
        if len(columns) != 3:
            raise FormatError(f"line {lineno}: expected 'source<TAB>target<TAB>probability'")
        e, f, p_text = columns
        try:
            p = float(p_text)
        except ValueError:
            raise FormatError(f"line {lineno}: probability {p_text!r} is not a number") from None
        if not 0.0 <= p <= 1.0:
            raise FormatError(f"line {lineno}: probability {p} outside [0, 1]")
        f = target(f, f)
        row = by_target.get(f)
        if row is None:
            row = by_target[f] = {}
        elif e in row:
            raise FormatError(f"line {lineno}: duplicate entry for ({e!r}, {f!r})")
        # save_table writes %.12g of a value in [0, 1], so never a sign
        if p_text[0] == "-" or "%.12g" % p != p_text:
            raise FormatError(f"line {lineno}: probability {p_text!r} is not in save_table's form (%.12g, no sign)")
        e = source(e, e)
        row[e] = p
        sources.append(e)
        targets.append(f)
        values.append(p)
        sums[e] = sums.get(e, 0.0) + p
    for e, total in sums.items():
        if abs(total - 1.0) > 1e-9:
            raise FormatError(f"line {sources.index(e) + 2}: probabilities of source {e!r} sum to {total:.12g}, not 1")
    source_vocab = [e for e in sums if e != NULL_WORD or not null_word]
    table = TranslationTable(sources, targets, values, source_vocab, list(target_words), null_word,
                             NormSettings(lowercase))
    table._by_target = by_target
    return table
