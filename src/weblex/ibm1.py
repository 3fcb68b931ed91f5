"""Lexical translation model and phrase-pair harvesting.

Trains word translation probabilities t(target | source) by
expectation-maximization over a sentence-aligned corpus, extracts the
best alignment per pair, collects all alignment-consistent contiguous
phrase pairs, and turns the frequent ones into an expression lexicon so
the segmenter can treat machine-extracted phrases as atomic units.

A table is its cells in row order, the order `save_table` writes them
and `load_table` reads them: three parallel lists of source word,
target word and probability, with no tuple per cell. The vocabularies
are not stored: a trained table's rows meet each word first in corpus
order (after the null word), so `dict.fromkeys(table.sources)` and
`dict.fromkeys(table.targets)` give them. Alignment reads a
target-keyed lookup, `{target: {source: p}}`, cached on first use.
No word is empty or holds a TAB, LF or CR: `train_ibm1` refuses such a
pair, and `save_table` and `load_table` such a row.

`load_table` checks a table 4,096 lines at a time by columns: one split
of the chunk, then C-level passes over each column. Only a chunk that
fails goes through the per-row loop, the exact path, so a refusal names
the same first bad line, with the same message, as if every row took it.

EM runs on numbered cells: each co-occurring (source, target) word pair
is numbered once, in first-seen order, through one `{target: id}` dict
per source word. Cell ids are kept only in `array("I")`s (each cell's
source and target id, and for every sentence pair a row of cell ids per
target word), so the per-cell int objects die with the dicts before EM
starts, and only then are the table's word lists built, from the
vocabularies' own word objects. Every iteration indexes by cell id a
list t and an `array("d")` of expected counts, 8 bytes a cell instead
of a float object (t stays a list: the E-step reads it faster), freeing
the old t before the M-step builds the new; after the last iteration t
itself is the table's probability list.

Each word is one str object from reader to table. The CLI interns every
corpus word as it reads it (`cli._load_parallel`), so a corpus holds a
pointer per token, not a str; `train_ibm1` takes its vocabularies from
the corpus, and the table's word lists from the vocabularies; and
`load_table` interns the words it reads, so a table and a corpus read
beside it share their words. The two word lists, a pointer per cell
each, are built right after numbering, once the cell id ints are freed:
building them after the last M-step instead lowers no measured peak,
since numbering's is the highest.

The trained table, of plain floats, is bit-for-bit the one a dict-based
EM gives, so its file bytes are stable: each E-step makes the same
float operations, and each count and total takes its additions pair by
pair in corpus order. The first E-step runs in closed form while the
cells are numbered: at the uniform start u, every delta of a pair is
`u / sum([u] * len(sources))`, the number the general step computes,
and a pair adds only that one number, so the order in which numbering
visits a pair's cells cannot change a sum.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain, count, islice
from operator import itemgetter, truediv
from sys import intern
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import FormatError
from .formats import field_fault, read_artifact, write_artifact
from .lexicon import ExpressionLexicon, build_lexicon
from .textnorm import NormSettings

NULL_WORD = "<NULL>"

# Probability assumed for pairs missing from the table when aligning;
# keeps the argmax defined for unseen words. Never used during training.
ALIGN_FLOOR = 1e-12

_CHUNK = 4096  # table lines load_table checks at a time

SentencePair = tuple[list[str], list[str]]
Alignment = list[int | None]


class TranslationTable:
    """t(target | source) cells in row order, and nothing else.

    `sources[i]`, `targets[i]` and `values[i]` are cell i's source word,
    target word and probability, in the order `save_table` writes the
    rows. `by_target` is the same cells keyed by target, then source,
    cached on first use; `probs` is a read-only `{(source, target): p}`
    view in row order, built on each access.
    """

    def __init__(self, sources: list[str], targets: list[str], values: list[float], null_word: bool = True,
                 settings: NormSettings = NormSettings()):
        self.sources, self.targets, self.values = sources, targets, values
        self.null_word, self.settings = null_word, settings

    @cached_property
    def by_target(self) -> dict[str, dict[str, float]]:
        by_target: dict[str, dict[str, float]] = {}
        for e, f, p in zip(self.sources, self.targets, self.values):
            by_target.setdefault(f, {})[e] = p
        return by_target

    @property
    def probs(self) -> Mapping[tuple[str, str], float]:
        return MappingProxyType(dict(zip(zip(self.sources, self.targets), self.values)))

    def _fields(self) -> tuple:  # everything but the by_target cache
        return self.sources, self.targets, self.values, self.null_word, self.settings

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
        if "" in src or "" in tgt:
            raise ValueError(f"pair {idx}: a word is empty")
        if null_word and NULL_WORD in src:
            raise ValueError(f"pair {idx}: source contains the reserved token {NULL_WORD!r}")
        if why := field_fault(" ".join((*src, *tgt))):
            raise ValueError(f"pair {idx}: a word {why}")

    source_vocab = list(dict.fromkeys(w for src, _ in corpus for w in src))
    target_vocab = list(dict.fromkeys(w for _, tgt in corpus for w in tgt))

    # number cells and run the first E-step (see the module docstring);
    # links holds each pair's cell ids, one row per target word, its sources
    # in _source_side order, pair after pair in one array: no block that
    # outlives numbering sits between the dicts' tables, so freeing them
    # leaves room EM reuses
    source_words = [NULL_WORD] + source_vocab if null_word else source_vocab
    source_ids = {e: i for i, e in enumerate(source_words)}
    target_ids = {f: j for j, f in enumerate(target_vocab)}
    ids: list[dict[int, int]] = [{} for _ in source_words]
    cell_source, cell_target = array("I"), array("I")
    counts = array("d")
    totals = [0.0] * len(source_words)
    uniform = 1.0 / len(target_vocab)
    pairs: list[tuple[list[int], int]] = []  # each pair's source ids and number of links
    links = array("I")
    for pair in corpus:
        sources = [source_ids[e] for e in _source_side(pair, null_word)]
        targets = [target_ids[f] for f in pair[1]]
        delta = uniform / sum([uniform] * len(sources))
        columns = []
        for e in sources:
            cell_of, column = ids[e], []
            for f in targets:
                k = cell_of.get(f)
                if k is None:
                    k = cell_of[f] = len(counts)
                    cell_source.append(e)
                    cell_target.append(f)
                    counts.append(delta)
                else:
                    counts[k] += delta
                totals[e] += delta
                column.append(k)
            columns.append(column)
        links.extend(chain.from_iterable(zip(*columns)))
        pairs.append((sources, len(sources) * len(targets)))
    del ids, source_ids, target_ids  # the cell id ints die here, before t exists
    cell_e = list(map(source_words.__getitem__, cell_source))  # the vocabularies' own word objects
    cell_f = list(map(target_vocab.__getitem__, cell_target))
    del cell_target

    for iteration in range(iterations):
        if iteration:  # E-step: distribute each target word's count over its candidates
            counts = array("d", [0.0]) * len(cell_source)
            totals = [0.0] * len(source_words)
            cells = iter(links)
            for sources, size in pairs:
                for row in zip(*[islice(cells, size)] * len(sources)):
                    ps = [t[k] for k in row]
                    z = sum(ps)
                    for k, e, p in zip(row, sources, ps):
                        delta = p / z
                        counts[k] += delta
                        totals[e] += delta
            del t  # the old t gone before the M-step builds the new, so that two never coexist
        # M-step: renormalize per source word
        t = list(map(truediv, counts, map(totals.__getitem__, cell_source)))
        del counts
    return TranslationTable(cell_e, cell_f, t, null_word, settings)


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


def _by_count(phrases: Iterable[PhrasePair]) -> list[PhrasePair]:
    """The phrase pairs in (-count, source, target) order, by two C-level
    sorts and no key tuple: natural (source, target, count) order first,
    then a stable sort by descending count, which keeps that order among
    equal counts."""
    ordered = sorted(phrases)
    ordered.sort(key=itemgetter(2), reverse=True)
    return ordered


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
                    if first < j1:  # the span grows left over [first, j1)
                        for a in alignment[first:j1]:
                            if a is not None:
                                if a < low:
                                    low = a
                                if a > high:
                                    high = a
                        j1 = first
                    if last > j2:  # and right over (j2, last]
                        for a in alignment[j2 + 1:last + 1]:
                            if a is not None:
                                if a < low:
                                    low = a
                                if a > high:
                                    high = a
                        j2 = last
                elif j2 < 0:
                    continue
                if low < i1 or j2 - j1 >= max_len:
                    break  # low only falls, and the target span only grows, from here
                if high > i2:
                    continue
                source_text = " ".join(src[i1:i2 + 1])
                if (j1 == 0 or alignment[j1 - 1] is not None) and (j2 + 1 == len(tgt) or alignment[j2 + 1] is not None):
                    # no unaligned word on either side to grow over: the one box is [j1, j2]
                    counts[(source_text, " ".join(tgt[j1:j2 + 1]))] += 1
                    continue
                for lo in range(j1, max(-1, j2 - max_len), -1):
                    if lo != j1 and alignment[lo] is not None:
                        break
                    for hi in range(j2, min(len(tgt), lo + max_len)):
                        if hi != j2 and alignment[hi] is not None:
                            break
                        counts[(source_text, " ".join(tgt[lo:hi + 1]))] += 1
    return _by_count(PhrasePair(s, t, c) for (s, t), c in counts.items())


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
    ordered = _by_count(phrases)
    lex, _ = build_lexicon(((p.source, p.target) for p in ordered if p.count >= min_count), settings)
    return lex


def save_table(table: TranslationTable, path: str) -> None:
    """Write the table, one 'source TAB target TAB probability' per line,
    refusing before writing row lists of unequal length, or a word or a
    value `load_table` would refuse."""
    if not len(table.sources) == len(table.targets) == len(table.values):
        raise ValueError(f"row lists differ in length: {len(table.sources)} sources, "
                         f"{len(table.targets)} targets, {len(table.values)} values")
    # one check over the distinct words of each column and one over the values (a zero
    # of either sign fails it too); the rows are searched only on failure
    if (any("" in words or field_fault(" ".join(words)) for words in (set(table.sources), set(table.targets)))
            or not all(0.0 < p <= 1.0 for p in table.values)):
        for row, (e, f, p) in enumerate(zip(table.sources, table.targets, table.values), start=1):
            for side, word in (("source", e), ("target", f)):
                if why := field_fault(word) if word else "is empty":
                    raise ValueError(f"row {row}: {side} word {word!r} {why}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"row {row}: probability {p} outside [0, 1]")
            if math.copysign(1.0, p) < 0.0:
                raise ValueError(f"row {row}: probability {p} is a negative zero")
    rows = (f"{e}\t{f}\t{p:.12g}" for e, f, p in zip(table.sources, table.targets, table.values))
    write_artifact(path, "ibm1", {"null": table.null_word, "lowercase": table.settings.lowercase}, rows)


def load_table(path: str) -> TranslationTable:
    """Load a table, refusing a row `save_table` would not write, a duplicate
    entry, and a source whose rows do not sum to 1.

    Each chunk of `_CHUNK` lines is checked by columns (`_columns`); only
    one that fails goes through the per-row loop (`_add_rows`), the exact
    path. Words are interned (one shared str per distinct word), and the
    target-keyed lookup built in the same pass is the table's `by_target`.
    """
    (null_word, lowercase), lines = read_artifact(path, "ibm1", {"null": bool, "lowercase": bool})
    by_target: dict[str, dict[str, float]] = {}
    sources: list[str] = []
    targets: list[str] = []
    values: list[float] = []
    sums: dict[str, float] = {}
    lineno = 2
    while chunk := list(islice(lines, _CHUNK)):
        if (columns := _columns(chunk)) is None:
            _add_rows(enumerate(chunk, start=lineno), by_target, sums, sources, targets, values)
        else:
            for at, e, f, p in zip(count(lineno), *columns):
                row = by_target.get(f)
                if row is None:
                    row = by_target[f] = {}
                elif e in row:
                    raise FormatError(f"line {at}: duplicate entry for ({e!r}, {f!r})")
                row[e] = p
                sums[e] = sums.get(e, 0.0) + p
            sources += columns[0]
            targets += columns[1]
            values += columns[2]
        lineno += len(chunk)
    for e, total in sums.items():
        if abs(total - 1.0) > 1e-9:
            raise FormatError(f"line {sources.index(e) + 2}: probabilities of source {e!r} sum to {total:.12g}, not 1")
    table = TranslationTable(sources, targets, values, null_word, NormSettings(lowercase))
    table.by_target = by_target
    return table


def _columns(lines: list[str]) -> tuple[list[str], list[str], list[float]] | None:
    """The interned source words, interned target words and probabilities of
    `lines`, by C-level passes over whole columns; None unless every line is a
    row `save_table` writes: three fields, words neither empty nor holding a
    CR, a probability in [0, 1] written as %.12g writes it.

    Each line ends with an LF in the text split on TABs, so the fields that
    hold one are the lines' last fields. The form check compares the third
    column with one LF-ended %.12g per probability, so it passes only if
    those are exactly the third fields, and every line has three.
    """
    text = "\n\t".join(lines) + "\n"
    if "\r" in text:
        return None
    fields = text.split("\t")
    del text
    if len(fields) != 3 * len(lines):
        return None
    sources, targets, texts = fields[0::3], fields[1::3], fields[2::3]
    try:
        ps = list(map(float, texts))
    except ValueError:
        return None
    # a sign sorts below "0"; 1.0 >= p is false above 1 and for nan
    if ("" in sources or "" in targets or min(texts) < "0" or not all(map((1.0).__ge__, ps))
            or ("%.12g\n" * len(ps)) % tuple(ps) != "".join(texts)):
        return None
    return list(map(intern, sources)), list(map(intern, targets)), ps


def _add_rows(rows: Iterable[tuple[int, str]], by_target: dict[str, dict[str, float]], sums: dict[str, float],
              sources: list[str], targets: list[str], values: list[float]) -> None:
    """Check and add the numbered `rows` one at a time, raising FormatError at the first bad one.

    Each word is checked, not empty and no CR, on the first line that holds it."""
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
        f = intern(f)
        row = by_target.get(f)
        if row is None:
            if not f or "\r" in f:
                raise FormatError(f"line {lineno}: target word {f!r} is empty or holds a CR")
            row = by_target[f] = {}
        elif e in row:
            raise FormatError(f"line {lineno}: duplicate entry for ({e!r}, {f!r})")
        # save_table writes %.12g of a value in [0, 1], so never a sign
        if p_text[0] == "-" or "%.12g" % p != p_text:
            raise FormatError(f"line {lineno}: probability {p_text!r} is not in save_table's form (%.12g, no sign)")
        e = intern(e)
        total = sums.get(e)
        if total is None and (not e or "\r" in e):
            raise FormatError(f"line {lineno}: source word {e!r} is empty or holds a CR")
        row[e] = p
        sources.append(e)
        targets.append(f)
        values.append(p)
        sums[e] = (total or 0.0) + p
