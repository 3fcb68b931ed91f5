"""Corpus-level translation quality metrics.

Implements 4-gram BLEU with a brevity penalty and no smoothing (any
zero n-gram precision zeroes the score), the character n-gram F-score
(beta favouring recall), and a character-edit-rate proxy (plain
Levenshtein distance over characters divided by reference length;
reported as "charER-proxy" because it does not model word shifts).
Every requested metric is scored in one pass over the pairs, which may
be a stream: each pair adds its integer statistics to each metric's
sums (n-gram matches and totals, or distance and reference length), and
each score is one float formula over those sums, so a metric scored
alone or with others gives the same float.
BLEU (over token tuples) and chrF (over space-stripped strings) share
one n-gram counter that counts each side of a pair once for all orders.
Each side arrives as its list of 1-grams (1-tuples of tokens, or
characters), and order n+1 is built by concatenating each n-gram with
the unit that follows it, so no n-gram is sliced out of the sequence.
The distance is exact and bit-parallel (Myers 1999, in Hyyrö's 2003
formulation), with many pairs packed side by side in one int (Hyyrö,
Fredriksson and Navarro 2005): pairs run in blocks of `_LANES`, each
pair a lane of its shorter side's bits plus zero guard bits that stop
the add's carry and hold the lane's tally, and one fixed run of int
operations advances every lane of a block by one character.

Hypothesis/reference token streams come in two splitting modes:
"null" splits on whitespace only, "intl" first isolates every Unicode
punctuation and symbol character as its own token, through one
`str.translate` whose table learns each code point's replacement the
first time it is seen. A side with no such character translates to
itself, so its intl n-gram counts are its null ones and are not counted
again; when both sides of a pair are such, its null statistics are its
intl ones too.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from itertools import chain, islice, repeat, zip_longest
from operator import add
from typing import Iterable, Sequence

EvalPair = tuple[str, str]  # (hypothesis, reference)

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0


class _IsolateTable(dict):
    """`str.translate` table for the "intl" split: a punctuation or
    symbol character maps to itself between spaces, any other to itself.
    Each entry is stored the first time its code point is looked up, so
    the table holds one entry per distinct code point ever translated:
    its size is bounded by the input's alphabet, not its length. No
    value is None, which would delete the character.
    """

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        self[code] = value = f" {ch} " if unicodedata.category(ch)[0] in ("P", "S") else ch
        return value


_ISOLATE = _IsolateTable()


def tokenize_line(text: str, mode: str = "null") -> list[str]:
    """Split one line into metric tokens. Modes: "null", "intl"."""
    if mode == "intl":
        text = text.translate(_ISOLATE)
    elif mode != "null":
        raise ValueError(f"unknown tokenize mode {mode!r} (expected 'null' or 'intl')")
    return text.split()


def _ngram_counts(units: list, max_order: int) -> tuple[Counter, list[int]]:
    """Counts of every n-gram of `units` for n = 1..max_order in one
    Counter, and the number of n-grams of each order. Order n+1 is each
    n-gram concatenated with the unit after it, so the keys equal the
    slices of the joined sequence (str or tuple), and a key's length is
    its order.
    """
    grams = units
    orders = [grams]
    for n in range(1, max_order):
        grams = list(map(add, grams[:-1], units[n:]))
        orders.append(grams)
    return Counter(chain.from_iterable(orders)), [len(grams) for grams in orders]


def _pair_statistics(hyp: tuple[Counter, list[int]], ref: tuple[Counter, list[int]]) -> list[int]:
    """One pair's clipped n-gram matches, hypothesis totals and reference
    totals per order, in one list, each side given as `_ngram_counts` gives it."""
    (hyp_counts, hyp_sizes), (ref_counts, ref_sizes) = hyp, ref
    matches = [0] * len(hyp_sizes)
    ref_count = ref_counts.get
    for gram, count in hyp_counts.items():
        other = ref_count(gram)
        if other:
            matches[len(gram) - 1] += count if count < other else other
    return matches + hyp_sizes + ref_sizes


def _statistics(pairs: Iterable[EvalPair], names: Sequence[str], chrf_order: int = CHRF_ORDER) -> dict:
    """The integer statistics of each metric of `names`, summed over `pairs`
    in one pass: for BLEU and chrF the clipped matches, hypothesis totals
    and reference totals of each order in one list (see `_thirds`), for
    charER the distance and the reference length. charER's pairs go to
    `_distances` `_WINDOW` at a time. A side that the intl split leaves
    as it was keeps its null n-gram counts, and a pair whose sides both
    do keeps its null statistics. An empty `pairs` is refused, and so is
    the first empty reference, but only after the last pair, so a fault
    that reading `pairs` raises comes first.
    """
    sizes = {"bleu-null": 3 * BLEU_ORDER, "bleu-intl": 3 * BLEU_ORDER, "chrf": 3 * chrf_order, "charer": 2}
    sums = {name: [0] * sizes[name] for name in names}
    splits = [(sums[name], table) for name, table in (("bleu-null", None), ("bleu-intl", _ISOLATE)) if name in sums]
    char_f, char_er = sums.get("chrf"), sums.get("charer")
    window: list[EvalPair] = []
    count = empty = 0
    for count, (hyp, ref) in enumerate(pairs, start=1):
        if not (empty or ref.strip()):
            empty = count
        texts = sides = (None, None)  # the first split counts both sides, a later one only a side it changes
        for stats, table in splits:
            split = (hyp, ref) if table is None else (hyp.translate(table), ref.translate(table))
            if split != texts:
                sides = [side if text == old else _ngram_counts(list(zip(text.split())), BLEU_ORDER)
                         for text, old, side in zip(split, texts, sides)]
                pair, texts = _pair_statistics(*sides), split
            stats[:] = map(add, stats, pair)
        if char_f is not None:
            pair = _pair_statistics(*(_ngram_counts(list(text.replace(" ", "")), chrf_order) for text in (hyp, ref)))
            char_f[:] = map(add, char_f, pair)
        if char_er is not None:
            window.append((hyp, ref))
            char_er[1] += len(ref)
            if len(window) == _WINDOW:
                char_er[0] += sum(_distances(window))
                window.clear()
    if char_er is not None:
        char_er[0] += sum(_distances(window))
    if not count:
        raise ValueError("need at least one hypothesis/reference pair")
    if empty:
        raise ValueError(f"pair {empty}: empty reference")
    return sums


def _thirds(stats: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The clipped matches, hypothesis totals and reference totals per order of an n-gram metric's statistics."""
    n = len(stats) // 3
    return stats[:n], stats[n:2 * n], stats[2 * n:]


def _bleu_score(stats: list[int]) -> float:
    correct, total, ref_totals = _thirds(stats)
    hyp_len, ref_len = total[0], ref_totals[0]
    if hyp_len == 0:
        return 0.0
    orders = [i for i in range(BLEU_ORDER) if total[i] > 0]
    if any(correct[i] == 0 for i in orders):
        return 0.0
    log_precision = sum(math.log(correct[i] / total[i]) for i in orders) / len(orders)
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def _chrf_score(stats: list[int], beta: float = CHRF_BETA) -> float:
    matches, hyp_totals, ref_totals = _thirds(stats)
    orders = [i for i in range(len(matches)) if ref_totals[i] > 0]
    precision = sum(matches[i] / hyp_totals[i] if hyp_totals[i] else 0.0 for i in orders) / len(orders)
    recall = sum(matches[i] / ref_totals[i] for i in orders) / len(orders)
    if precision + recall == 0.0:
        return 0.0
    beta_sq = beta * beta
    return 100.0 * (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


_SCORES = {"bleu-null": _bleu_score, "bleu-intl": _bleu_score, "chrf": _chrf_score,
           "charer": lambda stats: stats[0] / stats[1]}


def scores(pairs: Iterable[EvalPair], names: Sequence[str]) -> list[float]:
    """The corpus score of each metric of `names` ("bleu-null", "bleu-intl",
    "chrf" and "charer", each at most once), in order, from one pass over
    `pairs`; the one-metric functions below give the same floats."""
    sums = _statistics(pairs, names)
    return [_SCORES[name](sums[name]) for name in names]


def _bleu_sums(pairs: Iterable[EvalPair], mode: str) -> list[int]:
    tokenize_line("", mode)  # refuses an unknown mode
    return _statistics(pairs, [f"bleu-{mode}"])[f"bleu-{mode}"]


def bleu_statistics(
    pairs: Sequence[EvalPair], mode: str = "null"
) -> tuple[list[int], list[int], int, int]:
    """Sufficient statistics for corpus BLEU.

    Returns (clipped match counts, total counts) for n = 1..4 plus the
    cumulative hypothesis and reference token lengths (the order-1 totals).
    """
    correct, total, ref_totals = _thirds(_bleu_sums(pairs, mode))
    return correct, total, total[0], ref_totals[0]


def bleu(pairs: Sequence[EvalPair], mode: str = "null") -> float:
    """Corpus BLEU in [0, 100]: geometric mean of the modified n-gram
    precisions times the brevity penalty; 0 if any precision is 0.

    Orders for which the hypotheses contain no n-grams at all (short
    corpora) are left out of the mean instead of zeroing the score.
    """
    return _bleu_score(_bleu_sums(pairs, mode))


def chrf(pairs: Sequence[EvalPair], max_order: int = CHRF_ORDER, beta: float = CHRF_BETA) -> float:
    """Character n-gram F-score in [0, 100] over space-stripped text.

    Precision and recall are averaged over n = 1..max_order with
    corpus-aggregated counts; orders for which the references contain no
    n-grams are left out of the average. Refuses max_order < 1.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return _chrf_score(_statistics(pairs, ["chrf"], max_order)["chrf"], beta)


_LANES = 16  # pairs per block in `_distances`; 12-24 ran as fast, and fewer lanes hold fewer masks
_WINDOW = 4 * _LANES  # pairs `_statistics` gives `_distances` at a time


def _distances(pairs: Sequence[tuple[Sequence, Sequence]]) -> list[int]:
    """Exact edit distance of each (a, b) pair, in order.

    Bit-parallel (Myers 1999, in Hyyrö's 2003 formulation), with many
    pairs packed side by side in one int (Hyyrö, Fredriksson and Navarro
    2005). Each pair is a lane: the DP column for the current item of
    its longer side is held as two bit vectors over its shorter side,
    bit j of `pv` (`mv`) set when the cell for item j is one more (one
    less) than the cell above. Pairs are sorted by their longer length
    and run `_LANES` at a time, so one fixed run of int operations
    advances every lane of a block by one item. Above its shorter side's
    bits each lane has `len(longer).bit_length() + 1` zero guard bits.
    They stop the add's carry, so no lane reaches into the next, and
    they hold the lane's tallies of +1 and -1 horizontal deltas, added
    at its top bit until its longer side ends and the top bit leaves
    `active`. The distance is the shorter length plus the +1 tally minus
    the -1 tally; with an empty shorter side it is the longer length.
    """
    distances = [0] * len(pairs)
    order = sorted(range(len(pairs)), key=lambda index: max(map(len, pairs[index])))
    for start in range(0, len(order), _LANES):
        columns, ends, tallies = [], [], []
        mask = bottoms = active = offset = 0
        for index in order[start:start + _LANES]:
            shorter, longer = sorted(pairs[index], key=len)
            if not shorter:
                distances[index] = len(longer)
                continue
            match_masks: dict = {}
            for j, item in enumerate(shorter, offset):
                match_masks[item] = match_masks.get(item, 0) | 1 << j
            columns.append(map(match_masks.get, longer, repeat(0)))
            top = offset + len(shorter) - 1
            mask |= ((1 << len(shorter)) - 1) << offset
            bottoms |= 1 << offset
            active |= 1 << top
            ends.append((len(longer), 1 << top))
            guard = len(longer).bit_length() + 1
            tallies.append((index, len(shorter), top, (1 << guard) - 1))
            offset = top + 1 + guard
        steps = map(sum, zip_longest(*columns, fillvalue=0))
        pv, mv, plus, minus, done = mask, 0, 0, 0, 0
        for end, top in ends:
            for eq in islice(steps, end - done):
                xv = eq | mv
                xh = (((eq & pv) + pv) ^ pv) | eq
                ph = mv | ((xh | pv) ^ mask)
                mh = pv & xh
                plus += ph & active
                minus += mh & active
                ph = (ph << 1 | bottoms) & mask
                mh = (mh << 1) & mask
                pv = mh | ((xv | ph) ^ mask)
                mv = ph & xv
            done = end
            active ^= top
        for index, width, top, tally in tallies:
            distances[index] = width + (plus >> top & tally) - (minus >> top & tally)
    return distances


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance (insert/delete/substitute, unit costs).

    Exact and bit-parallel (Myers 1999): the pair runs as one lane of
    `_distances`, which packs up to `_LANES` pairs side by side in one
    int (Hyyrö, Fredriksson and Navarro 2005), each lane its shorter
    side's bits plus guard bits that stop the add's carry and hold its
    tally. Items must be hashable, since the match masks are keyed by
    item: strings and lists of str work, an unhashable item raises
    TypeError.
    """
    return _distances([(a, b)])[0]


def char_edit_rate(pairs: Sequence[EvalPair]) -> float:
    """Corpus character edit distance over total reference characters."""
    return scores(pairs, ["charer"])[0]


def char_edit_rates(pairs: Sequence[EvalPair]) -> list[float]:
    """Per-pair variant of char_edit_rate."""
    _statistics(pairs, ())  # scores nothing, but refuses as the scoring functions do
    return [distance / len(ref) for distance, (_, ref) in zip(_distances(pairs), pairs)]
