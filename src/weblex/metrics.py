"""Corpus-level translation quality metrics.

Implements 4-gram BLEU with a brevity penalty and no smoothing (any
zero n-gram precision zeroes the score), the character n-gram F-score
(beta favouring recall), and a character-edit-rate proxy (plain
Levenshtein distance over characters divided by reference length;
reported as "charER-proxy" because it does not model word shifts).
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
first time it is seen.
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


def _check_pairs(pairs: Sequence[EvalPair]) -> None:
    if not pairs:
        raise ValueError("need at least one hypothesis/reference pair")
    for idx, (_, ref) in enumerate(pairs, start=1):
        if not ref.strip():
            raise ValueError(f"pair {idx}: empty reference")


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


def _ngram_statistics(
    unit_pairs: Iterable[tuple[list, list]], max_order: int
) -> tuple[list[int], list[int], list[int]]:
    """Clipped n-gram matches, hypothesis totals and reference totals for
    n = 1..max_order, summed over (hypothesis, reference) pairs, each
    side given as its list of 1-grams (characters, or 1-tuples of tokens).
    """
    matches = [0] * max_order
    hyp_totals = [0] * max_order
    ref_totals = [0] * max_order
    for hyp, ref in unit_pairs:
        hyp_counts, hyp_sizes = _ngram_counts(hyp, max_order)
        ref_counts, ref_sizes = _ngram_counts(ref, max_order)
        ref_count = ref_counts.get
        for gram, count in hyp_counts.items():
            other = ref_count(gram)
            if other:
                matches[len(gram) - 1] += count if count < other else other
        hyp_totals = list(map(add, hyp_totals, hyp_sizes))
        ref_totals = list(map(add, ref_totals, ref_sizes))
    return matches, hyp_totals, ref_totals


def bleu_statistics(
    pairs: Sequence[EvalPair], mode: str = "null"
) -> tuple[list[int], list[int], int, int]:
    """Sufficient statistics for corpus BLEU.

    Returns (clipped match counts, total counts) for n = 1..4 plus the
    cumulative hypothesis and reference token lengths (the order-1 totals).
    """
    _check_pairs(pairs)
    token_pairs = (
        (list(zip(tokenize_line(hyp, mode))), list(zip(tokenize_line(ref, mode)))) for hyp, ref in pairs
    )
    matches, hyp_totals, ref_totals = _ngram_statistics(token_pairs, BLEU_ORDER)
    return matches, hyp_totals, hyp_totals[0], ref_totals[0]


def bleu(pairs: Sequence[EvalPair], mode: str = "null") -> float:
    """Corpus BLEU in [0, 100]: geometric mean of the modified n-gram
    precisions times the brevity penalty; 0 if any precision is 0.

    Orders for which the hypotheses contain no n-grams at all (short
    corpora) are left out of the mean instead of zeroing the score.
    """
    correct, total, hyp_len, ref_len = bleu_statistics(pairs, mode)
    if hyp_len == 0:
        return 0.0
    orders = [i for i in range(BLEU_ORDER) if total[i] > 0]
    if any(correct[i] == 0 for i in orders):
        return 0.0
    log_precision = sum(math.log(correct[i] / total[i]) for i in orders) / len(orders)
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def chrf(pairs: Sequence[EvalPair], max_order: int = CHRF_ORDER, beta: float = CHRF_BETA) -> float:
    """Character n-gram F-score in [0, 100] over space-stripped text.

    Precision and recall are averaged over n = 1..max_order with
    corpus-aggregated counts; orders for which the references contain no
    n-grams are left out of the average. Refuses max_order < 1.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _check_pairs(pairs)
    char_pairs = ((list(hyp.replace(" ", "")), list(ref.replace(" ", ""))) for hyp, ref in pairs)
    matches, hyp_totals, ref_totals = _ngram_statistics(char_pairs, max_order)
    orders = [i for i in range(max_order) if ref_totals[i] > 0]
    precision = sum(matches[i] / hyp_totals[i] if hyp_totals[i] else 0.0 for i in orders) / len(orders)
    recall = sum(matches[i] / ref_totals[i] for i in orders) / len(orders)
    if precision + recall == 0.0:
        return 0.0
    beta_sq = beta * beta
    return 100.0 * (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


_LANES = 16  # pairs per block in `_distances`; 12-24 ran as fast, and fewer lanes hold fewer masks


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
    _check_pairs(pairs)
    distance = sum(_distances(pairs))
    ref_chars = sum(len(ref) for _, ref in pairs)
    return distance / ref_chars


def char_edit_rates(pairs: Sequence[EvalPair]) -> list[float]:
    """Per-pair variant of char_edit_rate."""
    _check_pairs(pairs)
    return [distance / len(ref) for distance, (_, ref) in zip(_distances(pairs), pairs)]
