"""Corpus-level translation quality metrics.

Implements 4-gram BLEU with a brevity penalty and no smoothing (any
zero n-gram precision zeroes the score), the character n-gram F-score
(beta favouring recall), and a character-edit-rate proxy (plain
Levenshtein distance over characters divided by reference length;
reported as "charER-proxy" because it does not model word shifts).
BLEU (over token tuples) and chrF (over space-stripped strings) share
one n-gram counter that counts each side of a pair once for all orders.
The distance is exact and bit-parallel (Myers 1999, in Hyyrö's 2003
formulation): one fixed run of int operations per character instead of
one DP cell per character pair.

Hypothesis/reference token streams come in two splitting modes:
"null" splits on whitespace only, "intl" first isolates every Unicode
punctuation and symbol character as its own token.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from typing import Iterable, Sequence

EvalPair = tuple[str, str]  # (hypothesis, reference)

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0


def tokenize_line(text: str, mode: str = "null") -> list[str]:
    """Split one line into metric tokens. Modes: "null", "intl"."""
    if mode == "intl":
        text = "".join(f" {ch} " if unicodedata.category(ch)[0] in ("P", "S") else ch for ch in text)
    elif mode != "null":
        raise ValueError(f"unknown tokenize mode {mode!r} (expected 'null' or 'intl')")
    return text.split()


def _check_pairs(pairs: Sequence[EvalPair]) -> None:
    if not pairs:
        raise ValueError("need at least one hypothesis/reference pair")
    for idx, (_, ref) in enumerate(pairs, start=1):
        if not ref.strip():
            raise ValueError(f"pair {idx}: empty reference")


def _ngram_statistics(
    seq_pairs: Iterable[tuple[Sequence, Sequence]], max_order: int
) -> tuple[list[int], list[int], list[int]]:
    """Clipped n-gram matches, hypothesis totals and reference totals for
    n = 1..max_order, summed over (hypothesis, reference) sequences. Each
    side's n-grams go in one Counter keyed by slices (of a str or a
    tuple), so a key's length is its order.
    """
    matches = [0] * max_order
    hyp_totals = [0] * max_order
    ref_totals = [0] * max_order
    orders = range(1, max_order + 1)
    for hyp, ref in seq_pairs:
        ref_count = Counter(ref[i:i + n] for n in orders for i in range(len(ref) - n + 1)).get
        for gram, count in Counter(hyp[i:i + n] for n in orders for i in range(len(hyp) - n + 1)).items():
            other = ref_count(gram)
            if other:
                matches[len(gram) - 1] += count if count < other else other
        for n in orders:
            hyp_totals[n - 1] += max(len(hyp) - n + 1, 0)
            ref_totals[n - 1] += max(len(ref) - n + 1, 0)
    return matches, hyp_totals, ref_totals


def bleu_statistics(
    pairs: Sequence[EvalPair], mode: str = "null"
) -> tuple[list[int], list[int], int, int]:
    """Sufficient statistics for corpus BLEU.

    Returns (clipped match counts, total counts) for n = 1..4 plus the
    cumulative hypothesis and reference token lengths (the order-1 totals).
    """
    _check_pairs(pairs)
    token_pairs = ((tuple(tokenize_line(hyp, mode)), tuple(tokenize_line(ref, mode))) for hyp, ref in pairs)
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
    n-grams are left out of the average.
    """
    _check_pairs(pairs)
    char_pairs = ((hyp.replace(" ", ""), ref.replace(" ", "")) for hyp, ref in pairs)
    matches, hyp_totals, ref_totals = _ngram_statistics(char_pairs, max_order)
    orders = [i for i in range(max_order) if ref_totals[i] > 0]
    if not orders:
        return 0.0
    precision = sum(matches[i] / hyp_totals[i] if hyp_totals[i] else 0.0 for i in orders) / len(orders)
    recall = sum(matches[i] / ref_totals[i] for i in orders) / len(orders)
    if precision + recall == 0.0:
        return 0.0
    beta_sq = beta * beta
    return 100.0 * (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance (insert/delete/substitute, unit costs).

    Bit-parallel (Myers 1999, in Hyyrö's 2003 formulation). The DP
    column for the current item of the longer sequence is held as two
    bit vectors over the shorter one: bit j of `pv` (`mv`) is set when
    the cell for its item j is one more (one less) than the cell above.
    Each item of the longer sequence advances the column with one fixed
    run of int operations, and the score follows the last cell through
    the horizontal deltas at the top bit. Items must be hashable, since
    the match masks are keyed by item: strings and lists of str work,
    an unhashable item raises TypeError.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match_masks: dict = {}
    for j, item in enumerate(b):
        match_masks[item] = match_masks.get(item, 0) | 1 << j
    mask = (1 << len(b)) - 1
    top = 1 << (len(b) - 1)
    get = match_masks.get
    pv, mv, score = mask, 0, len(b)
    for item in a:
        eq = get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1 | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | ((xv | ph) ^ mask)
        mv = ph & xv
    return score


def char_edit_rate(pairs: Sequence[EvalPair]) -> float:
    """Corpus character edit distance over total reference characters."""
    _check_pairs(pairs)
    distance = sum(levenshtein(hyp, ref) for hyp, ref in pairs)
    ref_chars = sum(len(ref) for _, ref in pairs)
    return distance / ref_chars


def char_edit_rates(pairs: Sequence[EvalPair]) -> list[float]:
    """Per-pair variant of char_edit_rate."""
    _check_pairs(pairs)
    return [levenshtein(hyp, ref) / len(ref) for hyp, ref in pairs]
