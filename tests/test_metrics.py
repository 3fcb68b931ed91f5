import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from helpers import bleu_oracle, bleu_statistics_oracle, chrf_oracle, intl_tokens_oracle, levenshtein_matrix
from weblex.metrics import (
    _LANES,
    _distances,
    bleu,
    bleu_statistics,
    char_edit_rate,
    char_edit_rates,
    chrf,
    levenshtein,
    tokenize_line,
)

# frozen oracle values (computed with the brute-force counters in helpers
# style scripts; see the derivations next to each test)
BLEU_ABCDE = 66.8740304976422  # p=(4/5)(3/4)(2/3)(1/2), BP=1 -> 100*0.2**0.25
CHRF_ABCD_ABCE = 47.916666666666664  # P=R=(3/4+2/3+1/2+0)/4 = 23/48


def test_bleu_identical_is_100():
    pairs = [("un ɖo ganji", "un ɖo ganji"), ("a b c d", "a b c d")]
    assert bleu(pairs, "null") == pytest.approx(100.0)
    assert bleu(pairs, "intl") == pytest.approx(100.0)


def test_bleu_identical_short_corpus_is_100():
    # no 4-grams exist anywhere: that order drops out instead of zeroing
    assert bleu([("un ɖo ganji", "un ɖo ganji")]) == pytest.approx(100.0)


def test_bleu_disjoint_is_0():
    assert bleu([("aa bb", "cc dd")]) == 0.0


def test_bleu_clipping_zeroes_score():
    # clipped unigrams: 1 of 3; no bigram matches -> strict BLEU is 0
    pairs = [("the the the", "the cat")]
    correct, total, hyp_len, ref_len = bleu_statistics(pairs)
    assert correct == [1, 0, 0, 0]
    assert total == [3, 2, 1, 0]
    assert (hyp_len, ref_len) == (3, 2)
    assert bleu(pairs) == 0.0


def test_bleu_matches_frozen_hand_value():
    assert bleu([("a b c d e", "a b c d f")]) == pytest.approx(BLEU_ABCDE, abs=1e-6)


def test_bleu_brevity_penalty():
    # hyp 4 tokens sharing a 4-gram with a 5-token ref: precisions 1, BP=exp(1-5/4)
    import math
    value = bleu([("a b c d", "a b c d e")])
    assert value == pytest.approx(100.0 * math.exp(1 - 5 / 4), abs=1e-9)


def test_bleu_intl_isolates_punctuation():
    assert tokenize_line("un ɖo, ganji!", "intl") == ["un", "ɖo", ",", "ganji", "!"]
    assert tokenize_line("un ɖo, ganji!", "null") == ["un", "ɖo,", "ganji!"]
    assert bleu([("un ɖo , ganji !", "un ɖo, ganji!")], "intl") == pytest.approx(100.0)


@pytest.mark.parametrize("text, tokens", [
    ("«un»,ɖo!?", ["«", "un", "»", ",", "ɖo", "!", "?"]),  # punctuation run
    ("$5+€3 ~a", ["$", "5", "+", "€", "3", "~", "a"]),  # symbol run
    ("a😀b", ["a", "😀", "b"]),  # astral symbol, category So
    ("ɖo!\u0301", ["ɖo", "!", "\u0301"]),  # combining mark after punctuation
    ("a\ud800b", ["a\ud800b"]),  # lone surrogate, category Cs, stays in its word
])
def test_intl_split_named_cases(text, tokens):
    assert intl_tokens_oracle(text) == tokens
    assert tokenize_line(text, "intl") == tokens


@given(st.text())
@example("\ud800!\ud800")
def test_intl_split_matches_per_character_oracle(text):
    # twice: the second call reads the entries the first stored
    assert tokenize_line(text, "intl") == intl_tokens_oracle(text)
    assert tokenize_line(text, "intl") == intl_tokens_oracle(text)


def test_bleu_rejects_empty_input():
    with pytest.raises(ValueError):
        bleu([])


def test_chrf_identical_is_100():
    assert chrf([("abcdef", "abcdef")]) == pytest.approx(100.0)


def test_chrf_disjoint_is_0():
    assert chrf([("aaaa", "bbbb")]) == 0.0


def test_chrf_matches_frozen_hand_value():
    assert chrf([("abcd", "abce")]) == pytest.approx(CHRF_ABCD_ABCE, abs=1e-6)


@pytest.mark.parametrize("max_order", [0, -1])
def test_chrf_refuses_max_order_below_one(max_order):
    with pytest.raises(ValueError, match="max_order must be >= 1"):
        chrf([("ab", "ab")], max_order)


def test_chrf_skips_orders_without_reference_ngrams():
    # 2-char reference: orders 3..6 have no reference n-grams
    assert chrf([("ab", "ab")]) == pytest.approx(100.0)


def test_chrf_strips_spaces():
    assert chrf([("a b c d", "abcd")]) == pytest.approx(100.0)


def test_char_edit_rate_identical_is_0():
    assert char_edit_rate([("abc", "abc")]) == 0.0


def test_char_edit_rate_one_substitution():
    assert char_edit_rate([("abd", "abc")]) == pytest.approx(1 / 3)


def test_char_edit_rate_empty_hypothesis():
    assert char_edit_rate([("", "ab")]) == pytest.approx(1.0)


def test_char_edit_rate_rejects_empty_reference():
    with pytest.raises(ValueError, match="reference"):
        char_edit_rate([("abc", "")])


def test_char_edit_rates_per_pair():
    rates = char_edit_rates([("abd", "abc"), ("xy", "xy")])
    assert rates == [pytest.approx(1 / 3), 0.0]


def test_levenshtein_matches_quadratic_reference():
    rng = random.Random(123123)
    alphabet = "abɖɛ "
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert levenshtein(a, b) == levenshtein_matrix(a, b)


# precomposed tone letters, combining grave/acute and an astral character
FON_CHARS = "aeɖɛɔéǹ\u0300\u0301\U0001F600"
# 64 is one machine word; the bit vectors must stay exact on both sides of it
BOUNDARY_LENGTHS = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200]


def _assert_levenshtein_matches_matrix(a, b):
    expected = levenshtein_matrix(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


def test_levenshtein_bit_vectors_match_matrix_across_word_boundaries():
    rng = random.Random(20260418)
    for la in BOUNDARY_LENGTHS:
        for lb in BOUNDARY_LENGTHS:
            alphabet = FON_CHARS[:rng.randint(1, len(FON_CHARS))]
            a = "".join(rng.choice(alphabet) for _ in range(la))
            b = "".join(rng.choice(alphabet) for _ in range(lb))
            _assert_levenshtein_matches_matrix(a, b)
    for _ in range(60):
        alphabet = FON_CHARS[:rng.randint(1, len(FON_CHARS))]
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
        # a mutated copy keeps the distance small, so long runs of matches occur
        b = list(a)
        for _ in range(rng.randint(0, 10)):
            op, pos = rng.randrange(3), rng.randint(0, len(b))
            if op == 0:
                b.insert(pos, rng.choice(FON_CHARS))
            elif b and pos < len(b):
                if op == 1:
                    del b[pos]
                else:
                    b[pos] = rng.choice(FON_CHARS)
        _assert_levenshtein_matches_matrix(a, "".join(b))


def test_levenshtein_bit_vectors_on_token_lists():
    rng = random.Random(77)
    words = ["un", "ɖo", "ganji", "mɛ", "wa", "ɔ̀", "ǹ"]
    for length in BOUNDARY_LENGTHS:
        a = [rng.choice(words) for _ in range(length)]
        b = [rng.choice(words) for _ in range(rng.randint(0, 130))]
        _assert_levenshtein_matches_matrix(a, b)


def test_levenshtein_refuses_unhashable_items():
    with pytest.raises(TypeError):
        levenshtein([["un"], ["ɖo"]], [["un"]])
    # in the last lane of a second block, on the longer side only
    with pytest.raises(TypeError):
        _distances([("ab", "a")] * _LANES + [([["un"], ["ɖo"]], ["un"])])


@given(
    st.text(alphabet=FON_CHARS, max_size=150),
    st.text(alphabet=FON_CHARS, max_size=150),
)
def test_levenshtein_property_matches_matrix(a, b):
    _assert_levenshtein_matches_matrix(a, b)


@given(
    st.lists(st.sampled_from(["un", "ɖo", "ganji", "ǹ"]), max_size=80),
    st.lists(st.sampled_from(["un", "ɖo", "ganji", "ǹ"]), max_size=80),
)
def test_levenshtein_property_matches_matrix_on_token_lists(a, b):
    _assert_levenshtein_matches_matrix(a, b)


# one block short, one full, one over, and two full blocks plus one lane
_LANE_COUNTS = [_LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1]
_LANE_TOKENS = ["un", "ɖo", "ganji", "mɛ", "ǹ", "ɔ\u0300"]


# the corpus is drawn from a seed, which shrinking cannot simplify, and
# each try runs the quadratic oracle on up to 50 pairs: report it as drawn
@settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    st.sampled_from(_LANE_COUNTS),
    st.one_of(st.integers(1, len(FON_CHARS)).map(lambda n: FON_CHARS[:n]), st.just(_LANE_TOKENS)),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_lanes_match_matrix_pair_by_pair_and_summed(count, units, wide, seed):
    rng = random.Random(seed)

    def side(lengths):
        items = [rng.choice(units) for _ in range(rng.choice(lengths))]
        return items if units is _LANE_TOKENS else "".join(items)

    # hypotheses of any boundary length (so longer, shorter or empty), references never empty
    pairs = [(side(BOUNDARY_LENGTHS), side(BOUNDARY_LENGTHS[1:])) for _ in range(count)]
    if wide:  # a 1,000-vs-1 pair needs the widest tally of any lane
        pairs.insert(rng.randrange(count), rng.choice([(side([1000]), side([1])), (side([1]), side([1000]))]))
    expected = [levenshtein_matrix(hyp, ref) for hyp, ref in pairs]
    assert _distances(pairs) == expected
    if units is not _LANE_TOKENS:
        assert char_edit_rates(pairs) == [distance / len(ref) for distance, (_, ref) in zip(expected, pairs)]
        assert char_edit_rate(pairs) == sum(expected) / sum(len(ref) for _, ref in pairs)


def _random_text(rng, alphabet, max_len):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def test_chrf_equals_oracle_exactly():
    rng = random.Random(9090)
    alphabet = "abɖɛé  "
    for trial in range(300):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            # short references leave the high orders without n-grams
            ref = _random_text(rng, alphabet, rng.choice([5, 12, 40])).strip() or rng.choice("abɖ")
            hyp = "" if rng.random() < 0.2 else _random_text(rng, alphabet, 40)
            pairs.append((hyp, ref))
        max_order = trial % 8 + 1
        beta = rng.choice([0.5, 1.0, 2.0, 3.0])
        assert chrf(pairs, max_order, beta) == chrf_oracle(pairs, max_order, beta)
    assert chrf(pairs) == chrf_oracle(pairs)


def test_chrf_equals_oracle_on_empty_hypotheses_and_short_references():
    for pairs in (
        [("", "ab")],
        [("", "abɖɛé"), ("", "a")],
        [("ab", "a"), ("abc", "ab c")],
        [("aaaaaa", "aaa")],
    ):
        for max_order in range(1, 9):
            for beta in (1.0, 2.0, 0.25):
                assert chrf(pairs, max_order, beta) == chrf_oracle(pairs, max_order, beta)


def _assert_bleu_equals_oracle(pairs):
    for mode in ("null", "intl"):
        assert bleu_statistics(pairs, mode) == bleu_statistics_oracle(pairs, mode)
        assert bleu(pairs, mode) == bleu_oracle(pairs, mode)


def test_bleu_equals_oracle_on_seeded_corpora():
    rng = random.Random(20261018)
    # few distinct words make repeated n-grams, so clipping is exercised
    words = ["un", "ɖo", "ganji", "mɛ", "wa", "a,", "b.c", "(é)", "!"]
    for _ in range(300):
        vocab = words[:rng.randint(2, len(words))]
        pairs = []
        for _ in range(rng.randint(1, 6)):
            hyp = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 14)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 14)))
            pairs.append((hyp, ref))
        _assert_bleu_equals_oracle(pairs)


def test_bleu_equals_oracle_on_edge_cases():
    for pairs in (
        [("", "un ɖo")],  # empty hypothesis
        [("", "a b c d e"), ("", "a")],  # all hypotheses empty
        [("un", "un ɖo ganji mɛ"), ("un ɖo", "un ɖo")],  # shorter than 4 tokens
        [("a b c", "a b c")],  # no 4-grams anywhere
        [("the the the the the", "the cat the")],  # clipping
        [("a b a b a b a b", "a b a b c")],  # clipping on every order
        [("«un»,ɖo!?", "« un » , ɖo ! ?"), ("(a)[b]{c}", "( a ) [ b ] { c }")],  # punctuation runs
        [("...", "…"), ("$5.00+€3", "$ 5 . 00 + € 3")],  # punctuation and symbols
    ):
        _assert_bleu_equals_oracle(pairs)


# any code point, plus astral symbols, decomposed tone marks, spaces and
# punctuation often enough to make repeats; short texts leave the high
# orders without n-grams
_METRIC_TEXT = st.lists(
    st.one_of(st.characters(), st.sampled_from(["a", "ɖ", "e\u0300", "\u0301", "😀", "!", " "])),
    max_size=24,
).map("".join)


@given(
    st.lists(st.tuples(_METRIC_TEXT, _METRIC_TEXT.filter(str.strip)), min_size=1, max_size=4),
    st.integers(1, 8),
    st.sampled_from([0.5, 1.0, 2.0]),
)
@example([("😀e\u0300", "😀e\u0300!")], 8, 2.0)
def test_chained_ngrams_match_oracles_on_any_text(pairs, max_order, beta):
    assert chrf(pairs, max_order, beta) == chrf_oracle(pairs, max_order, beta)
    _assert_bleu_equals_oracle(pairs)


def test_levenshtein_symmetric():
    rng = random.Random(321321)
    for _ in range(200):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
        assert levenshtein(a, b) == levenshtein(b, a)


def test_scores_within_bounds():
    rng = random.Random(55)
    words = ["un", "ɖo", "ganji", "mɛ", "wa"]
    for _ in range(100):
        hyp = " ".join(rng.choice(words) for _ in range(rng.randint(0, 6)))
        ref = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
        pairs = [(hyp, ref)]
        assert 0.0 <= bleu(pairs) <= 100.0
        assert 0.0 <= chrf(pairs) <= 100.0
        assert char_edit_rate(pairs) >= 0.0


def test_perfect_pair_never_hurts():
    rng = random.Random(56)
    words = ["un", "ɖo", "ganji", "mɛ", "wa"]
    for _ in range(100):
        base = [
            (
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 6))),
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 6))),
            )
            for _ in range(rng.randint(1, 4))
        ]
        perfect = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
        extended = base + [(perfect, perfect)]
        assert bleu(extended) >= bleu(base) - 1e-9
        assert chrf(extended) >= chrf(base) - 1e-9
        assert char_edit_rate(extended) <= char_edit_rate(base) + 1e-12


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        tokenize_line("x", "13a")
