import functools
import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import align_best_oracle, consistent_phrases_oracle, em_oracle, ibm1_train_oracle, phb_vocab_oracle
from weblex.cli import run
from weblex import ibm1
from weblex.errors import FormatError
from weblex.ibm1 import (
    NULL_WORD,
    PhrasePair,
    TranslationTable,
    align_best,
    build_phb_vocab,
    extract_phrases,
    load_table,
    log_likelihood,
    save_table,
    train_ibm1,
)
from weblex.textnorm import NormSettings

TOY_CORPUS = [
    (["la", "maison"], ["the", "house"]),
    (["la"], ["the"]),
]


def test_single_pair_single_candidate():
    table = train_ibm1([(["a"], ["x"])], iterations=1, null_word=False)
    assert table.probs[("a", "x")] == pytest.approx(1.0)


def test_toy_corpus_matches_em_oracle_every_iteration():
    for iters in range(1, 11):
        table = train_ibm1(TOY_CORPUS, iterations=iters, null_word=False)
        oracle = em_oracle(TOY_CORPUS, iters, null_word=False)
        for (e, f), p in table.probs.items():
            assert p == pytest.approx(oracle[e][f], abs=1e-12)


def test_toy_corpus_converges():
    table = train_ibm1(TOY_CORPUS, iterations=10, null_word=False)
    assert table.probs[("la", "the")] > 0.9


def _random_corpus(rng, pairs=6):
    src_words = ["s1", "s2", "s3", "s4"]
    tgt_words = ["t1", "t2", "t3", "t4", "t5"]
    corpus = []
    for _ in range(pairs):
        src = [rng.choice(src_words) for _ in range(rng.randint(1, 4))]
        tgt = [rng.choice(tgt_words) for _ in range(rng.randint(1, 4))]
        corpus.append((src, tgt))
    return corpus


def test_probability_mass_after_every_iteration():
    rng = random.Random(1201)
    for null_word in (False, True):
        for trial in range(20):
            corpus = _random_corpus(rng)
            for iters in (1, 2, 5):
                table = train_ibm1(corpus, iterations=iters, null_word=null_word)
                sums = Counter()
                for (e, _), p in table.probs.items():
                    assert 0.0 <= p <= 1.0
                    sums[e] += p
                sources = {e for src, _ in corpus for e in src} | ({NULL_WORD} if null_word else set())
                assert set(sums) == sources
                for e, total in sums.items():
                    assert total == pytest.approx(1.0, abs=1e-9)


def test_log_likelihood_non_decreasing():
    rng = random.Random(77)
    for null_word in (False, True):
        for trial in range(10):
            corpus = _random_corpus(rng)
            previous = None
            for iters in range(1, 8):
                table = train_ibm1(corpus, iterations=iters, null_word=null_word)
                ll = log_likelihood(table, corpus)
                if previous is not None:
                    assert ll >= previous - 1e-12
                previous = ll


def _repetitive_corpus(rng):
    """Short pairs over tiny vocabularies, so words repeat within a side."""
    src_words = ["a", "b", "c"]
    tgt_words = ["x", "y", "z", "w"]
    return [
        ([rng.choice(src_words) for _ in range(rng.randint(1, 6))],
         [rng.choice(tgt_words) for _ in range(rng.randint(1, 6))])
        for _ in range(rng.randint(1, 10))
    ]


@pytest.mark.parametrize("null_word", [True, False])
def test_train_matches_dict_oracle_bit_for_bit(null_word):
    rng = random.Random(4401 + null_word)
    for trial in range(40):
        corpus = _repetitive_corpus(rng) if trial % 2 else _random_corpus(rng, pairs=rng.randint(1, 12))
        for iters in range(1, 7):
            table = train_ibm1(corpus, iterations=iters, null_word=null_word)
            oracle = ibm1_train_oracle(corpus, iters, null_word=null_word)
            assert list(table.probs.items()) == list(oracle.items())


@st.composite
def _repeating_corpus(draw):
    """Pairs over three source and three target words, so words repeat
    within a side, plus one pair whose words are all one source and one
    target word, at a drawn place."""
    corpus = draw(st.lists(st.tuples(st.lists(st.sampled_from("abc"), min_size=1, max_size=7),
                                     st.lists(st.sampled_from("xyz"), min_size=1, max_size=7)), max_size=6))
    same = ([draw(st.sampled_from("abc"))] * draw(st.integers(1, 5)),
            [draw(st.sampled_from("xyz"))] * draw(st.integers(1, 5)))
    corpus.insert(draw(st.integers(0, len(corpus))), same)
    return corpus


@settings(max_examples=300, deadline=None)
@given(_repeating_corpus(), st.integers(1, 3), st.booleans())
def test_closed_form_first_iteration_matches_the_oracle_bit_for_bit(corpus, iterations, null_word):
    table = train_ibm1(corpus, iterations=iterations, null_word=null_word)
    oracle = ibm1_train_oracle(corpus, iterations, null_word=null_word)
    assert list(table.probs.items()) == list(oracle.items())


def test_train_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        train_ibm1([], iterations=1)


@pytest.mark.parametrize("iterations", [0, -1])
def test_train_refuses_iterations_below_one(iterations):
    with pytest.raises(ValueError, match="^iterations must be >= 1$"):
        train_ibm1(TOY_CORPUS, iterations)


@pytest.mark.parametrize("pair", [([], ["x"]), (["a"], []), ([], [])])
def test_train_refuses_an_empty_side(pair):
    with pytest.raises(ValueError, match="^pair 2: both sides must be non-empty$"):
        train_ibm1([(["a"], ["x"]), pair], 1)


def test_train_refuses_the_null_word_in_a_source_only_when_it_adds_one():
    corpus = [(["a"], ["x"]), (["a", NULL_WORD], ["x"])]
    with pytest.raises(ValueError, match=f"^pair 2: source contains the reserved token '{NULL_WORD}'$"):
        train_ibm1(corpus, 1)
    assert (NULL_WORD, "x") in train_ibm1(corpus, 1, null_word=False).probs


@pytest.mark.parametrize("pair, why", [
    ((["a\tb"], ["x"]), "a TAB, LF or CR"),
    ((["a"], ["x\ny"]), "a TAB, LF or CR"),
    ((["a"], ["x\r"]), "a TAB, LF or CR"),
    ((["\ud800"], ["x"]), "a lone surrogate"),
])
def test_train_refuses_a_word_no_table_row_can_hold(pair, why):
    with pytest.raises(ValueError, match=f"^pair 2: a word holds {why}$"):
        train_ibm1([(["a"], ["x"]), pair], 1)


@pytest.mark.parametrize("pair", [(["", "a"], ["x"]), (["a"], ["x", ""]), ([""], [""])])
def test_train_refuses_an_empty_word(pair):
    # save_table would write it as an empty column
    with pytest.raises(ValueError, match="^pair 2: a word is empty$"):
        train_ibm1([(["a"], ["x"]), pair], 1)


_WORD = st.text(alphabet=["\t", "\n", "\r", "\u2028", "\ud800", " ", "a"], max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(_WORD, min_size=1, max_size=3), st.lists(_WORD, min_size=1, max_size=3)),
                min_size=1, max_size=3), st.booleans())
def test_every_table_train_accepts_saves_and_loads_back(corpus, null_word):
    try:
        table = train_ibm1(corpus, 2, null_word=null_word)
    except ValueError as exc:
        assert re.match(r"pair \d+: a word (holds |is empty$)", str(exc))
        assert any(not word or re.search("[\t\n\r\ud800-\udfff]", word)
                   for pair in corpus for side in pair for word in side)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "t.weblex")
        save_table(table, path)
        loaded = load_table(path)
        assert (loaded.sources, loaded.targets) == (table.sources, table.targets)
        assert list(loaded.probs) == list(table.probs)
        assert all(loaded.probs[key] == pytest.approx(p, rel=1e-11) for key, p in table.probs.items())


def test_train_deterministic():
    rng = random.Random(31)
    corpus = _random_corpus(rng, pairs=8)
    first = train_ibm1(corpus, iterations=4)
    second = train_ibm1(corpus, iterations=4)
    assert first.probs == second.probs


# --- alignment ---------------------------------------------------------------

def test_align_toy_pair():
    table = train_ibm1(TOY_CORPUS, iterations=10, null_word=False)
    alignment = align_best(table, (["la", "maison"], ["the", "house"]))
    assert alignment == [0, 1]  # the->la, house->maison


def test_align_single_word_pair():
    table = train_ibm1([(["a"], ["x"])], iterations=1, null_word=False)
    assert align_best(table, (["a"], ["x"])) == [0]


def test_align_all_equal_ties_to_index_zero():
    table = train_ibm1(TOY_CORPUS, iterations=1, null_word=False)
    # unseen target word: every source gets the same floor probability
    assert align_best(table, (["la", "maison"], ["unseen"])) == [0]


def test_align_unseen_words_use_floor():
    table = train_ibm1(TOY_CORPUS, iterations=2, null_word=False)
    alignment = align_best(table, (["zzz", "la"], ["the"]))
    assert alignment == [1]  # trained mass beats the floor


def test_align_links_to_the_null_word_when_it_is_most_probable():
    # "the" follows every source word, so the null word, which every
    # pair holds, takes more of its mass than "maison" does
    corpus = [(["la", "maison"], ["the", "house"]), (["la", "fleur"], ["the", "flower"]),
              (["une", "fleur"], ["a", "flower"])]
    table = train_ibm1(corpus, iterations=10)
    assert table.probs[NULL_WORD, "the"] > table.probs["maison", "the"]
    assert align_best(table, (["maison"], ["the", "house"])) == [None, 0]
    assert align_best(train_ibm1(corpus, iterations=10, null_word=False), (["maison"], ["the"])) == [0]


@pytest.mark.parametrize("null_word", [True, False])
def test_align_refuses_an_empty_source_side(null_word):
    table = train_ibm1(TOY_CORPUS, iterations=2, null_word=null_word)
    for tgt in (["the"], []):
        with pytest.raises(ValueError, match="^source side must be non-empty$"):
            align_best(table, ([], tgt))
    assert align_best(table, (["la"], [])) == []


_ALIGN_WORD = st.sampled_from(["a", "b", "c", "x", "y", NULL_WORD])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
                          st.lists(st.sampled_from("xyz"), min_size=1, max_size=4)), min_size=1, max_size=4),
       st.integers(1, 3), st.booleans(),
       st.lists(st.tuples(st.lists(_ALIGN_WORD, min_size=1, max_size=5), st.lists(_ALIGN_WORD, max_size=5)),
                min_size=1, max_size=4))
def test_align_best_equals_the_flat_dict_argmax(corpus, iterations, null_word, queries):
    # the queries hold words the table never saw ("c", "<NULL>" on either side)
    table = train_ibm1(corpus, iterations, null_word=null_word)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "t.tsv")
        save_table(table, path)
        loaded = load_table(path)
    for pair in [*corpus, *queries]:
        for t in (table, loaded):
            assert align_best(t, pair) == align_best_oracle(t.probs, null_word, pair)


# --- phrase extraction -------------------------------------------------------

def test_extract_toy_pair():
    corpus = [(["la", "maison"], ["the", "house"])]
    alignments = [[0, 1]]
    phrases = extract_phrases(corpus, alignments, max_len=2)
    as_set = {(p.source, p.target, p.count) for p in phrases}
    assert as_set == {
        ("la", "the", 1),
        ("maison", "house", 1),
        ("la maison", "the house", 1),
    }


def test_extract_no_links_no_phrases():
    corpus = [(["a", "b"], ["x", "y"])]
    assert extract_phrases(corpus, [[None, None]], max_len=2) == []


def test_extract_max_len_one():
    corpus = [(["la", "maison"], ["the", "house"])]
    phrases = extract_phrases(corpus, [[0, 1]], max_len=1)
    assert {(p.source, p.target) for p in phrases} == {("la", "the"), ("maison", "house")}


@pytest.mark.parametrize("tgt, alignment", [(["x", "y"], [0]), (["x"], [0, 1]), (["x"], [])])
def test_extract_refuses_an_alignment_not_one_link_per_target_word(tgt, alignment):
    corpus = [(["a", "b"], ["x"]), (["a", "b"], tgt)]
    message = f"^pair 2: alignment has {len(alignment)} links but target has {len(tgt)} words$"
    with pytest.raises(ValueError, match=message):
        extract_phrases(corpus, [[0], alignment])


@pytest.mark.parametrize("max_len", [0, -1])
def test_extract_refuses_max_len_below_one(max_len):
    with pytest.raises(ValueError, match="^max_len must be >= 1$"):
        extract_phrases([(["a"], ["x"])], [[0]], max_len=max_len)


@pytest.mark.parametrize("alignments", [[], [[0], [0]]])
def test_extract_refuses_a_count_mismatch_of_pairs_and_alignments(alignments):
    with pytest.raises(ValueError, match="^corpus and alignments must correspond 1:1$"):
        extract_phrases([(["a"], ["x"])], alignments)


def test_extract_matches_brute_force_on_random_pairs():
    rng = random.Random(90909)
    for _ in range(200):
        src = [f"s{i}" for i in range(rng.randint(1, 5))]
        tgt = [f"t{j}" for j in range(rng.randint(1, 5))]
        alignment = [
            rng.choice([None] + list(range(len(src)))) for _ in tgt
        ]
        max_len = rng.randint(1, 4)
        phrases = extract_phrases([(src, tgt)], [alignment], max_len=max_len)
        got = Counter({(p.source, p.target): p.count for p in phrases})
        assert got == consistent_phrases_oracle(src, tgt, alignment, max_len)


def test_extract_matches_brute_force_short_phrases_unaligned_edges():
    rng = random.Random(31337)
    for _ in range(300):
        src = [f"s{i}" for i in range(rng.randint(1, 6))]
        tgt = [f"t{j}" for j in range(rng.randint(1, 7))]
        alignment = [rng.choice(range(len(src))) for _ in tgt]
        # leave a run of boundary target words unaligned on one or both sides
        left, right = rng.randint(0, 2), rng.randint(0, 2)
        for j in list(range(min(left, len(tgt)))) + list(range(max(0, len(tgt) - right), len(tgt))):
            alignment[j] = None
        for j in range(len(tgt)):
            if rng.random() < 0.2:
                alignment[j] = None
        max_len = rng.randint(1, 3)
        phrases = extract_phrases([(src, tgt)], [alignment], max_len=max_len)
        got = Counter({(p.source, p.target): p.count for p in phrases})
        assert got == consistent_phrases_oracle(src, tgt, alignment, max_len)


@st.composite
def _aligned_pairs(draw):
    """A sentence pair, an alignment with unaligned words and links outside src, and max_len."""
    src = [f"s{i}" for i in range(draw(st.integers(1, 9)))]
    tgt = [f"t{j}" for j in range(draw(st.integers(1, 10)))]
    link = st.none() | st.integers(0, len(src) - 1) | st.sampled_from([-1, len(src), len(src) + 3])
    alignment = draw(st.lists(link, min_size=len(tgt), max_size=len(tgt)))
    left, right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    for j in [*range(min(left, len(tgt))), *range(max(0, len(tgt) - right), len(tgt))]:
        alignment[j] = None  # unaligned words at one or both edges
    return src, tgt, alignment, draw(st.integers(1, 7))


@settings(max_examples=400, deadline=None)
@given(_aligned_pairs())
# count ties: between sources, and between targets of one source
@example((["a", "b", "a", "b"], ["x", "y", "x", "y"], [0, 1, 2, 3], 2))
@example((["b", "a", "a"], ["z", "x", "w", "x"], [0, 1, None, 2], 3))
def test_extract_equals_brute_force_property(case):
    src, tgt, alignment, max_len = case
    phrases = extract_phrases([(src, tgt)], [alignment], max_len=max_len)
    assert Counter({(p.source, p.target): p.count for p in phrases}) == \
        consistent_phrases_oracle(src, tgt, alignment, max_len)
    assert phrases == sorted(phrases, key=lambda p: (-p.count, p.source, p.target))


def test_extract_aggregates_counts_and_orders_deterministically():
    corpus = [(["la"], ["the"]), (["la"], ["the"]), (["le"], ["the"])]
    alignments = [[0], [0], [0]]
    phrases = extract_phrases(corpus, alignments, max_len=1)
    assert phrases == [
        PhrasePair("la", "the", 2),
        PhrasePair("le", "the", 1),
    ]


# --- phrase-based lexicon ----------------------------------------------------

def test_phb_vocab_from_toy_phrases():
    phrases = extract_phrases([(["la", "maison"], ["the", "house"])], [[0, 1]], max_len=2)
    lex = build_phb_vocab(phrases, min_count=1)
    assert len(lex) == 3
    assert lex.contains(["la", "maison"])
    assert lex.gloss_of(("la",)) == "the"


def test_phb_vocab_min_count_filters_everything():
    phrases = [PhrasePair("a", "x", 1)]
    assert len(build_phb_vocab(phrases, min_count=2)) == 0


@pytest.mark.parametrize("min_count", [0, -1])
def test_phb_vocab_refuses_min_count_below_one(min_count):
    with pytest.raises(ValueError, match="^min_count must be >= 1$"):
        build_phb_vocab([PhrasePair("a", "x", 1)], min_count=min_count)


def test_phb_vocab_most_frequent_gloss_wins():
    phrases = [PhrasePair("zɛn", "une", 1), PhrasePair("zɛn", "une marmite", 3)]
    lex = build_phb_vocab(phrases, min_count=1)
    assert lex.gloss_of(("zɛn",)) == "une marmite"


def test_phb_vocab_gloss_tie_lexicographic():
    phrases = [PhrasePair("a", "y", 2), PhrasePair("a", "x", 2)]
    assert build_phb_vocab(phrases).gloss_of(("a",)) == "x"


_PHB_TEXT = st.sampled_from(["a", "a b", "a  b", " a b", "b", "é", "e\u0301", "É", "A b", "\x07", ""])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(PhrasePair, _PHB_TEXT, _PHB_TEXT, st.integers(1, 4)), max_size=12),
       st.integers(1, 3), st.booleans())
# count ties, and one (source, target) given twice with different counts
@example([PhrasePair("b", "x", 2), PhrasePair("a", "y", 2), PhrasePair("a", "x", 2), PhrasePair("b", "a", 1)], 1, False)
@example([PhrasePair("a", "y", 1), PhrasePair("a", "x", 1), PhrasePair("a", "y", 3), PhrasePair("b", "x", 3),
          PhrasePair("a", "x", 1)], 1, False)
def test_phb_vocab_equals_the_former_first_target_dict(phrases, min_count, lowercase):
    lex = build_phb_vocab(phrases, min_count, NormSettings(lowercase))
    oracle = phb_vocab_oracle(phrases, min_count, NormSettings(lowercase))
    assert lex == oracle
    assert list(lex.expressions()) == list(oracle.expressions())


# --- persistence -------------------------------------------------------------

def test_table_round_trip(tmp_path):
    path = str(tmp_path / "toy.tsv")
    for table in (
        train_ibm1(TOY_CORPUS, iterations=5),
        # without the null word, "<NULL>" is an ordinary source word
        train_ibm1([(["<NULL>", "a"], ["x"])], 2, null_word=False),
    ):
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.null_word == table.null_word
        assert loaded.settings == table.settings
        assert set(loaded.probs) == set(table.probs)
        assert (loaded.sources, loaded.targets) == (table.sources, table.targets)
        for key, p in table.probs.items():
            # 12 significant digits on disk
            assert loaded.probs[key] == pytest.approx(p, rel=1e-11)


@pytest.mark.parametrize("sources, targets, message", [
    (["a", "a"], ["", "x\r"], "row 1: target word '' is empty"),
    (["a", "a"], ["x", "x\r"], "row 2: target word 'x\\r' holds a TAB, LF or CR"),
    (["a", "b\tc"], ["x", "y"], "row 2: source word 'b\\tc' holds a TAB, LF or CR"),
    (["a\n", "b"], ["", "y"], "row 1: source word 'a\\n' holds a TAB, LF or CR"),
    # the first bad row wins, whichever column holds it
    (["a", "\ud800"], ["", "y"], "row 1: target word '' is empty"),
    (["a", "\ud800"], ["x", "y"], "row 2: source word '\\ud800' holds a lone surrogate"),
])
def test_save_table_refuses_a_word_load_table_would_refuse_and_writes_nothing(tmp_path, sources, targets, message):
    table = TranslationTable(sources, targets, [0.5, 0.5], null_word=False)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_table(table, str(tmp_path / "t.tsv"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("values, message", [
    ([0.5, math.nan], "row 2: probability nan outside [0, 1]"),
    ([1.5, -0.5], "row 1: probability 1.5 outside [0, 1]"),
    ([0.5, -0.5], "row 2: probability -0.5 outside [0, 1]"),
    ([0.5, math.inf], "row 2: probability inf outside [0, 1]"),
    ([-0.0, 1.0], "row 1: probability -0.0 is a negative zero"),
])
def test_save_table_refuses_a_value_load_table_would_refuse_and_writes_nothing(tmp_path, values, message):
    table = TranslationTable(["a", "b"], ["x", "y"], values, null_word=False)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_table(table, str(tmp_path / "t.tsv"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sources, targets, values, message", [
    (["a", "b"], ["x", "y"], [1.0], "row lists differ in length: 2 sources, 2 targets, 1 values"),
    (["a"], ["x", "y"], [1.0], "row lists differ in length: 1 sources, 2 targets, 1 values"),
    (["a", "b"], ["x"], [1.0, 1.0], "row lists differ in length: 2 sources, 1 targets, 2 values"),
])
def test_save_table_refuses_row_lists_of_unequal_length_and_writes_nothing(tmp_path, sources, targets, values,
                                                                         message):
    # zip would drop the rows past the shortest list and save a table that loads back unequal
    table = TranslationTable(sources, targets, values, null_word=False)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_table(table, str(tmp_path / "t.tsv"))
    assert list(tmp_path.iterdir()) == []


def test_save_table_writes_a_positive_zero(tmp_path):
    # a zero fails the fast value check, and the row search passes it; load_table reads it back
    table = TranslationTable(["a", "a"], ["x", "y"], [0.0, 1.0], null_word=False)
    save_table(table, str(tmp_path / "t.tsv"))
    assert load_table(str(tmp_path / "t.tsv")) == table


def test_a_trained_table_equals_its_round_trip_before_and_after_aligning(tmp_path):
    # every probability this corpus trains to (1/4, 1/2, 1) is one %.12g writes exactly
    corpus = [(["a", "a"], ["x", "x"]), (["b", "b"], ["y", "z"])]
    table = train_ibm1(corpus, iterations=3)
    path = str(tmp_path / "t.tsv")
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.values == table.values == [0.5, 1.0, 0.25, 0.25, 0.5, 0.5]
    assert loaded == table and table == loaded
    for t in (loaded, table):
        assert align_best(t, (["b", "a"], ["x", "y", "w"])) == [1, 0, 0]
        assert loaded == table and table == loaded
    loaded.values[0] = 0.25
    assert loaded != table
    assert table != train_ibm1(corpus, iterations=3, null_word=False)
    assert table != train_ibm1(corpus, iterations=3, settings=NormSettings(lowercase=True))
    assert table != table.probs


def test_table_load_bad_probability(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "#weblex-ibm1 v=1 null=1 lowercase=0\n"
        "la\tthe\tnot-a-number\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 2"):
        load_table(str(path))


def test_table_load_out_of_range_probability(tmp_path):
    path = tmp_path / "bad2.tsv"
    path.write_text(
        "#weblex-ibm1 v=1 null=1 lowercase=0\n"
        "la\tthe\t1.5\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="outside"):
        load_table(str(path))


def test_table_load_refuses_source_rows_not_summing_to_one(tmp_path):
    path = tmp_path / "short.tsv"
    path.write_text(
        "#weblex-ibm1 v=1 null=1 lowercase=0\n"
        "la\tthe\t0.4\n"
        "la\thouse\t0.3\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 2: probabilities of source 'la' sum to 0.7"):
        load_table(str(path))


_HEADER = "#weblex-ibm1 v=1 null=1 lowercase=0\n"


def _table_file(tmp_path, rows: str) -> str:
    path = tmp_path / "table.tsv"
    path.write_text(_HEADER + rows, encoding="utf-8")
    return str(path)


_REFUSALS = [
    ("la\tthe\t1\nle\tthe\n", "line 3: expected 'source<TAB>target<TAB>probability'"),
    ("la\tthe\t1\nle\tthe\t1\tx\n", "line 3: expected 'source<TAB>target<TAB>probability'"),
    ("la\tthe\t1\nle\tthe\tx\n", "line 3: probability 'x' is not a number"),
    ("la\tthe\t1\nle\tthe\t\n", "line 3: probability '' is not a number"),
    ("la\tthe\t1\nle\tthe\t1.5\n", "line 3: probability 1.5 outside [0, 1]"),
    ("la\tthe\t1\nle\tthe\t-0.5\n", "line 3: probability -0.5 outside [0, 1]"),
    ("la\tthe\t0.5\nla\tthe\t0.5\n", "line 3: duplicate entry for ('la', 'the')"),
    ("la\tthe\t1\nle\tthe\t0.5\nle\ta\t0.25\n", "line 3: probabilities of source 'le' sum to 0.75, not 1"),
    # two faults: the first line wins, whichever kind comes first
    ("la\tthe\t0.5\nla\tthe\t0.5\nle\tthe\tx\n", "line 3: duplicate entry for ('la', 'the')"),
    ("la\tthe\t0.5\nle\tthe\tx\nla\tthe\t0.5\n", "line 3: probability 'x' is not a number"),
    ("la\tthe\t0.5\nla\tthe\t0.50\nle\tthe\t2\n", "line 3: duplicate entry for ('la', 'the')"),
    ("la\tthe\t0.5\nle\tthe\t0.50\nla\tthe\t0.5\n", "line 3: probability '0.50' is not in save_table's form"),
    # a row fault beats a sum fault on an earlier line
    ("la\tthe\t0.5\nle\tthe\t1\nle\ta\t1\tx\n", "line 4: expected 'source<TAB>target<TAB>probability'"),
    # no word save_table writes is empty, and train_ibm1 refuses a word holding a CR
    ("\tthe\t1\n", "line 2: source word '' is empty or holds a CR"),
    ("la\t\t1\n", "line 2: target word '' is empty or holds a CR"),
    ("\t\t0.5\n\tx\t0.5\n", "line 2: target word '' is empty or holds a CR"),
    ("la\tthe\t1\nl\ra\tthe\t1\n", "line 3: source word 'l\\ra' is empty or holds a CR"),
    ("la\tthe\t1\nla\r\tthe\t1\n", "line 3: source word 'la\\r' is empty or holds a CR"),
    ("la\tthe\t0.5\nla\tth\re\t0.5\n", "line 3: target word 'th\\re' is empty or holds a CR"),
    ("la\tthe\t1\n\tthe\t1\nle\tthe\tx\n", "line 3: source word '' is empty or holds a CR"),
    ("la\tthe\t1\nle\tthe\tx\n\tthe\t1\n", "line 3: probability 'x' is not a number"),
    ("la\tthe\t0.5\nle\tthe\t1\nla\t\t0.5\n", "line 4: target word '' is empty or holds a CR"),
]


@pytest.mark.parametrize("rows, message", _REFUSALS)
def test_table_refusal_names_the_first_bad_line(tmp_path, rows, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        load_table(_table_file(tmp_path, rows))


def _valid_rows(count: int) -> str:
    return "".join(f"p{i}\tq\t1\n" for i in range(count))


@pytest.mark.parametrize("rows, message", _REFUSALS + [
    # three fields a line on average, but not on every line
    ("la\tthe\nx\tla\tthe\t1\n", "line 2: expected 'source<TAB>target<TAB>probability'"),
    ("la\tthe\t1\t1\nle\tthe\n", "line 2: expected 'source<TAB>target<TAB>probability'"),
    ("la\tthe\t1\nle\tthe\n1\tle\ta\t1\n", "line 3: expected 'source<TAB>target<TAB>probability'"),
])
def test_table_refusal_past_the_first_chunk_names_the_same_line(tmp_path, rows, message):
    # 5,000 valid rows first: the fault sits in the second chunk, behind valid rows of its own
    shifted = re.sub(r"^line (\d+)", lambda m: f"line {int(m[1]) + 5_000}", message)
    with pytest.raises(FormatError, match=f"^{re.escape(shifted)}"):
        load_table(_table_file(tmp_path, _valid_rows(5_000) + rows))


@pytest.mark.parametrize("row, message", [
    ("le\tthe\tx\n", "probability 'x' is not a number"),
    ("p7\tq\t1\n", "duplicate entry for ('p7', 'q')"),
    ("le\tthe\n", "expected 'source<TAB>target<TAB>probability'"),
])
def test_table_refusal_on_the_first_row_of_the_second_chunk(tmp_path, row, message):
    with pytest.raises(FormatError, match=f"^line {ibm1._CHUNK + 2}: {re.escape(message)}"):
        load_table(_table_file(tmp_path, _valid_rows(ibm1._CHUNK) + row))


@functools.lru_cache(maxsize=1)
def _trained_rows() -> tuple[str, ...]:
    """The rows of a trained table three chunks long, as `save_table` writes them."""
    rng = random.Random(35)
    src_words, tgt_words = [f"s{i}" for i in range(500)], [f"t{i}" for i in range(500)]
    corpus = [([rng.choice(src_words) for _ in range(12)], [rng.choice(tgt_words) for _ in range(12)])
              for _ in range(60)]
    with tempfile.TemporaryDirectory() as tmp:
        save_table(train_ibm1(corpus, iterations=2), str(Path(tmp) / "t.tsv"))
        lines = (Path(tmp) / "t.tsv").read_text(encoding="utf-8").splitlines()
    assert 2 * ibm1._CHUNK < len(lines) - 1 < 3 * ibm1._CHUNK
    return tuple(lines[1:])


def _loaded(path: str):
    """What loading `path` gives: the table and its lookup, or the refusal's message."""
    try:
        table = load_table(path)
    except FormatError as exc:
        return str(exc)
    return table, table.by_target


# each fault turns one row (source, target, probability text) and the row after it into new lines
_FAULTS = {
    "none": lambda e, f, p, after: [f"{e}\t{f}\t{p}", after],
    "trailing CR": lambda e, f, p, after: [f"{e}\t{f}\t{p}\r", after],
    "two fields": lambda e, f, p, after: [f"{e}\t{f}", after],
    "four fields": lambda e, f, p, after: [f"{e}\t{f}\t{p}\tx", after],
    "field moved to the next line": lambda e, f, p, after: [f"{e}\t{f}", f"{p}\t{after}"],
    "not a number": lambda e, f, p, after: [f"{e}\t{f}\tx", after],
    "above 1": lambda e, f, p, after: [f"{e}\t{f}\t1.5", after],
    "nan": lambda e, f, p, after: [f"{e}\t{f}\tnan", after],
    "negative": lambda e, f, p, after: [f"{e}\t{f}\t-{p}", after],
    "negative zero": lambda e, f, p, after: [f"{e}\t{f}\t-0", after],
    "plus sign": lambda e, f, p, after: [f"{e}\t{f}\t+{p}", after],
    "not %.12g": lambda e, f, p, after: [f"{e}\t{f}\t{float(p)!r}0", after],
    "another value": lambda e, f, p, after: [f"{e}\t{f}\t{'0.5' if p == '1' else '1'}", after],
    "duplicate": lambda e, f, p, after: [f"{e}\t{f}\t{p}", f"{e}\t{f}\t{p}"],
    "empty source": lambda e, f, p, after: [f"\t{f}\t{p}", after],
    "empty target": lambda e, f, p, after: [f"{e}\t\t{p}", after],
    "CR in a source": lambda e, f, p, after: [f"{e}\r\t{f}\t{p}", after],
    "CR in a target": lambda e, f, p, after: [f"{e}\t\r{f}\t{p}", after],
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_FAULTS)), st.integers(0, 3 * 4096))
def test_load_table_by_columns_equals_the_row_loop(fault, at):
    # the trained table with one row and the next rewritten, loaded as load_table does
    # and with every chunk sent down the per-row loop: the same table, or the same message
    lines = list(_trained_rows())
    at %= len(lines) - 1
    lines[at:at + 2] = _FAULTS[fault](*lines[at].split("\t"), lines[at + 1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_text("".join(f"{line}\n" for line in [_HEADER.rstrip("\n"), *lines]), encoding="utf-8")
        by_columns = _loaded(str(path))
        with mock.patch.object(ibm1, "_columns", lambda chunk: None):
            by_rows = _loaded(str(path))
    assert by_columns == by_rows
    assert isinstance(by_columns, str) == (fault not in ("none", "trailing CR")), by_columns


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_a_trained_table_loads_by_columns_alone_with_either_line_end(tmp_path, line_end):
    # no chunk of a table save_table writes takes the per-row loop, and a CRLF copy loads equal
    header, lines = _HEADER.rstrip("\n"), _trained_rows()
    (tmp_path / "lf.tsv").write_text("".join(f"{line}\n" for line in [header, *lines]), encoding="utf-8")
    path = tmp_path / "copy.tsv"
    path.write_bytes("".join(f"{line}{line_end}" for line in [header, *lines]).encode("utf-8"))
    expected = load_table(str(tmp_path / "lf.tsv"))
    with mock.patch.object(ibm1, "_add_rows", side_effect=AssertionError("a chunk took the per-row loop")):
        table = load_table(str(path))
    assert table == expected and table.by_target == expected.by_target
    assert len(table.values) == len(lines)


# %.12g writes none of these; nan was already out of range
_NOT_WRITTEN = [" 7.8e-05 ", "7.8e-05 ", "7.8E-05", "1e-5", "0.50", "0.0_1e2", "١", "-0", "+0.5", ".5", "1.0",
                "5e-1", "0.000078", "1e+00"]


@pytest.mark.parametrize("text", _NOT_WRITTEN + ["nan", "inf"])
def test_table_refuses_a_probability_save_table_does_not_write(tmp_path, text):
    path = _table_file(tmp_path, f"la\tthe\t1\nle\tthe\t{text}\n")
    with pytest.raises(FormatError, match="line 3: probability "):
        load_table(path)


@pytest.mark.parametrize("text", _NOT_WRITTEN)
def test_cli_refuses_a_probability_save_table_does_not_write(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    _table_file(tmp_path, f"la\tthe\t1\nle\tthe\t{text}\n")
    (tmp_path / "pairs.tsv").write_text("la\tthe\n", encoding="utf-8")
    assert run(["ibm1", "extract", "--table", "table.tsv", "--tsv", "pairs.tsv", "--out", "lex.weblex"]) == 2
    err = capsys.readouterr().err
    assert f"line 3: probability {text!r} is not in save_table's form (%.12g, no sign)" in err
    assert not (tmp_path / "lex.weblex").exists()


@pytest.mark.parametrize("text", ["0", "1", "0.5", "0.000123456789012", "7.8e-05", "1e-300", "4.94065645841e-324"])
def test_table_loads_what_save_table_writes(tmp_path, text):
    rest = "%.12g" % (1.0 - float(text))
    table = load_table(_table_file(tmp_path, f"la\tthe\t{text}\nla\ta\t{rest}\n"))
    assert table.probs[("la", "the")] == float(text)


def test_trained_entries_share_one_str_per_word():
    # split gives each occurrence of a word its own str object, and each
    # pair meets a known word in a cell no earlier pair holds
    corpus = [(s.split(), t.split()) for s, t in
              [("la maison", "the house"), ("le chien", "the dog"), ("chien maison", "house dog")]]
    assert corpus[0][1][0] is not corpus[1][1][0]
    table = train_ibm1(corpus, iterations=3)
    first_sources = dict.fromkeys([NULL_WORD, *(e for src, _ in corpus for e in src)])  # each word's first str
    first_targets = dict.fromkeys(f for _, tgt in corpus for f in tgt)
    assert {id(e) for e in table.sources} == {id(w) for w in first_sources}
    assert {id(f) for f in table.targets} == {id(w) for w in first_targets}


def test_loaded_entries_share_one_str_per_word(tmp_path):
    corpus = [(["la", "maison", "la"], ["the", "house"]), (["la"], ["the"]), (["maison"], ["house", "the"])]
    path = str(tmp_path / "t.tsv")
    save_table(train_ibm1(corpus, iterations=3), path)
    table = load_table(path)
    for word, side in [("la", 0), ("maison", 0), (NULL_WORD, 0), ("the", 1), ("house", 1)]:
        objects = {id(key[side]) for key in table.probs if key[side] == word}
        assert len(objects) == 1, word
    assert {id(e) for e in table.sources} == {id(w) for w in dict.fromkeys(table.sources)}
    assert {id(f) for f in table.targets} == {id(w) for w in dict.fromkeys(table.targets)}


def test_log_likelihood_matches_direct_computation():
    table = train_ibm1(TOY_CORPUS, iterations=3, null_word=False)
    expected = 0.0
    for src, tgt in TOY_CORPUS:
        for f in tgt:
            expected += math.log(sum(table.probs.get((e, f), 0.0) for e in src))
            expected -= math.log(len(src))
    assert log_likelihood(table, TOY_CORPUS) == pytest.approx(expected)


# ---- memory follows the table, not the file (deterministic: tracemalloc, no timing)

def test_load_table_peak_above_the_table_stays_under_twice_the_file(tmp_path):
    # 75,000 non-ASCII source words x 4 targets = 300,000 rows, each at 0.25
    path = tmp_path / "big.tsv"
    rows = (f"ɛ{i}\tt{j}\t0.25\n" for i in range(75_000) for j in range(4))
    path.write_text("#weblex-ibm1 v=1 null=0 lowercase=0\n" + "".join(rows), encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table = load_table(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.probs) == 300_000
    assert peak - held < 2 * size, (peak - held) / size


def _peak_corpus():
    """400 pairs of 5-15 words over 600-word vocabularies: 37,533 cells."""
    rng = random.Random(5)
    src_words, tgt_words = [f"s{i}" for i in range(600)], [f"t{i}" for i in range(600)]
    return [([rng.choice(src_words) for _ in range(rng.randint(5, 15))],
             [rng.choice(tgt_words) for _ in range(rng.randint(5, 15))]) for _ in range(400)]


def test_train_peak_stays_under_150_bytes_a_cell():
    # Numbering cells through a (source, target) tuple per cell peaks at
    # 187 bytes a cell here; a {target: id} dict per source word, holding
    # an int object per cell id and a tuple per row through EM, at 112;
    # array rows, with those ints freed before EM, at 93.
    corpus = _peak_corpus()
    tracemalloc.start()
    try:
        table = train_ibm1(corpus, iterations=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = len(table.values)
    assert cells == 37_533
    assert peak < 150 * cells, peak / cells


def test_extract_drops_the_table_before_harvesting(tmp_path, capsys):
    # Holding the table through phrase harvesting peaks at 1.83x what
    # load_table alone peaks at here; dropping it after alignment, at 1.07x.
    corpus = _peak_corpus()
    for name, side in (("src.txt", 0), ("tgt.txt", 1)):
        (tmp_path / name).write_text("".join(" ".join(pair[side]) + "\n" for pair in corpus), encoding="utf-8")
    save_table(train_ibm1(corpus, iterations=2), str(tmp_path / "table.tsv"))
    argv = ["ibm1", "extract", "--table", str(tmp_path / "table.tsv"), "--src", str(tmp_path / "src.txt"),
            "--tgt", str(tmp_path / "tgt.txt"), "--out", str(tmp_path / "phb.weblex")]
    assert run(argv) == 0  # warm-up: imports and first-use caches
    peaks = []
    for call in (lambda: load_table(str(tmp_path / "table.tsv")), lambda: run(argv)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    load_peak, extract_peak = peaks
    assert extract_peak < 1.4 * load_peak, extract_peak / load_peak


def test_trained_values_are_plain_floats():
    table = train_ibm1(_repetitive_corpus(random.Random(3)), iterations=3)
    assert all(type(p) is float for p in table.probs.values())
