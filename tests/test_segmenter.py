import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import best_cover, maximal_spans_oracle, random_segmentation_instance
from weblex.errors import ConfigError
from weblex.lexicon import build_lexicon
from weblex.segmenter import (
    CandidateSpan,
    _sweep,
    enumerate_candidates,
    filter_subsumed,
    segment_words,
    select_cover,
    tag_segments,
    tokenize_web,
)
from weblex.textnorm import NormSettings, normalize, split_words
from weblex.vocab import END_ID, START_ID, UNK_ID, build_vocab

TABLE2_SENTENCE = "a ɖo jiɖiɖe ɖo wutu cé à nɔnvi cé"
TABLE2_WORDS = split_words(normalize(TABLE2_SENTENCE))
SEVEN_WORD_EXPR = "a ɖo jiɖiɖe ɖo wutu cé à"

FIG1_SENTENCE = "mɛtà mɛtà wɛ zìnwó hɛn wa aligbo mɛ"
FIG1_WORDS = split_words(normalize(FIG1_SENTENCE))


def _lex(*texts):
    lex, _ = build_lexicon([(t, None) for t in texts])
    return lex


def _spans(candidates):
    return [(c.start, c.end) for c in candidates]


# --- candidate enumeration ---------------------------------------------------

def test_enumerate_table2_candidates():
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé")
    assert _spans(enumerate_candidates(TABLE2_WORDS, lex)) == [(0, 7), (5, 6), (7, 9), (8, 9)]


def test_enumerate_empty_lexicon():
    assert enumerate_candidates(TABLE2_WORDS, _lex()) == []


def test_enumerate_per_occurrence_spans():
    assert _spans(enumerate_candidates(["x", "x"], _lex("x"))) == [(0, 1), (1, 2)]


def test_enumerate_matches_brute_force_scan():
    """Occurrence set double-checked by scanning every span directly."""
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé", "a ɖo")
    expected = []
    for start in range(len(TABLE2_WORDS)):
        for end in range(start + 1, len(TABLE2_WORDS) + 1):
            if lex.contains(TABLE2_WORDS[start:end]):
                expected.append((start, end))
    assert _spans(enumerate_candidates(TABLE2_WORDS, lex)) == sorted(expected)


# --- subsumption filter ------------------------------------------------------

def test_filter_table2():
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé")
    kept = filter_subsumed(enumerate_candidates(TABLE2_WORDS, lex))
    assert _spans(kept) == [(0, 7), (7, 9)]


def test_filter_single_candidate():
    only = [CandidateSpan(1, 3)]
    assert filter_subsumed(only) == only


def test_filter_keeps_overlapping_non_nested():
    spans = [CandidateSpan(0, 2), CandidateSpan(1, 3)]
    assert filter_subsumed(spans) == spans


def test_filter_soundness_and_completeness_randomized():
    rng = random.Random(1105)
    for _ in range(300):
        words, expressions = random_segmentation_instance(rng)
        lex = _lex(*expressions)
        candidates = enumerate_candidates(words, lex)
        kept = filter_subsumed(candidates)
        kept_spans = _spans(kept)
        assert kept_spans == maximal_spans_oracle(_spans(candidates))
        for w in kept:
            assert not any(v.contains(w) for v in kept)
        for c in candidates:
            if c not in kept:
                assert any(v.contains(c) for v in kept)


def test_filter_shuffled_with_duplicates_matches_oracle_in_input_order():
    rng = random.Random(6029)
    for _ in range(300):
        words, expressions = random_segmentation_instance(rng)
        spans = _spans(enumerate_candidates(words, _lex(*expressions)))
        spans += [rng.choice(spans) for _ in range(rng.randint(0, 3))] if spans else []
        rng.shuffle(spans)
        candidates = [CandidateSpan(start, end, in_lexicon=rng.random() < 0.8) for start, end in spans]
        kept = filter_subsumed(candidates)
        assert _spans(kept) == maximal_spans_oracle(spans)
        assert kept == [c for c in candidates if (c.start, c.end) in set(_spans(kept))]


def test_filter_empty():
    assert filter_subsumed([]) == []


# --- cover selection ---------------------------------------------------------

def test_cover_table2():
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé", "a ɖo")
    seg = segment_words(TABLE2_WORDS, lex)
    assert _spans(seg.segments) == [(0, 7), (7, 9)]
    assert seg.texts(TABLE2_WORDS) == [SEVEN_WORD_EXPR, "nɔnvi cé"]


def test_cover_full_sentence_expression():
    seg = segment_words(FIG1_WORDS, _lex(FIG1_SENTENCE))
    assert _spans(seg.segments) == [(0, 8)]


def test_cover_two_expression_sentence():
    words = split_words(normalize("ɖé é man yɔn nùmi à na bɔ yi doto hwé"))
    lex = _lex("ɖé é man yɔn nùmi à", "na bɔ yi doto hwé")
    seg = segment_words(words, lex)
    assert seg.texts(words) == ["ɖé é man yɔn nùmi à", "na bɔ yi doto hwé"]


def test_cover_phrase_style_grouping():
    # machine-phrase lexicon splits the proverb into five chunks
    lex = _lex("mɛtà wɛ", "hɛn wa", "aligbo mɛ")
    seg = segment_words(FIG1_WORDS, lex)
    assert seg.texts(FIG1_WORDS) == ["mɛtà", "mɛtà wɛ", "zìnwó", "hɛn wa", "aligbo mɛ"]


def test_cover_unigram_lexicon_equals_word_split():
    lex = _lex(*FIG1_WORDS)
    seg = segment_words(FIG1_WORDS, lex)
    assert seg.texts(FIG1_WORDS) == FIG1_WORDS
    assert all(s.in_lexicon for s in seg.segments)


def test_cover_overlap_case():
    words = ["w1", "w2", "w3"]
    maximal = [CandidateSpan(0, 2), CandidateSpan(1, 3)]
    seg = select_cover(words, maximal)
    assert _spans(seg.segments) == [(0, 2), (2, 3)]
    assert [s.in_lexicon for s in seg.segments] == [True, False]
    assert _spans(seg.segments) == best_cover(3, [(0, 2), (1, 3)])


def test_cover_empty_sentence():
    assert select_cover([], []).segments == []


def test_cover_is_partition_randomized():
    rng = random.Random(2207)
    for _ in range(400):
        words, expressions = random_segmentation_instance(rng)
        seg = segment_words(words, _lex(*expressions))
        position = 0
        for span in seg.segments:
            assert span.start == position
            assert span.end > span.start
            position = span.end
        assert position == len(words)


def test_cover_matches_exhaustive_oracle_randomized():
    rng = random.Random(3309)
    for _ in range(300):
        words, expressions = random_segmentation_instance(rng)
        lex = _lex(*expressions)
        maximal = filter_subsumed(enumerate_candidates(words, lex))
        seg = select_cover(words, maximal)
        assert _spans(seg.segments) == best_cover(len(words), _spans(maximal))


def test_cover_keeps_the_first_of_duplicate_spans():
    words = ["w0", "w1", "w2"]
    first = CandidateSpan(1, 2, in_lexicon=False)
    seg = select_cover(words, [CandidateSpan(0, 1), first, CandidateSpan(1, 2)])
    assert _spans(seg.segments) == [(0, 1), (1, 2), (2, 3)]
    assert seg.segments[1] is first
    assert [s.in_lexicon for s in seg.segments] == [True, False, False]


def test_cover_refuses_two_spans_with_one_start():
    with pytest.raises(ValueError, match="share a start"):
        select_cover(["w0", "w1"], [CandidateSpan(0, 1), CandidateSpan(0, 2)])


def test_cover_fallback_where_a_maximal_span_starts():
    # (1, 3) is maximal, but the optimum covers word 1 alone as a fallback
    words = ["w0", "w1", "w2", "w3", "w4"]
    seg = segment_words(words, _lex("w1 w2", "w2 w3 w4"))
    assert [(s.start, s.end, s.in_lexicon) for s in seg.segments] == [
        (0, 1, False), (1, 2, False), (2, 5, True),
    ]


def test_segment_words_empty_lexicon_is_all_fallbacks():
    seg = segment_words(["x", "y"], _lex())
    assert [(s.start, s.end, s.in_lexicon) for s in seg.segments] == [(0, 1, False), (1, 2, False)]


_WORDS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=10)
_EXPRESSIONS = st.lists(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5), max_size=14)


@settings(max_examples=300)
@given(_WORDS, _EXPRESSIONS)
def test_segment_words_matches_exhaustive_oracle_property(words, expressions):
    lex = _lex(*(" ".join(e) for e in expressions))
    matches = [
        (start, end)
        for start in range(len(words))
        for end in range(start + 1, len(words) + 1)
        if tuple(words[start:end]) in {tuple(e) for e in expressions}
    ]
    maximal = maximal_spans_oracle(matches)
    seg = segment_words(words, lex)
    # a segment is a lexicon match exactly when it is a maximal span;
    # a subsumed one-word match is covered by a fallback
    assert [(s.start, s.end, s.in_lexicon) for s in seg.segments] == [
        (start, end, (start, end) in maximal) for start, end in best_cover(len(words), maximal)
    ]


# --- the longest-match sweep against the two stages it replaces --------------

@settings(max_examples=500)
@given(st.randoms(use_true_random=False))
def test_sweep_equals_the_maximal_matches_property(rng):
    words, expressions = random_segmentation_instance(rng)
    lex = _lex(*expressions)
    assert _sweep(words, lex) == maximal_spans_oracle(_spans(enumerate_candidates(words, lex)))


@pytest.mark.parametrize("expressions, sentence, expected", [
    # "a b" is a prefix of "a b c", which the sentence does not complete
    (["a b", "a b c"], "a b d", [(0, 2)]),
    # (1, 3) ends exactly where (0, 3) does, so it is inside it; (2, 4) passes it
    (["a b c", "b c", "c d"], "a b c d", [(0, 3), (2, 4)]),
    (["a", "b"], "a b c a", [(0, 1), (1, 2), (3, 4)]),
    ([], "a b", []),
    (["a b"], "", []),
    (["a a", "a a a"], "a a a a a", [(0, 3), (1, 4), (2, 5)]),
    (["a"], "a a a", [(0, 1), (1, 2), (2, 3)]),
    # an entry inserted before and after its own extension ends at its own node either way
    (["a b c", "a b"], "a b c", [(0, 3)]),
    (["a b", "a b c"], "a b c", [(0, 3)]),
    (["a b c", "a b"], "a b d", [(0, 2)]),
    (["a b", "a b c"], "a b d", [(0, 2)]),
    # "a x" and "b x" end in the one shared leaf; extending "a x" must leave "b x" an entry, not a prefix
    (["a x", "b x", "a x y"], "b x y", [(0, 2)]),
    (["a", "a b c"], "a b", [(0, 1)]),
    # an empty word is no word of any entry, so it matches nothing and ends every walk through it
    (["a", "a b"], ["a", "", "b"], [(0, 1)]),
], ids=["unfinished-prefix", "ends-at-reach", "max-order-1", "empty-lexicon", "empty-sentence",
        "repeated-words", "repeated-one-word", "extension-first", "extension-last",
        "extension-first-unfinished", "extension-last-unfinished", "shared-leaf", "entry-then-prefix",
        "empty-word"])
def test_sweep_named_cases(expressions, sentence, expected):
    words = sentence.split() if isinstance(sentence, str) else sentence
    lex = _lex(*expressions)
    assert _sweep(words, lex) == expected == maximal_spans_oracle(_spans(enumerate_candidates(words, lex)))


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_sweep_ignores_insertion_order_property(rng):
    words, expressions = random_segmentation_instance(rng)
    shuffled = list(expressions)
    rng.shuffle(shuffled)
    expected = maximal_spans_oracle(_spans(enumerate_candidates(words, _lex(*expressions))))
    assert _sweep(words, _lex(*shuffled)) == _sweep(words, _lex(*expressions)) == expected


def test_cover_deterministic():
    rng = random.Random(11)
    words, expressions = random_segmentation_instance(rng)
    lex = _lex(*expressions)
    runs = [segment_words(words, lex).segments for _ in range(5)]
    assert all(r == runs[0] for r in runs)


def test_unfiltered_cover_monotone_under_new_entries():
    """Growing the candidate set can only keep or reduce the best cover size."""
    rng = random.Random(4501)
    for _ in range(200):
        words, expressions = random_segmentation_instance(rng)
        if not words:
            continue
        lex = _lex(*expressions)
        extra_order = rng.randint(1, 4)
        extra = " ".join(rng.choice(["a", "b", "c"]) for _ in range(extra_order))
        bigger = _lex(*(list(expressions) + [extra]))
        before = len(best_cover(len(words), _spans(enumerate_candidates(words, lex))))
        after = len(best_cover(len(words), _spans(enumerate_candidates(words, bigger))))
        assert after <= before


def test_pipeline_counterexample_to_raw_monotonicity():
    """Adding an entry that subsumes a load-bearing candidate can worsen the
    post-filter cover: the filter is a precision heuristic, not an optimizer.
    Pinned so the behavior stays deliberate.
    """
    words = ["w0", "w1", "w2", "w3", "w4"]
    small = _lex("w0 w1", "w2 w3 w4")
    assert len(segment_words(words, small)) == 2
    grown = _lex("w0 w1", "w2 w3 w4", "w0 w1 w2")
    assert len(segment_words(words, grown)) == 3


# --- tagging and encoding ----------------------------------------------------

def test_tag_segments_table2():
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé", "a ɖo")
    seg = segment_words(TABLE2_WORDS, lex)
    assert tag_segments(seg, TABLE2_WORDS) == [
        "<start> a ɖo jiɖiɖe ɖo wutu cé à <end>",
        "<start> nɔnvi cé <end>",
    ]


def test_tag_segments_empty():
    assert tag_segments(select_cover([], []), []) == []


def test_tag_segments_oov_fallback():
    seg = segment_words(["zzz"], _lex())
    assert tag_segments(seg, ["zzz"]) == ["<start> zzz <end>"]


def _table2_vocab(lex):
    stream = []
    for line in [TABLE2_SENTENCE]:
        words = split_words(normalize(line))
        stream.extend(segment_words(words, lex).texts(words))
    return build_vocab(stream)


def test_tokenize_web_table2():
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé", "a ɖo")
    vocab = _table2_vocab(lex)
    ids = tokenize_web(TABLE2_SENTENCE, lex, vocab, emit_tags=False)
    assert len(ids) == 2
    assert UNK_ID not in ids
    tagged = tokenize_web(TABLE2_SENTENCE, lex, vocab)
    assert tagged == [START_ID, ids[0], END_ID, START_ID, ids[1], END_ID]


def test_tokenize_web_oov_sentence():
    lex = _lex("a ɖo")
    vocab = build_vocab(["a ɖo"])
    assert tokenize_web("zzz", lex, vocab, emit_tags=False) == [UNK_ID]


def test_tokenize_web_decode_reproduces_tagged_strings():
    lex = _lex(SEVEN_WORD_EXPR, "nɔnvi cé", "cé", "a ɖo")
    vocab = _table2_vocab(lex)
    ids = tokenize_web(TABLE2_SENTENCE, lex, vocab)
    tokens = vocab.decode(ids)
    rebuilt = [" ".join(tokens[i:i + 3]) for i in range(0, len(tokens), 3)]
    seg = segment_words(TABLE2_WORDS, lex)
    assert rebuilt == tag_segments(seg, TABLE2_WORDS)


def test_tokenize_web_settings_mismatch():
    lex, _ = build_lexicon([("a ɖo", None)], NormSettings(lowercase=True))
    vocab = build_vocab(["a ɖo"], settings=NormSettings(lowercase=False))
    with pytest.raises(ConfigError):
        tokenize_web("a ɖo", lex, vocab)


def test_degenerate_unigram_lexicon_equals_word_stream():
    rng = random.Random(5603)
    for _ in range(100):
        words = [rng.choice(["a", "b", "c"]) for _ in range(rng.randint(0, 8))]
        lex = _lex("a", "b", "c")
        vocab = build_vocab(["a", "b", "c"])
        seg = segment_words(words, lex)
        assert seg.texts(words) == words
        assert tokenize_web(" ".join(words), lex, vocab, emit_tags=False) == vocab.encode(words)
