import functools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bpe_apply_oracle, bpe_learn_oracle
from weblex.bpe import BpeModel, apply_bpe, decode_bpe, learn_bpe, load_bpe, save_bpe
from weblex.errors import FormatError
from weblex.textnorm import NormSettings

# hand-simulated merge sequence for {"low" x5, "lower" x2}:
#   pair counts  (l,o)=7 | (lo,w</w>)=5 | tie at 2 -> (e,r</w>) wins the
#   lexicographic tie-break, then (lo,w), then (low,er</w>)
LOW_LOWER_MERGES = [
    ("l", "o"),
    ("lo", "w</w>"),
    ("e", "r</w>"),
    ("lo", "w"),
    ("low", "er</w>"),
]


def _toy_corpus(lines_with_counts):
    corpus = []
    for line, count in lines_with_counts:
        corpus.extend([line] * count)
    return corpus


def test_first_merge_on_abab():
    model = learn_bpe(_toy_corpus([("abab", 5)]), target_size=100)
    assert model.merges[0] == ("a", "b")


def test_single_character_words_learn_nothing():
    model = learn_bpe(["a b c", "a c"], target_size=100)
    assert model.merges == []


def test_low_lower_merge_sequence():
    model = learn_bpe(_toy_corpus([("low", 5), ("lower", 2)]), target_size=100)
    assert model.merges == LOW_LOWER_MERGES


def test_low_lower_against_step_by_step_oracle():
    """Re-derive each chosen merge with an independent pair counter."""
    model = learn_bpe(_toy_corpus([("low", 5), ("lower", 2)]), target_size=100)
    word_freq = {"low": 5, "lower": 2}
    state = {}
    for word in word_freq:
        chars = list(word)
        chars[-1] += "</w>"
        state[word] = chars
    for taken in model.merges:
        counts = Counter()
        for word, symbols in state.items():
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += word_freq[word]
        top = max(counts.values())
        assert counts[taken] == top >= 2
        assert taken == min(p for p, c in counts.items() if c == top)
        for word, symbols in state.items():
            rebuilt = []
            for sym in symbols:
                if rebuilt and (rebuilt[-1], sym) == taken:
                    rebuilt[-1] = rebuilt[-1] + sym
                else:
                    rebuilt.append(sym)
            state[word] = rebuilt


def test_frequent_word_fuses_to_single_subword():
    model = learn_bpe(_toy_corpus([("low", 5), ("lower", 2)]), target_size=100)
    assert apply_bpe(model, ["low"]) == ["low</w>"]
    assert apply_bpe(model, ["lower"]) == ["lower</w>"]
    # unseen word reuses what merges it can
    assert apply_bpe(model, ["lowest"]) == ["low", "e", "s", "t</w>"]


def test_apply_empty_sentence():
    model = learn_bpe(["abc"], target_size=100)
    assert apply_bpe(model, []) == []


def test_apply_unseen_characters_pass_through():
    model = learn_bpe(["abc abc"], target_size=100)
    assert apply_bpe(model, ["xyz"]) == ["x", "y", "z</w>"]


def test_round_trip_fon_sentence():
    model = learn_bpe(["un ɖo ganji"], target_size=100)
    words = ["un", "ɖo", "ganji"]
    assert decode_bpe(apply_bpe(model, words), model.marker) == words


def test_decode_empty():
    assert decode_bpe([]) == []


def _random_words(rng, count):
    alphabet = "abɖɛco"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(count)]


def test_round_trip_1000_random_sentences():
    rng = random.Random(60601)
    model = learn_bpe([" ".join(_random_words(rng, 40)) for _ in range(30)], target_size=120)
    for _ in range(1000):
        words = _random_words(rng, rng.randint(0, 8))
        assert decode_bpe(apply_bpe(model, words), model.marker) == words


def test_vocabulary_bound():
    corpus = _toy_corpus([("low", 5), ("lower", 2), ("lowest", 3)])
    for target in (10, 11, 12, 14):
        model = learn_bpe(corpus, target_size=target)
        chars = set()
        for word in ("low", "lower", "lowest"):
            symbols = list(word)
            symbols[-1] += model.marker
            chars.update(symbols)
        assert len(chars | {a + b for a, b in model.merges}) <= target


def test_more_merges_never_lengthen_tokenization():
    rng = random.Random(70707)
    corpus = [" ".join(_random_words(rng, 30)) for _ in range(20)]
    model = learn_bpe(corpus, target_size=150)
    words = _random_words(rng, 60)
    for k in range(len(model.merges)):
        shorter = BpeModel(model.merges[:k], model.target_size, model.marker, model.settings)
        longer = BpeModel(model.merges[:k + 1], model.target_size, model.marker, model.settings)
        for word in words:
            assert len(apply_bpe(longer, [word])) <= len(apply_bpe(shorter, [word]))


def test_learn_deterministic():
    rng = random.Random(808)
    corpus = [" ".join(_random_words(rng, 25)) for _ in range(15)]
    first = learn_bpe(corpus, target_size=100)
    second = learn_bpe(corpus, target_size=100)
    assert first.merges == second.merges


def test_learn_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        learn_bpe(["", "   "], target_size=100)


def test_learn_target_size_too_small():
    # "abc" yields symbols a, b, c</w>: floor is 3
    with pytest.raises(ValueError, match="floor of 3"):
        learn_bpe(["abc"], target_size=3)


def test_model_round_trip(tmp_path):
    model = learn_bpe(_toy_corpus([("low", 5), ("lower", 2)]), target_size=50,
                      settings=NormSettings(lowercase=True))
    path = str(tmp_path / "toy.bpe")
    save_bpe(model, path)
    loaded = load_bpe(path)
    assert loaded.merges == model.merges
    assert loaded.target_size == 50
    assert loaded.marker == model.marker
    assert loaded.settings == model.settings


def test_load_rejects_duplicate_merge(tmp_path):
    path = tmp_path / "dup.bpe"
    path.write_text(
        "#weblex-bpe v=1 size=50 marker=</w> lowercase=0\n"
        "l o\n"
        "l o\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 3"):
        load_bpe(str(path))


def test_load_rejects_underivable_symbol(tmp_path):
    path = tmp_path / "bad.bpe"
    path.write_text(
        "#weblex-bpe v=1 size=50 marker=</w> lowercase=0\n"
        "xy z\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 2"):
        load_bpe(str(path))


def test_load_rejects_empty_marker(tmp_path):
    path = tmp_path / "empty-marker.bpe"
    path.write_text(
        "#weblex-bpe v=1 size=50 marker= lowercase=0\n"
        "l o\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 1: end-of-word marker ''"):
        load_bpe(str(path))


@pytest.mark.parametrize("marker", ["", " ", "</w> ", "a\tb", "a\u00a0b"])
def test_learn_rejects_empty_or_whitespace_marker(marker):
    with pytest.raises(ValueError, match="non-empty and contain no whitespace"):
        learn_bpe(["ab ab ab"], 10, marker=marker)


def test_decode_marker_inside_token():
    with pytest.raises(FormatError, match="inside token"):
        decode_bpe(["a</w>b"])


def test_decode_unterminated_word():
    with pytest.raises(FormatError, match="without an end-of-word marker"):
        decode_bpe(["lo"])


# ---- the incremental learner and the rank-bounded apply against full replay

def _random_corpus(rng):
    # few letters, so pair counts tie often and runs such as "aaaa" overlap
    alphabet = rng.choice(["a", "ab", "abc", "aɖɛ"])
    return [
        " ".join("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                 for _ in range(rng.randint(1, 10)))
        for _ in range(rng.randint(1, 8))
    ]


def _initial_symbols(corpus):
    out = set()
    for line in corpus:
        for word in line.split():
            out.update(word[:-1])
            out.add(word[-1] + "</w>")
    return out


@pytest.mark.parametrize("corpus, target, expected", [
    # no pairs left: the only word fuses to one symbol
    (["ab ab"], 100, [("a", "b</w>")]),
    # best count below 2: every pair occurs once
    (["abc"], 100, []),
    # target size reached, after merges inside the overlapping run "aaaa"
    (["aaaa aaaa abab abab"], 6, [("a", "a"), ("a", "a</w>")]),
])
def test_learn_stop_rules_match_oracle(corpus, target, expected):
    model = learn_bpe(corpus, target_size=target)
    assert model.merges == expected == bpe_learn_oracle(corpus, target)


def test_learn_matches_oracle_on_random_corpora():
    rng = random.Random(4242)
    for _ in range(150):
        corpus = _random_corpus(rng)
        floor = len(_initial_symbols(corpus))
        target = floor + rng.choice([1, 2, 5, 20, 200])
        assert learn_bpe(corpus, target_size=target).merges == bpe_learn_oracle(corpus, target), corpus


def test_apply_matches_oracle_on_random_models():
    rng = random.Random(5151)
    for _ in range(60):
        model = learn_bpe(_random_corpus(rng), target_size=60)
        words = ["".join(rng.choice("aɖɛbcx") for _ in range(rng.randint(1, 10))) for _ in range(40)]
        words += ["a" * n for n in range(1, 9)]
        assert apply_bpe(model, words) == bpe_apply_oracle(model.merges, words)


def test_apply_matches_oracle_on_hand_built_merge_lists():
    # shuffled and repeated merges: ranks are no longer in learning order,
    # and a repeated pair may apply again after a later merge recreates it
    rng = random.Random(6262)
    for _ in range(60):
        merges = learn_bpe(_random_corpus(rng), target_size=60).merges
        merges = merges + [rng.choice(merges) for _ in range(3)] if merges else []
        rng.shuffle(merges)
        model = BpeModel(merges, 60)
        words = ["".join(rng.choice("aɖɛbc") for _ in range(rng.randint(1, 10))) for _ in range(40)]
        assert apply_bpe(model, words) == bpe_apply_oracle(merges, words)
    model = BpeModel([("ab", "c"), ("a", "b"), ("ab", "c")], 10)
    assert apply_bpe(model, ["abcd"]) == ["abc", "d</w>"]


def test_colliding_merge_outputs_follow_replay(tmp_path):
    # "a bc" and "ab c" both give "abc"; merging the lowest-ranked pair
    # without a bound would reach "abc d</w>" and then "abcd</w>"
    path = tmp_path / "collide.bpe"
    path.write_text(
        "#weblex-bpe v=1 size=50 marker=</w> lowercase=0\n"
        "a b\nb c\na bc\nabc d</w>\nab c\n",
        encoding="utf-8",
    )
    model = load_bpe(str(path))
    assert apply_bpe(model, ["abcd"]) == ["abc", "d</w>"]
    assert bpe_apply_oracle(model.merges, ["abcd"]) == ["abc", "d</w>"]


def test_apply_follows_a_replaced_or_extended_merge_list():
    model = learn_bpe(_toy_corpus([("low", 5), ("lower", 2)]), target_size=100)
    assert apply_bpe(model, ["low"]) == ["low</w>"]
    model.merges = model.merges[:1]
    assert apply_bpe(model, ["low"]) == ["lo", "w</w>"]
    model.merges.append(("lo", "w</w>"))
    assert apply_bpe(model, ["low"]) == ["low</w>"]


@functools.cache
def _property_model():
    # the marker's characters recur, so merges build pieces of it
    return learn_bpe(["un ɖo ganji <w>a</w", "un ɖo ɖo a</ w>", "ganji ganji ɛ"], target_size=60)


@given(st.lists(st.text(alphabet=st.characters() | st.sampled_from("</w>"), min_size=1), max_size=6))
def test_decode_inverts_apply_for_marker_free_words(words):
    words = [w for w in words if "</w>" not in w]
    model = _property_model()
    tokens = apply_bpe(model, words)
    assert decode_bpe(tokens, model.marker) == words
    assert tokens == bpe_apply_oracle(model.merges, words)


# ---- words decode could not restore are refused

def test_learn_refuses_word_with_marker():
    with pytest.raises(ValueError, match="line 2: word 'ab</w>c' contains the end-of-word marker"):
        learn_bpe(["ab", "ab</w>c ab</w>c"], target_size=100)


def test_apply_refuses_word_with_marker():
    model = learn_bpe(["abc abc"], target_size=100)
    with pytest.raises(ValueError, match="end-of-word marker"):
        apply_bpe(model, ["ok", "ab</w>c"])
    with pytest.raises(ValueError, match="empty word"):
        apply_bpe(model, [""])


def test_apply_refuses_word_ending_in_part_of_a_self_overlapping_marker():
    # "a@" + "@@" reads back as "a" followed by a stray "@"
    model = BpeModel([], 10, marker="@@")
    assert decode_bpe(apply_bpe(model, ["a"]), "@@") == ["a"]
    with pytest.raises(ValueError, match="ends in part of the end-of-word marker"):
        apply_bpe(model, ["a@"])
