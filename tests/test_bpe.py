import functools
import random
from collections import Counter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import bpe_apply_oracle, bpe_learn_oracle
from weblex.bpe import MARKER, BpeModel, apply_bpe, decode_bpe, learn_bpe, load_bpe, save_bpe
from weblex.errors import FormatError
from weblex.textnorm import NormSettings

# hand-simulated merge sequence for {"low" x5, "lower" x2}:
#   pair counts  (l,o)=7 | (lo,w</w>)=5 | tie at 2 -> (e,r</w>) wins the
#   lexicographic tie-break, then (lo,w), then (low,er</w>)
LOW_LOWER_MERGES = (
    ("l", "o"),
    ("lo", "w</w>"),
    ("e", "r</w>"),
    ("lo", "w"),
    ("low", "er</w>"),
)


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
    assert model.merges == ()


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
    assert decode_bpe(apply_bpe(model, words)) == words


def test_decode_empty():
    assert decode_bpe([]) == []


def test_decode_refuses_a_marker_that_ends_no_subword():
    with pytest.raises(FormatError, match="^end-of-word marker produced an empty word$"):
        decode_bpe([MARKER])


def _random_words(rng, count):
    alphabet = "abɖɛco"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(count)]


def test_round_trip_1000_random_sentences():
    rng = random.Random(60601)
    model = learn_bpe([" ".join(_random_words(rng, 40)) for _ in range(30)], target_size=120)
    for _ in range(1000):
        words = _random_words(rng, rng.randint(0, 8))
        assert decode_bpe(apply_bpe(model, words)) == words


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
        shorter = BpeModel(model.merges[:k], model.target_size, settings=model.settings)
        longer = BpeModel(model.merges[:k + 1], model.target_size, settings=model.settings)
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
        "l o\n"
        "bad\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 3: duplicate merge"):
        load_bpe(str(path))


def test_load_rejects_underivable_symbol(tmp_path):
    path = tmp_path / "bad.bpe"
    path.write_text(
        "#weblex-bpe v=1 size=50 marker=</w> lowercase=0\n"
        "xy z\n"
        "a  b\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 2: symbol 'xy'"):
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


@pytest.mark.parametrize("size", ["0", "-5"])
def test_load_rejects_size_below_1(tmp_path, size):
    path = tmp_path / "size.bpe"
    path.write_text(f"#weblex-bpe v=1 size={size} marker=</w> lowercase=0\nl o\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"^line 1: size {size} is below 1"):
        load_bpe(str(path))


@pytest.mark.parametrize("size", [0, -3])
def test_constructor_refuses_size_below_1(size):
    with pytest.raises(ValueError, match=f"^target_size must be at least 1, got {size}"):
        BpeModel([], size)


def test_constructor_refuses_a_lone_surrogate():
    with pytest.raises(ValueError, match=r"^merges\[0\]: symbol '\\ud800' is not UTF-8 encodable"):
        BpeModel([("\ud800", "a</w>")], 10)
    with pytest.raises(ValueError, match=r"^merges\[1\]: symbol '\\ud800</w>' is not UTF-8 encodable"):
        BpeModel([("a", "b"), ("a", "\ud800</w>")], 10)


@pytest.mark.parametrize("marker", ["", " ", "</w> ", "a\tb", "a\u00a0b", "@@", "</W>"])
def test_load_refuses_any_other_marker(tmp_path, marker):
    path = tmp_path / "marker.bpe"
    path.write_text(f"#weblex-bpe v=1 size=50 marker={marker} lowercase=0\nl o\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1: "):
        load_bpe(str(path))


# ---- the constructor refuses exactly what load_bpe refuses

_HEADER = "#weblex-bpe v=1 size=50 marker=</w> lowercase=0\n"


def _load_rows(tmp_path_factory, merges):
    path = tmp_path_factory.getbasetemp() / "rows.bpe"
    path.write_text(_HEADER + "".join(f"{left} {right}\n" for left, right in merges), encoding="utf-8")
    return load_bpe(str(path))


@pytest.mark.parametrize("merges, rank, why", [
    ([("a", "b"), ("a", "b")], 1, "duplicate merge a b"),
    ([("xy", "z")], 0, "symbol 'xy' is not"),
    ([("a", "b"), ("\t", "a")], 1, "symbol '\\\\t' is not"),
], ids=["duplicate-pair", "underivable-symbol", "whitespace-character"])
def test_constructor_refuses_what_load_refuses(tmp_path_factory, merges, rank, why):
    with pytest.raises(ValueError, match=rf"^merges\[{rank}\]: {why}"):
        BpeModel(merges, 10)
    with pytest.raises(FormatError, match=f"^line {rank + 2}: {why}"):
        _load_rows(tmp_path_factory, merges)


@st.composite
def _merge_lists(draw, chars="ab"):
    # characters, marked characters, outputs of earlier merges and symbols
    # no word can give; then repeats and any order
    merges: list[tuple[str, str]] = []

    def symbol():
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(["ab", "</w>", "b</w>a"]))
        marked = [char + MARKER for char in chars]
        return draw(st.sampled_from([*chars, *marked, *(left + right for left, right in merges)]))

    for _ in range(draw(st.integers(0, 6))):
        merges.append((symbol(), symbol()))
    if merges:
        merges += draw(st.lists(st.sampled_from(merges), max_size=2))
    return draw(st.permutations(merges)) if draw(st.booleans()) else merges


@given(_merge_lists())
def test_load_refuses_exactly_the_lists_the_constructor_refuses(tmp_path_factory, merges):
    try:
        model = BpeModel(merges, 50)
    except ValueError as exc:
        rank, why = str(exc).removeprefix("merges[").split("]: ", 1)
        with pytest.raises(FormatError) as refused:
            _load_rows(tmp_path_factory, merges)
        assert str(refused.value) == f"line {int(rank) + 2}: {why}"
    else:
        assert _load_rows(tmp_path_factory, merges) == model
        path = str(tmp_path_factory.getbasetemp() / "saved.bpe")
        save_bpe(model, path)
        assert load_bpe(path) == model


@given(_merge_lists(chars="a\ud800"))
def test_every_model_the_constructor_accepts_saves_and_loads_back(tmp_path_factory, merges):
    try:
        model = BpeModel(merges, 50)
    except ValueError:
        return
    path = str(tmp_path_factory.getbasetemp() / "accepted.bpe")
    save_bpe(model, path)
    assert load_bpe(path) == model


@given(st.lists(st.text(alphabet="ab ", max_size=14), min_size=1, max_size=6), st.integers(1, 40))
def test_learned_merges_never_repeat_and_load_back_equal(tmp_path_factory, corpus, extra):
    assume(any(line.split() for line in corpus))
    model = learn_bpe(corpus, target_size=len(_initial_symbols(corpus)) + extra)
    assert len(set(model.merges)) == len(model.merges)
    path = str(tmp_path_factory.getbasetemp() / "learned.bpe")
    save_bpe(model, path)
    assert load_bpe(path) == model


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
    (["ab ab"], 100, (("a", "b</w>"),)),
    # best count below 2: every pair occurs once
    (["abc"], 100, ()),
    # target size reached, after merges inside the overlapping run "aaaa"
    (["aaaa aaaa abab abab"], 6, (("a", "a"), ("a", "a</w>"))),
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


def _derivable(merges):
    """The merges, in order, whose sides are characters, marked characters
    or outputs of the merges kept before them."""
    kept, outputs = [], set()
    for left, right in merges:
        if all(len(part) == 1 or part[1:] == "</w>" or part in outputs for part in (left, right)):
            kept.append((left, right))
            outputs.add(left + right)
    return kept


def test_apply_matches_oracle_on_hand_built_merge_lists():
    # shuffled merges that stay derivable: ranks are no longer in learning
    # order, so a merge may find its pair only after a later-learned one
    rng = random.Random(6262)
    for _ in range(60):
        merges = list(learn_bpe(_random_corpus(rng), target_size=60).merges)
        rng.shuffle(merges)
        merges = _derivable(merges)
        model = BpeModel(merges, 60)
        words = ["".join(rng.choice("aɖɛbc") for _ in range(rng.randint(1, 10))) for _ in range(40)]
        assert apply_bpe(model, words) == bpe_apply_oracle(merges, words)
    model = BpeModel([("b", "c"), ("a", "b"), ("ab", "c"), ("a", "bc")], 10)
    assert apply_bpe(model, ["abcd"]) == ["abc", "d</w>"] == bpe_apply_oracle(model.merges, ["abcd"])


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


def test_merges_cannot_be_reassigned_or_extended():
    given = [("l", "o"), ("lo", "w</w>")]
    model = BpeModel(given, 100)
    assert apply_bpe(model, ["low"]) == ["low</w>"]
    given[1] = ("o", "w</w>")  # the model keeps its own copy
    with pytest.raises(AttributeError):
        model.merges = model.merges[:1]
    with pytest.raises(AttributeError):
        model.merges.append(("e", "r</w>"))
    with pytest.raises(TypeError):
        model.merges[1] = ("o", "w</w>")
    assert model.merges == (("l", "o"), ("lo", "w</w>"))
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
    assert decode_bpe(tokens) == words
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

