import random
import unicodedata

from hypothesis import given
from hypothesis import strategies as st

from helpers import normalize_oracle
from weblex.textnorm import normal_words, normalize, split_words

# Unicode full case folding for the two uppercase code points in "Un Ɖo",
# straight from the reference table: U+0055 -> U+0075, U+0189 -> U+0256.
CASE_FOLD_TABLE = {"U": "u", "Ɖ": "ɖ"}


def test_whitespace_collapse():
    assert normalize("  un  ɖo ganji ") == "un ɖo ganji"


def test_canonical_composition():
    decomposed = "mɛtà"  # base letter + combining grave
    composed = "mɛtà"
    assert normalize(decomposed) == composed
    assert normalize(composed) == composed


def test_lowercase_flag_uses_case_folding():
    folded = "".join(CASE_FOLD_TABLE.get(ch, ch) for ch in "Un Ɖo")
    assert normalize("Un Ɖo", lowercase=True) == folded == "un ɖo"


def test_lowercase_off_by_default():
    assert normalize("Un Ɖo") == "Un Ɖo"


def test_control_characters_removed():
    assert normalize("a\x00b") == "ab"
    assert normalize("a\tb\nc") == "a b c"  # whitespace controls act as separators
    assert normalize("a​b") == "ab"  # zero-width space (format char)


def test_split_words_fon_example():
    assert split_words("un ɖo ganji") == ["un", "ɖo", "ganji"]


def test_split_words_empty():
    assert split_words("") == []


def test_split_words_eight_word_sentence():
    sentence = normalize("mɛtà mɛtà wɛ zìnwó hɛn wa aligbo mɛ")
    assert len(split_words(sentence)) == 8


def _random_text(rng):
    pool = (
        "abcXYZ ɖɛɔàé̀́\t\n ​\x07 İẞǅ  "
        "ƉƆmno"
    )
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))


def test_normalize_idempotent():
    rng = random.Random(20240811)
    for _ in range(500):
        text = _random_text(rng)
        for lowercase in (False, True):
            once = normalize(text, lowercase)
            assert normalize(once, lowercase) == once


def test_split_join_round_trip():
    rng = random.Random(4711)
    for _ in range(500):
        text = normalize(_random_text(rng))
        words = split_words(text)
        assert " ".join(words) == text
        assert all(" " not in w and w for w in words)


def test_word_count_matches_space_runs():
    text = normalize("un ɖo ganji")
    assert len(split_words(text)) == text.count(" ") + 1


def test_normalized_has_no_control_characters():
    rng = random.Random(99)
    for _ in range(300):
        out = normalize(_random_text(rng))
        assert not any(unicodedata.category(ch) in ("Cc", "Cf") for ch in out)
        assert out == out.strip()
        assert "  " not in out


# Cc, Cf, Zl, Zp, Zs, tabs and other whitespace, combining marks, astral
# characters, and text that is already printable
_AWKWARD = st.sampled_from(
    "\t\n\r\x0b\x0c\x00\x07\x1f\x7f\x85\xa0\xad\u200b\u200d\u2028\u2029\u3000\u2003"
    "\ufeff\u0300\u0301\u0323ɖɛɔÀİẞǅ\U0001d400\U0001f600\U000e0001 aZ"
)
_UNICODE_TEXT = st.text(alphabet=st.characters() | _AWKWARD, max_size=40)


@given(_UNICODE_TEXT, st.booleans())
def test_normalize_matches_per_character_oracle(text, lowercase):
    assert normalize(text, lowercase) == normalize_oracle(text, lowercase)


@given(_UNICODE_TEXT, st.booleans())
def test_normalize_idempotent_property(text, lowercase):
    once = normalize(text, lowercase)
    assert normalize(once, lowercase) == once



@given(_UNICODE_TEXT, st.booleans())
def test_normal_words_splits_what_normalize_joins(text, lowercase):
    words = normal_words(text, lowercase)
    assert words == split_words(normalize(text, lowercase))
    assert " ".join(words) == normalize(text, lowercase)
