import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weblex.errors import FormatError
from weblex.lexicon import build_lexicon, load_lexicon, save_lexicon
from weblex.textnorm import NormSettings

FIVE_ENTRIES = [
    ("nɔncé", "maman"),
    ("kuɖo jigbézǎn", "joyeux anniversaire"),
    ("nɔncé vivɛ", "maman chérie"),
    ("a ɖo jiɖiɖe ɖo wutu cé à", "as-tu confiance en moi ?"),
    ("nɔnvi cé", "mon frère / ma soeur"),
]


def test_build_two_entry_example():
    lex, report = build_lexicon([("nɔncé", "maman"), ("kuɖo jigbézǎn", "joyeux anniversaire")])
    assert len(lex) == 2
    assert lex.max_order == 2
    assert report.clean


def test_build_empty():
    lex, report = build_lexicon([])
    assert len(lex) == 0
    assert lex.max_order == 0
    assert report.clean


def test_duplicate_after_whitespace_normalization():
    lex, report = build_lexicon([("a ɖo", "x"), ("a  ɖo", "y")])
    assert len(lex) == 1
    assert report.duplicates == 1
    assert lex.gloss_of(("a", "ɖo")) == "x"  # first gloss wins


def test_rejected_empty_expression():
    lex, report = build_lexicon([("   ", "gloss"), ("ok", None)])
    assert len(lex) == 1
    assert report.rejected == [(1, "empty expression after normalization")]


def test_rejected_lone_surrogate():
    lex, report = build_lexicon([("a", "x"), ("b \ud800", None), ("c", "y\udfff"), ("b", None)])
    assert [(e.words, e.gloss) for e in lex.expressions()] == [(("a",), "x"), (("b",), None)]
    assert report.rejected == [(2, "entry holds a lone surrogate"), (3, "entry holds a lone surrogate")]


_TEXT = st.text(alphabet=["\t", "\n", "\r", "\u2028", "\ud800", " ", "a"], max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TEXT, st.none() | _TEXT), max_size=6), st.booleans())
def test_every_lexicon_build_accepts_saves_and_loads_back_equal(pairs, lowercase):
    lex, _ = build_lexicon(pairs, NormSettings(lowercase))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "lex.weblex")
        save_lexicon(lex, path)
        loaded, report = load_lexicon(path)
    assert loaded == lex and report.clean


def test_contains():
    lex, _ = build_lexicon(FIVE_ENTRIES)
    assert lex.contains(["nɔncé"])
    assert ["nɔncé"] in lex
    assert not lex.contains([])
    assert not lex.contains(["zzz"])


def test_no_implicit_composition():
    lex, _ = build_lexicon([("nɔncé", None), ("vivɛ", None)])
    assert not lex.contains(["nɔncé", "vivɛ"])


def test_max_order_is_data_driven():
    # no hard cap: a 7-word expression simply sets max_order to 7
    lex, _ = build_lexicon(FIVE_ENTRIES)
    assert lex.max_order == 7


def test_round_trip_five_entries(tmp_path):
    lex, _ = build_lexicon(FIVE_ENTRIES + [("glossless", None)])
    path = str(tmp_path / "lex.weblex")
    save_lexicon(lex, path)
    loaded, report = load_lexicon(path)
    assert loaded == lex
    assert loaded != dict(lex.expressions())  # only another lexicon can compare equal
    assert loaded.settings == lex.settings
    assert report.clean


def test_round_trip_empty(tmp_path):
    lex, _ = build_lexicon([], NormSettings(lowercase=True))
    path = str(tmp_path / "empty.weblex")
    save_lexicon(lex, path)
    loaded, _ = load_lexicon(path)
    assert loaded == lex
    assert loaded.settings.lowercase


def test_load_refuses_blank_line_and_comment(tmp_path):
    # `lexicon build` skips these in its input; a saved artifact never holds them
    header = "#weblex-lexicon v=1 lowercase=0 max_order=2\nun ɖo\tje suis\n"
    path = tmp_path / "hand.weblex"
    path.write_text(header + "\nganji\tbien\n", encoding="utf-8")
    with pytest.raises(FormatError, match="^line 3: "):
        load_lexicon(str(path))
    path.write_text(header + "ganji\tbien\n# a comment\nnɔncé\tmaman\n", encoding="utf-8")
    with pytest.raises(FormatError, match="^line 4: "):
        load_lexicon(str(path))


def test_entry_starting_with_hash_round_trips(tmp_path):
    lex, _ = build_lexicon([("#fon ɖo", "x")])
    path = str(tmp_path / "lex.weblex")
    save_lexicon(lex, path)
    loaded, report = load_lexicon(path)
    assert loaded == lex
    assert report.clean


def test_load_too_many_columns(tmp_path):
    path = tmp_path / "bad.weblex"
    path.write_text(
        "#weblex-lexicon v=1 lowercase=0 max_order=1\n"
        "a\tb\tc\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 2"):
        load_lexicon(str(path))


def test_load_version_mismatch(tmp_path):
    path = tmp_path / "old.weblex"
    path.write_text("#weblex-lexicon v=9 lowercase=0 max_order=0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="version"):
        load_lexicon(str(path))


def test_load_wrong_kind(tmp_path):
    path = tmp_path / "notalex.weblex"
    path.write_text("#weblex-vocab v=1 lowercase=0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        load_lexicon(str(path))


def test_load_max_order_disagreement(tmp_path):
    path = tmp_path / "corrupt.weblex"
    path.write_text(
        "#weblex-lexicon v=1 lowercase=0 max_order=4\n"
        "a ɖo\tje suis\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="max_order"):
        load_lexicon(str(path))


def test_lowercase_settings_applied_to_entries():
    lex, _ = build_lexicon([("Un Ɖo", None)], NormSettings(lowercase=True))
    assert lex.contains(["un", "ɖo"])
    assert not lex.contains(["Un", "Ɖo"])
