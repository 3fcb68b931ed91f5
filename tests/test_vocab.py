import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weblex.errors import FormatError
from weblex.textnorm import NormSettings
from weblex.vocab import (
    END_ID,
    PAD_ID,
    START_ID,
    UNK_ID,
    SPECIAL_TOKENS,
    Vocabulary,
    build_vocab,
    load_vocab,
    save_vocab,
)


def test_fixed_special_ids():
    vocab = build_vocab([])
    assert vocab.token_to_id("<pad>") == PAD_ID == 0
    assert vocab.token_to_id("<unk>") == UNK_ID == 1
    assert vocab.token_to_id("<start>") == START_ID == 2
    assert vocab.token_to_id("<end>") == END_ID == 3


def test_count_then_lexicographic_ordering():
    vocab = build_vocab(["b", "b", "b", "a", "a", "a", "c"], min_count=2)
    assert len(vocab) == 6
    assert vocab.token_to_id("a") == 4  # count tie with b, lexicographic
    assert vocab.token_to_id("b") == 5
    assert vocab.token_to_id("c") == UNK_ID  # below min_count


def test_empty_stream_gives_specials_only():
    assert len(build_vocab([])) == 4


def test_expressions_are_single_tokens():
    stream = ["a ɖo jiɖiɖe ɖo wutu cé à", "nɔnvi cé", "a ɖo jiɖiɖe ɖo wutu cé à"]
    vocab = build_vocab(stream)
    assert "a ɖo jiɖiɖe ɖo wutu cé à" in vocab
    assert vocab.token_to_id("a ɖo jiɖiɖe ɖo wutu cé à") == 4


def test_encode_decode_round_trip_in_vocab():
    tokens = ["a ɖo jiɖiɖe ɖo wutu cé à", "nɔnvi cé"]
    vocab = build_vocab(tokens)
    assert vocab.decode(vocab.encode(tokens)) == tokens


def test_encode_unknown_token():
    vocab = build_vocab(["known"])
    assert vocab.encode(["never seen"]) == [UNK_ID]


def test_decode_unk_id_gives_literal_unk():
    assert build_vocab([]).decode([UNK_ID]) == ["<unk>"]


def test_decode_out_of_range():
    vocab = build_vocab(["x"])
    assert vocab.id_to_token(len(vocab) - 1) == "x"
    with pytest.raises(ValueError, match="out of range"):
        vocab.decode([len(vocab)])
    with pytest.raises(ValueError, match="out of range"):
        vocab.decode([-1])


@pytest.mark.parametrize("ids, bad", [([4, 5], 5), ([-1, 9], -1), ([0, 4, 7, -2], 7), ([4, 4, 6], 6)])
def test_decode_names_the_first_bad_id_of_a_list_or_a_stream(ids, bad):
    vocab = build_vocab(["x"])
    for given_ids in (ids, iter(ids)):
        with pytest.raises(ValueError, match=rf"^id {bad} out of range for vocabulary of size 5$"):
            vocab.decode(given_ids)


def test_decode_reads_a_stream_once():
    vocab = build_vocab(["x", "y"])
    assert vocab.decode(i for i in (4, 1, 5, 0)) == ["x", "<unk>", "y", "<pad>"]


def test_random_round_trips():
    rng = random.Random(888)
    pool = [f"tok{i}" for i in range(50)] + ["multi word expr", "ɖo ganji"]
    vocab = build_vocab(pool * 2)
    for _ in range(1000):
        tokens = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        assert vocab.decode(vocab.encode(tokens)) == tokens


def test_build_stable():
    stream = ["z", "y", "z", "x", "y", "z"]
    assert build_vocab(stream).tokens() == build_vocab(list(stream)).tokens()


def test_specials_in_stream_not_duplicated():
    vocab = build_vocab(["<unk>", "<pad>", "word"])
    assert len(vocab) == 5
    assert vocab.tokens().count("<unk>") == 1


def test_empty_strings_ignored():
    assert len(build_vocab(["", "a"])) == 5


def test_rejects_duplicate_tokens():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(["a", "a"])


def test_rejects_an_empty_token():
    with pytest.raises(ValueError, match="^empty token string in vocabulary$"):
        Vocabulary(["a", ""])


@pytest.mark.parametrize("min_count", [0, -1])
def test_build_refuses_min_count_below_one(min_count):
    with pytest.raises(ValueError, match="^min_count must be >= 1$"):
        build_vocab(["a"], min_count=min_count)


def test_round_trip_file(tmp_path):
    vocab = build_vocab(["b", "b", "a", "multi word"], settings=NormSettings(lowercase=True))
    path = str(tmp_path / "v.weblex")
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded == vocab
    assert loaded != vocab.tokens()  # only another vocabulary can compare equal
    assert loaded.settings.lowercase


@pytest.mark.parametrize("token, why", [
    ("x\r", "a TAB, LF or CR"),  # the framing would drop the CR and load 'x'
    ("a\tb", "a TAB, LF or CR"),
    ("a\nb", "a TAB, LF or CR"),
    ("\ud800", "a lone surrogate"),
])
def test_save_refuses_a_token_that_would_not_read_back(tmp_path, token, why):
    path = tmp_path / "v.weblex"
    with pytest.raises(ValueError, match=f"^id 5: token {re.escape(repr(token))} holds {why}$"):
        save_vocab(Vocabulary(["ok", token, "a\u2028b"]), str(path))
    assert not path.exists()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=["\t", "\n", "\r", "\u2028", "\ud800", " ", "a"], min_size=1, max_size=4),
                unique=True, max_size=6), st.booleans())
def test_every_vocabulary_save_accepts_loads_back_equal(tokens, lowercase):
    vocab = Vocabulary(tokens, NormSettings(lowercase))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.weblex"
        try:
            save_vocab(vocab, str(path))
        except ValueError as exc:
            idx = next(i for i, tok in enumerate(tokens) if re.search("[\t\n\r\ud800-\udfff]", tok))
            assert str(exc).startswith(f"id {idx + len(SPECIAL_TOKENS)}: ")
            assert not path.exists()
            return
        assert load_vocab(str(path)) == vocab


def test_load_rejects_gap_in_ids(tmp_path):
    path = tmp_path / "gap.weblex"
    path.write_text(
        "#weblex-vocab v=1 lowercase=0\n"
        "0\t<pad>\n"
        "2\t<start>\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 3"):
        load_vocab(str(path))


@pytest.mark.parametrize("idx_text", ["+4", "0_4", " 4", "4 ", "٤", "04"])
def test_load_rejects_ids_not_written_as_saved(tmp_path, idx_text):
    path = tmp_path / "v.weblex"
    path.write_text(
        "#weblex-vocab v=1 lowercase=0\n0\t<pad>\n1\t<unk>\n2\t<start>\n3\t<end>\n"
        f"{idx_text}\ta\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match=f"^{re.escape(f'line 6: id {idx_text!r} is not an integer')}$"):
        load_vocab(str(path))


def test_load_rejects_missing_specials(tmp_path):
    path = tmp_path / "nospecials.weblex"
    path.write_text(
        "#weblex-vocab v=1 lowercase=0\n"
        "0\ta\n"
        "1\tb\n"
        "2\tc\n"
        "3\td\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="specials"):
        load_vocab(str(path))


@pytest.mark.parametrize("row, message", [
    ("4\t", "line 6: empty token string"),
    ("4\ta\n5\ta", "line 7: duplicate token 'a'"),
    ("4\t<unk>", "line 6: duplicate token '<unk>'"),
])
def test_load_refuses_an_empty_or_a_repeated_token(tmp_path, row, message):
    path = tmp_path / "v.weblex"
    path.write_text(f"#weblex-vocab v=1 lowercase=0\n0\t<pad>\n1\t<unk>\n2\t<start>\n3\t<end>\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_vocab(str(path))


@pytest.mark.parametrize("row, message", [
    ("4\ta\rb", "line 6: token 'a\\rb' holds a TAB, LF or CR"),
    ("4\ta\r\r", "line 6: token 'a\\r' holds a TAB, LF or CR"),  # framing drops only the last CR
    ("4\ta\rb\n6\tc", "line 6: token 'a\\rb' holds a TAB, LF or CR"),  # before the gap on line 7
])
def test_load_refuses_a_token_holding_a_cr(tmp_path, row, message):
    # save_vocab refuses such a token, so saving what loaded would not give back the file
    path = tmp_path / "v.weblex"
    path.write_text(f"#weblex-vocab v=1 lowercase=0\n0\t<pad>\n1\t<unk>\n2\t<start>\n3\t<end>\n{row}\n",
                    encoding="utf-8", newline="")
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_vocab(str(path))


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "wrong.weblex"
    path.write_text("#weblex-bpe v=1 size=10 marker=</w> lowercase=0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        load_vocab(str(path))


def test_special_tokens_tuple():
    assert SPECIAL_TOKENS == ("<pad>", "<unk>", "<start>", "<end>")


@given(st.lists(st.text(min_size=1), min_size=1, max_size=8), st.data())
def test_decode_inverts_encode_for_in_vocabulary_tokens(tokens, data):
    vocab = build_vocab(tokens)  # min_count 1 keeps every token
    x = data.draw(st.lists(st.sampled_from(tokens + list(SPECIAL_TOKENS)), max_size=10))
    assert vocab.decode(vocab.encode(x)) == x
