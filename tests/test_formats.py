"""One framing rule for corpora, artifacts and stdio (weblex.formats)."""

import functools
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import read_lines_oracle
from weblex import formats
from weblex.bpe import learn_bpe, load_bpe, save_bpe
from weblex.cli import run
from weblex.errors import FormatError
from weblex.formats import iter_lines, parse_int, write_lines
from weblex.ibm1 import load_table, save_table, train_ibm1
from weblex.lexicon import build_lexicon, load_lexicon, save_lexicon
from weblex.textnorm import normalize, split_words
from weblex.vocab import build_vocab, load_vocab, save_vocab

REPO = Path(__file__).resolve().parent.parent
CORPUS = "un ɖo ganji\nmɛ ɖo wa\nun mɛ\n"


def _artifacts(d: Path) -> dict[str, tuple[Path, object]]:
    """Each artifact kind saved under d, with the loader that reads it back."""
    lex, _ = build_lexicon([("un ɖo", "un"), ("mɛ", None)])
    save_lexicon(lex, str(d / "lex.weblex"))
    save_bpe(learn_bpe(CORPUS.splitlines(), target_size=30), str(d / "m.bpe"))
    save_table(train_ibm1([(["un", "ɖo"], ["a", "b"]), (["un"], ["a"])], 3), str(d / "t.tsv"))
    save_vocab(build_vocab(CORPUS.split()), str(d / "v.weblex"))
    return {
        "lexicon": (d / "lex.weblex", lambda path: load_lexicon(path)[0]),
        "bpe": (d / "m.bpe", load_bpe),
        "ibm1": (d / "t.tsv", load_table),
        "vocab": (d / "v.weblex", load_vocab),
    }


@pytest.mark.parametrize("kind", ["lexicon", "bpe", "ibm1", "vocab"])
def test_crlf_artifact_loads_equal_to_lf(tmp_path, kind):
    path, load = _artifacts(tmp_path)[kind]
    data = path.read_bytes()
    assert b"\r" not in data and data.count(b"\n") > 1
    crlf = tmp_path / ("crlf-" + path.name)
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    assert load(str(crlf)) == load(str(path))


# a lone CR is not a line end: the whole file reads as one header line
@pytest.mark.parametrize("kind, argv", [
    ("lexicon", ["tokenize", "--strategy", "web", "--lexicon", "lex.weblex", "--vocab", "v.weblex",
                 "--in", "ids.txt"]),
    ("bpe", ["bpe", "apply", "--model", "m.bpe", "--in", "ids.txt"]),
    ("ibm1", ["ibm1", "extract", "--table", "t.tsv", "--tsv", "pairs.tsv", "--out", "phb.weblex"]),
    ("vocab", ["decode", "--vocab", "v.weblex", "--in", "ids.txt"]),
])
def test_lone_cr_artifact_is_refused_at_line_1(tmp_path, monkeypatch, capsys, kind, argv):
    monkeypatch.chdir(tmp_path)
    path, _ = _artifacts(tmp_path)[kind]
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    (tmp_path / "ids.txt").write_text("4 5\n", encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text("un ɖo\ta b\n", encoding="utf-8")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1:" in captured.err


# ---- files are read a block at a time, framed exactly as a whole-file decode frames them

_PIECES = [b"\n", b"\r", b"a", b" ", "é".encode("utf-8"), "\u2028".encode("utf-8"), b"\xc3", b"\xff"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map(b"".join), st.integers(1, 9))
def test_read_lines_in_blocks_equals_the_whole_file_oracle(tmp_path_factory, data, block):
    path = tmp_path_factory.getbasetemp() / "framed.txt"
    path.write_bytes(data)
    try:
        expected = read_lines_oracle(data, str(path))
    except ValueError as exc:
        expected = exc
    with mock.patch.object(formats, "_BLOCK", block):
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError) as refused:
                list(iter_lines(str(path)))
            assert str(refused.value) == str(expected)
        else:
            assert list(iter_lines(str(path))) == expected


def test_a_line_far_longer_than_a_block_is_read_in_linear_time(tmp_path):
    path = tmp_path / "long.txt"
    path.write_bytes(b"a" * 1_000_000 + b"\r\nb")
    with mock.patch.object(formats, "_BLOCK", 64):
        start = time.perf_counter()
        lines = list(iter_lines(str(path)))
        elapsed = time.perf_counter() - start
    assert lines == ["a" * 1_000_000, "b"]
    # joining the pieces once is linear; rebuilding the line at each block
    # would copy it 15,000 times over
    assert elapsed < 0.5


# ---- an integer field reads only the spelling weblex writes, never what int() also accepts

@pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("10", 10), ("-3", -3)])
def test_parse_int_reads_what_str_writes(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["+4", "1_0", "0_5", "٥", " 4", "4 ", "05", "-0", "", "4.0", "x"])
def test_parse_int_refuses_other_spellings(text):
    with pytest.raises(ValueError):
        parse_int(text)


@pytest.mark.parametrize("kind", ["lexicon", "bpe", "ibm1", "vocab"])
def test_empty_artifact_file_is_refused_at_line_1(tmp_path, kind):
    path, load = _artifacts(tmp_path)[kind]
    path.write_bytes(b"")
    with pytest.raises(FormatError, match=f"^line 1: empty file, expected {kind} header$"):
        load(str(path))


@pytest.mark.parametrize("kind, field, spelling", [
    ("lexicon", "max_order=2", "max_order=+2"),
    ("lexicon", "max_order=2", "max_order=٢"),
    ("bpe", "size=30", "size=3_0"),
    ("bpe", "size=30", "size=030"),
])
def test_header_int_refuses_other_spellings(tmp_path, kind, field, spelling):
    path, load = _artifacts(tmp_path)[kind]
    text = path.read_text(encoding="utf-8")
    assert field in text.splitlines()[0].split()
    path.write_text(text.replace(field, spelling, 1), encoding="utf-8")
    key, value = spelling.split("=")
    with pytest.raises(FormatError, match=re.escape(f"line 1: header field {key}={value!r} is not an integer")):
        load(str(path))


# ---- each artifact kind has one spelling: a file is refused, or saving what it loads gives back its bytes

_SAVE_LOAD = {
    "lexicon": (save_lexicon, lambda path: load_lexicon(path)[0]),
    "bpe": (save_bpe, load_bpe),
    "ibm1": (save_table, load_table),
    "vocab": (save_vocab, load_vocab),
}


@functools.cache
def _saved(kind: str) -> str:
    """A saved artifact of `kind`. The lexicon's 4-word entry keeps its
    max_order when a shorter row gains words."""
    built = {
        "lexicon": lambda: build_lexicon([("un ɖo", "un"), ("a b", "c d"), ("mɛ", None),
                                          ("wa un ɖo ganji", "é")])[0],
        "bpe": lambda: learn_bpe(CORPUS.splitlines(), target_size=30),
        "ibm1": lambda: train_ibm1([(["un", "ɖo"], ["a", "b"]), (["un"], ["a"])], 3),
        "vocab": lambda: build_vocab(CORPUS.split()),
    }[kind]()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        _SAVE_LOAD[kind][0](built, str(path))
        return path.read_bytes().decode("utf-8")


def _refused_or_saved_back(kind: str, text: str) -> bool:
    """Whether loading `text` raises FormatError; if it does not, saving what
    it loads must give back `text`, with the final LF iter_lines lets a file
    leave out (the mutations below write no CR, the other framing it allows)."""
    save, load = _SAVE_LOAD[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        path.write_bytes(text.encode("utf-8"))
        try:
            loaded = load(str(path))
        except FormatError:
            return True
        save(loaded, str(path))
        assert path.read_bytes().decode("utf-8") == (text if text.endswith("\n") else text + "\n")
        return False


@pytest.mark.parametrize("kind", _SAVE_LOAD)
def test_saved_artifact_loads_and_saves_back(kind):
    assert not _refused_or_saved_back(kind, _saved(kind))


_EDIT = st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(min_value=0),
                  st.sampled_from([" ", "\t", "\n", "_", "+", "E", "7", "\u0301"]))


@pytest.mark.parametrize("kind", _SAVE_LOAD)
@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_EDIT, max_size=4))
def test_mutated_artifact_is_refused_or_saves_back(kind, edits):
    text = _saved(kind)
    for op, pos, char in edits:
        pos %= len(text) + 1
        text = text[:pos] + ("" if op == "delete" else char) + text[pos + (op != "insert"):]
    _refused_or_saved_back(kind, text)


@pytest.mark.parametrize("kind, old, new", [
    ("vocab", "lowercase=0", "lowercas=1"),
    ("bpe", "size=30", "size=5 size=9"),
    ("ibm1", " null=1", ""),
    ("bpe", " marker=</w>", ""),
    ("ibm1", "null=1 lowercase=0", "lowercase=0 null=1"),
    ("vocab", "lowercase=0", "lowercase=0 "),
    ("lexicon", "\nmɛ\n", "\nme\u0301\n"),
    ("lexicon", "\té\n", "\te\u0301\n"),
    ("lexicon", "a b\tc d", "a b  c d"),
    ("lexicon", "\nmɛ\n", "\nmɛ\nmɛ\n"),
    ("lexicon", "max_order=4\n", "max_order=4\n# a comment\n"),
    ("vocab", "\n4\t", "\n4\ta\r"),
], ids=["unknown-field", "repeated-field", "missing-null", "missing-marker", "reordered-fields",
        "trailing-space", "non-nfc-expression", "non-nfc-gloss", "tab-less-row", "duplicate-row", "comment-row",
        "cr-inside-token"])
def test_artifact_defect_is_refused_or_saves_back(kind, old, new):
    text = _saved(kind)
    assert old in text
    _refused_or_saved_back(kind, text.replace(old, new, 1))


# ---- write_lines encodes in batches of 4,096 lines; a file it writes
# through a new file beside it, stdout only once every line is encoded

def _stdout_bytes(func) -> bytes:
    """What func writes to a byte-backed stdout."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with mock.patch.object(sys, "stdout", stdout):
        func()
    stdout.flush()
    return stdout.buffer.getvalue()


@pytest.mark.parametrize("count", [0, 1, 4096, 4097, 3 * 4096 + 5])
def test_write_lines_bytes_do_not_depend_on_batches(tmp_path, count):
    lines = [f"{i} ɖo\u2028{'x' * (i % 7)}" if i % 5 else "" for i in range(count)]
    expected = "".join(line + "\n" for line in lines).encode("utf-8")
    write_lines(str(tmp_path / "out.txt"), iter(lines))
    assert (tmp_path / "out.txt").read_bytes() == expected
    assert _stdout_bytes(lambda: write_lines(None, iter(lines))) == expected


def _failing_lines(bad_line: int):
    for i in range(1, bad_line):
        yield f"{i} un ɖo"
    raise ValueError(f"line {bad_line}: bad")


@pytest.mark.parametrize("path", ["out.txt", "-", None])
def test_write_lines_error_after_a_batch_writes_nothing(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)

    def write():
        with pytest.raises(ValueError, match="line 5000: bad"):
            write_lines(path, _failing_lines(5000))

    assert _stdout_bytes(write) == b""
    assert list(tmp_path.iterdir()) == []
    if path == "out.txt":  # an existing file keeps its bytes, and no new file is left beside it
        (tmp_path / "out.txt").write_bytes(b"old\r\nbytes")
        assert _stdout_bytes(write) == b""
        assert list(tmp_path.iterdir()) == [tmp_path / "out.txt"]
        assert (tmp_path / "out.txt").read_bytes() == b"old\r\nbytes"


def test_write_lines_interrupted_leaves_the_file_as_it_was(tmp_path):
    def lines():  # two whole batches, then Ctrl-C
        for i in range(2 * formats._BATCH):
            yield f"{i} un ɖo"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_lines(str(tmp_path / "new.txt"), lines())
    (tmp_path / "old.txt").write_bytes(b"old")
    with pytest.raises(KeyboardInterrupt):
        write_lines(str(tmp_path / "old.txt"), lines())
    assert list(tmp_path.iterdir()) == [tmp_path / "old.txt"]
    assert (tmp_path / "old.txt").read_bytes() == b"old"


def test_decode_error_at_line_5000_leaves_no_out_file_and_no_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(CORPUS, encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", "c.txt", "--out", "v.weblex"]) == 0
    (tmp_path / "ids.txt").write_text("4 5\n" * 4999 + "4 x\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["decode", "--vocab", "v.weblex", "--in", "ids.txt", "--out", "out.txt"]) == 2
    assert "line 5000: ids must be decimal integers" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()
    (tmp_path / "out.txt").write_bytes(b"old bytes\n")
    assert run(["decode", "--vocab", "v.weblex", "--in", "ids.txt", "--out", "out.txt"]) == 2
    assert "line 5000: ids must be decimal integers" in capsys.readouterr().err
    assert (tmp_path / "out.txt").read_bytes() == b"old bytes\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.txt", "ids.txt", "out.txt", "v.weblex"]
    assert run(["decode", "--vocab", "v.weblex", "--in", "ids.txt"]) == 2
    assert capsys.readouterr().out == ""


def test_rewriting_the_input_in_place_gives_the_bytes_of_a_new_file(tmp_path, monkeypatch):
    # more lines than a batch, more bytes than a read block
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(CORPUS, encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", "c.txt", "--out", "v.weblex"]) == 0
    (tmp_path / "c.txt").write_text(CORPUS * 5000, encoding="utf-8")
    assert (tmp_path / "c.txt").stat().st_size > formats._BLOCK
    encode = ["encode", "--vocab", "v.weblex", "--in", "c.txt", "--out"]
    assert run([*encode, "fresh.txt"]) == 0
    assert run([*encode, "c.txt"]) == 0
    assert (tmp_path / "c.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.txt", "fresh.txt", "v.weblex"]


_THREE_BATCHES = [f"{i} un ɖo" for i in range(2 * formats._BATCH + 3)]
_THREE_BATCHES_BYTES = "".join(line + "\n" for line in _THREE_BATCHES).encode("utf-8")


def test_write_lines_writes_to_dev_null_and_leaves_it_a_device():
    before = os.stat("/dev/null")
    write_lines("/dev/null", iter(_THREE_BATCHES))
    after = os.stat("/dev/null")
    assert (after.st_ino, after.st_mode, after.st_rdev) == (before.st_ino, before.st_mode, before.st_rdev)


def test_write_lines_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    (tmp_path / "real.txt").write_bytes(b"old")
    os.chmod(tmp_path / "real.txt", 0o640)
    (tmp_path / "link.txt").symlink_to("real.txt")
    (tmp_path / "dangling.txt").symlink_to("missing.txt")
    write_lines(str(tmp_path / "link.txt"), iter(_THREE_BATCHES))
    write_lines(str(tmp_path / "dangling.txt"), iter(_THREE_BATCHES))
    assert (tmp_path / "link.txt").is_symlink() and (tmp_path / "dangling.txt").is_symlink()
    assert (tmp_path / "real.txt").read_bytes() == (tmp_path / "missing.txt").read_bytes() == _THREE_BATCHES_BYTES
    assert (tmp_path / "real.txt").stat().st_mode & 0o7777 == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["dangling.txt", "link.txt", "missing.txt",
                                                                 "real.txt"]


def test_write_lines_writes_a_hard_linked_file_in_place(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"old")
    os.link(tmp_path / "a.txt", tmp_path / "b.txt")
    write_lines(str(tmp_path / "a.txt"), iter(_THREE_BATCHES))
    assert (tmp_path / "b.txt").read_bytes() == _THREE_BATCHES_BYTES
    assert os.path.samefile(tmp_path / "a.txt", tmp_path / "b.txt")


def test_write_lines_writes_into_a_fifo_and_leaves_it_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_lines(str(fifo), iter(_THREE_BATCHES))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [_THREE_BATCHES_BYTES]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_write_lines_writes_in_place_where_no_file_can_be_made_beside(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "open", refuse)  # the builtin open, which the fallback uses, does not call it
    write_lines(str(tmp_path / "out.txt"), iter(_THREE_BATCHES))
    monkeypatch.undo()
    assert (tmp_path / "out.txt").read_bytes() == _THREE_BATCHES_BYTES
    assert list(tmp_path.iterdir()) == [tmp_path / "out.txt"]


def test_write_lines_under_a_regular_file_raises_and_makes_nothing(tmp_path):
    # stat fails with NotADirectoryError, not FileNotFoundError, so the buffered branch opens the path
    (tmp_path / "f").write_bytes(b"x")

    def write():
        with pytest.raises(NotADirectoryError):
            write_lines(str(tmp_path / "f" / "out.txt"), iter(_THREE_BATCHES))

    assert _stdout_bytes(write) == b""
    assert list(tmp_path.iterdir()) == [tmp_path / "f"]
    assert (tmp_path / "f").read_bytes() == b"x"


# ---- memory: write_lines holds one batch, not its output
# (deterministic: tracemalloc, no timing)

def _write_lines_peak(path, count):
    lines = (f"{i:07d} un ɖo wutu nɔnvi cé" for i in range(count))
    tracemalloc.start()
    try:
        write_lines(str(path), lines)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_lines_heap_does_not_grow_with_its_output(tmp_path):
    batch = len("".join(f"{0:07d} un ɖo wutu nɔnvi cé\n" for _ in range(formats._BATCH)).encode("utf-8"))
    _write_lines_peak(tmp_path / "out.txt", 2 * formats._BATCH)  # warm-up: first-use caches
    once = _write_lines_peak(tmp_path / "out.txt", 2 * formats._BATCH)
    twenty = _write_lines_peak(tmp_path / "out.txt", 40 * formats._BATCH)
    assert twenty - once < batch, (once, twenty, batch)


# ---- stdin and stdout are strict UTF-8, whatever the interpreter's settings

def _cli(args, cwd, stdin=None, **env):
    full_env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **env)
    return subprocess.run([sys.executable, "-m", "weblex", *args], cwd=cwd, env=full_env,
                          input=stdin, capture_output=True)


def test_invalid_utf8_names_its_line_on_stdin_as_with_in(tmp_path):
    (tmp_path / "c.txt").write_text(CORPUS, encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    bad = "un ɖo\n".encode("utf-8") + b"un \xff wa\n" + "mɛ\n".encode("utf-8")
    (tmp_path / "bad.txt").write_bytes(bad)
    tokenize = ["tokenize", "--strategy", "wb", "--vocab", "v.weblex"]
    from_file = _cli(tokenize + ["--in", "bad.txt"], tmp_path)
    from_stdin = _cli(tokenize, tmp_path, stdin=bad)
    for proc in (from_file, from_stdin):
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"line 2: invalid UTF-8 byte 0xff" in proc.stderr


def test_first_bad_line_is_named_whether_data_error_or_invalid_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(CORPUS, encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", "c.txt", "--out", "v.weblex"]) == 0
    (tmp_path / "ids.txt").write_bytes(b"4 5\n4 x\n4 5\n4 \xff\n")
    capsys.readouterr()
    assert run(["decode", "--vocab", "v.weblex", "--in", "ids.txt", "--out", "out.txt"]) == 2
    assert "line 2: ids must be decimal integers" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_decode_writes_utf8_to_stdout_under_any_io_encoding(tmp_path):
    (tmp_path / "c.txt").write_text(CORPUS, encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    assert run(["encode", "--vocab", str(tmp_path / "v.weblex"), "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "ids.txt")]) == 0
    decode = ["decode", "--vocab", "v.weblex", "--in", "ids.txt"]
    assert _cli(decode + ["--out", "back.txt"], tmp_path).returncode == 0
    proc = _cli(decode, tmp_path, PYTHONIOENCODING="latin-1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (tmp_path / "back.txt").read_bytes() == CORPUS.encode("utf-8")


# ---- CLI properties over arbitrary Unicode lines

_PIECE = st.sampled_from(["un", "ɖo", " ", "\u2028", "\u0085", "\x0b", "\r"]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=3)
_LINE = st.lists(_PIECE, max_size=8).map("".join)
_LINES = st.lists(_LINE, max_size=6)


def _run_captured(argv, stdin_bytes=None) -> bytes:
    """Run the CLI in-process, with stdin and stdout as byte-backed text streams."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes or b""), encoding="utf-8")
    with mock.patch.object(sys, "stdout", stdout), mock.patch.object(sys, "stdin", stdin):
        assert run(argv) == 0
    stdout.flush()
    return stdout.buffer.getvalue()


def _workdir(lines) -> tuple[tempfile.TemporaryDirectory, Path]:
    tmp = tempfile.TemporaryDirectory()
    d = Path(tmp.name)
    (d / "c.txt").write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    (d / "pairs.tsv").write_text("un ɖo\n", encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(d / "c.txt"),
                "--out", str(d / "v.weblex")]) == 0
    assert run(["lexicon", "build", "--in", str(d / "pairs.tsv"), "--out", str(d / "lex.weblex")]) == 0
    return tmp, d


@settings(max_examples=40, deadline=None)
@given(_LINES)
def test_cli_output_keeps_the_input_line_count(lines):
    tmp, d = _workdir(lines)
    with tmp:
        for argv in (
            ["tokenize", "--strategy", "wb", "--vocab", str(d / "v.weblex")],
            ["tokenize", "--strategy", "web", "--lexicon", str(d / "lex.weblex"),
             "--vocab", str(d / "v.weblex")],
            ["encode", "--vocab", str(d / "v.weblex")],
        ):
            out = _run_captured(argv + ["--in", str(d / "c.txt")])
            assert out.count(b"\n") == len(lines)


@settings(max_examples=40, deadline=None)
@given(_LINES, st.booleans())
def test_tokenize_reads_stdin_like_in(lines, crlf):
    tmp, d = _workdir(lines)
    with tmp:
        data = (d / "c.txt").read_bytes()
        if crlf:
            data = data.replace(b"\n", b"\r\n")
            (d / "c.txt").write_bytes(data)
        argv = ["tokenize", "--strategy", "web", "--lexicon", str(d / "lex.weblex"),
                "--vocab", str(d / "v.weblex")]
        from_stdin = _run_captured(argv, stdin_bytes=data)
        assert run(argv + ["--in", str(d / "c.txt"), "--out", str(d / "ids.txt")]) == 0
        assert from_stdin == (d / "ids.txt").read_bytes()


@settings(max_examples=40, deadline=None)
@given(_LINES)
def test_encode_is_tokenize_wb_and_decode_inverts_it(lines):
    tmp, d = _workdir(lines)
    with tmp:
        vocab, corpus = str(d / "v.weblex"), str(d / "c.txt")
        encoded = _run_captured(["encode", "--vocab", vocab, "--in", corpus])
        tokenized = _run_captured(["tokenize", "--strategy", "wb", "--vocab", vocab, "--in", corpus])
        assert encoded == tokenized
        (d / "ids.txt").write_bytes(encoded)
        decoded = _run_captured(["decode", "--vocab", vocab, "--in", str(d / "ids.txt")])
        # the vocabulary was built from this corpus, so every word is in it
        assert decoded == "".join(" ".join(split_words(normalize(line))) + "\n" for line in lines).encode("utf-8")
