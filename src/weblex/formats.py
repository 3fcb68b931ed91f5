"""How weblex frames and encodes text: corpora, artifacts and stdio alike.

Every input, whether a file or stdin (`None` or "-", read only as bytes
through `sys.stdin.buffer`), is read a block at a time, never whole, and
UTF-8 decoded strictly; a byte that is not UTF-8 is refused with its
line number, after the lines before it, so a loader or command that
checks each line as it comes reports the first bad line in file order,
whichever its fault. Lines are split on LF only and lose one trailing
CR each, so CRLF files read like LF ones, while U+2028, U+0085,
vertical tab, form feed and a lone CR stay inside their line. Every
output, whether a file or stdout, is UTF-8 with LF line ends, whatever
the interpreter's stream settings, and never partial: see `write_lines`.

Each artifact file starts with a single header line of the form

    #weblex-<kind> v=1 <field>=<value> <field>=<value> ...

naming its kind, format version and build settings, so that these travel
with the data. Each kind has exactly one spelling, the one its saver
writes: every field is required, in the saver's order, single-spaced, a
flag written 0 or 1 and an integer as `str` writes it. Anything else is
refused instead of silently reinterpreted.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext
from itertools import chain, islice
from stat import S_IMODE, S_ISREG
from typing import BinaryIO, Iterable, Iterator

from .errors import FormatError

FORMAT_VERSION = 1

_PREFIX = "#weblex-"

_BATCH = 4096  # lines encoded at a time by write_lines
_BLOCK = 1 << 16  # bytes read at a time by iter_lines


def iter_lines(path: str | None) -> Iterator[str]:
    """The lines of a file, or of stdin for None or "-", read `_BLOCK` bytes at a time and framed as above."""
    return chain.from_iterable(_line_blocks(path))


def _line_blocks(path: str | None) -> Iterator[list[str]]:
    """The lines of `path`, one list per block of whole lines."""
    stdin = path is None or path == "-"
    lineno = 1  # the number of the first line of `data`
    with nullcontext(sys.stdin.buffer) if stdin else open(path, "rb") as fh:
        for data in _whole_lines(fh):
            try:
                text, bad = data.decode("utf-8"), None
            except UnicodeDecodeError as exc:
                # the lines before the bad one are whole: an LF never sits inside a UTF-8 sequence
                bad, text = exc.start, data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
            lines = text.split("\n")
            if lines[-1] == "":
                lines.pop()
            if "\r" in text:
                lines = [line[:-1] if line.endswith("\r") else line for line in lines]
            yield lines
            if bad is not None:
                raise ValueError(f"{'<stdin>' if stdin else path}: line {lineno + len(lines)}: "
                                 f"invalid UTF-8 byte 0x{data[bad]:02x}")
            lineno += len(lines)


def _whole_lines(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of `fh`, cut after the last LF of each block; a longer line is gathered and joined once."""
    head: list[bytes] = []
    while block := fh.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join((*head, block[:cut]))
            head = []
        head.append(block[cut:])
    yield b"".join(head)


def write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write each line with an LF end to a file, or to stdout for None or "-".

    The lines are encoded in batches of `_BATCH`, so no whole-output
    string is ever built. A missing or regular file (a symlink counts
    as its target) is written a batch at a time to a new file beside
    it, which replaces it with the old file's mode after the last line
    and is removed on any error. Everything else (stdout, any other kind
    of file, a file beside which no new one can be made) takes one
    buffered branch: every batch is encoded before anything is opened.
    Either way, an error raised while producing the lines leaves no
    partial or changed file and writes nothing to stdout.
    """
    chunks = _batches(iter(lines))
    stdout = path is None or path == "-"
    beside = None if stdout else _new_file_beside(target := os.path.realpath(path))
    if beside is None:
        chunks = list(chunks)
        if stdout:
            sys.stdout.flush()  # keep anything already written as text in front
        with nullcontext(sys.stdout.buffer) if stdout else open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    temporary, fd, mode = beside
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.writelines(chunks)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _batches(lines: Iterator[str]) -> Iterator[bytes]:
    """The lines with LF ends, UTF-8 encoded `_BATCH` lines at a time."""
    while batch := list(islice(lines, _BATCH)):
        batch.append("")  # the join then ends every line
        yield "\n".join(batch).encode("utf-8")


def _new_file_beside(target: str) -> tuple[str, int, int | None] | None:
    """The path and descriptor of a new file beside `target` and the mode
    of the `target` it will replace (None if missing); None if `target` is
    not a regular file of one link (a hard link would keep the old bytes)
    or no new file can be made there."""
    try:
        status = os.stat(target)
    except FileNotFoundError:
        mode = None
    except OSError:
        return None
    else:
        if not S_ISREG(status.st_mode) or status.st_nlink != 1:
            return None
        mode = S_IMODE(status.st_mode)
    head, tail = os.path.split(target)
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        return temporary, os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), mode
    except OSError:
        return None


def _header(kind: str, fields: Iterable[tuple[str, object]]) -> str:
    """The header line of a `kind` artifact, a flag written as 0 or 1."""
    values = (f"{key}={int(value) if isinstance(value, bool) else value}" for key, value in fields)
    return " ".join((f"{_PREFIX}{kind}", f"v={FORMAT_VERSION}", *values))


def read_artifact(path: str, kind: str, types: dict[str, type]) -> tuple[list, Iterator[tuple[int, str]]]:
    """The header values of a `kind` artifact, one per field of `types`
    (bool, int or str, in its saver's order), and its other lines numbered
    from 2 as they are read. Line 1 must be the header `write_artifact`
    renders from those values; anything else raises FormatError.
    """
    lines = iter_lines(path)
    if (first := next(lines, None)) is None:
        raise FormatError(f"line 1: empty file, expected {kind} header")
    head, *tokens = first.split(" ")
    if head == f"{_PREFIX}{kind}" and tokens[:1] != [f"v={FORMAT_VERSION}"]:
        raise FormatError(f"line 1: unsupported {kind} format version in {first!r} (expected v={FORMAT_VERSION})")
    values = [_header_value(key, typ, token) for (key, typ), token in zip(types.items(), tokens[1:])]
    if len(values) != len(types) or _header(kind, zip(types, values)) != first:
        expected = _header(kind, ((key, f"<{typ.__name__}>") for key, typ in types.items()))
        raise FormatError(f"line 1: expected header '{expected}', got {first!r}")
    return values, enumerate(lines, start=2)


def _header_value(key: str, typ: type, token: str) -> object:
    """The value of `token` read as `key`; one for another key re-renders unequal to it."""
    name, _, text = token.partition("=")
    if typ is bool:
        return text == "1"
    if typ is int and name == key:
        try:
            return parse_int(text)
        except ValueError:
            raise FormatError(f"line 1: header field {key}={text!r} is not an integer") from None
    return text


def write_artifact(path: str, kind: str, fields: dict[str, object], rows: Iterable[str]) -> None:
    """Write the `kind` header line, then one line per row."""
    write_lines(path, chain((_header(kind, fields.items()),), rows))


def parse_int(text: str) -> int:
    """The integer `text` spells as `str()` writes it; ValueError for '+4', '1_0', ' 4', '٥', '04', '-0'."""
    if str(value := int(text)) != text:
        raise ValueError(f"{text!r} is not written as a decimal integer")
    return value


def field_fault(text: str) -> str | None:
    """Why `text`, or any of the fields it joins with spaces, would not read back
    from an artifact row (a TAB, LF or CR frames it, a lone surrogate has no UTF-8), or None."""
    if text.isprintable():  # false for TAB, LF, CR and every surrogate
        return None
    if "\t" in text or "\n" in text or "\r" in text:
        return "holds a TAB, LF or CR"
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "holds a lone surrogate"
    return None
