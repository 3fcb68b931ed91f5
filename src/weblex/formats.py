"""How weblex frames and encodes text: corpora, artifacts and stdio alike.

Every input, whether a file or stdin (`None` or "-"), is UTF-8 decoded
strictly; a byte that is not UTF-8 is refused with its line number.
Lines are split on LF only and lose one trailing CR each, so CRLF files
read like LF ones, while U+2028, U+0085, vertical tab, form feed and a
lone CR stay inside their line. Every output, whether a file or stdout,
is UTF-8 with LF line ends, whatever the interpreter's stream settings.

Each artifact file starts with a single header line of the form

    #weblex-<kind> v=1 key=value key=value ...

so that a file's kind, format version, and build settings travel with the
data and mismatches are refused instead of silently reinterpreted.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import FormatError

FORMAT_VERSION = 1

_PREFIX = "#weblex-"

_BATCH = 4096  # lines encoded at a time by write_lines


def read_lines(path: str | None) -> list[str]:
    """The lines of a file, or of stdin for None or "-", framed as above."""
    if path is None or path == "-":
        name = "<stdin>"
        # a text stream without a byte buffer (io.StringIO) is already decoded
        buffer = getattr(sys.stdin, "buffer", None)
        data = buffer.read() if buffer is not None else sys.stdin.read().encode("utf-8")
    else:
        name = path
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{name}: line {lineno}: invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write each line with an LF end to a file, or to stdout for None or "-".

    The lines are encoded in batches of `_BATCH`, so no whole-output
    string is ever built. Nothing is opened or written before every
    batch is encoded, so an error raised while producing the lines
    leaves no partial file and writes nothing to stdout.
    """
    lines = iter(lines)
    chunks = []
    while batch := list(islice(lines, _BATCH)):
        batch.append("")  # the join then ends every line
        chunks.append("\n".join(batch).encode("utf-8"))
    if path is None or path == "-":
        sys.stdout.flush()  # keep anything already written as text in front
        sys.stdout.buffer.writelines(chunks)
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def read_artifact(path: str, kind: str) -> tuple[dict[str, str], Iterator[tuple[int, str]]]:
    """The header fields of a `kind` artifact and its other lines, numbered from 2.

    Raises FormatError on an empty file, a missing header, a kind
    mismatch, a malformed field, or an unsupported format version.
    """
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"line 1: empty file, expected {kind} header")
    tokens = lines[0].strip().split()
    expected = f"{_PREFIX}{kind}"
    if not tokens or tokens[0] != expected:
        raise FormatError(f"line 1: expected header '{expected} v={FORMAT_VERSION} ...', got {lines[0].strip()!r}")
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        key, sep, value = tok.partition("=")
        if not sep:
            raise FormatError(f"line 1: malformed header field {tok!r}")
        fields[key] = value
    version = fields.pop("v", None)
    if version != str(FORMAT_VERSION):
        raise FormatError(f"line 1: unsupported {kind} format version {version!r} (expected {FORMAT_VERSION})")
    return fields, enumerate(lines[1:], start=2)


def write_artifact(path: str, kind: str, fields: dict[str, object], rows: Iterable[str]) -> None:
    """Write the `kind` header line (a flag as 0 or 1), then one line per row."""
    header = [f"{_PREFIX}{kind}", f"v={FORMAT_VERSION}"]
    header += (f"{key}={int(value) if isinstance(value, bool) else value}" for key, value in fields.items())
    write_lines(path, chain((" ".join(header),), rows))


def header_flag(fields: dict[str, str], key: str, default: bool = False) -> bool:
    value = fields.get(key)
    if value is None:
        return default
    if value not in ("0", "1"):
        raise FormatError(f"line 1: header field {key}={value!r} is not a flag (0 or 1)")
    return value == "1"


def parse_int(text: str) -> int:
    """The integer `text` spells as `str()` writes it; ValueError for '+4', '1_0', ' 4', '٥', '04', '-0'."""
    if str(value := int(text)) != text:
        raise ValueError(f"{text!r} is not written as a decimal integer")
    return value


def header_int(fields: dict[str, str], key: str) -> int:
    value = fields.get(key)
    if value is None:
        raise FormatError(f"line 1: missing header field {key!r}")
    try:
        return parse_int(value)
    except ValueError:
        raise FormatError(f"line 1: header field {key}={value!r} is not an integer") from None
