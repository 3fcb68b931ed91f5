"""Canonical text normalization and whitespace word splitting.

Every strategy in the toolkit funnels its input through `normalize` so
that diacritic-bearing text compares equal no matter how it was typed:
the same composed form, single spaces, no control characters.
"""

from __future__ import annotations

import unicodedata
from typing import NamedTuple


class NormSettings(NamedTuple):
    """Normalization knobs recorded in every persisted artifact header."""

    lowercase: bool = False


def normalize(text: str, lowercase: bool = False) -> str:
    """Return `text` in canonical composed form with collapsed whitespace.

    Case folding is applied first when requested, then control and format
    characters are dropped (whitespace survives until the collapse step),
    then canonical composition, then whitespace runs become single spaces.
    The result is stable: normalizing twice equals normalizing once.
    """
    return " ".join(normal_words(text, lowercase))


def normal_words(text: str, lowercase: bool = False) -> list[str]:
    """The words of `normalize(text, lowercase)`, split without joining
    them first: equal to `split_words(normalize(text, lowercase))`."""
    if lowercase:
        text = text.casefold()
    # isprintable() is false for every Cc and Cf character
    if not text.isprintable():
        text = "".join(ch for ch in text if ch.isspace() or unicodedata.category(ch) not in ("Cc", "Cf"))
    return unicodedata.normalize("NFC", text).split()


def split_words(text: str) -> list[str]:
    """Split normalized text on the space delimiter; empty text gives []."""
    return text.split()
