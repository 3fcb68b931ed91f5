"""Token/id vocabulary with reserved special tokens.

Ids 0-3 are fixed: <pad>, <unk>, <start>, <end>. Regular tokens follow,
ordered by descending count then lexicographically, so two builds over
the same stream assign identical ids.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .errors import FormatError
from .formats import field_fault, parse_int, read_artifact, write_artifact
from .textnorm import NormSettings

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
START_TOKEN = "<start>"
END_TOKEN = "<end>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, START_TOKEN, END_TOKEN)

PAD_ID = 0
UNK_ID = 1
START_ID = 2
END_ID = 3


class Vocabulary:
    def __init__(self, tokens: Sequence[str], settings: NormSettings = NormSettings()):
        """`tokens` are the regular tokens, in id order, excluding specials."""
        self.settings = settings
        self._id_to_token: list[str] = list(SPECIAL_TOKENS) + list(tokens)
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate token strings in vocabulary")
        if any(not tok for tok in self._id_to_token):
            raise ValueError("empty token string in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def id_to_token(self, idx: int) -> str:
        if not 0 <= idx < len(self._id_to_token):
            raise ValueError(f"id {idx} out of range for vocabulary of size {len(self)}")
        return self._id_to_token[idx]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids; tokens not in the vocabulary map to the unk id."""
        get = self._token_to_id.get
        return [get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map ids back to token strings in one pass; the first out-of-range id raises ValueError."""
        table = self._id_to_token
        n = len(table)
        return [table[i] if 0 <= i < n else self.id_to_token(i) for i in ids]

    def tokens(self) -> list[str]:
        return list(self._id_to_token)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.settings == other.settings and self._id_to_token == other._id_to_token


def build_vocab(
    tokens: Iterable[str],
    min_count: int = 1,
    settings: NormSettings = NormSettings(),
) -> Vocabulary:
    """Count the token stream and keep tokens seen at least `min_count` times.

    Empty strings and the reserved special tokens are ignored if they show
    up in the stream; the specials always occupy ids 0-3 exactly once.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(tok for tok in tokens if tok and tok not in SPECIAL_TOKENS)
    kept = [tok for tok, c in counts.items() if c >= min_count]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    return Vocabulary(kept, settings)


def save_vocab(vocab: Vocabulary, path: str) -> None:
    """Write one 'id<TAB>token' row per token, refusing a token that would not read back."""
    tokens = vocab.tokens()
    if field_fault(" ".join(tokens)):  # one pass; the token is looked up only on failure
        idx, why = next((idx, why) for idx, tok in enumerate(tokens) if (why := field_fault(tok)))
        raise ValueError(f"id {idx}: token {tokens[idx]!r} {why}")
    rows = (f"{idx}\t{tok}" for idx, tok in enumerate(tokens))
    write_artifact(path, "vocab", {"lowercase": vocab.settings.lowercase}, rows)


def load_vocab(path: str) -> Vocabulary:
    (lowercase,), rows = read_artifact(path, "vocab", {"lowercase": bool})
    entries: dict[str, int] = {}  # token -> its line
    for lineno, line in rows:
        columns = line.split("\t")
        if len(columns) != 2:
            raise FormatError(f"line {lineno}: expected 'id<TAB>token'")
        idx_text, token = columns
        try:
            idx = parse_int(idx_text)
        except ValueError:
            raise FormatError(f"line {lineno}: id {idx_text!r} is not an integer") from None
        if idx != len(entries):
            raise FormatError(f"line {lineno}: ids must be contiguous from 0, got {idx}")
        if not token:
            raise FormatError(f"line {lineno}: empty token string")
        if why := field_fault(token):  # only a CR can be left inside a framed line
            raise FormatError(f"line {lineno}: token {token!r} {why}")
        if entries.setdefault(token, lineno) != lineno:
            raise FormatError(f"line {lineno}: duplicate token {token!r}")
    tokens = list(entries)
    if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
        raise FormatError(f"line 2: vocabulary must start with specials {', '.join(SPECIAL_TOKENS)}")
    return Vocabulary(tokens[len(SPECIAL_TOKENS):], NormSettings(lowercase))
