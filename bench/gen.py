"""Seeded Fon-like inputs for the benchmark workloads.

Everything is drawn from one `random.Random(seed)`, so a seed fixes the
bytes of every file. Words are built from Fon-like syllables whose
vowels may carry a tone mark; a share of lines is written with the tone
marks decomposed (NFD), so the NFC step of `normalize` has real work.
The alphabet never produces U+2028 or similar line separators, nor the
`</w>` subword marker: both are known robustness defects that this
benchmark does not measure.
"""

from __future__ import annotations

import random
import unicodedata
from itertools import accumulate

CONSONANTS = ["b", "c", "d", "ɖ", "f", "g", "gb", "h", "j", "k", "kp", "l", "m",
              "n", "ny", "p", "s", "t", "v", "w", "x", "y", "z"]
ONSETS = {n: [c for c in CONSONANTS if len(c) == n] for n in (1, 2)} | {0: [""]}
PLAIN_VOWELS = ["a", "e", "i", "o", "u"]  # a tone mark composes with these into one letter
OPEN_VOWELS = ["ɛ", "ɔ"]                  # a tone mark stays a combining mark, even in NFC
TONES = ["\u0301", "\u0300", "\u030c"]  # acute, grave, caron
GLOSS_LETTERS = "abcdefghijlmnoprstuv"

VOCAB_WORDS = 3000
DECOMPOSED_SHARE = 0.3
MIN_WORDS, MAX_WORDS = 5, 30
SHAPE_SEED = 2103  # the word shapes are the same for every seed


def word_shapes(vocab_words: int = VOCAB_WORDS) -> list[list[tuple[int, bool, bool]]]:
    """Per rank, each syllable's (onset length, open vowel, toned), independent of the seed.

    Frequent words are short: one syllable for the top 10 ranks, two up
    to rank 1,000, three after. A one-syllable word always has an onset,
    so no word is a bare vowel. Onsets are empty 15% of the time and a
    digraph 13% of the rest; 2 vowels in 7 are open and 3 in 5 are toned.
    """
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for rank in range(vocab_words):
        syllables = []
        for _ in range(1 + (rank >= 10) + (rank >= 1000)):
            onset = 1 if rank < 10 or rng.random() < 0.85 else 0
            if onset and rng.random() < len(ONSETS[2]) / len(CONSONANTS):
                onset = 2
            syllables.append((onset, rng.random() < 2 / 7, rng.random() < 3 / 5))
        shapes.append(syllables)
    return shapes


def fan_outs(vocab_words: int = VOCAB_WORDS) -> list[int]:
    """Per rank, the number of target words a source word translates to, independent of the seed.

    Zero for 8% of the words, two for 10%, one for the rest.
    """
    rng = random.Random(SHAPE_SEED + 1)
    return [0 if roll < 0.08 else 1 if roll < 0.9 else 2 for roll in (rng.random() for _ in range(vocab_words))]


class Source:
    """Zipf (1/rank) word source over a fixed Fon-like vocabulary.

    A word's shape, and so its length in letters before and after NFC,
    depends only on its rank (frequent words are short); the seed picks
    the letters. Every seed thus gives text of the same length profile,
    and the timings of two seeds differ by the letters, not by the
    amount of work.
    """

    def __init__(self, seed: int, vocab_words: int = VOCAB_WORDS):
        self.rng = random.Random(seed)
        seen: dict[str, None] = {}
        for shape in word_shapes(vocab_words):
            size = len(seen)
            while len(seen) == size:
                seen.setdefault(self._word(shape))
        self.words = list(seen)
        self._cum = list(accumulate(1.0 / rank for rank in range(1, vocab_words + 1)))

    def _word(self, shape: list[tuple[int, bool, bool]]) -> str:
        rng = self.rng
        parts = []
        for onset, open_vowel, toned in shape:
            vowel = rng.choice(OPEN_VOWELS if open_vowel else PLAIN_VOWELS)
            parts.append(rng.choice(ONSETS[onset]) + vowel + (rng.choice(TONES) if toned else ""))
        return unicodedata.normalize("NFC", "".join(parts))

    def sample(self, k: int) -> list[str]:
        """k independent Zipf draws."""
        return self.rng.choices(self.words, cum_weights=self._cum, k=k)

    def tokens(self, n: int) -> list[str]:
        """n word tokens in random order, each word's count its Zipf share of n rounded.

        Systematic sampling: a random offset decides which way each
        share is rounded, so the total is exactly n and no word's count
        is more than one away from its expectation. The frequency
        profile, and with it the work a corpus makes, barely moves with
        the seed.
        """
        offset, total = self.rng.random(), self._cum[-1]
        out: list[str] = []
        for word, cum in zip(self.words, self._cum):
            out += [word] * (int(n * cum / total + offset) - len(out))
        self.rng.shuffle(out)
        return out

    def typed(self, text: str) -> str:
        """Write `text` as a user would: sometimes with decomposed tone marks."""
        if self.rng.random() < DECOMPOSED_SHARE:
            return unicodedata.normalize("NFD", text)
        return text


def _distinct(rng: random.Random, n: int, make) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < n:
        seen.setdefault(make(rng))
    return list(seen)


def _gloss_word(rng: random.Random) -> str:
    return "".join(rng.choice(GLOSS_LETTERS) for _ in range(rng.randint(2, 9)))


def corpus(src: Source, lines: int) -> list[list[str]]:
    """Sentences of MIN_WORDS..MAX_WORDS words, lengths dealt evenly so the word total is fixed."""
    span = MAX_WORDS - MIN_WORDS + 1
    lengths = [MIN_WORDS + i % span for i in range(lines)]
    src.rng.shuffle(lengths)
    words = src.tokens(sum(lengths))
    starts = list(accumulate(lengths, initial=0))
    return [words[a:b] for a, b in zip(starts, starts[1:])]


def lines_text(src: Source, sentences: list[list[str]]) -> str:
    return "".join(src.typed(" ".join(words)) + "\n" for words in sentences)


def lexicon_tsv(src: Source, sentences: list[list[str]], entries: int) -> str:
    """`entries` distinct 1-4-gram expressions sampled from the corpus, with glosses."""
    rng = src.rng
    chosen: dict[str, None] = {}
    while len(chosen) < entries:
        words = rng.choice(sentences)
        n = min(rng.randint(1, 4), len(words))
        start = rng.randrange(len(words) - n + 1)
        chosen.setdefault(" ".join(words[start:start + n]))
    rows = []
    for expr in chosen:
        gloss = " ".join(_gloss_word(rng) for _ in range(rng.randint(1, 3)))
        rows.append(f"{src.typed(expr)}\t{gloss}\n")
    return "".join(rows)


def parallel(src: Source, pairs: int) -> tuple[str, str]:
    """Source sentences and targets from a per-word dictionary with local swaps.

    Each source word has a fixed translation of zero, one or two target
    words; adjacent target words are then swapped with some probability,
    so EM has consistent structure to find. How many target words a
    source word gets depends on its rank only, so the target side's
    length is about the same for every seed.
    """
    rng = src.rng
    target_words = _distinct(rng, VOCAB_WORDS, _gloss_word)
    table = {word: rng.sample(target_words, n) for word, n in zip(src.words, fan_outs(len(src.words)))}
    src_rows, tgt_rows = [], []
    for words in corpus(src, pairs):
        target = [t for w in words for t in table[w]] or [rng.choice(target_words)]
        for i in range(len(target) - 1):
            if rng.random() < 0.15:
                target[i], target[i + 1] = target[i + 1], target[i]
        src_rows.append(src.typed(" ".join(words)) + "\n")
        tgt_rows.append(" ".join(target) + "\n")
    return "".join(src_rows), "".join(tgt_rows)


def eval_pairs(src: Source, pairs: int, substitution: float = 0.2) -> tuple[str, str]:
    """References, and hypotheses that are the reference with seeded word substitutions."""
    rng = src.rng
    hyp_rows, ref_rows = [], []
    for words in corpus(src, pairs):
        hyp = [src.sample(1)[0] if rng.random() < substitution else w for w in words]
        hyp_rows.append(src.typed(" ".join(hyp)) + "\n")
        ref_rows.append(src.typed(" ".join(words)) + "\n")
    return "".join(hyp_rows), "".join(ref_rows)


def generate(workload: str, seed: int, sizes: dict) -> dict[str, str]:
    """Return {file name: text} for one workload's inputs."""
    src = Source(seed)
    if workload == "web-curated":
        sentences = corpus(src, sizes["lines"])
        return {
            "pairs.tsv": lexicon_tsv(src, sentences, sizes["entries"]),
            "corpus.txt": lines_text(src, sentences),
        }
    if workload == "su-subword":
        return {
            "train.txt": lines_text(src, corpus(src, sizes["train"])),
            "heldout.txt": lines_text(src, corpus(src, sizes["heldout"])),
        }
    if workload == "phb-phrase":
        source, target = parallel(src, sizes["pairs"])
        return {"src.txt": source, "tgt.txt": target}
    if workload == "eval-metrics":
        hyp, ref = eval_pairs(src, sizes["pairs"])
        return {"hyp.txt": hyp, "ref.txt": ref}
    raise ValueError(f"unknown workload {workload!r}")
