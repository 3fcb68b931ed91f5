"""The four benchmark workloads: CLI steps, input sizes and output checks.

Each workload is a pipeline of `weblex` CLI commands run one at a time,
each reading and writing files in the workload's directory. Steps
marked `build` write an artifact and count toward build_ref; the step
named by `per_line` maps input lines to output lines and is the one
lines_per_ref and setup_s time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from weblex import (
    decode_bpe,
    load_lexicon,
    load_vocab,
    normalize,
    segment_words,
    split_words,
)
from weblex.metrics import bleu, char_edit_rate, chrf
from weblex.vocab import END_TOKEN, START_TOKEN, UNK_TOKEN

DEFAULT_SEED = 0
BPE_SIZE = 600
IBM1_ITERS = 5
PHB_MIN_COUNT = 2
WEB_MIN_COUNT = 2  # singleton segments stay out of the vocabulary, so decode meets <unk>

# (row label in `eval` output, layer span name, scorer) for each --metrics entry
EVAL_METRICS = (
    ("bleu-null", "metrics.bleu_null", lambda pairs: bleu(pairs, "null")),
    ("bleu-intl", "metrics.bleu_intl", lambda pairs: bleu(pairs, "intl")),
    ("chrf", "metrics.chrf", chrf),
    ("charer-proxy", "metrics.charer", char_edit_rate),
)


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    output: str
    build: bool = False
    keeps_lines_of: str | None = None  # output must have this input's line count

    @property
    def name(self) -> str:
        return " ".join(arg for arg in self.argv[:2] if not arg.startswith("--"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    steps: tuple[Step, ...]
    per_line: int                   # index of the per-line step
    line_inputs: tuple[str, ...]    # its line-aligned input files

    @property
    def line_step(self) -> Step:
        return self.steps[self.per_line]

    @property
    def threaded(self) -> bool:
        """Whether the per-line step maps lines on the WEBLEX_THREADS pool."""
        return self.line_step.argv[0] == "tokenize"

    def probe_argv(self) -> tuple[str, ...]:
        """The per-line step on one-line copies of its inputs."""
        swap = {name: "one-" + name for name in self.line_inputs}
        swap[self.line_step.output] = "probe.out"
        return tuple(swap.get(arg, arg) for arg in self.line_step.argv)


def _step(*argv: str, out: str, build: bool = False, keeps: str | None = None) -> Step:
    return Step(tuple(argv) + ("--out", out), out, build, keeps)


WEB = Workload(
    name="web-curated",
    why="the paper's central path: textnorm, segmenter, vocab and the CLI line map do the work; "
        "bpe, ibm1 and metrics do none",
    sizes={"lines": 2000, "entries": 5000},
    steps=(
        _step("lexicon", "build", "--in", "pairs.tsv", out="lex.weblex", build=True),
        _step("vocab", "build", "--strategy", "web", "--lexicon", "lex.weblex", "--min-count", str(WEB_MIN_COUNT),
             "--in", "corpus.txt", out="vocab.weblex", build=True),
        _step("tokenize", "--strategy", "web", "--lexicon", "lex.weblex", "--vocab", "vocab.weblex",
             "--emit-tags", "--in", "corpus.txt", out="ids.txt", keeps="corpus.txt"),
        _step("decode", "--vocab", "vocab.weblex", "--in", "ids.txt", out="decoded.txt", keeps="corpus.txt"),
    ),
    per_line=2,
    line_inputs=("corpus.txt",),
)

SU = Workload(
    name="su-subword",
    why="bpe both ways: learning is whole-corpus pair counting, applying replays every merge "
        "per word; the segmenter never runs",
    sizes={"train": 200, "heldout": 120},
    steps=(
        _step("bpe", "learn", "--size", str(BPE_SIZE), "--in", "train.txt", out="model.bpe", build=True),
        _step("vocab", "build", "--strategy", "su", "--model", "model.bpe", "--in", "heldout.txt",
             out="vocab.weblex", build=True),
        _step("tokenize", "--strategy", "su", "--model", "model.bpe", "--vocab", "vocab.weblex",
             "--in", "heldout.txt", out="ids.txt", keeps="heldout.txt"),
    ),
    per_line=2,
    line_inputs=("heldout.txt",),
)

PHB = Workload(
    name="phb-phrase",
    why="ibm1 EM, alignment and phrase extraction dominate, then the segmenter runs on a "
        "machine-extracted lexicon shaped unlike the curated one",
    sizes={"pairs": 500},
    steps=(
        _step("ibm1", "train", "--iters", str(IBM1_ITERS), "--src", "src.txt", "--tgt", "tgt.txt",
             out="table.tsv", build=True),
        _step("ibm1", "extract", "--table", "table.tsv", "--src", "src.txt", "--tgt", "tgt.txt",
             "--min-count", str(PHB_MIN_COUNT), out="phb.weblex", build=True),
        _step("vocab", "build", "--strategy", "phb", "--lexicon", "phb.weblex", "--in", "src.txt",
             out="vocab.weblex", build=True),
        _step("tokenize", "--strategy", "phb", "--lexicon", "phb.weblex", "--vocab", "vocab.weblex",
             "--in", "src.txt", out="ids.txt", keeps="src.txt"),
    ),
    per_line=3,
    line_inputs=("src.txt",),
)

EVAL = Workload(
    name="eval-metrics",
    why="the only workload that measures the metrics layer (charER dominates); hypotheses pass "
        "through the wb vocabulary round trip before scoring",
    sizes={"pairs": 400},
    steps=(
        _step("vocab", "build", "--strategy", "wb", "--in", "hyp.txt", out="vocab.weblex", build=True),
        _step("encode", "--vocab", "vocab.weblex", "--in", "hyp.txt", out="hyp.ids", keeps="hyp.txt"),
        _step("decode", "--vocab", "vocab.weblex", "--in", "hyp.ids", out="hyp.dec", keeps="hyp.txt"),
        _step("eval", "--hyp", "hyp.dec", "--ref", "ref.txt",
             "--metrics", "bleu-null,bleu-intl,chrf,charer", out="scores.tsv"),
    ),
    per_line=3,
    line_inputs=("hyp.dec", "ref.txt"),
)

WORKLOADS = {wl.name: wl for wl in (WEB, SU, PHB, EVAL)}


def read_lines(path: Path) -> list[str]:
    """Lines of a file the CLI or the generator wrote (LF-terminated)."""
    text = path.read_text(encoding="utf-8")
    return text.split("\n")[:-1] if text else []


def _words(line: str, lowercase: bool = False) -> list[str]:
    return split_words(normalize(line, lowercase))


def expected_tagged(line: str, lex, vocab) -> list[str]:
    """Tag-wrapped segment texts of a line, `<unk>` for segments outside the vocabulary."""
    words = _words(line, lex.settings.lowercase)
    out = []
    for text in segment_words(words, lex).texts(words):
        out += [START_TOKEN, text if text in vocab else UNK_TOKEN, END_TOKEN]
    return out


def _check_segments(d: Path, lexicon: str, corpus: str, decoded: list[str]) -> list[str]:
    """Decoded web/phb ids must be the tag-wrapped segment texts of each line."""
    lex, _ = load_lexicon(str(d / lexicon))
    vocab = load_vocab(str(d / "vocab.weblex"))
    for lineno, (line, got) in enumerate(zip(read_lines(d / corpus), decoded), start=1):
        if got != " ".join(expected_tagged(line, lex, vocab)):
            return [f"{corpus} line {lineno}: decoded ids are not the tagged segment texts"]
    return []


def _decode_ids(d: Path, ids_file: str) -> list[list[str]]:
    vocab = load_vocab(str(d / "vocab.weblex"))
    return [vocab.decode(int(x) for x in line.split()) for line in read_lines(d / ids_file)]


def check_web(d: Path) -> list[str]:
    return _check_segments(d, "lex.weblex", "corpus.txt", read_lines(d / "decoded.txt"))


def check_su(d: Path) -> list[str]:
    for lineno, (line, tokens) in enumerate(zip(read_lines(d / "heldout.txt"), _decode_ids(d, "ids.txt")),
                                            start=1):
        if decode_bpe(tokens) != _words(line):
            return [f"heldout.txt line {lineno}: decode_bpe of the su tokens is not the normalized words"]
    return []


def check_phb(d: Path) -> list[str]:
    return _check_segments(d, "phb.weblex", "src.txt", [" ".join(t) for t in _decode_ids(d, "ids.txt")])


def check_eval(d: Path) -> list[str]:
    errors = []
    for lineno, (line, got) in enumerate(zip(read_lines(d / "hyp.txt"), read_lines(d / "hyp.dec")), start=1):
        if got != " ".join(_words(line)):
            errors.append(f"hyp.txt line {lineno}: vocab decode does not invert encode")
            break
    pairs = [(normalize(h), normalize(r)) for h, r in zip(read_lines(d / "hyp.dec"), read_lines(d / "ref.txt"))]
    expected = [f"{label}\t{score(pairs):.2f}" for label, _, score in EVAL_METRICS]
    if read_lines(d / "scores.tsv") != expected:
        errors.append(f"scores.tsv: expected {expected}")
    return errors


CHECKS = {WEB.name: check_web, SU.name: check_su, PHB.name: check_phb, EVAL.name: check_eval}
