"""Single command-line entry point for every pipeline.

Subcommands mirror the build-artifacts -> tokenize -> evaluate flow:
lexicon build, bpe learn/apply, ibm1 train/extract, vocab build,
tokenize, encode, decode, stats, eval. Data travels on stdout,
diagnostics on stderr; exit code 0 means success, 1 a usage error, and
2 a data or format error. Every file and stream is read and written
through `formats.read_lines`/`write_lines` (strict UTF-8, LF framing),
and outputs are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Callable, Iterable, Sequence, TypeVar

from . import bpe as bpe_mod
from . import ibm1 as ibm1_mod
from .errors import ConfigError, WeblexError
from .formats import read_lines, write_lines
from .lexicon import load_lexicon, parse_lexicon_lines, save_lexicon
from .metrics import bleu, char_edit_rate, chrf
from .segmenter import segment_words, tag_ids
from .textnorm import NormSettings, normalize, split_words
from .vocab import build_vocab, load_vocab, save_vocab

STRATEGIES = ("wb", "su", "phb", "web")

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_line(func: Callable[[str], T]) -> Callable[[tuple[int, str]], T]:
    """Lift func(line) to func((lineno, line)), naming the line in a data error."""
    def call(numbered: tuple[int, str]) -> T:
        lineno, line = numbered
        try:
            return func(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return call


def _each_line(func: Callable[[str], T], lines: Iterable[str]) -> Iterable[T]:
    """Apply func per line, in order; a ValueError names its line."""
    return map(_at_line(func), enumerate(lines, start=1))


def _load_parallel(args, settings: NormSettings) -> list[ibm1_mod.SentencePair]:
    if args.tsv:
        raw = []
        for lineno, line in enumerate(read_lines(args.tsv), start=1):
            columns = line.split("\t")
            if len(columns) != 2:
                raise ValueError(f"{args.tsv}: line {lineno}: expected 'source<TAB>target'")
            raw.append((columns[0], columns[1]))
    else:
        src_lines = read_lines(args.src)
        tgt_lines = read_lines(args.tgt)
        if len(src_lines) != len(tgt_lines):
            raise ValueError(f"source has {len(src_lines)} lines but target has {len(tgt_lines)}")
        raw = list(zip(src_lines, tgt_lines))
    pairs = []
    for lineno, (src, tgt) in enumerate(raw, start=1):
        src_words = split_words(normalize(src, settings.lowercase))
        tgt_words = split_words(normalize(tgt, settings.lowercase))
        if not src_words or not tgt_words:
            raise ValueError(f"pair {lineno}: both sides must be non-empty")
        pairs.append((src_words, tgt_words))
    return pairs


def _require_parallel_args(args, parser) -> None:
    if not args.tsv and not (args.src and args.tgt):
        parser.error("need either --tsv or both --src and --tgt")


def _sentence_tokens(
    strategy: str, settings: NormSettings, lex, model, seen: Counter | None = None,
) -> Callable[[str], list[str]]:
    """Per-strategy function mapping a raw line to its token sequence.

    For phb/web, `seen["fallbacks"]` (when given) counts the segments that
    are not lexicon matches.
    """
    lowercase = settings.lowercase

    def words_of(line: str) -> list[str]:
        return split_words(normalize(line, lowercase))

    if strategy == "wb":
        return words_of
    if strategy == "su":
        return lambda line: bpe_mod.apply_bpe(model, words_of(line))

    def segments_of(line: str) -> list[str]:
        words = words_of(line)
        seg = segment_words(words, lex)
        if seen is not None:
            seen["fallbacks"] += sum(not span.in_lexicon for span in seg.segments)
        return seg.texts(words)

    return segments_of


def _line_tokens(args, parser, vocab, seen: Counter | None = None) -> Callable[[str], list[str]]:
    """Token function of the chosen strategy. A given vocabulary must share
    the strategy artifact's settings; for wb it supplies them."""
    if args.strategy == "wb" and vocab is not None:
        return _sentence_tokens("wb", vocab.settings, None, None)
    settings, lex, model = _strategy_artifacts(args, parser)
    if vocab is not None and vocab.settings != settings:
        raise ConfigError(
            f"vocabulary settings {vocab.settings} do not match the {args.strategy} "
            f"artifact settings {settings}"
        )
    return _sentence_tokens(args.strategy, settings, lex, model, seen)


def _strategy_artifacts(args, parser):
    """Load what the chosen strategy needs; returns (settings, lexicon, model)."""
    lex = model = None
    if args.strategy in ("phb", "web"):
        if not args.lexicon:
            parser.error(f"--lexicon is required for strategy {args.strategy!r}")
        lex, _ = load_lexicon(args.lexicon)
        settings = lex.settings
    elif args.strategy == "su":
        if not args.model:
            parser.error("--model is required for strategy 'su'")
        model = bpe_mod.load_bpe(args.model)
        settings = model.settings
    else:
        settings = NormSettings(lowercase=getattr(args, "lowercase", False))
    return settings, lex, model


def _cmd_lexicon_build(args, parser) -> int:
    lex, report = parse_lexicon_lines(
        enumerate(read_lines(args.infile), start=1), NormSettings(lowercase=args.lowercase)
    )
    if report.duplicates:
        print(f"weblex: {report.duplicates} duplicate expression(s) merged (first gloss kept)", file=sys.stderr)
    for lineno, why in report.rejected:
        print(f"weblex: line {lineno}: entry rejected: {why}", file=sys.stderr)
    for lineno in report.blank_lines:
        print(f"weblex: line {lineno}: blank line skipped", file=sys.stderr)
    save_lexicon(lex, args.out)
    print(f"weblex: wrote {len(lex)} expression(s), max order {lex.max_order}", file=sys.stderr)
    return 0


def _cmd_bpe_learn(args, parser) -> int:
    model = bpe_mod.learn_bpe(
        read_lines(args.infile),
        args.size,
        settings=NormSettings(lowercase=args.lowercase),
    )
    bpe_mod.save_bpe(model, args.out)
    print(f"weblex: learned {len(model.merges)} merge(s)", file=sys.stderr)
    return 0


def _cmd_bpe_apply(args, parser) -> int:
    tokens_of = _line_tokens(args, parser, None)
    write_lines(args.out, _each_line(lambda line: " ".join(tokens_of(line)), read_lines(args.infile)))
    return 0


def _cmd_ibm1_train(args, parser) -> int:
    _require_parallel_args(args, parser)
    settings = NormSettings(lowercase=args.lowercase)
    corpus = _load_parallel(args, settings)
    table = ibm1_mod.train_ibm1(corpus, args.iters, null_word=not args.no_null, settings=settings)
    ibm1_mod.save_table(table, args.out)
    print(f"weblex: trained on {len(corpus)} pair(s), {len(table.probs)} entries", file=sys.stderr)
    return 0


def _cmd_ibm1_extract(args, parser) -> int:
    _require_parallel_args(args, parser)
    table = ibm1_mod.load_table(args.table)
    corpus = _load_parallel(args, table.settings)
    alignments = [ibm1_mod.align_best(table, pair) for pair in corpus]
    phrases = ibm1_mod.extract_phrases(corpus, alignments, max_len=args.max_len)
    lex = ibm1_mod.build_phb_vocab(phrases, min_count=args.min_count, settings=table.settings)
    save_lexicon(lex, args.out)
    print(f"weblex: extracted {len(phrases)} phrase pair(s), kept {len(lex)}", file=sys.stderr)
    return 0


def _cmd_vocab_build(args, parser) -> int:
    settings, lex, model = _strategy_artifacts(args, parser)
    tokens_of = _sentence_tokens(args.strategy, settings, lex, model)
    stream = (tok for tokens in _each_line(tokens_of, read_lines(args.infile)) for tok in tokens)
    vocab = build_vocab(stream, min_count=args.min_count, settings=settings)
    save_vocab(vocab, args.out)
    print(f"weblex: vocabulary of {len(vocab)} token(s)", file=sys.stderr)
    return 0


def _cmd_tokenize(args, parser) -> int:
    vocab = load_vocab(args.vocab)
    tokens_of = _line_tokens(args, parser, vocab)
    tagged = args.emit_tags and args.strategy in ("phb", "web")

    def ids_of(line: str) -> str:
        ids = vocab.encode(tokens_of(line))
        return " ".join(map(str, tag_ids(ids) if tagged else ids))

    write_lines(args.out, _each_line(ids_of, read_lines(args.infile)))
    return 0


def _cmd_decode(args, parser) -> int:
    vocab = load_vocab(args.vocab)

    def decode_line(line: str) -> str:
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError("ids must be decimal integers") from None
        return " ".join(vocab.decode(ids))

    write_lines(args.out, _each_line(decode_line, read_lines(args.infile)))
    return 0


def _cmd_stats(args, parser) -> int:
    vocab = load_vocab(args.vocab) if args.vocab else None
    seen: Counter[str] = Counter()
    tokens_of = _line_tokens(args, parser, vocab, seen)

    sentences = 0
    token_count = 0
    oov = 0
    types = set()
    seg_hist: Counter[int] = Counter()
    for tokens in _each_line(tokens_of, read_lines(args.infile)):
        sentences += 1
        token_count += len(tokens)
        types.update(tokens)
        seg_hist[len(tokens)] += 1
        if vocab is not None:
            oov += sum(1 for tok in tokens if tok not in vocab)

    lines = [
        f"sentences\t{sentences}",
        f"tokens\t{token_count}",
        f"types\t{len(types)}",
    ]
    if vocab is not None:
        lines.append(f"oov_rate\t{(oov / token_count if token_count else 0.0):.4f}")
    if args.strategy in ("phb", "web"):
        lines.append(f"fallback_rate\t{(seen['fallbacks'] / token_count if token_count else 0.0):.4f}")
    lines.append(f"segments_per_sentence_mean\t{(token_count / sentences if sentences else 0.0):.4f}")
    for count in sorted(seg_hist):
        lines.append(f"segments_hist\t{count}\t{seg_hist[count]}")
    write_lines(args.out, lines)
    return 0


# "charer" is a character-edit-rate proxy without word shifts; its output
# row says so to keep it from being read as a full shift-capable TER
_METRICS = {
    "bleu-null": ("bleu-null", lambda pairs: bleu(pairs, "null")),
    "bleu-intl": ("bleu-intl", lambda pairs: bleu(pairs, "intl")),
    "chrf": ("chrf", chrf),
    "charer": ("charer-proxy", char_edit_rate),
}


def _cmd_eval(args, parser) -> int:
    names = [name.strip() for name in args.metrics.split(",") if name.strip()]
    if not names:
        parser.error("no metrics given")
    for name in names:
        if name not in _METRICS:
            parser.error(f"unknown metric {name!r} (choose from {', '.join(_METRICS)})")
    hyp_lines = [normalize(line) for line in read_lines(args.hyp)]
    ref_lines = [normalize(line) for line in read_lines(args.ref)]
    if len(hyp_lines) != len(ref_lines):
        raise ValueError(f"hypothesis has {len(hyp_lines)} lines but reference has {len(ref_lines)}")
    pairs = list(zip(hyp_lines, ref_lines))
    rows = []
    for name in names:
        label, fn = _METRICS[name]
        rows.append(f"{label}\t{fn(pairs):.2f}")
    write_lines(args.out, rows)
    return 0


def _add_io_args(p, out_required=False):
    p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                   help="input file (default: stdin)")
    if out_required:
        p.add_argument("--out", required=True, metavar="FILE", help="output file")
    else:
        p.add_argument("--out", metavar="FILE", default=None, help="output file (default: stdout)")


def _add_strategy_args(p, vocab_required=False):
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--lexicon", metavar="FILE", help="expression lexicon (phb/web)")
    p.add_argument("--model", metavar="FILE", help="subword model (su)")
    if vocab_required:
        p.add_argument("--vocab", required=True, metavar="FILE")
    else:
        p.add_argument("--vocab", metavar="FILE")
    p.add_argument("--lowercase", action="store_true",
                   help="case-fold (wb without artifacts; others read it from the artifact)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weblex", description="segmentation toolkit: lexicon, bpe, ibm1, vocab, tokenize, eval")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    lex_p = sub.add_parser("lexicon", help="expression lexicon commands")
    lex_sub = lex_p.add_subparsers(dest="subcommand", required=True)
    p = lex_sub.add_parser("build", help="build a lexicon from 'expression<TAB>gloss' lines")
    _add_io_args(p, out_required=True)
    p.add_argument("--lowercase", action="store_true", help="case-fold while normalizing")
    p.set_defaults(func=_cmd_lexicon_build)

    bpe_p = sub.add_parser("bpe", help="subword model commands")
    bpe_sub = bpe_p.add_subparsers(dest="subcommand", required=True)
    p = bpe_sub.add_parser("learn", help="learn merges to a target symbol vocabulary size")
    p.add_argument("--size", type=int, required=True, help="target symbol vocabulary size")
    _add_io_args(p, out_required=True)
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=_cmd_bpe_learn)
    p = bpe_sub.add_parser("apply", help="split sentences into subword tokens")
    p.add_argument("--model", required=True, metavar="FILE")
    _add_io_args(p)
    p.set_defaults(func=_cmd_bpe_apply, strategy="su")

    ibm_p = sub.add_parser("ibm1", help="translation table commands")
    ibm_sub = ibm_p.add_subparsers(dest="subcommand", required=True)
    p = ibm_sub.add_parser("train", help="train translation probabilities by EM")
    p.add_argument("--iters", type=int, required=True, help="number of EM iterations")
    p.add_argument("--src", metavar="FILE", help="source-side sentences, one per line")
    p.add_argument("--tgt", metavar="FILE", help="target-side sentences, one per line")
    p.add_argument("--tsv", metavar="FILE", help="alternative: 'source<TAB>target' pairs")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--no-null", action="store_true", help="disable the null source word")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=_cmd_ibm1_train)
    p = ibm_sub.add_parser("extract", help="extract phrase pairs into a lexicon")
    p.add_argument("--table", required=True, metavar="FILE")
    p.add_argument("--src", metavar="FILE")
    p.add_argument("--tgt", metavar="FILE")
    p.add_argument("--tsv", metavar="FILE")
    p.add_argument("--max-len", type=int, default=7, help="longest phrase side (default 7)")
    p.add_argument("--min-count", type=int, default=1, help="keep phrases seen this often (default 1)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_ibm1_extract)

    vocab_p = sub.add_parser("vocab", help="vocabulary commands")
    vocab_sub = vocab_p.add_subparsers(dest="subcommand", required=True)
    p = vocab_sub.add_parser("build", help="build the token/id vocabulary for a strategy")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--lexicon", metavar="FILE")
    p.add_argument("--model", metavar="FILE")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--lowercase", action="store_true")
    _add_io_args(p, out_required=True)
    p.set_defaults(func=_cmd_vocab_build)

    p = sub.add_parser("tokenize", help="turn sentences into id sequences")
    _add_strategy_args(p, vocab_required=True)
    tags = p.add_mutually_exclusive_group()
    tags.add_argument("--emit-tags", dest="emit_tags", action="store_true",
                      help="wrap each expression id in start/end tag ids (default; phb/web only)")
    tags.add_argument("--no-tags", dest="emit_tags", action="store_false")
    p.set_defaults(emit_tags=True)
    _add_io_args(p)
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("encode", help="whitespace tokens to ids")
    p.add_argument("--vocab", required=True, metavar="FILE")
    _add_io_args(p)
    p.set_defaults(func=_cmd_tokenize, strategy="wb", emit_tags=False)

    p = sub.add_parser("decode", help="ids back to token strings")
    p.add_argument("--vocab", required=True, metavar="FILE")
    _add_io_args(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("stats", help="corpus statistics under a strategy")
    _add_strategy_args(p)
    _add_io_args(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--hyp", required=True, metavar="FILE")
    p.add_argument("--ref", required=True, metavar="FILE")
    p.add_argument("--metrics", default="bleu-null,bleu-intl,chrf,charer",
                   help="comma-separated subset of: %s; bleu-intl splits with an intl-like "
                        "punctuation isolator, charer is a character-edit-rate proxy "
                        "without word shifts" % ", ".join(_METRICS))
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 1
    except (WeblexError, ValueError, OSError) as exc:
        print(f"weblex: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
