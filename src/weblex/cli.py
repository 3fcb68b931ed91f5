"""Single command-line entry point for every pipeline.

Commands mirror the build-artifacts -> tokenize -> evaluate flow:
lexicon build, bpe learn/apply, ibm1 train/extract, vocab build,
tokenize, encode, decode, stats, eval. Data travels on stdout,
diagnostics on stderr; exit code 0 means success, 1 a usage error, and
2 a data or format error. Every file and stream is read and written
through `formats` (strict UTF-8, LF framing; all but `ibm1` and
`eval` stream their input), and outputs are byte-deterministic. The
two line-aligned files of `eval` and `ibm1 --src/--tgt` share one
reader, `_paired_lines`; `ibm1` checks its pairs in file order.

Each command is one row of `_COMMANDS` (name, help, handler, parser
defaults, flags), and each flag is declared once in `_FLAGS`. A
well-formed command line never imports argparse: `_well_formed` reads
it straight from `_FLAGS`. Anything else (`--help`, `--flag=value`, a
repeat, a refused value) goes to the argparse parser of the row that
starts it, which prints every usage line, help text and error; when no
row matches, a bare `weblex` parser lists the rows. A handler takes only
`args` and raises `_UsageError` for a usage problem found after parsing,
which `run` hands to the command's parser to report like its own.
`vocab build`, `tokenize`, `encode`, `stats` and `bpe apply` map a line
to its tokens through one function, `_line_tokens`, which also decides
where the normalization settings come from (phb/web join the cover
spans of the segmenter's sweep into texts). `tokenize` and `encode`
write, and `decode` reads, ids through one table per vocabulary (token
-> id text, id text -> token); a text `decode` finds no token for falls
back to the spelling and range checks, which name the fault. `lexicon
build` hands its entry rows to `build_lexicon`, and `_load` names the
artifact file in a load error. Each handler imports the modules it
runs, so a command loads only its own part of the package.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ConfigError, FormatError, WeblexError
from .formats import iter_lines, parse_int, write_lines
from .textnorm import NormSettings, normal_words, normalize

if TYPE_CHECKING:
    import argparse

    from .vocab import Vocabulary

STRATEGIES = ("wb", "su", "phb", "web")

T = TypeVar("T")


def _each_line(func: Callable[[str], T], lines: Iterable[str]) -> Iterator[T]:
    """Apply func per line, in order; a ValueError names its line."""
    for lineno, line in enumerate(lines, start=1):
        try:
            yield func(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None


def _load(loader: Callable[[str], T], path: str) -> T:
    """`loader(path)`, with the path in front of a FormatError it raises."""
    try:
        return loader(path)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _positive_int(text: str) -> int:
    if (value := parse_int(text)) < 1:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


_positive_int.__name__ = "int"  # argparse's "invalid int value: 'x'" names the type


class _UsageError(Exception):
    """A usage problem found after parsing; `run` reports it with exit 1."""


def _check_one_stdin(args) -> None:
    """Refuse to read stdin twice: '-' for any input file names it, and so does an omitted --in."""
    readers = [flag for flag, spec in _FLAGS.items() if spec.get("metavar") == "FILE" and flag != "--out"
               and getattr(args, _dest(flag), None) == "-"]
    if getattr(args, "infile", "") is None:
        readers.append("--in")
    if len(readers) > 1:
        raise _UsageError(f"{' and '.join(readers)} would each read stdin ('-' or an omitted --in); "
                          "at most one input can")


def _check_parallel_flags(args) -> None:
    if args.tsv and (args.src or args.tgt) or not (args.tsv or args.src and args.tgt):
        raise _UsageError("need either --tsv or both --src and --tgt")


def _paired_lines(func: Callable[[str], T], a: tuple[str, str], b: tuple[str, str]) -> list[tuple[T, T]]:
    """`func` of each line of the (name, path) files `a` and `b`, paired; a ValueError unless they align."""
    lines_a, lines_b = list(map(func, iter_lines(a[1]))), list(map(func, iter_lines(b[1])))
    if len(lines_a) != len(lines_b):
        raise ValueError(f"{a[0]} has {len(lines_a)} lines but {b[0]} has {len(lines_b)}")
    return list(zip(lines_a, lines_b))


def _load_parallel(args, settings: NormSettings) -> list[tuple[list[str], list[str]]]:
    """The --tsv corpus, or the --src/--tgt one, as normalized word pairs checked in file order."""
    def words(line: str) -> list[str]:
        return normal_words(line, settings.lowercase)

    rows = ((line.split("\t") for line in iter_lines(args.tsv)) if args.tsv
            else _paired_lines(words, ("source", args.src), ("target", args.tgt)))
    pairs = []
    for lineno, pair in enumerate(rows, start=1):
        if args.tsv:
            if len(pair) != 2:
                raise ValueError(f"{args.tsv}: line {lineno}: expected 'source<TAB>target'")
            pair = words(pair[0]), words(pair[1])
        if not pair[0] or not pair[1]:
            raise ValueError(f"pair {lineno}: both sides must be non-empty")
        pairs.append(pair)
    return pairs


def _line_tokens(args, seen: Counter | None = None) -> tuple[NormSettings, Callable[[str], list[str]], Vocabulary | None]:
    """The normalization settings, the line -> tokens function of
    --strategy and the --vocab vocabulary (or None), read only after
    every usage check.

    --lexicon (phb/web) or --model (su) is required, and refused for any
    other strategy. The settings come from that artifact, else from the
    vocabulary, else from --lowercase, which is refused wherever an
    artifact sets them. A given vocabulary must share those settings.
    For phb/web, `seen["fallbacks"]` (when given) counts the cover's
    single words not taken from a maximal match, even an entry that lies
    inside a longer match.
    """
    vocab_path = getattr(args, "vocab", None)
    lowercase = getattr(args, "lowercase", False)
    if lowercase and (args.strategy != "wb" or vocab_path is not None):
        raise _UsageError("--lowercase applies only to --strategy wb without --vocab; "
                          "otherwise the setting is read from the artifact")
    artifact = {"phb": "lexicon", "web": "lexicon", "su": "model"}.get(args.strategy)
    for name in ("lexicon", "model"):
        if name == artifact and not getattr(args, name):
            raise _UsageError(f"--{name} is required for strategy {args.strategy!r}")
        if name != artifact and getattr(args, name, None) is not None:
            raise _UsageError(f"--{name} does not apply to strategy {args.strategy!r}")
    from .vocab import load_vocab
    vocab = _load(load_vocab, vocab_path) if vocab_path is not None else None
    if artifact == "lexicon":
        from .lexicon import load_lexicon
        from .segmenter import _segments
        lex, _ = _load(load_lexicon, args.lexicon)
        settings = lex.settings

        def tokens_of(line: str) -> list[str]:
            words = normal_words(line, settings.lowercase)
            segments = _segments(words, lex)
            if seen is not None:
                seen["fallbacks"] += sum(not in_lexicon for _, _, in_lexicon in segments)
            return [words[start] if end == start + 1 else " ".join(words[start:end]) for start, end, _ in segments]
    elif artifact == "model":
        from .bpe import apply_bpe, load_bpe
        model = _load(load_bpe, args.model)
        settings = model.settings

        def tokens_of(line: str) -> list[str]:
            return apply_bpe(model, normal_words(line, settings.lowercase))
    else:
        settings = vocab.settings if vocab is not None else NormSettings(lowercase=lowercase)

        def tokens_of(line: str) -> list[str]:
            return normal_words(line, settings.lowercase)
    if vocab is not None and vocab.settings != settings:
        raise ConfigError(f"vocabulary settings {vocab.settings} do not match the {args.strategy} "
                          f"artifact settings {settings}")
    return settings, tokens_of, vocab


def _cmd_lexicon_build(args) -> None:
    from .lexicon import build_lexicon, save_lexicon
    entry_lines: list[int] = []  # the input line of each row build_lexicon is given
    blank_lines: list[int] = []

    def rows() -> Iterator[tuple[str, str | None]]:
        for lineno, line in enumerate(iter_lines(args.infile), start=1):
            if not line.strip():
                blank_lines.append(lineno)
            elif not line.startswith("#"):  # "#" starts a comment
                columns = line.split("\t")
                if len(columns) > 2:
                    raise ValueError(f"line {lineno}: expected 'expression<TAB>gloss', got {len(columns)} columns")
                entry_lines.append(lineno)
                yield columns[0], columns[1] if len(columns) == 2 else None

    lex, report = build_lexicon(rows(), NormSettings(lowercase=args.lowercase))
    if report.duplicates:
        print(f"weblex: {report.duplicates} duplicate expression(s) merged (first gloss kept)", file=sys.stderr)
    for pos, why in report.rejected:
        print(f"weblex: line {entry_lines[pos - 1]}: entry rejected: {why}", file=sys.stderr)
    for lineno in blank_lines:
        print(f"weblex: line {lineno}: blank line skipped", file=sys.stderr)
    save_lexicon(lex, args.out)
    print(f"weblex: wrote {len(lex)} expression(s), max order {lex.max_order}", file=sys.stderr)


def _cmd_bpe_learn(args) -> None:
    from .bpe import learn_bpe, save_bpe
    model = learn_bpe(iter_lines(args.infile), args.size, settings=NormSettings(lowercase=args.lowercase))
    save_bpe(model, args.out)
    print(f"weblex: learned {len(model.merges)} merge(s)", file=sys.stderr)


def _cmd_bpe_apply(args) -> None:
    _, tokens_of, _ = _line_tokens(args)
    write_lines(args.out, _each_line(lambda line: " ".join(tokens_of(line)), iter_lines(args.infile)))


def _cmd_ibm1_train(args) -> None:
    from .ibm1 import save_table, train_ibm1
    _check_parallel_flags(args)
    settings = NormSettings(lowercase=args.lowercase)
    corpus = _load_parallel(args, settings)
    table = train_ibm1(corpus, args.iters, null_word=not args.no_null, settings=settings)
    save_table(table, args.out)
    print(f"weblex: trained on {len(corpus)} pair(s), {len(table.values)} entries", file=sys.stderr)


def _cmd_ibm1_extract(args) -> None:
    from .ibm1 import align_best, build_phb_vocab, extract_phrases, load_table
    from .lexicon import save_lexicon
    _check_parallel_flags(args)
    table = _load(load_table, args.table)
    settings = table.settings
    corpus = _load_parallel(args, settings)
    alignments = [align_best(table, pair) for pair in corpus]
    del table  # phrase harvesting reads only the alignments
    phrases = extract_phrases(corpus, alignments, max_len=args.max_len)
    lex = build_phb_vocab(phrases, min_count=args.min_count, settings=settings)
    save_lexicon(lex, args.out)
    print(f"weblex: extracted {len(phrases)} phrase pair(s), kept {len(lex)}", file=sys.stderr)


def _cmd_vocab_build(args) -> None:
    from .vocab import build_vocab, save_vocab
    settings, tokens_of, _ = _line_tokens(args)
    stream = (tok for tokens in _each_line(tokens_of, iter_lines(args.infile)) for tok in tokens)
    vocab = build_vocab(stream, min_count=args.min_count, settings=settings)
    save_vocab(vocab, args.out)
    print(f"weblex: vocabulary of {len(vocab)} token(s)", file=sys.stderr)


def _cmd_tokenize(args) -> None:
    from .vocab import END_ID, START_ID, UNK_ID
    _, tokens_of, vocab = _line_tokens(args)
    tagged = args.emit_tags and args.strategy in ("phb", "web")
    # each token's id text is written once per vocabulary, not once per id
    texts = [f"{START_ID} {i} {END_ID}" if tagged else str(i) for i in range(len(vocab))]
    id_text = dict(zip(vocab.tokens(), texts)).get
    unk_texts = repeat(texts[UNK_ID])

    def ids_of(line: str) -> str:
        return " ".join(map(id_text, tokens_of(line), unk_texts))

    write_lines(args.out, _each_line(ids_of, iter_lines(args.infile)))


def _cmd_decode(args) -> None:
    from .vocab import load_vocab
    vocab = _load(load_vocab, args.vocab)
    # keyed by exactly the spellings parse_int accepts for an id in range
    token_of = dict(zip(map(str, range(len(vocab))), vocab.tokens())).get

    def decode_line(line: str) -> str:
        texts = line.split()
        try:
            return " ".join(map(token_of, texts))
        except TypeError:  # join met a None: some text is no id, and the checks below name the fault
            pass
        try:
            ids = [parse_int(text) for text in texts]
        except ValueError:
            raise ValueError("ids must be decimal integers") from None
        return " ".join(vocab.decode(ids))

    write_lines(args.out, _each_line(decode_line, iter_lines(args.infile)))


def _cmd_stats(args) -> None:
    seen: Counter[str] = Counter()
    _, tokens_of, vocab = _line_tokens(args, seen)
    types = set()
    seg_hist: Counter[int] = Counter()
    for tokens in _each_line(tokens_of, iter_lines(args.infile)):
        types.update(tokens)
        seg_hist[len(tokens)] += 1
        if vocab is not None:
            seen["oov"] += sum(tok not in vocab for tok in tokens)
    sentences = sum(seg_hist.values())
    token_count = sum(length * count for length, count in seg_hist.items())

    lines = [f"sentences\t{sentences}", f"tokens\t{token_count}", f"types\t{len(types)}"]
    if vocab is not None:
        lines.append(f"oov_rate\t{(seen['oov'] / token_count if token_count else 0.0):.4f}")
    if args.strategy in ("phb", "web"):
        lines.append(f"fallback_rate\t{(seen['fallbacks'] / token_count if token_count else 0.0):.4f}")
    lines.append(f"segments_per_sentence_mean\t{(token_count / sentences if sentences else 0.0):.4f}")
    for count in sorted(seg_hist):
        lines.append(f"segments_hist\t{count}\t{seg_hist[count]}")
    write_lines(args.out, lines)


# "charer" is a character-edit-rate proxy without word shifts; its output
# row says so to keep it from being read as a full shift-capable TER
_METRICS = {
    "bleu-null": ("bleu-null", lambda metrics, pairs: metrics.bleu(pairs, "null")),
    "bleu-intl": ("bleu-intl", lambda metrics, pairs: metrics.bleu(pairs, "intl")),
    "chrf": ("chrf", lambda metrics, pairs: metrics.chrf(pairs)),
    "charer": ("charer-proxy", lambda metrics, pairs: metrics.char_edit_rate(pairs)),
}


def _cmd_eval(args) -> None:
    names = [name.strip() for name in args.metrics.split(",") if name.strip()]
    if not names:
        raise _UsageError("no metrics given")
    for name in names:
        if name not in _METRICS:
            raise _UsageError(f"unknown metric {name!r} (choose from {', '.join(_METRICS)})")
        if names.count(name) > 1:
            raise _UsageError(f"metric {name!r} named more than once")
    from . import metrics
    pairs = _paired_lines(normalize, ("hypothesis", args.hyp), ("reference", args.ref))
    scorers = (_METRICS[name] for name in names)
    write_lines(args.out, [f"{label}\t{score(metrics, pairs):.2f}" for label, score in scorers])


# Each flag is declared once; a command lists its flags in usage order, a
# trailing "!" making one required and a tuple forming an exclusive group.
_FLAGS = {
    "--in": dict(dest="infile", metavar="FILE", help="input file (stdin if omitted or '-')"),
    "--out": dict(metavar="FILE", help="output file ('-' for stdout, the default where optional)"),
    "--strategy": dict(choices=STRATEGIES, help="tokenization strategy"),
    "--lexicon": dict(metavar="FILE", help="expression lexicon (phb/web)"),
    "--model": dict(metavar="FILE", help="subword model (su)"),
    "--vocab": dict(metavar="FILE", help="token/id vocabulary"),
    "--table": dict(metavar="FILE", help="translation table from 'ibm1 train'"),
    "--src": dict(metavar="FILE", help="source-side sentences, one per line"),
    "--tgt": dict(metavar="FILE", help="target-side sentences, one per line"),
    "--tsv": dict(metavar="FILE", help="'source<TAB>target' pairs, instead of --src and --tgt"),
    "--hyp": dict(metavar="FILE", help="hypotheses, one per line"),
    "--ref": dict(metavar="FILE", help="references, one per line"),
    "--lowercase": dict(action="store_true", help="case-fold while normalizing (where no artifact sets it)"),
    "--size": dict(type=_positive_int, help="target symbol vocabulary size"),
    "--iters": dict(type=_positive_int, help="number of EM iterations"),
    "--no-null": dict(action="store_true", help="disable the null source word"),
    "--max-len": dict(type=_positive_int, default=7, help="longest phrase side (default 7)"),
    "--min-count": dict(type=_positive_int, default=1, help="keep items seen at least this often (default 1)"),
    "--metrics": dict(default=",".join(_METRICS),
                      help=f"comma-separated subset of: {', '.join(_METRICS)}; bleu-intl splits with an "
                           "intl-like punctuation isolator, charer is a character-edit-rate proxy "
                           "without word shifts"),
    "--emit-tags": dict(dest="emit_tags", action="store_true",
                        help="wrap each expression id in start/end tag ids (default; phb/web only)"),
    "--no-tags": dict(dest="emit_tags", action="store_false", help="write bare ids"),
}

_STRATEGY_FLAGS = ("--strategy!", "--lexicon", "--model")

# (command, help, handler, defaults, flags), in `weblex --help` order
_COMMANDS = (
    ("lexicon build", "build a lexicon from 'expression<TAB>gloss' lines", _cmd_lexicon_build, {},
     ("--in", "--out!", "--lowercase")),
    ("bpe learn", "learn merges to a target symbol vocabulary size", _cmd_bpe_learn, {},
     ("--size!", "--in", "--out!", "--lowercase")),
    ("bpe apply", "split sentences into subword tokens", _cmd_bpe_apply, {"strategy": "su"},
     ("--model!", "--in", "--out")),
    ("ibm1 train", "train translation probabilities by EM", _cmd_ibm1_train, {},
     ("--iters!", "--src", "--tgt", "--tsv", "--out!", "--no-null", "--lowercase")),
    ("ibm1 extract", "extract phrase pairs into a lexicon", _cmd_ibm1_extract, {},
     ("--table!", "--src", "--tgt", "--tsv", "--max-len", "--min-count", "--out!")),
    ("vocab build", "build the token/id vocabulary for a strategy", _cmd_vocab_build, {},
     (*_STRATEGY_FLAGS, "--min-count", "--lowercase", "--in", "--out!")),
    ("tokenize", "turn sentences into id sequences", _cmd_tokenize, {"emit_tags": True},
     (*_STRATEGY_FLAGS, "--vocab!", ("--emit-tags", "--no-tags"), "--in", "--out")),
    ("encode", "whitespace tokens to ids", _cmd_tokenize, {"strategy": "wb", "emit_tags": False},
     ("--vocab!", "--in", "--out")),
    ("decode", "ids back to token strings", _cmd_decode, {}, ("--vocab!", "--in", "--out")),
    ("stats", "corpus statistics under a strategy", _cmd_stats, {},
     (*_STRATEGY_FLAGS, "--vocab", "--lowercase", "--in", "--out")),
    ("eval", "score hypotheses against references", _cmd_eval, {},
     ("--hyp!", "--ref!", "--metrics", "--out")),
)


def _dest(option: str) -> str:
    """The attribute argparse stores `option`'s value under."""
    return _FLAGS[option].get("dest", option[2:].replace("-", "_"))


def _well_formed(row: tuple, words: Sequence[str]) -> SimpleNamespace | None:
    """The namespace `build_parser(row[0]).parse_args(words)` gives, read
    without argparse; None unless `words` are only the row's exact flags,
    each at most once and at most one of an exclusive group, each value
    '-' or a word not starting with '-' that the flag's type and choices
    take, and every required flag given."""
    _, _, handler, defaults, flags = row
    group_of = {spec.rstrip("!"): group for group in flags
                for spec in (group if isinstance(group, tuple) else (group,))}
    values: dict = {}
    for option in group_of:  # the first flag of a dest gives its default, as in argparse
        action = _FLAGS[option].get("action")
        values.setdefault(_dest(option), _FLAGS[option].get("default", action == "store_false" if action else None))
    values.update(defaults, func=handler)
    seen = set()
    words = iter(words)
    for word in words:
        if (group := group_of.get(word)) is None or group in seen:
            return None
        seen.add(group)
        spec = _FLAGS[word]
        if "action" in spec:
            values[_dest(word)] = spec["action"] == "store_true"
            continue
        value = next(words, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        try:
            value = spec.get("type", str)(value)
        except Exception:  # a ValueError, or argparse's ArgumentTypeError; argparse reads it again and reports it
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[_dest(word)] = value
    if not all(group in seen for group in flags if isinstance(group, str) and group.endswith("!")):
        return None
    return SimpleNamespace(**values)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the `_COMMANDS` row named `command`, or for None the
    bare `weblex` parser, whose help lists every row."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage problems must exit 1, not argparse's default 2
        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    if command is None:
        rows = "".join(f"\n  {name:<15}{help_text}" for name, help_text, *_ in _COMMANDS)
        about = f"segmentation toolkit: lexicon, bpe, ibm1, vocab, tokenize, eval\n\ncommands:{rows}"
        return _Parser(prog="weblex", usage="%(prog)s [-h] COMMAND ...", description=about,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _, _, handler, defaults, flags = next(row for row in _COMMANDS if row[0] == command)
    parser = _Parser(prog=f"weblex {command}")
    for flag in flags:
        target, specs = (parser.add_mutually_exclusive_group(), flag) if isinstance(flag, tuple) else (parser, (flag,))
        for spec in specs:
            option = spec.rstrip("!")
            target.add_argument(option, required=spec.endswith("!"), **_FLAGS[option])
    parser.set_defaults(func=handler, **defaults)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    row = next((row for row in _COMMANDS if row[0].split() == argv[:row[0].count(" ") + 1]), None)
    try:
        if row is None:
            parser = build_parser()
            parser.parse_args(argv)  # exits 0 on -h/--help, else 1 naming the words it does not know
            parser.error("the following arguments are required: COMMAND")
        command = row[0]
        words = argv[command.count(" ") + 1:]
        args = _well_formed(row, words) or build_parser(command).parse_args(words)
        try:
            _check_one_stdin(args)
            args.func(args)
        except _UsageError as exc:
            build_parser(command).error(str(exc))
        return 0
    except SystemExit as exc:  # only argparse exits: 0 after --help, 1 after a usage error
        return exc.code
    except (WeblexError, ValueError, OSError) as exc:
        print(f"weblex: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
