"""Traced in-process replay of each workload through weblex's public API.

Every call into a weblex module runs inside a span named after the
module's layer, so per-layer times come from the benchmark's own files
and nothing under `src/` is instrumented. A `cli.<command>` span groups
the library work one CLI command does; its self time is benchmark glue
and is not reported. The replay recomputes each CLI output and returns
it, so the caller can check it byte for byte against the CLI's.

LAYER_METRICS lists every per-layer metric with the end-to-end metric
and the workloads it should move. A layer a workload never calls reads 0
on that workload.
"""

from __future__ import annotations

from pathlib import Path

from weblex import (
    align_best,
    apply_bpe,
    build_lexicon,
    build_phb_vocab,
    build_vocab,
    enumerate_candidates,
    extract_phrases,
    filter_subsumed,
    learn_bpe,
    load_bpe,
    load_lexicon,
    load_table,
    load_vocab,
    log_likelihood,
    NormSettings,
    normalize,
    save_bpe,
    save_lexicon,
    save_table,
    save_vocab,
    select_cover,
    split_words,
    train_ibm1,
)
from weblex.vocab import END_TOKEN, START_TOKEN, UNK_ID

from workloads import BPE_SIZE, EVAL_METRICS, IBM1_ITERS, PHB_MIN_COUNT, WEB_MIN_COUNT, read_lines

TOKENIZE_WORKLOADS = ("web-curated", "su-subword", "phb-phrase")


def _m(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


_LINES = {"lines_per_ref": TOKENIZE_WORKLOADS}
_SEG = {"lines_per_ref": ("web-curated", "phb-phrase"), "build_ref": ("web-curated", "phb-phrase")}
_VOCAB_BUILD = {"build_ref": TOKENIZE_WORKLOADS + ("eval-metrics",)}
_BPE_APPLY = {"lines_per_ref": ("su-subword",), "build_ref": ("su-subword",)}
_PHB_BUILD = {"build_ref": ("phb-phrase",)}
_EVAL = {"lines_per_ref": ("eval-metrics",)}

# name, unit, better, {end-to-end metric: workloads it should move}
LAYER_METRICS = [
    _m("textnorm.normalize_s", "s", "lower", _LINES),
    _m("textnorm.split_s", "s", "lower", _LINES),
    _m("textnorm.lines", "count", "lower", _LINES),
    _m("lexicon.build_s", "s", "lower", {"build_ref": ("web-curated",)}),
    _m("lexicon.entries", "count", "higher", {"build_ref": ("web-curated",)}),
    # tokenize loads the lexicon or bpe model (setup_s); vocab build loads it too (build_ref)
    _m("formats.load_lexicon_s", "s", "lower", {"setup_s": ("web-curated", "phb-phrase"),
                                                "build_ref": ("web-curated", "phb-phrase")}),
    _m("formats.load_bpe_s", "s", "lower", {"setup_s": ("su-subword",), "build_ref": ("su-subword",)}),
    _m("formats.load_table_s", "s", "lower", _PHB_BUILD),  # only ibm1 extract loads the table
    _m("formats.load_vocab_s", "s", "lower", {"setup_s": TOKENIZE_WORKLOADS}),
    _m("formats.save_table_s", "s", "lower", _PHB_BUILD),
    _m("formats.artifact_bytes", "bytes", "lower", _PHB_BUILD),
    _m("segmenter.enumerate_s", "s", "lower", _SEG),
    _m("segmenter.filter_s", "s", "lower", _SEG),
    _m("segmenter.cover_s", "s", "lower", _SEG),
    _m("segmenter.tokenize_web_s", "s", "lower", _SEG),
    _m("segmenter.candidates", "count", "lower", _SEG),
    _m("segmenter.maximal", "count", "lower", _SEG),
    _m("segmenter.segments", "count", "lower", _SEG),
    _m("segmenter.fallbacks", "count", "lower", _SEG),
    _m("segmenter.maximal_share", "share", "higher", _SEG),
    _m("segmenter.fallback_rate", "share", "lower", _SEG),
    _m("bpe.learn_s", "s", "lower", {"build_ref": ("su-subword",)}),
    _m("bpe.merges", "count", "higher", {"build_ref": ("su-subword",)}),
    _m("bpe.learn_ms_per_merge", "ms", "lower", {"build_ref": ("su-subword",)}),
    _m("bpe.apply_s", "s", "lower", _BPE_APPLY),
    _m("bpe.words", "count", "lower", _BPE_APPLY),
    _m("bpe.apply_us_per_word", "us", "lower", _BPE_APPLY),
    _m("bpe.repeat_word_share", "share", "higher", _BPE_APPLY),
    _m("ibm1.train_s", "s", "lower", _PHB_BUILD),
    _m("ibm1.em_iter_s", "s", "lower", _PHB_BUILD),
    _m("ibm1.table_entries", "count", "lower", _PHB_BUILD),
    _m("ibm1.log_likelihood", "nats", "higher", _PHB_BUILD),
    _m("ibm1.align_s", "s", "lower", _PHB_BUILD),
    _m("ibm1.extract_s", "s", "lower", _PHB_BUILD),
    _m("ibm1.phrase_pairs", "count", "lower", _PHB_BUILD),
    _m("ibm1.build_phb_vocab_s", "s", "lower", _PHB_BUILD),
    _m("ibm1.phrases_kept", "count", "higher", _PHB_BUILD),
    _m("vocab.build_s", "s", "lower", _VOCAB_BUILD),
    _m("vocab.encode_s", "s", "lower", {"lines_per_ref": TOKENIZE_WORKLOADS, "wall_ref": ("eval-metrics",)}),
    _m("vocab.decode_s", "s", "lower", {"wall_ref": ("web-curated", "eval-metrics")}),
    _m("vocab.types", "count", "higher", _VOCAB_BUILD),
    _m("vocab.unk_share", "share", "lower", _LINES),
    _m("metrics.bleu_null_s", "s", "lower", _EVAL),
    _m("metrics.bleu_intl_s", "s", "lower", _EVAL),
    _m("metrics.chrf_s", "s", "lower", _EVAL),
    _m("metrics.charer_s", "s", "lower", _EVAL),
    _m("metrics.charer_cells", "count", "lower", _EVAL),
    _m("cli.overhead_s", "s", "lower", _LINES),
    _m("cli.pool_speedup", "ratio", "higher", _LINES),
    _m("trace.overhead_share", "share", "lower", {}),
    _m("input.lines", "count", "higher", {}),
    _m("input.words_per_line", "count", "higher", {}),
    _m("input.candidates_per_sentence", "count", "higher", {}),
    _m("input.chars_per_pair", "count", "higher", {}),
    _m("repo.src_lines", "count", "lower", {}),
]

# timings that are the summed self time of the span named without "_s"
SPAN_TIMES = [m["name"] for m in LAYER_METRICS
              if m["unit"] == "s" and m["name"] not in ("ibm1.em_iter_s", "cli.overhead_s")]
COUNTS = ["textnorm.lines", "lexicon.entries", "segmenter.candidates", "segmenter.maximal",
          "segmenter.segments", "segmenter.fallbacks", "bpe.merges", "bpe.words",
          "ibm1.table_entries", "ibm1.log_likelihood", "ibm1.phrase_pairs", "ibm1.phrases_kept",
          "vocab.types", "metrics.charer_cells"]


def _words(rec, line: str, lowercase: bool = False) -> list[str]:
    with rec.span("textnorm.normalize"):
        text = normalize(line, lowercase)
    with rec.span("textnorm.split"):
        words = split_words(text)
    rec.count("textnorm.lines")
    return words


def _segments(rec, words: list[str], lex) -> list[str]:
    with rec.span("segmenter.enumerate"):
        candidates = enumerate_candidates(words, lex)
    with rec.span("segmenter.filter"):
        maximal = filter_subsumed(candidates)
    with rec.span("segmenter.cover"):
        seg = select_cover(words, maximal)
    rec.count("segmenter.sentences")
    rec.count("segmenter.candidates", len(candidates))
    rec.count("segmenter.maximal", len(maximal))
    rec.count("segmenter.segments", len(seg))
    rec.count("segmenter.fallbacks", sum(not s.in_lexicon for s in seg.segments))
    return seg.texts(words)


def _encode(rec, vocab, tokens: list[str]) -> list[int]:
    with rec.span("vocab.encode"):
        ids = vocab.encode(tokens)
    rec.count("vocab.encoded", len(ids))
    rec.count("vocab.unk", ids.count(UNK_ID))
    return ids


def _tokenize_web(rec, line: str, lex, vocab) -> list[int]:
    # same composition as weblex.tokenize_web, one span per stage; the
    # span's self time is segment texts plus the tag wrap
    with rec.span("segmenter.tokenize_web"):
        words = _words(rec, line, lex.settings.lowercase)
        ids = _encode(rec, vocab, _segments(rec, words, lex))
        start_id = vocab.token_to_id(START_TOKEN)
        end_id = vocab.token_to_id(END_TOKEN)
        return [x for i in ids for x in (start_id, i, end_id)]


def _load_lexicon(rec, path: Path):
    with rec.span("formats.load_lexicon"):
        lex, _ = load_lexicon(str(path))
    return lex


def _load_vocab(rec, path: Path):
    with rec.span("formats.load_vocab"):
        return load_vocab(str(path))


def _ids_text(ids) -> str:
    return " ".join(map(str, ids))


def _vocab_build(rec, d: Path, tokens: list[str], min_count: int, settings) -> dict[str, bytes]:
    with rec.span("vocab.build"):
        vocab = build_vocab(tokens, min_count=min_count, settings=settings)
    rec.count("vocab.types", len(vocab))
    with rec.span("formats.save_vocab"):
        save_vocab(vocab, str(d / "replay.vocab"))
    return {"vocab.weblex": (d / "replay.vocab").read_bytes()}


def _decode(rec, d: Path, ids_file: str) -> list[str]:
    with rec.span("cli.decode"):
        vocab = _load_vocab(rec, d / "vocab.weblex")
        out = []
        for line in read_lines(d / ids_file):
            with rec.span("vocab.decode"):
                out.append(" ".join(vocab.decode(int(x) for x in line.split())))
    return out


# ---- per-line stages: what the timed per-line CLI command does in-process

def web_tokenize(rec, d: Path, lexicon: str = "lex.weblex", corpus: str = "corpus.txt") -> list[str]:
    with rec.span("cli.tokenize"):
        lex = _load_lexicon(rec, d / lexicon)
        vocab = _load_vocab(rec, d / "vocab.weblex")
        return [_ids_text(_tokenize_web(rec, line, lex, vocab)) for line in read_lines(d / corpus)]


def su_tokenize(rec, d: Path) -> list[str]:
    with rec.span("cli.tokenize"):
        with rec.span("formats.load_bpe"):
            model = load_bpe(str(d / "model.bpe"))
        vocab = _load_vocab(rec, d / "vocab.weblex")
        out = []
        for line in read_lines(d / "heldout.txt"):
            words = _words(rec, line)
            with rec.span("bpe.apply"):
                tokens = apply_bpe(model, words)
            rec.count("bpe.words", len(words))
            out.append(_ids_text(_encode(rec, vocab, tokens)))
        return out


def phb_tokenize(rec, d: Path) -> list[str]:
    return web_tokenize(rec, d, "phb.weblex", "src.txt")


def eval_scores(rec, d: Path) -> list[str]:
    with rec.span("cli.eval"):
        hyps, refs = [], []
        for h, r in zip(read_lines(d / "hyp.dec"), read_lines(d / "ref.txt")):
            with rec.span("textnorm.normalize"):
                hyps.append(normalize(h))
            with rec.span("textnorm.normalize"):
                refs.append(normalize(r))
        rec.count("textnorm.lines", 2 * len(hyps))
        pairs = list(zip(hyps, refs))
        rec.count("metrics.charer_cells", sum(len(h) * len(r) for h, r in pairs))
        rows = []
        for label, span, score in EVAL_METRICS:
            with rec.span(span):
                rows.append(f"{label}\t{score(pairs):.2f}")
        return rows


PER_LINE = {"web-curated": web_tokenize, "su-subword": su_tokenize,
            "phb-phrase": phb_tokenize, "eval-metrics": eval_scores}


# ---- whole-pipeline replays; each returns {CLI output file: replayed bytes}

def _text(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def web_replay(rec, d: Path) -> dict[str, bytes]:
    out = {}
    with rec.span("cli.lexicon_build"):
        entries = []
        for line in read_lines(d / "pairs.tsv"):
            expr, _, gloss = line.partition("\t")
            entries.append((expr, gloss))
        with rec.span("lexicon.build"):
            lex, _ = build_lexicon(entries)
        rec.count("lexicon.entries", len(lex))
        with rec.span("formats.save_lexicon"):
            save_lexicon(lex, str(d / "replay.lex"))
        out["lex.weblex"] = (d / "replay.lex").read_bytes()
    with rec.span("cli.vocab_build"):
        lex = _load_lexicon(rec, d / "lex.weblex")
        tokens = []
        for line in read_lines(d / "corpus.txt"):
            tokens += _segments(rec, _words(rec, line), lex)
        out.update(_vocab_build(rec, d, tokens, WEB_MIN_COUNT, lex.settings))
    out["ids.txt"] = _text(web_tokenize(rec, d))
    out["decoded.txt"] = _text(_decode(rec, d, "ids.txt"))
    return out


def su_replay(rec, d: Path) -> dict[str, bytes]:
    out = {}
    with rec.span("cli.bpe_learn"):
        with rec.span("bpe.learn"):
            model = learn_bpe(read_lines(d / "train.txt"), BPE_SIZE)
        rec.count("bpe.merges", len(model.merges))
        with rec.span("formats.save_bpe"):
            save_bpe(model, str(d / "replay.bpe"))
        out["model.bpe"] = (d / "replay.bpe").read_bytes()
    with rec.span("cli.vocab_build"):
        with rec.span("formats.load_bpe"):
            model = load_bpe(str(d / "model.bpe"))
        tokens = []
        for line in read_lines(d / "heldout.txt"):
            words = _words(rec, line)
            with rec.span("bpe.apply"):
                tokens += apply_bpe(model, words)
            rec.count("bpe.words", len(words))
        out.update(_vocab_build(rec, d, tokens, 1, model.settings))
    out["ids.txt"] = _text(su_tokenize(rec, d))
    return out


def _parallel(rec, d: Path) -> list[tuple[list[str], list[str]]]:
    return [(_words(rec, s), _words(rec, t))
            for s, t in zip(read_lines(d / "src.txt"), read_lines(d / "tgt.txt"))]


def phb_replay(rec, d: Path) -> dict[str, bytes]:
    out = {}
    with rec.span("cli.ibm1_train"):
        corpus = _parallel(rec, d)
        with rec.span("ibm1.train"):
            table = train_ibm1(corpus, IBM1_ITERS)
        rec.count("ibm1.table_entries", len(table.probs))
        with rec.span("formats.save_table"):
            save_table(table, str(d / "replay.table"))
        out["table.tsv"] = (d / "replay.table").read_bytes()
    with rec.span("ibm1.log_likelihood"):
        rec.count("ibm1.log_likelihood", log_likelihood(table, corpus))
    with rec.span("cli.ibm1_extract"):
        with rec.span("formats.load_table"):
            table = load_table(str(d / "table.tsv"))
        corpus = _parallel(rec, d)
        alignments = []
        for pair in corpus:
            with rec.span("ibm1.align"):
                alignments.append(align_best(table, pair))
        with rec.span("ibm1.extract"):
            phrases = extract_phrases(corpus, alignments, max_len=7)
        with rec.span("ibm1.build_phb_vocab"):
            lex = build_phb_vocab(phrases, min_count=PHB_MIN_COUNT, settings=table.settings)
        rec.count("ibm1.phrase_pairs", len(phrases))
        rec.count("ibm1.phrases_kept", len(lex))
        with rec.span("formats.save_lexicon"):
            save_lexicon(lex, str(d / "replay.lex"))
        out["phb.weblex"] = (d / "replay.lex").read_bytes()
    with rec.span("cli.vocab_build"):
        lex = _load_lexicon(rec, d / "phb.weblex")
        tokens = []
        for line in read_lines(d / "src.txt"):
            tokens += _segments(rec, _words(rec, line), lex)
        out.update(_vocab_build(rec, d, tokens, 1, lex.settings))
    out["ids.txt"] = _text(phb_tokenize(rec, d))
    return out


def eval_replay(rec, d: Path) -> dict[str, bytes]:
    out = {}
    with rec.span("cli.vocab_build"):
        tokens = [w for line in read_lines(d / "hyp.txt") for w in _words(rec, line)]
        out.update(_vocab_build(rec, d, tokens, 1, NormSettings()))
    with rec.span("cli.encode"):
        vocab = _load_vocab(rec, d / "vocab.weblex")
        out["hyp.ids"] = _text([_ids_text(_encode(rec, vocab, _words(rec, line)))
                                for line in read_lines(d / "hyp.txt")])
    out["hyp.dec"] = _text(_decode(rec, d, "hyp.ids"))
    out["scores.tsv"] = _text(eval_scores(rec, d))
    return out


REPLAY = {"web-curated": web_replay, "su-subword": su_replay,
          "phb-phrase": phb_replay, "eval-metrics": eval_replay}


def layer_values(rec) -> dict[str, float]:
    """Per-layer metrics of one traced pass (run-level ones are added by the caller)."""
    times = rec.self_times()
    c = rec.counts
    values = {name: times.get(name[:-2], 0.0) for name in SPAN_TIMES}
    values.update({name: c[name] for name in COUNTS})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["segmenter.maximal_share"] = ratio(c["segmenter.maximal"], c["segmenter.candidates"])
    values["segmenter.fallback_rate"] = ratio(c["segmenter.fallbacks"], c["segmenter.segments"])
    values["input.candidates_per_sentence"] = ratio(c["segmenter.candidates"], c["segmenter.sentences"])
    values["bpe.learn_ms_per_merge"] = ratio(1e3 * values["bpe.learn_s"], c["bpe.merges"])
    values["bpe.apply_us_per_word"] = ratio(1e6 * values["bpe.apply_s"], c["bpe.words"])
    values["ibm1.em_iter_s"] = values["ibm1.train_s"] / IBM1_ITERS
    values["vocab.unk_share"] = ratio(c["vocab.unk"], c["vocab.encoded"])
    return values


def input_properties(wl, d: Path) -> dict[str, float]:
    """Properties of the per-line command's input that later optimizations depend on."""
    lines = read_lines(d / wl.line_inputs[0])
    words = [split_words(normalize(line)) for line in lines]
    flat = [w for ws in words for w in ws]
    props = {
        "input.lines": len(lines),
        "input.words_per_line": len(flat) / len(lines),
        "input.chars_per_pair": 0.0,
        "bpe.repeat_word_share": 0.0,
        "formats.artifact_bytes": sum((d / s.output).stat().st_size for s in wl.steps if s.build),
    }
    if wl.name == "eval-metrics":
        refs = [normalize(line) for line in read_lines(d / "ref.txt")]
        props["input.chars_per_pair"] = sum(len(normalize(h)) + len(r) for h, r in zip(lines, refs)) / len(lines)
    if wl.name == "su-subword":
        props["bpe.repeat_word_share"] = 1 - len(set(flat)) / len(flat)
    return props
