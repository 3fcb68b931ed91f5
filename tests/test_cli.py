import contextlib
import io
import random
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bleu_oracle, bpe_apply_oracle, chrf_oracle, decode_line_oracle, ids_line_oracle,
                     levenshtein_matrix, lexicon_build_oracle, normalize_oracle, read_lines_oracle)
from weblex import cli
from weblex.bpe import learn_bpe, load_bpe, save_bpe
from weblex.cli import build_parser, run
from weblex.errors import FormatError
from weblex.lexicon import load_lexicon, save_lexicon
from weblex.metrics import bleu
from weblex.segmenter import enumerate_candidates, filter_subsumed, select_cover
from weblex.textnorm import NormSettings, normalize, split_words
from weblex.vocab import Vocabulary, build_vocab, load_vocab, save_vocab

TABLE2_SENTENCE = "a ɖo jiɖiɖe ɖo wutu cé à nɔnvi cé"

LEXICON_TSV = (
    "a ɖo jiɖiɖe ɖo wutu cé à\tas-tu confiance en moi ?\n"
    "nɔnvi cé\tmon frère / ma soeur\n"
    "cé\n"
    "a ɖo\tx\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "pairs.tsv").write_text(LEXICON_TSV, encoding="utf-8")
    (tmp_path / "corpus.txt").write_text(TABLE2_SENTENCE + "\n", encoding="utf-8")
    return tmp_path


def _build_web_artifacts(ws):
    assert run(["lexicon", "build", "--in", str(ws / "pairs.tsv"), "--out", str(ws / "lex.weblex")]) == 0
    assert run([
        "vocab", "build", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--in", str(ws / "corpus.txt"), "--out", str(ws / "vocab.weblex"),
    ]) == 0


def test_lexicon_build_and_tokenize_web(workspace):
    ws = workspace
    _build_web_artifacts(ws)
    assert run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vocab.weblex"), "--no-tags",
        "--in", str(ws / "corpus.txt"), "--out", str(ws / "ids.txt"),
    ]) == 0
    ids = (ws / "ids.txt").read_text(encoding="utf-8").splitlines()
    assert len(ids) == 1
    values = [int(x) for x in ids[0].split()]
    assert len(values) == 2  # the two Table 2 expressions
    assert all(v >= 4 for v in values)  # both known, no specials


def test_tokenize_with_tags_triples_length(workspace):
    ws = workspace
    _build_web_artifacts(ws)
    assert run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vocab.weblex"), "--emit-tags",
        "--in", str(ws / "corpus.txt"), "--out", str(ws / "tagged.txt"),
    ]) == 0
    values = [int(x) for x in (ws / "tagged.txt").read_text(encoding="utf-8").split()]
    assert len(values) == 6
    assert values[0] == 2 and values[2] == 3  # start/end ids around each segment


def test_decode_round_trips_tagged_output(workspace):
    ws = workspace
    _build_web_artifacts(ws)
    run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vocab.weblex"),
        "--in", str(ws / "corpus.txt"), "--out", str(ws / "tagged.txt"),
    ])
    assert run([
        "decode", "--vocab", str(ws / "vocab.weblex"),
        "--in", str(ws / "tagged.txt"), "--out", str(ws / "decoded.txt"),
    ]) == 0
    decoded = (ws / "decoded.txt").read_text(encoding="utf-8").strip()
    assert decoded == (
        "<start> a ɖo jiɖiɖe ɖo wutu cé à <end> <start> nɔnvi cé <end>"
    )


def test_missing_required_flag_exits_1(capsys):
    assert run(["tokenize", "--strategy", "web"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1


def test_corrupt_lexicon_header_exits_2(workspace, capsys):
    ws = workspace
    _build_web_artifacts(ws)
    (ws / "broken.weblex").write_text("#not-a-header\nfoo\tbar\n", encoding="utf-8")
    code = run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "broken.weblex"),
        "--vocab", str(ws / "vocab.weblex"), "--in", str(ws / "corpus.txt"),
    ])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_invalid_utf8_corpus_exits_2(workspace):
    ws = workspace
    _build_web_artifacts(ws)
    (ws / "bad.txt").write_bytes(b"\xff\xfe broken")
    code = run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vocab.weblex"), "--in", str(ws / "bad.txt"),
    ])
    assert code == 2


def test_settings_mismatch_exits_2(workspace, capsys):
    ws = workspace
    _build_web_artifacts(ws)
    # rebuild the vocab with different normalization settings
    assert run([
        "vocab", "build", "--strategy", "wb", "--lowercase",
        "--in", str(ws / "corpus.txt"), "--out", str(ws / "vlower.weblex"),
    ]) == 0
    code = run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vlower.weblex"), "--in", str(ws / "corpus.txt"),
    ])
    assert code == 2
    assert "settings" in capsys.readouterr().err


def test_stdin_stdout_pipe(workspace, capsys, monkeypatch):
    ws = workspace
    _build_web_artifacts(ws)
    stdin = io.TextIOWrapper(io.BytesIO((TABLE2_SENTENCE + "\n").encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run([
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vocab.weblex"), "--no-tags",
    ]) == 0
    out = capsys.readouterr().out
    assert len(out.split()) == 2


def test_wb_and_su_pipelines(workspace):
    ws = workspace
    (ws / "train.txt").write_text("un ɖo ganji\nun ɖo\n", encoding="utf-8")
    assert run([
        "vocab", "build", "--strategy", "wb",
        "--in", str(ws / "train.txt"), "--out", str(ws / "wb.vocab"),
    ]) == 0
    assert run([
        "tokenize", "--strategy", "wb", "--vocab", str(ws / "wb.vocab"),
        "--in", str(ws / "train.txt"), "--out", str(ws / "wb.ids"),
    ]) == 0
    lines = (ws / "wb.ids").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert len(lines[0].split()) == 3
    assert len(lines[1].split()) == 2

    assert run([
        "bpe", "learn", "--size", "40",
        "--in", str(ws / "train.txt"), "--out", str(ws / "su.bpe"),
    ]) == 0
    assert run([
        "bpe", "apply", "--model", str(ws / "su.bpe"),
        "--in", str(ws / "train.txt"), "--out", str(ws / "su.txt"),
    ]) == 0
    subwords = (ws / "su.txt").read_text(encoding="utf-8").splitlines()
    assert subwords[0].split()  # not empty
    assert run([
        "vocab", "build", "--strategy", "su", "--model", str(ws / "su.bpe"),
        "--in", str(ws / "train.txt"), "--out", str(ws / "su.vocab"),
    ]) == 0
    assert run([
        "tokenize", "--strategy", "su", "--model", str(ws / "su.bpe"),
        "--vocab", str(ws / "su.vocab"), "--in", str(ws / "train.txt"),
        "--out", str(ws / "su.ids"),
    ]) == 0
    assert len((ws / "su.ids").read_text(encoding="utf-8").splitlines()) == 2


def test_ibm1_train_and_extract_pipeline(tmp_path):
    ws = tmp_path
    (ws / "src.txt").write_text("la maison\nla\n", encoding="utf-8")
    (ws / "tgt.txt").write_text("the house\nthe\n", encoding="utf-8")
    assert run([
        "ibm1", "train", "--iters", "10", "--no-null",
        "--src", str(ws / "src.txt"), "--tgt", str(ws / "tgt.txt"),
        "--out", str(ws / "table.tsv"),
    ]) == 0
    assert run([
        "ibm1", "extract", "--table", str(ws / "table.tsv"),
        "--src", str(ws / "src.txt"), "--tgt", str(ws / "tgt.txt"),
        "--max-len", "2", "--min-count", "1", "--out", str(ws / "phb.weblex"),
    ]) == 0
    lexicon_text = (ws / "phb.weblex").read_text(encoding="utf-8")
    assert "la maison\tthe house" in lexicon_text
    # the phb lexicon drives the same tokenize machinery
    assert run([
        "vocab", "build", "--strategy", "phb", "--lexicon", str(ws / "phb.weblex"),
        "--in", str(ws / "src.txt"), "--out", str(ws / "phb.vocab"),
    ]) == 0
    assert run([
        "tokenize", "--strategy", "phb", "--lexicon", str(ws / "phb.weblex"),
        "--vocab", str(ws / "phb.vocab"), "--no-tags",
        "--in", str(ws / "src.txt"), "--out", str(ws / "phb.ids"),
    ]) == 0
    lines = (ws / "phb.ids").read_text(encoding="utf-8").splitlines()
    assert len(lines[0].split()) == 1  # "la maison" is one unit


def test_phb_lexicon_keeps_an_entry_starting_with_hash(tmp_path, monkeypatch):
    # "la maison" keeps max_order at 2, so a loader that took "#fon ɖo"
    # for a comment would load one entry short instead of failing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.tsv").write_text("#fon ɖo\tx y\nla maison\tthe house\n", encoding="utf-8")
    (tmp_path / "src.txt").write_text("#fon ɖo\nla maison\n", encoding="utf-8")
    assert run(["ibm1", "train", "--iters", "3", "--tsv", "pairs.tsv", "--out", "t.tsv"]) == 0
    assert run(["ibm1", "extract", "--table", "t.tsv", "--tsv", "pairs.tsv", "--max-len", "2",
                "--min-count", "1", "--out", "phb.weblex"]) == 0
    assert "#fon ɖo\tx y" in (tmp_path / "phb.weblex").read_text(encoding="utf-8").splitlines()
    assert run(["vocab", "build", "--strategy", "phb", "--lexicon", "phb.weblex", "--in", "src.txt",
                "--out", "v.weblex"]) == 0
    assert "#fon ɖo" in load_vocab("v.weblex")


def test_ibm1_train_requires_input_flags(tmp_path):
    assert run(["ibm1", "train", "--iters", "2", "--out", str(tmp_path / "t.tsv")]) == 1


def test_mismatched_parallel_lengths_exit_2(tmp_path, capsys):
    ws = tmp_path
    (ws / "src.txt").write_text("a\nb\n", encoding="utf-8")
    (ws / "tgt.txt").write_text("x\n", encoding="utf-8")
    assert run([
        "ibm1", "train", "--iters", "1",
        "--src", str(ws / "src.txt"), "--tgt", str(ws / "tgt.txt"),
        "--out", str(ws / "t.tsv"),
    ]) == 2
    assert capsys.readouterr().err == "weblex: error: source has 2 lines but target has 1\n"
    assert not (ws / "t.tsv").exists()


@pytest.mark.parametrize("rows, message", [
    (b"la\tthe\n\xe2\x80\x8b\tthe house\na\tb\tc\n", "pair 2: both sides must be non-empty"),
    (b"la\tthe\na\tb\tc\nla \xff\tthe\n", "pairs.tsv: line 2: expected 'source<TAB>target'"),
], ids=["empty_side_before_three_columns", "three_columns_before_bad_byte"])
def test_ibm1_tsv_names_the_first_bad_row_in_file_order(tmp_path, monkeypatch, capsys, rows, message):
    # each row's column count and its sides are checked as the row is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.tsv").write_bytes(rows)
    assert run(["ibm1", "train", "--iters", "1", "--tsv", "pairs.tsv", "--out", "t.tsv"]) == 2
    assert capsys.readouterr().err == f"weblex: error: {message}\n"
    assert not (tmp_path / "t.tsv").exists()


@pytest.mark.parametrize("train_flags", [[], ["--no-null", "--lowercase"]])
def test_ibm1_reads_tsv_pairs_as_it_reads_src_and_tgt(tmp_path, monkeypatch, capsys, train_flags):
    monkeypatch.chdir(tmp_path)
    pairs = [("la maison", "the house"), ("La\u2028e\u0301te\u0301\r", "The  summer"),
             ("#fon ɖo", "x\x0by"), ("la", "the\u200b house\r")]
    (tmp_path / "pairs.tsv").write_text("".join(f"{s}\t{t}\r\n" for s, t in pairs), encoding="utf-8")
    (tmp_path / "src.txt").write_text("".join(f"{s}\n" for s, _ in pairs), encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("".join(f"{t}\n" for _, t in pairs), encoding="utf-8")
    for name, given in (("tsv", ["--tsv", "pairs.tsv"]), ("sides", ["--src", "src.txt", "--tgt", "tgt.txt"])):
        assert run(["ibm1", "train", "--iters", "3", *given, *train_flags, "--out", f"{name}.table"]) == 0
        assert run(["ibm1", "extract", "--table", f"{name}.table", *given, "--max-len", "3",
                    "--out", f"{name}.weblex"]) == 0
    assert (tmp_path / "tsv.table").read_bytes() == (tmp_path / "sides.table").read_bytes()
    assert (tmp_path / "tsv.weblex").read_bytes() == (tmp_path / "sides.weblex").read_bytes()
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == err[2:] and err[0].startswith(f"weblex: trained on {len(pairs)} pair(s), ")


@pytest.mark.parametrize("row", ["la maison", "la\tmaison\tthe house"])
def test_ibm1_tsv_row_without_exactly_one_tab_exits_2(tmp_path, monkeypatch, capsys, row):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.tsv").write_text(f"la\tthe\n{row}\n", encoding="utf-8")
    assert run(["ibm1", "train", "--iters", "1", "--tsv", "pairs.tsv", "--out", "t.tsv"]) == 2
    assert capsys.readouterr().err == "weblex: error: pairs.tsv: line 2: expected 'source<TAB>target'\n"
    assert not (tmp_path / "t.tsv").exists()


@pytest.mark.parametrize("command", [
    ["ibm1", "train", "--iters", "1", "--tsv", "blank.tsv", "--out", "out"],
    ["ibm1", "extract", "--table", "t.tsv", "--tsv", "blank.tsv", "--out", "out"],
])
@pytest.mark.parametrize("row", ["la maison\t \u00a0", "\u200b\tthe house"])
def test_ibm1_pair_empty_after_normalization_exits_2(tmp_path, monkeypatch, capsys, command, row):
    # the CLI names the pair: for extract its check is the only one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.tsv").write_text("la maison\tthe house\n", encoding="utf-8")
    (tmp_path / "blank.tsv").write_text(f"la maison\tthe house\n{row}\n", encoding="utf-8")
    assert run(["ibm1", "train", "--iters", "1", "--tsv", "pairs.tsv", "--out", "t.tsv"]) == 0
    capsys.readouterr()
    assert run(command) == 2
    assert capsys.readouterr().err == "weblex: error: pair 2: both sides must be non-empty\n"
    assert not (tmp_path / "out").exists()


def test_stats_wb_toy_corpus(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("un ɖo ganji\nun ɖo\n", encoding="utf-8")
    assert run(["stats", "--strategy", "wb", "--in", str(tmp_path / "c.txt")]) == 0
    out = dict()
    for line in capsys.readouterr().out.splitlines():
        parts = line.split("\t")
        out.setdefault(parts[0], parts[1:])
    assert out["sentences"] == ["2"]
    assert out["tokens"] == ["5"]
    assert out["types"] == ["3"]  # un, ɖo, ganji counted by hand
    assert out["segments_per_sentence_mean"] == ["2.5000"]


def test_stats_empty_corpus(tmp_path, capsys):
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    assert run(["stats", "--strategy", "wb", "--in", str(tmp_path / "empty.txt")]) == 0
    out = capsys.readouterr().out
    assert "sentences\t0" in out
    assert "tokens\t0" in out
    assert "segments_per_sentence_mean\t0.0000" in out


def test_stats_web_single_expression_sentence(tmp_path, capsys):
    sentence = "mɛtà mɛtà wɛ zìnwó hɛn wa aligbo mɛ"
    (tmp_path / "pairs.tsv").write_text(sentence + "\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text(sentence + "\n", encoding="utf-8")
    assert run(["lexicon", "build", "--in", str(tmp_path / "pairs.tsv"),
                "--out", str(tmp_path / "lex.weblex")]) == 0
    assert run(["stats", "--strategy", "web", "--lexicon", str(tmp_path / "lex.weblex"),
                "--in", str(tmp_path / "c.txt")]) == 0
    out = capsys.readouterr().out
    assert "segments_per_sentence_mean\t1.0000" in out
    assert "segments_hist\t1\t1" in out


def test_eval_outputs_tsv(tmp_path, capsys):
    (tmp_path / "hyp.txt").write_text("un ɖo ganji\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("un ɖo ganji\n", encoding="utf-8")
    assert run([
        "eval", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "bleu-null\t100.00",
        "bleu-intl\t100.00",
        "chrf\t100.00",
        "charer-proxy\t0.00",
    ]


def test_eval_with_different_line_counts_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hyp.txt").write_text("un ɖo\nganji\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("un ɖo ganji\n", encoding="utf-8")
    assert run(["eval", "--hyp", "hyp.txt", "--ref", "ref.txt", "--out", "scores.tsv"]) == 2
    assert capsys.readouterr().err == "weblex: error: hypothesis has 2 lines but reference has 1\n"
    assert not (tmp_path / "scores.tsv").exists()


def test_eval_unknown_metric_exits_1(tmp_path, capsys):
    (tmp_path / "h.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("a\n", encoding="utf-8")
    for metrics, message in [("meteor", "unknown metric 'meteor'"),
                             ("chrf,chrf", "metric 'chrf' named more than once")]:
        assert run([
            "eval", "--hyp", str(tmp_path / "h.txt"), "--ref", str(tmp_path / "r.txt"),
            "--metrics", metrics,
        ]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_eval_rows_match_oracle_scores(tmp_path):
    rng = random.Random(4242)
    words = ["un", "ɖo", "ganji", "mɛ", "wa", "nɔnvi", "cé", "jiɖiɖe", "à", "ǹ", "?", "!"]
    hyps, refs = [], []
    for _ in range(50):
        ref = [rng.choice(words) for _ in range(rng.randint(1, 25))]
        hyp = [rng.choice(words) if rng.random() < 0.25 else w for w in ref if rng.random() < 0.9]
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
    (tmp_path / "hyp.txt").write_text("\n".join(hyps) + "\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
    assert run([
        "eval", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
        "--metrics", "bleu-null,bleu-intl,chrf,charer", "--out", str(tmp_path / "scores.tsv"),
    ]) == 0
    pairs = [(normalize(h), normalize(r)) for h, r in zip(hyps, refs)]
    charer = sum(levenshtein_matrix(h, r) for h, r in pairs) / sum(len(r) for _, r in pairs)
    expected = [
        ("bleu-null", bleu(pairs, "null")),
        ("bleu-intl", bleu(pairs, "intl")),
        ("chrf", chrf_oracle(pairs)),
        ("charer-proxy", charer),
    ]
    rows = (tmp_path / "scores.tsv").read_text(encoding="utf-8").splitlines()
    assert rows == [f"{label}\t{score:.2f}" for label, score in expected]


@pytest.mark.parametrize("metrics", [",", "", " , "])
def test_eval_empty_metric_list_exits_1(tmp_path, capsys, metrics):
    (tmp_path / "h.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("a\n", encoding="utf-8")
    assert run([
        "eval", "--hyp", str(tmp_path / "h.txt"), "--ref", str(tmp_path / "r.txt"),
        "--metrics", metrics, "--out", str(tmp_path / "scores.tsv"),
    ]) == 1
    assert "no metrics given" in capsys.readouterr().err
    assert not (tmp_path / "scores.tsv").exists()


# CR, NEL, VT, FF, NUL, U+2028, ZWSP, BOM and spaces, which normalize to
# nothing; decomposed, casefold-changing and astral characters, letters and
# punctuation, which stay
_EVAL_BLANK = st.sampled_from(["\r", "\x85", "\x0b", "\x0c", "\x00", "\u2028", "\u200b", "\ufeff", " "])
_EVAL_SEEN = st.sampled_from(
    ["e\u0301", "\u0301", "ß", "Σ", "ﬁ", "İ", "😀", "\U00010348", "a", "ɖo", "un", ",", "!"])
_EVAL_LINE = st.lists(st.one_of(_EVAL_BLANK, _EVAL_SEEN), max_size=8).map("".join)
_BAD_UTF8 = st.sampled_from([b"\xff", b"\xc0\x80", b"\xed\xa0\x80", b"\xe2\x82", b"\x80"])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_EVAL_LINE, st.tuples(_EVAL_LINE, _EVAL_SEEN, _EVAL_LINE).map("".join)),
             min_size=1, max_size=6),
    st.none() | st.tuples(st.integers(0, 5), st.lists(_EVAL_BLANK, max_size=4).map("".join)),
    st.none() | st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 8), _BAD_UTF8),
)
def test_eval_scores_any_text_or_refuses_with_a_line(rows, blank, bad):
    files = [[hyp.encode() for hyp, _ in rows], [ref.encode() for _, ref in rows]]
    if blank is not None:  # a reference that normalizes to nothing
        lineno, text = blank
        files[1][lineno % len(rows)] = text.encode()
    if bad is not None:  # one invalid UTF-8 sequence in one line of one file
        in_ref, lineno, at, seq = bad
        line = files[in_ref][lineno % len(rows)]
        files[in_ref][lineno % len(rows)] = line[:at] + seq + line[at:]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        paths = [str(d / "hyp.txt"), str(d / "ref.txt")]
        data = [b"".join(line + b"\n" for line in lines) for lines in files]
        for path, content in zip(paths, data):
            Path(path).write_bytes(content)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(["eval", "--hyp", paths[0], "--ref", paths[1], "--out", str(d / "scores.tsv")])
        try:
            hyps = [normalize_oracle(line) for line in read_lines_oracle(data[0], paths[0])]
            refs = [normalize_oracle(line) for line in read_lines_oracle(data[1], paths[1])]
            pairs = list(zip(hyps, refs))
            for lineno, (_, ref) in enumerate(pairs, start=1):
                if not ref:
                    raise ValueError(f"pair {lineno}: empty reference")
        except ValueError as exc:
            assert (code, err.getvalue()) == (2, f"weblex: error: {exc}\n")
            assert not (d / "scores.tsv").exists()
            return
        assert (code, err.getvalue()) == (0, "")
        charer = sum(levenshtein_matrix(hyp, ref) for hyp, ref in pairs) / sum(len(ref) for _, ref in pairs)
        expected = [("bleu-null", bleu_oracle(pairs, "null")), ("bleu-intl", bleu_oracle(pairs, "intl")),
                    ("chrf", chrf_oracle(pairs)), ("charer-proxy", charer)]
        scores = (d / "scores.tsv").read_text(encoding="utf-8").splitlines()
        assert scores == [f"{label}\t{score:.2f}" for label, score in expected]


def test_encode_unknown_tokens_to_unk(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("un ɖo\n", encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    (tmp_path / "tokens.txt").write_text("un zzz\n", encoding="utf-8")
    assert run(["encode", "--vocab", str(tmp_path / "v.weblex"),
                "--in", str(tmp_path / "tokens.txt")]) == 0
    ids = capsys.readouterr().out.split()
    assert ids[1] == "1"  # unk


def test_stats_reports_oov_rate(tmp_path, capsys):
    (tmp_path / "train.txt").write_text("un ɖo\n", encoding="utf-8")
    (tmp_path / "test.txt").write_text("un zzz\n", encoding="utf-8")
    run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "train.txt"),
         "--out", str(tmp_path / "v.weblex")])
    capsys.readouterr()
    assert run(["stats", "--strategy", "wb", "--vocab", str(tmp_path / "v.weblex"),
                "--in", str(tmp_path / "test.txt")]) == 0
    assert "oov_rate\t0.5000" in capsys.readouterr().out


def test_threads_env_is_no_setting(workspace, monkeypatch, capsys):
    ws = workspace
    _build_web_artifacts(ws)
    argv = [
        "tokenize", "--strategy", "web", "--lexicon", str(ws / "lex.weblex"),
        "--vocab", str(ws / "vocab.weblex"), "--in", str(ws / "corpus.txt"),
    ]
    monkeypatch.delenv("WEBLEX_THREADS", raising=False)
    capsys.readouterr()
    assert run(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("WEBLEX_THREADS", "lots")
    assert run(argv) == 0
    assert capsys.readouterr().out == unset != ""


def test_decode_rejects_garbage_ids(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("un\n", encoding="utf-8")
    run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
         "--out", str(tmp_path / "v.weblex")])
    (tmp_path / "ids.txt").write_text("4 banana\n", encoding="utf-8")
    assert run(["decode", "--vocab", str(tmp_path / "v.weblex"),
                "--in", str(tmp_path / "ids.txt")]) == 2
    (tmp_path / "ids2.txt").write_text("9999\n", encoding="utf-8")
    assert run(["decode", "--vocab", str(tmp_path / "v.weblex"),
                "--in", str(tmp_path / "ids2.txt")]) == 2
    capsys.readouterr()
    (tmp_path / "ids3.txt").write_text("0\n9999\n", encoding="utf-8")
    assert run(["decode", "--vocab", str(tmp_path / "v.weblex"),
                "--in", str(tmp_path / "ids3.txt"), "--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert "line 2:" in err and "9999 out of range" in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("ids", ["1_0", "+4", "٥", "04"])
def test_decode_reads_ids_only_as_written(tmp_path, capsys, ids):
    (tmp_path / "c.txt").write_text("a b c d e f g h\n", encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    (tmp_path / "ids.txt").write_text(f"4 5\n6 {ids}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["decode", "--vocab", str(tmp_path / "v.weblex"), "--in", str(tmp_path / "ids.txt")]) == 2
    assert capsys.readouterr() == ("", "weblex: error: line 2: ids must be decimal integers\n")
    (tmp_path / "ids.txt").write_text("4 -1\n", encoding="utf-8")
    assert run(["decode", "--vocab", str(tmp_path / "v.weblex"), "--in", str(tmp_path / "ids.txt")]) == 2
    assert "line 1: id -1 out of range" in capsys.readouterr().err


# ---- su refuses words that hold the end-of-word marker, naming the line

_MARKED = "ab cd\nab</w>c cd\n"


@pytest.mark.parametrize("command", [
    ["bpe", "learn", "--size", "40", "--out", "m2.bpe"],
    ["bpe", "apply", "--model", "m.bpe"],
    ["vocab", "build", "--strategy", "su", "--model", "m.bpe", "--out", "v2.weblex"],
    ["tokenize", "--strategy", "su", "--model", "m.bpe", "--vocab", "v.weblex"],
    ["stats", "--strategy", "su", "--model", "m.bpe"],
])
def test_su_commands_refuse_marker_word(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "train.txt").write_text("ab cd ab cd\n", encoding="utf-8")
    (tmp_path / "marked.txt").write_text(_MARKED, encoding="utf-8")
    assert run(["bpe", "learn", "--size", "40", "--in", "train.txt", "--out", "m.bpe"]) == 0
    assert run(["vocab", "build", "--strategy", "su", "--model", "m.bpe",
                "--in", "train.txt", "--out", "v.weblex"]) == 0
    capsys.readouterr()
    assert run(command + ["--in", "marked.txt"]) == 2
    err = capsys.readouterr().err
    assert "line 2:" in err and "end-of-word marker" in err


# ---- a data error leaves no partial output

def test_tokenize_failure_leaves_no_out_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "train.txt").write_text("ab cd ab cd\n", encoding="utf-8")
    (tmp_path / "marked.txt").write_text(_MARKED, encoding="utf-8")
    assert run(["bpe", "learn", "--size", "40", "--in", "train.txt", "--out", "m.bpe"]) == 0
    assert run(["vocab", "build", "--strategy", "su", "--model", "m.bpe",
                "--in", "train.txt", "--out", "v.weblex"]) == 0
    capsys.readouterr()
    assert run(["tokenize", "--strategy", "su", "--model", "m.bpe", "--vocab", "v.weblex",
                "--in", "marked.txt", "--out", "ids.txt"]) == 2
    assert "line 2:" in capsys.readouterr().err
    assert not (tmp_path / "ids.txt").exists()


# ---- corpora are framed on LF only

@pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\x0b", "\x0c", "\r"])
def test_tokenize_keeps_unicode_separators_inside_their_line(tmp_path, capsys, separator):
    (tmp_path / "c.txt").write_text(f"un{separator}ɖo ganji\nun ɖo\n", encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    capsys.readouterr()
    assert run(["tokenize", "--strategy", "wb", "--vocab", str(tmp_path / "v.weblex"),
                "--in", str(tmp_path / "c.txt")]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[-1] == ""
    assert [len(line.split()) for line in lines[:-1]] == [3, 2]


def test_crlf_corpus_tokenizes_like_lf(tmp_path, capsys):
    outputs = []
    for name, text in (("lf.txt", "un ɖo ganji\nun ɖo\n"), ("crlf.txt", "un ɖo ganji\r\nun ɖo\r\n")):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / name),
                    "--out", str(tmp_path / "v.weblex")]) == 0
        assert run(["tokenize", "--strategy", "wb", "--vocab", str(tmp_path / "v.weblex"),
                    "--in", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_ibm1_sides_stay_aligned_across_unicode_separators(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("la maison\nla\x0bla\u0085la\n", encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("the house\nthe\n", encoding="utf-8")
    assert run([
        "ibm1", "train", "--iters", "1",
        "--src", str(tmp_path / "src.txt"), "--tgt", str(tmp_path / "tgt.txt"),
        "--out", str(tmp_path / "t.tsv"),
    ]) == 0
    assert "trained on 2 pair(s)" in capsys.readouterr().err


def test_stats_settings_mismatch_exits_2_like_tokenize(tmp_path, capsys):
    (tmp_path / "pairs.tsv").write_text("a ɖo\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("a ɖo zzz\n", encoding="utf-8")
    assert run(["lexicon", "build", "--lowercase", "--in", str(tmp_path / "pairs.tsv"),
                "--out", str(tmp_path / "lex.weblex")]) == 0
    assert run(["vocab", "build", "--strategy", "wb", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    capsys.readouterr()
    for strategy in ("web", "phb"):
        errors = []
        for command in ("tokenize", "stats"):
            assert run([command, "--strategy", strategy, "--lexicon", str(tmp_path / "lex.weblex"),
                        "--vocab", str(tmp_path / "v.weblex"), "--in", str(tmp_path / "c.txt")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert f"do not match the {strategy} artifact settings" in errors[0]
        assert errors[1] == errors[0]


def test_stats_reports_fallback_rate(tmp_path, capsys):
    (tmp_path / "pairs.tsv").write_text("a ɖo\nzzz yyy\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("a ɖo zzz\nun\n", encoding="utf-8")
    assert run(["lexicon", "build", "--in", str(tmp_path / "pairs.tsv"),
                "--out", str(tmp_path / "lex.weblex")]) == 0
    for strategy in ("web", "phb"):
        capsys.readouterr()
        assert run(["stats", "--strategy", strategy, "--lexicon", str(tmp_path / "lex.weblex"),
                    "--in", str(tmp_path / "c.txt")]) == 0
        # segments: "a ɖo", "zzz" (fallback), "un" (fallback)
        assert "fallback_rate\t0.6667" in capsys.readouterr().out.splitlines()
    assert run(["stats", "--strategy", "wb", "--in", str(tmp_path / "c.txt")]) == 0
    assert "fallback_rate" not in capsys.readouterr().out


def test_stats_fallback_rate_empty_corpus(tmp_path, capsys):
    (tmp_path / "pairs.tsv").write_text("a ɖo\n", encoding="utf-8")
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    assert run(["lexicon", "build", "--in", str(tmp_path / "pairs.tsv"),
                "--out", str(tmp_path / "lex.weblex")]) == 0
    assert run(["stats", "--strategy", "web", "--lexicon", str(tmp_path / "lex.weblex"),
                "--in", str(tmp_path / "empty.txt")]) == 0
    assert "fallback_rate\t0.0000" in capsys.readouterr().out


def test_lexicon_build_reports_rows_by_line(tmp_path, capsys):
    (tmp_path / "pairs.tsv").write_text(
        "# comment\na ɖo\tx\n\n\x07\tgloss\na  ɖo\ty\n", encoding="utf-8")
    assert run(["lexicon", "build", "--in", str(tmp_path / "pairs.tsv"),
                "--out", str(tmp_path / "lex.weblex")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "weblex: 1 duplicate expression(s) merged (first gloss kept)",
        "weblex: line 4: entry rejected: empty expression after normalization",
        "weblex: line 3: blank line skipped",
        "weblex: wrote 1 expression(s), max order 2",
    ]
    (tmp_path / "bad.tsv").write_text("a\nb\tx\ty\n", encoding="utf-8")
    assert run(["lexicon", "build", "--in", str(tmp_path / "bad.tsv"),
                "--out", str(tmp_path / "bad.weblex")]) == 2
    assert "line 2: expected 'expression<TAB>gloss', got 3 columns" in capsys.readouterr().err
    assert not (tmp_path / "bad.weblex").exists()


_EXPRESSION = st.sampled_from(["a ɖo", "a  ɖo", " a ɖo ", "é", "e\u0301", "É", "\x07", "", "  ", "#x", "x"])
_ROW = st.one_of(
    st.sampled_from(["# comment", "#\ta\tb\tc", "", "   ", " \t ", "\x07"]),
    _EXPRESSION,
    st.tuples(_EXPRESSION, _EXPRESSION).map("\t".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROW, max_size=10), st.none() | st.tuples(st.integers(0, 10), _EXPRESSION), st.booleans())
def test_lexicon_build_writes_what_the_former_line_parser_did(rows, three_columns, lowercase):
    if three_columns is not None:
        at, text = three_columns
        rows.insert(at, f"{text}\tg\th")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "pairs.tsv").write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        argv = ["lexicon", "build", "--in", str(d / "pairs.tsv"), "--out", str(d / "lex.weblex")]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(argv + ["--lowercase"] * lowercase)
        try:
            lex, report = lexicon_build_oracle(rows, NormSettings(lowercase=lowercase))
        except FormatError as exc:
            assert (code, err.getvalue()) == (2, f"weblex: error: {exc}\n")
            assert not (d / "lex.weblex").exists()
            return
        assert code == 0
        save_lexicon(lex, str(d / "oracle.weblex"))
        assert (d / "lex.weblex").read_bytes() == (d / "oracle.weblex").read_bytes()
        expected = [f"weblex: {report.duplicates} duplicate expression(s) merged (first gloss kept)"] * bool(
            report.duplicates)
        expected += [f"weblex: line {lineno}: entry rejected: {why}" for lineno, why in report.rejected]
        expected += [f"weblex: line {lineno}: blank line skipped" for lineno in report.blank_lines]
        expected.append(f"weblex: wrote {len(lex)} expression(s), max order {lex.max_order}")
        assert err.getvalue().splitlines() == expected


# ---- the phb/web line path writes what the public three stages give

def _run_bytes(argv):
    """cli.run(argv) as (exit code, stdout bytes, stderr text)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def _stats_rows(segmentations, vocab):
    """`stats` rows for per-line (segment texts, fallback count) pairs."""
    hist = Counter(len(texts) for texts, _ in segmentations)
    tokens = sum(len(texts) for texts, _ in segmentations)
    rows = [f"sentences\t{len(segmentations)}", f"tokens\t{tokens}",
            f"types\t{len({text for texts, _ in segmentations for text in texts})}"]
    if vocab is not None:
        oov = sum(text not in vocab for texts, _ in segmentations for text in texts)
        rows.append(f"oov_rate\t{oov / tokens if tokens else 0.0:.4f}")
    fallbacks = sum(count for _, count in segmentations)
    rows.append(f"fallback_rate\t{fallbacks / tokens if tokens else 0.0:.4f}")
    rows.append(f"segments_per_sentence_mean\t{tokens / len(segmentations) if segmentations else 0.0:.4f}")
    rows += [f"segments_hist\t{count}\t{hist[count]}" for count in sorted(hist)]
    return "".join(row + "\n" for row in rows).encode("utf-8")


_SEG_WORD = st.sampled_from(["a", "b", "A", "ɖo", "Ɖo", "é", "e\u0301"])
_SEG_TEXT = st.lists(_SEG_WORD, max_size=9).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_SEG_WORD, min_size=1, max_size=4).map(" ".join), max_size=10),
       st.lists(_SEG_TEXT, max_size=6), st.lists(_SEG_TEXT, max_size=4),
       st.booleans(), st.sampled_from(["web", "phb"]), st.booleans())
def test_line_path_writes_what_the_three_stages_give(expressions, lines, known, lowercase, strategy, tags):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "pairs.tsv").write_text("".join(e + "\n" for e in expressions), encoding="utf-8")
        (d / "c.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert _run_bytes(["lexicon", "build", "--in", str(d / "pairs.tsv"), "--out", str(d / "lex.weblex")]
                          + ["--lowercase"] * lowercase)[0] == 0
        lex, _ = load_lexicon(str(d / "lex.weblex"))
        vocab = build_vocab([normalize(text, lowercase) for text in known], settings=lex.settings)
        save_vocab(vocab, str(d / "v.weblex"))

        segmentations = []
        for line in lines:
            words = split_words(normalize(line, lowercase))
            seg = select_cover(words, filter_subsumed(enumerate_candidates(words, lex)))
            segmentations.append((seg.texts(words), sum(not span.in_lexicon for span in seg.segments)))
        tokenized = "".join(ids_line_oracle(vocab, texts, tags) + "\n" for texts, _ in segmentations)

        common = ["--strategy", strategy, "--lexicon", str(d / "lex.weblex"), "--in", str(d / "c.txt")]
        assert _run_bytes(["tokenize", *common, "--vocab", str(d / "v.weblex"),
                           "--emit-tags" if tags else "--no-tags"]) == (0, tokenized.encode("utf-8"), "")
        assert _run_bytes(["stats", *common]) == (0, _stats_rows(segmentations, None), "")
        assert _run_bytes(["stats", *common, "--vocab", str(d / "v.weblex")]) == (
            0, _stats_rows(segmentations, vocab), "")


# ---- encode and decode write and read ids as the int path does

# digit strings are tokens too, so a token "7" and the id 7 must not be confused
_VOCAB_TOKEN = st.sampled_from(["7", "0", "12", "04", "a", "B", "ɖo", "a b", "é"])
_LINE_TOKEN = st.one_of(_VOCAB_TOKEN, st.sampled_from(["<unk>", "<start>", "<pad>", "<UNK>", "zz", "b", ""]))
_SEPARATOR = st.sampled_from([" ", "  ", "\t", "\u2028"])


def _write_text_lines(path, lines):
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def _run_out(argv, out):
    """(exit code, bytes written to `out` or None if no file was left, stderr text)."""
    code, stdout, err = _run_bytes([*argv, "--out", str(out)])
    assert stdout == b""
    return code, out.read_bytes() if out.exists() else None, err


@settings(max_examples=150, deadline=None)
@given(st.lists(_VOCAB_TOKEN, unique=True), st.lists(st.lists(_LINE_TOKEN, max_size=6), max_size=6),
       _SEPARATOR, st.booleans())
def test_encode_writes_what_the_int_path_gives(tokens, lines, separator, lowercase):
    vocab = Vocabulary(tokens, NormSettings(lowercase))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_vocab(vocab, str(d / "v.weblex"))
        _write_text_lines(d / "c.txt", [separator.join(line) for line in lines])
        expected = "".join(ids_line_oracle(vocab, split_words(normalize(separator.join(line), lowercase)), False)
                           + "\n" for line in lines)
        assert _run_out(["encode", "--vocab", str(d / "v.weblex"), "--in", str(d / "c.txt")],
                        d / "ids.txt") == (0, expected.encode("utf-8"), "")


@settings(max_examples=200, deadline=None)
@given(st.lists(_VOCAB_TOKEN, unique=True), st.data())
def test_decode_reads_what_the_int_path_reads(tokens, data):
    vocab = Vocabulary(tokens)
    size = len(vocab)
    id_text = st.one_of(
        st.integers(0, size - 1).map(str),
        st.sampled_from(["04", "+4", "-0", "-1", "1_0", "٥", str(size), str(10 ** 30), "x", "<unk>", "7a"]),
    )
    lines = data.draw(st.lists(st.lists(id_text, max_size=5), max_size=5))
    separator = data.draw(_SEPARATOR)
    id_lines = [separator.join(line) for line in lines]
    expected, error = [], ""
    for lineno, line in enumerate(id_lines, start=1):
        try:
            expected.append(decode_line_oracle(vocab, line) + "\n")
        except ValueError as exc:
            error = f"weblex: error: line {lineno}: {exc}\n"
            break
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_vocab(vocab, str(d / "v.weblex"))
        _write_text_lines(d / "ids.txt", id_lines)
        result = _run_out(["decode", "--vocab", str(d / "v.weblex"), "--in", str(d / "ids.txt")], d / "out.txt")
    assert result == ((2, None, error) if error else (0, "".join(expected).encode("utf-8"), ""))


# ---- decode writes one line per input line, or names the first bad one

_DECODE_SEPARATOR = st.sampled_from([" ", "\t", "\xa0", "\u2028"])


@settings(max_examples=100, deadline=None)
@given(st.lists(_VOCAB_TOKEN, unique=True), st.data())
def test_decode_writes_every_line_or_names_the_first_bad_one(tokens, data):
    vocab = Vocabulary(tokens)
    names = vocab.tokens()
    id_text = st.one_of(
        st.integers(0, len(names) - 1).map(str),
        st.sampled_from([str(len(names)), str(10 ** 30), "-1", "+4", "04", "-0", "٥", "x"]),
    )
    line = st.tuples(st.lists(id_text, max_size=4), _DECODE_SEPARATOR, st.booleans()).map(
        lambda parts: (parts[1] * parts[2] + parts[1].join(parts[0])).encode("utf-8"))
    lines = data.draw(st.lists(line | st.just(b""), max_size=6))
    if lines and data.draw(st.booleans()):  # one invalid UTF-8 sequence in one line
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] += data.draw(_BAD_UTF8)
    expected, bad = [], None
    for lineno, raw in enumerate(lines, start=1):
        try:
            texts = raw.decode("utf-8").split()
            ids = [int(text) for text in texts]
        except ValueError:  # UnicodeDecodeError too
            bad = lineno
            break
        if any(str(i) != text or not 0 <= i < len(names) for i, text in zip(ids, texts)):
            bad = lineno
            break
        expected.append(" ".join(names[i] for i in ids) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_vocab(vocab, str(d / "v.weblex"))
        (d / "ids.txt").write_bytes(b"".join(raw + b"\n" for raw in lines))
        code, out, err = _run_out(["decode", "--vocab", str(d / "v.weblex"), "--in", str(d / "ids.txt")],
                                  d / "out.txt")
    if bad is None:
        assert (code, out, err) == (0, "".join(expected).encode("utf-8"), "")
    else:
        assert (code, out) == (2, None)
        assert err.startswith("weblex: error: ") and f"line {bad}: " in err and err.count("\n") == 1


# ---- bpe learn and the line commands stream their input: each writes all
# of its output, or exits 2 naming the first bad line in file order

_ANY_WORD = st.sampled_from(["ab", "a", "b", "é", "e\u0301", "ɖo", "AB", "Ɖo"])
# the end-of-word marker alone, inside a word, once case-folded, and behind
# a ZWSP that normalization drops
_MARKED_WORD = st.sampled_from(["</w>", "ab</w>c", "</W>", "<\u200b/w>"])
_ANY_SEPARATOR = st.sampled_from([" ", "  ", "\r", "\x85", "\u2028", "\t"])
_WORDS_LINE = st.tuples(st.lists(st.tuples(_ANY_WORD, _ANY_SEPARATOR).map("".join), min_size=1, max_size=5),
                       st.booleans()).map(lambda parts: "".join(parts[0]) + "\r" * parts[1])
_ANY_LINE = _WORDS_LINE | st.sampled_from(["", "\r"])


def _any_lines(data):
    """Lines of _ANY_LINE as bytes, maybe one starting with a _MARKED_WORD
    and one holding an invalid UTF-8 sequence."""
    lines = data.draw(st.lists(_ANY_LINE, max_size=6))
    if lines and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = data.draw(_MARKED_WORD) + lines[at]
    return _maybe_bad_utf8(data, [line.encode("utf-8") for line in lines])


def _maybe_bad_utf8(data, lines):
    """`lines` (bytes), maybe with an invalid UTF-8 sequence cut into one of them."""
    if lines and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + data.draw(_BAD_UTF8) + lines[at][cut:]
    return lines


def _first_bad_line(lines, fault=None):
    """The number of the first line that is not UTF-8 or whose text `fault`
    (when given) refuses; None if there is none."""
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
        if fault is not None and fault(text):
            return lineno
    return None


def _marked(text, lowercase=False):
    """Whether the normalized words of `text` hold the end-of-word marker."""
    return "</w>" in normalize_oracle(text, lowercase)


def _assert_names_line(result, bad):
    code, out, err = result
    assert (code, out) == (2, None)
    assert err.startswith("weblex: error: ") and f"line {bad}: " in err and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 30), st.booleans())
def test_bpe_learn_writes_the_model_of_its_lines_or_names_the_first_bad_one(data, size, lowercase):
    lines = _any_lines(data)
    content = b"".join(raw + b"\n" for raw in lines)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "c.txt").write_bytes(content)
        result = _run_out(["bpe", "learn", "--size", str(size), "--in", str(d / "c.txt")]
                          + ["--lowercase"] * lowercase, d / "m.bpe")
        if (bad := _first_bad_line(lines, lambda text: _marked(text, lowercase))) is not None:
            _assert_names_line(result, bad)
            return
        try:
            model = learn_bpe(read_lines_oracle(content, str(d / "c.txt")), size,
                              settings=NormSettings(lowercase))
        except ValueError as exc:  # no words, or a size at or below the character count
            assert result == (2, None, f"weblex: error: {exc}\n")
            return
        save_bpe(model, str(d / "expected.bpe"))
        assert result == (0, (d / "expected.bpe").read_bytes(), f"weblex: learned {len(model.merges)} merge(s)\n")


def test_bpe_learn_names_a_marker_before_a_later_bad_byte(tmp_path, capsys):
    # the lines are checked as they are read, so line 2's marker is met
    # before line 5's byte is decoded
    (tmp_path / "c.txt").write_bytes(b"ab cd\nab</w>c cd\nab\ncd\nab \xff cd\n")
    assert run(["bpe", "learn", "--size", "40", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "m.bpe")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("weblex: error: line 2: ") and "end-of-word marker" in err
    assert not (tmp_path / "m.bpe").exists()


@pytest.fixture(scope="module")
def line_artifacts(tmp_path_factory):
    """A lexicon, a BPE model and a wb, su and web vocabulary built from one small corpus."""
    d = tmp_path_factory.mktemp("line_artifacts")
    (d / "train.txt").write_text("ab a b\nɖo é ab\nab ab ɖo\n", encoding="utf-8")
    (d / "pairs.tsv").write_text("ab a\té\nɖo\n", encoding="utf-8")
    common = ["--in", str(d / "train.txt"), "--out"]
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["lexicon", "build", "--in", str(d / "pairs.tsv"), "--out", str(d / "lex.weblex")]) == 0
        assert run(["bpe", "learn", "--size", "12", *common, str(d / "m.bpe")]) == 0
        assert run(["vocab", "build", "--strategy", "wb", *common, str(d / "wb.weblex")]) == 0
        assert run(["vocab", "build", "--strategy", "su", "--model", str(d / "m.bpe"), *common,
                    str(d / "su.weblex")]) == 0
        assert run(["vocab", "build", "--strategy", "web", "--lexicon", str(d / "lex.weblex"), *common,
                    str(d / "web.weblex")]) == 0
    return d


# (argv with {d} for the artifact directory, whether su reads it)
_LINE_COMMANDS = [
    ("tokenize --strategy wb --vocab {d}/wb.weblex", False),
    ("tokenize --strategy su --model {d}/m.bpe --vocab {d}/su.weblex", True),
    ("tokenize --strategy web --lexicon {d}/lex.weblex --vocab {d}/web.weblex", False),
    ("encode --vocab {d}/wb.weblex", False),
    ("bpe apply --model {d}/m.bpe", True),
    ("stats --strategy wb --vocab {d}/wb.weblex", False),
    ("stats --strategy su --model {d}/m.bpe", True),
    ("stats --strategy web --lexicon {d}/lex.weblex", False),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_LINE_COMMANDS), st.data())
def test_line_commands_write_every_line_or_name_the_first_bad_one(line_artifacts, command, data):
    template, marked = command
    lines = _any_lines(data)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "c.txt").write_bytes(b"".join(raw + b"\n" for raw in lines))
        argv = template.format(d=line_artifacts).split()
        result = _run_out([*argv, "--in", str(d / "c.txt")], d / "out.txt")
    if (bad := _first_bad_line(lines, _marked if marked else None)) is not None:
        _assert_names_line(result, bad)
        return
    code, out, err = result
    assert (code, err) == (0, "")
    if argv[0] != "stats":
        assert out.count(b"\n") == len(lines) and out.endswith(b"\n" if lines else b"")
        return
    rows = out.decode("utf-8").split("\n")
    assert rows[0] == f"sentences\t{len(lines)}" and rows[-1] == ""
    labels = ["sentences", "tokens", "types", *["oov_rate"] * ("--vocab" in argv),
              *["fallback_rate"] * ("web" in argv), "segments_per_sentence_mean"]
    assert [row.split("\t")[0] for row in rows[:len(labels)]] == labels
    hist = [row.split("\t") for row in rows[len(labels):-1]]
    assert {label for label, _, _ in hist} <= {"segments_hist"}
    assert sum(int(count) for _, _, count in hist) == len(lines)


# ---- lexicon build and vocab build over hostile text: each writes the
# oracle's artifact, or exits 2 naming the first bad line and leaves no file

_HOSTILE_WORD = st.sampled_from(
    ["ab", "a", "ɖo", "ß", "SS", "É", "E\u0301", "é", "</w>", "<unk>", "#", "#x", "\U0001d49c", "😀", ""])
_HOSTILE_SEPARATOR = st.sampled_from(
    [" ", "\r", "\x85", "\x0b", "\x0c", "\x00", "\u2028", "\u200b", "\ufeff"])
_HOSTILE_TEXT = st.lists(st.tuples(_HOSTILE_SEPARATOR, _HOSTILE_WORD).map("".join), min_size=1, max_size=3).map("".join)
_HOSTILE_ROW = st.lists(_HOSTILE_TEXT, min_size=1, max_size=2).map("\t".join)


def _hostile_lines(data):
    """Lines of one or two TAB-joined columns of hostile words and
    separators as bytes, maybe one holding an invalid UTF-8 sequence
    (0xff, a surrogate code point, ...)."""
    rows = data.draw(st.lists(_HOSTILE_ROW, min_size=1, max_size=6))
    return _maybe_bad_utf8(data, [row.encode("utf-8") for row in rows])


def _three_columns(text):
    """Whether `text` is a lexicon row of more than two columns, not a comment or blank."""
    return not text.startswith("#") and text.strip() and text.count("\t") > 1


@settings(max_examples=150, deadline=None)
@given(st.data(), st.none() | st.tuples(st.integers(0, 6), _HOSTILE_TEXT), st.booleans())
def test_lexicon_build_writes_the_oracle_lexicon_or_names_the_first_bad_line(data, three_columns, lowercase):
    lines = _hostile_lines(data)
    if three_columns is not None:  # refused unless a comment or blank
        at, text = three_columns
        lines.insert(at, f"{text}\tg\th".encode("utf-8"))
    content = b"".join(raw + b"\n" for raw in lines)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "pairs.tsv").write_bytes(content)
        result = _run_out(["lexicon", "build", "--in", str(d / "pairs.tsv")] + ["--lowercase"] * lowercase,
                          d / "lex.weblex")
        if (bad := _first_bad_line(lines, _three_columns)) is not None:
            _assert_names_line(result, bad)
            return
        rows = read_lines_oracle(content, str(d / "pairs.tsv"))
        lex, report = lexicon_build_oracle(rows, NormSettings(lowercase))
        save_lexicon(lex, str(d / "oracle.weblex"))
        code, out, err = result
        assert (code, out) == (0, (d / "oracle.weblex").read_bytes())
    expected = [f"weblex: {report.duplicates} duplicate expression(s) merged (first gloss kept)"] * bool(
        report.duplicates)
    expected += [f"weblex: line {lineno}: entry rejected: {why}" for lineno, why in report.rejected]
    expected += [f"weblex: line {lineno}: blank line skipped" for lineno in report.blank_lines]
    expected.append(f"weblex: wrote {len(lex)} expression(s), max order {lex.max_order}")
    assert err.splitlines() == expected


def _oracle_tokens_of(strategy, artifacts, lowercase):
    """line -> tokens under `strategy`, from the oracles and the public stages."""
    if strategy == "su":
        merges = load_bpe(str(artifacts / "m.bpe")).merges
        return lambda line: bpe_apply_oracle(merges, split_words(normalize_oracle(line)))
    if strategy == "wb":
        return lambda line: split_words(normalize_oracle(line, lowercase))
    lex, _ = load_lexicon(str(artifacts / "lex.weblex"))

    def cover_texts(line):
        words = split_words(normalize_oracle(line))
        return select_cover(words, filter_subsumed(enumerate_candidates(words, lex))).texts(words)

    return cover_texts


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["wb", "su", "web"]), st.integers(1, 3), st.booleans())
def test_vocab_build_writes_the_oracle_vocabulary_or_names_the_first_bad_line(line_artifacts, data, strategy,
                                                                              min_count, lowercase):
    lowercase = lowercase and strategy == "wb"  # elsewhere the artifact sets it
    artifact = {"su": ["--model", str(line_artifacts / "m.bpe")],
                "web": ["--lexicon", str(line_artifacts / "lex.weblex")]}.get(strategy, [])
    lines = _hostile_lines(data)  # a TAB is one more separator here
    content = b"".join(raw + b"\n" for raw in lines)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "c.txt").write_bytes(content)
        result = _run_out(["vocab", "build", "--strategy", strategy, *artifact, "--min-count", str(min_count),
                           "--in", str(d / "c.txt")] + ["--lowercase"] * lowercase, d / "v.weblex")
        if (bad := _first_bad_line(lines, _marked if strategy == "su" else None)) is not None:
            _assert_names_line(result, bad)
            return
        tokens_of = _oracle_tokens_of(strategy, line_artifacts, lowercase)
        tokens = (token for line in read_lines_oracle(content, str(d / "c.txt")) for token in tokens_of(line))
        vocab = build_vocab(tokens, min_count=min_count, settings=NormSettings(lowercase))
        save_vocab(vocab, str(d / "oracle.weblex"))
        assert result == (0, (d / "oracle.weblex").read_bytes(), f"weblex: vocabulary of {len(vocab)} token(s)\n")


# ---- memory: bpe learn holds its word table, not its corpus
# (deterministic: tracemalloc, no timing)

def _bpe_learn_peak(corpus, out):
    with contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            assert run(["bpe", "learn", "--size", "600", "--in", str(corpus), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def test_bpe_learn_heap_does_not_grow_with_its_corpus(tmp_path):
    rng = random.Random(5)
    words = ["".join(rng.choices("abdeɛfgɖiklmnɔoprstuwxyz", k=rng.randint(2, 8))) for _ in range(600)]
    text = "".join(" ".join(rng.choices(words, k=rng.randint(5, 30))) + "\n" for _ in range(150))
    (tmp_path / "once.txt").write_text(text, encoding="utf-8")
    (tmp_path / "twenty.txt").write_text(text * 20, encoding="utf-8")
    _bpe_learn_peak(tmp_path / "once.txt", tmp_path / "m.bpe")  # warm-up: imports and first-use caches
    once = _bpe_learn_peak(tmp_path / "once.txt", tmp_path / "m.bpe")
    twenty = _bpe_learn_peak(tmp_path / "twenty.txt", tmp_path / "m20.bpe")
    assert abs(twenty - once) < 0.25 * 2 ** 20, (once, twenty)


# ---- an artifact that does not load is named with its line

_BAD_ARTIFACTS = {
    "--vocab": ("#weblex-vocab v=1 lowercase=0\n0\t<pad>\n1\t<unk>\n2\t<start>\n3\t<end>\n5\tun\n", 6,
                ["tokenize", "--strategy", "wb", "--in", "c.txt"]),
    "--lexicon": ("#weblex-lexicon v=1 lowercase=0 max_order=1\nun\nun\n", 3,
                  ["tokenize", "--strategy", "web", "--vocab", "v.weblex", "--in", "c.txt"]),
    "--model": ("#weblex-bpe v=1 size=10 marker=</w> lowercase=0\nu n</w>\nu n</w>\n", 3,
                ["tokenize", "--strategy", "su", "--vocab", "v.weblex", "--in", "c.txt"]),
    "--table": ("#weblex-ibm1 v=1 null=0 lowercase=0\nun\tone\t1\nun\tone\t1\n", 3,
                ["ibm1", "extract", "--tsv", "p.tsv", "--out", "lex.weblex"]),
}


@pytest.mark.parametrize("flag", _BAD_ARTIFACTS)
def test_artifact_error_names_the_file_and_its_line(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("un\n", encoding="utf-8")
    (tmp_path / "p.tsv").write_text("un\tone\n", encoding="utf-8")
    assert run(["vocab", "build", "--strategy", "wb", "--in", "c.txt", "--out", "v.weblex"]) == 0
    text, lineno, argv = _BAD_ARTIFACTS[flag]
    (tmp_path / "bad.weblex").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(argv + [flag, "bad.weblex"]) == 2
    assert capsys.readouterr().err.startswith(f"weblex: error: bad.weblex: line {lineno}: ")


# ---- the command-line surface: each subcommand's usage line (flags, metavars,
# required flags, order, exclusive groups) and what a minimal command parses to

_STRATEGY = "--strategy {wb,su,phb,web} [--lexicon FILE] [--model FILE]"
_SURFACE = {
    "lexicon build": ("[--in FILE] --out FILE [--lowercase]", "--out o",
                      dict(infile=None, out="o", lowercase=False)),
    "bpe learn": ("--size SIZE [--in FILE] --out FILE [--lowercase]", "--size 5 --out o",
                  dict(size=5, infile=None, out="o", lowercase=False)),
    "bpe apply": ("--model FILE [--in FILE] [--out FILE]", "--model m",
                  dict(model="m", infile=None, out=None, strategy="su")),
    "ibm1 train": ("--iters ITERS [--src FILE] [--tgt FILE] [--tsv FILE] --out FILE [--no-null] [--lowercase]",
                   "--iters 2 --out o",
                   dict(iters=2, src=None, tgt=None, tsv=None, out="o", no_null=False, lowercase=False)),
    "ibm1 extract": ("--table FILE [--src FILE] [--tgt FILE] [--tsv FILE] [--max-len MAX_LEN] "
                     "[--min-count MIN_COUNT] --out FILE", "--table t --out o",
                     dict(table="t", src=None, tgt=None, tsv=None, max_len=7, min_count=1, out="o")),
    "vocab build": (f"{_STRATEGY} [--min-count MIN_COUNT] [--lowercase] [--in FILE] --out FILE",
                    "--strategy wb --out o",
                    dict(strategy="wb", lexicon=None, model=None, min_count=1, lowercase=False,
                         infile=None, out="o")),
    "tokenize": (f"{_STRATEGY} --vocab FILE [--emit-tags | --no-tags] [--in FILE] [--out FILE]",
                 "--strategy wb --vocab v",
                 dict(strategy="wb", lexicon=None, model=None, vocab="v", emit_tags=True, infile=None, out=None)),
    "encode": ("--vocab FILE [--in FILE] [--out FILE]", "--vocab v",
               dict(vocab="v", infile=None, out=None, strategy="wb", emit_tags=False)),
    "decode": ("--vocab FILE [--in FILE] [--out FILE]", "--vocab v", dict(vocab="v", infile=None, out=None)),
    "stats": (f"{_STRATEGY} [--vocab FILE] [--lowercase] [--in FILE] [--out FILE]", "--strategy wb",
              dict(strategy="wb", lexicon=None, model=None, vocab=None, lowercase=False, infile=None, out=None)),
    "eval": ("--hyp FILE --ref FILE [--metrics METRICS] [--out FILE]", "--hyp h --ref r",
             dict(hyp="h", ref="r", metrics="bleu-null,bleu-intl,chrf,charer", out=None)),
}


@pytest.mark.parametrize("command", _SURFACE)
def test_help_keeps_usage_and_options(capsys, command):
    usage, _, _ = _SURFACE[command]
    assert run(command.split() + ["--help"]) == 0
    out = capsys.readouterr().out
    head, _, options = out.partition("\n\n")
    assert " ".join(head.split()) == f"usage: weblex {command} [-h] {usage}"
    listed = [line.split()[0] for line in options.splitlines() if line.startswith("  -")]
    assert listed == ["-h,"] + list(dict.fromkeys(re.findall(r"--[a-z-]+", usage)))


def _row(command):
    return next(row for row in cli._COMMANDS if row[0] == command)


@pytest.mark.parametrize("command", _SURFACE)
def test_minimal_command_parses_to_defaults(command):
    """argparse and the fast path (which takes a minimal command) read the same."""
    _, argv, expected = _SURFACE[command]
    for args in (build_parser(command).parse_args(argv.split()), cli._well_formed(_row(command), argv.split())):
        args = vars(args)
        assert args.pop("func") is _row(command)[2]
        assert args == expected


# ---- the fast path: a well-formed command line is read without argparse,
# into what argparse reads from it; anything else is left to argparse

@pytest.mark.parametrize("command, argv", [
    ("decode", "--vocab v --help"),
    ("decode", "--vocab=v"),
    ("decode", "--voc v"),
    ("decode", "--vocab v -- x"),
    ("decode", "--vocab v --in a --in b"),
    ("decode", "--vocab v --in -5"),
    ("decode", "--vocab"),
    ("decode", "--in x"),
    ("decode", "--vocab v --strategy wb"),
    ("tokenize", "--strategy wb --vocab v --emit-tags --no-tags"),
    ("tokenize", "--strategy xx --vocab v"),
    ("bpe learn", "--size 07 --out o"),
    ("bpe learn", "--size 0 --out o"),
])
def test_fast_path_leaves_the_rest_to_argparse(command, argv):
    assert cli._well_formed(_row(command), argv.split()) is None


_FOREIGN_WORDS = [*cli._FLAGS, "-h", "--", "--in=x", "--str"]
_FLAG_VALUES = ["-", "", "x", "a=b", "0", "3", "07", "-5", "wb", "web"]


def _value_of(flag):
    """A value `flag` takes, or any of `_FLAG_VALUES`."""
    spec = cli._FLAGS[flag]
    return st.just("3" if "type" in spec else spec.get("choices", ["x"])[-1]) | st.sampled_from(_FLAG_VALUES)


def _argparse_reads(command, argv):
    """vars() of what the command's parser reads from `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(command).parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(cli._COMMANDS), st.data())
def test_fast_path_reads_what_argparse_reads(row, data):
    specs = [spec for flag in row[4] for spec in (flag if isinstance(flag, tuple) else (flag,))]
    own = st.sampled_from([spec.rstrip("!") for spec in specs])
    # each item is a flag and the words after it: an own flag with as many
    # words as it takes, or any word with up to two values; the required
    # flags are given unless a prefix of them is dropped, then all is shuffled
    shaped = own.flatmap(lambda flag: st.just([flag]) if "action" in cli._FLAGS[flag]
                         else _value_of(flag).map(lambda text: [flag, text]))
    loose = st.tuples(own | st.sampled_from(_FOREIGN_WORDS), st.lists(st.sampled_from(_FLAG_VALUES), max_size=2))
    items = [[spec.rstrip("!"), data.draw(_value_of(spec.rstrip("!")))] for spec in specs if spec.endswith("!")]
    items = items[data.draw(st.integers(0, len(items))):]
    items += data.draw(st.lists(shaped, max_size=3, unique_by=lambda item: item[0]))
    items += data.draw(st.lists(loose.map(lambda item: [item[0], *item[1]]), max_size=1))
    argv = [word for item in data.draw(st.permutations(items)) for word in item]
    fast = cli._well_formed(row, argv)
    slow = _argparse_reads(row[0], argv)
    if fast is not None:
        assert vars(fast) == slow


# ---- dispatch: a run builds at most the parser of the command it names,
# and a well-formed one builds none

@pytest.fixture
def parsers_built(monkeypatch):
    """The command of each parser `build_parser` builds while the test runs."""
    built = []
    build = cli.build_parser

    def counting_build(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", counting_build)
    return built


@pytest.mark.parametrize("command", _SURFACE)
def test_a_run_builds_one_parser(capsys, parsers_built, command):
    assert run(command.split() + ["--help"]) == 0
    assert parsers_built == [command]


def test_a_well_formed_run_builds_no_parser(tmp_path, capsys, parsers_built):
    (tmp_path / "h.txt").write_text("un ɖo\n", encoding="utf-8")
    assert run(["eval", "--hyp", str(tmp_path / "h.txt"), "--ref", str(tmp_path / "h.txt"),
                "--metrics", "chrf"]) == 0
    assert capsys.readouterr().out == "chrf\t100.00\n"
    assert parsers_built == []


@pytest.mark.parametrize("command, message", [
    ("eval --hyp - --ref -",
     "--hyp and --ref would each read stdin ('-' or an omitted --in); at most one input can"),
    ("ibm1 train --iters 1 --out x", "need either --tsv or both --src and --tgt"),
    ("tokenize --strategy web --vocab v", "--lexicon is required for strategy 'web'"),
    ("eval --hyp h --ref r --metrics chrf,foo",
     "unknown metric 'foo' (choose from bleu-null, bleu-intl, chrf, charer)"),
], ids=["check_one_stdin", "check_parallel_flags", "line_tokens", "eval_metrics"])
def test_a_usage_error_after_parsing_builds_one_parser(tmp_path, monkeypatch, capsys, parsers_built,
                                                        command, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", _UnreadStdin())
    assert run(command.split()) == 1
    name = command.split(" -")[0]
    usage = build_parser(name).format_usage()
    assert capsys.readouterr() == ("", f"{usage}weblex {name}: error: {message}\n")
    assert parsers_built == [name]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["bpe", "--help"]])
def test_top_level_help_lists_every_command(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: weblex [-h] COMMAND ...\n")
    listed = [line.split("  ")[1] for line in out.splitlines() if line.startswith("  ") and not line.startswith("  -")]
    assert listed == list(_SURFACE)
    for _, help_text, *_ in cli._COMMANDS:
        assert f" {help_text}\n" in out


@pytest.mark.parametrize("argv, named", [
    ([], "the following arguments are required: COMMAND"),
    (["bpe"], "unrecognized arguments: bpe"),
    (["frobnicate"], "unrecognized arguments: frobnicate"),
    (["bpe", "lern", "--in", "x"], "unrecognized arguments: bpe lern --in x"),
    (["--lowercase"], "unrecognized arguments: --lowercase"),
])
def test_no_command_is_a_usage_error(capsys, argv, named):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage: weblex [-h] COMMAND ...\nweblex: error: {named}\n"


def test_emit_tags_and_no_tags_exclude_each_other(capsys):
    assert run(["tokenize", "--strategy", "wb", "--vocab", "v", "--emit-tags", "--no-tags"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


# ---- conflicting or inapplicable flags are refused, never silently ignored

@pytest.mark.parametrize("command", [
    ["ibm1", "train", "--iters", "1", "--tsv", "pairs.tsv", "--src", "src.txt", "--out", "t2.tsv"],
    ["ibm1", "extract", "--table", "t.tsv", "--tsv", "pairs.tsv", "--tgt", "tgt.txt", "--out", "phb.weblex"],
])
def test_ibm1_refuses_tsv_with_src_or_tgt(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src.txt").write_text("la maison\n", encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("the house\n", encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text("la maison\tthe house\n", encoding="utf-8")
    assert run(["ibm1", "train", "--iters", "1", "--tsv", "pairs.tsv", "--out", "t.tsv"]) == 0
    capsys.readouterr()
    assert run(command) == 1
    assert "need either --tsv or both --src and --tgt" in capsys.readouterr().err
    assert not (tmp_path / command[-1]).exists()


@pytest.mark.parametrize("command", [
    ["vocab", "build", "--strategy", "su", "--model", "m.bpe", "--out", "v2.weblex"],
    ["vocab", "build", "--strategy", "phb", "--lexicon", "lex.weblex", "--out", "v2.weblex"],
    ["vocab", "build", "--strategy", "web", "--lexicon", "lex.weblex", "--out", "v2.weblex"],
    ["stats", "--strategy", "web", "--lexicon", "lex.weblex"],
    ["stats", "--strategy", "su", "--model", "m.bpe"],
    ["stats", "--strategy", "wb", "--vocab", "v.weblex"],
])
def test_lowercase_is_refused_where_an_artifact_sets_it(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("Un ɖo\n", encoding="utf-8")
    assert run(["lexicon", "build", "--in", "c.txt", "--out", "lex.weblex"]) == 0
    assert run(["bpe", "learn", "--size", "20", "--in", "c.txt", "--out", "m.bpe"]) == 0
    assert run(["vocab", "build", "--strategy", "wb", "--in", "c.txt", "--out", "v.weblex"]) == 0
    capsys.readouterr()
    assert run(command + ["--lowercase", "--in", "c.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the setting is read from the artifact" in captured.err
    assert not (tmp_path / "v2.weblex").exists()


def test_lowercase_is_honoured_for_wb_without_vocab(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("Un un\n", encoding="utf-8")
    assert run(["stats", "--strategy", "wb", "--lowercase", "--in", str(tmp_path / "c.txt")]) == 0
    assert "types\t1" in capsys.readouterr().out.splitlines()
    assert run(["vocab", "build", "--strategy", "wb", "--lowercase", "--in", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "v.weblex")]) == 0
    assert (tmp_path / "v.weblex").read_text(encoding="utf-8").startswith("#weblex-vocab v=1 lowercase=1\n")


def test_tokenize_has_no_lowercase_flag(capsys):
    assert run(["tokenize", "--strategy", "wb", "--vocab", "v", "--lowercase"]) == 1
    assert "unrecognized arguments: --lowercase" in capsys.readouterr().err


# ---- usage errors come before any file is read: the named files do not exist

@pytest.mark.parametrize("command, message", [
    ("tokenize --strategy web --vocab missing", "--lexicon is required for strategy 'web'"),
    ("stats --strategy su --vocab missing", "--model is required for strategy 'su'"),
    ("ibm1 extract --table missing", "need either --tsv or both --src and --tgt"),
    ("ibm1 train --iters 0 --src missing --tgt missing", "argument --iters: must be at least 1, got '0'"),
    ("ibm1 extract --table missing --tsv missing --max-len 0", "argument --max-len: must be at least 1"),
    ("ibm1 extract --table missing --tsv missing --min-count -2", "argument --min-count: must be at least 1"),
    ("vocab build --strategy wb --in missing --min-count 0", "argument --min-count: must be at least 1"),
    ("bpe learn --size 0 --in missing", "argument --size: must be at least 1"),
    ("bpe learn --size x --in missing", "argument --size: invalid int value: 'x'"),
    ("eval --hyp missing --ref missing --metrics foo", "unknown metric 'foo'"),
])
def test_usage_error_before_any_file_is_read(tmp_path, monkeypatch, capsys, command, message):
    monkeypatch.chdir(tmp_path)
    assert run(command.split() + ["--out", "x"]) == 1
    err = capsys.readouterr().err
    name = command.split(" -")[0]
    assert err.startswith(f"usage: weblex {name} [-h] ")
    assert f"\nweblex {name}: error: " in err
    assert message in err
    assert "No such file" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flag, strategy", [
    ("vocab build --strategy wb --lexicon lex.weblex", "--lexicon", "wb"),
    ("vocab build --strategy web --lexicon l --model m.bpe", "--model", "web"),
    ("tokenize --strategy phb --lexicon l --model m --vocab v", "--model", "phb"),
    ("tokenize --strategy wb --model m --vocab v", "--model", "wb"),
    ("stats --strategy su --model m --lexicon l", "--lexicon", "su"),
])
def test_artifact_the_strategy_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag, strategy):
    monkeypatch.chdir(tmp_path)
    assert run(command.split() + ["--in", "missing", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert f"{flag} does not apply to strategy '{strategy}'" in err
    assert "No such file" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, flag, text", [
    (["bpe", "learn", "--in", "missing"], "--size", "1_0"),
    (["ibm1", "train", "--src", "missing", "--tgt", "missing"], "--iters", "+4"),
    (["ibm1", "extract", "--table", "missing", "--tsv", "missing"], "--max-len", "٥"),
    (["vocab", "build", "--strategy", "wb", "--in", "missing"], "--min-count", " 4"),
])
def test_integer_flag_reads_only_what_str_writes(tmp_path, monkeypatch, capsys, argv, flag, text):
    monkeypatch.chdir(tmp_path)
    assert run(argv + [flag, text, "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert f"\nweblex {' '.join(argv[:2])}: error: " in err
    assert f"argument {flag}: invalid int value: {text!r}" in err
    assert "No such file" not in err
    assert not (tmp_path / "x").exists()


# ---- at most one input may come from stdin ('-', or an omitted --in)

class _UnreadStdin:
    """A stdin that fails the test if anything reads it."""

    @property
    def buffer(self):
        return self

    def read(self, *args):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("command, readers", [
    ("eval --hyp - --ref - --out x", "--hyp and --ref"),
    ("ibm1 train --iters 1 --src - --tgt - --out x", "--src and --tgt"),
    ("ibm1 extract --table missing --src - --tgt - --out x", "--src and --tgt"),
    ("ibm1 extract --table - --tsv - --out x", "--table and --tsv"),
    ("decode --vocab - --out x", "--vocab and --in"),
    ("tokenize --strategy web --lexicon - --vocab - --out x", "--lexicon and --vocab and --in"),
])
def test_two_stdin_inputs_are_a_usage_error(tmp_path, monkeypatch, capsys, command, readers):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", _UnreadStdin())
    assert run(command.split()) == 1
    err = capsys.readouterr().err
    name = command.split(" -")[0]
    assert err.startswith(f"usage: weblex {name} [-h] ")
    assert f"\nweblex {name}: error: " in err
    assert f"{readers} would each read stdin" in err
    assert not (tmp_path / "x").exists()


def test_one_stdin_input_is_read(tmp_path, monkeypatch, capsys):
    (tmp_path / "ref.txt").write_text("un ɖo\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO("un ɖo\n".encode("utf-8")), encoding="utf-8"))
    assert run(["eval", "--hyp", "-", "--ref", str(tmp_path / "ref.txt"), "--metrics", "chrf"]) == 0
    assert capsys.readouterr().out == "chrf\t100.00\n"
