"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print; each criterion is a separate test so the suite report doubles as
the checklist.
"""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import (
    best_cover,
    consistent_phrases_oracle,
    em_oracle,
    levenshtein_matrix,
    random_segmentation_instance,
)
from weblex.bpe import apply_bpe, decode_bpe, learn_bpe
from weblex.ibm1 import align_best, extract_phrases, log_likelihood, train_ibm1
from weblex.lexicon import build_lexicon
from weblex.metrics import bleu, char_edit_rate, chrf, levenshtein
from weblex.segmenter import enumerate_candidates, filter_subsumed, segment_words, select_cover, tokenize_web
from weblex.textnorm import normalize, split_words
from weblex.vocab import build_vocab


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} PASS {label} ({elapsed:.2f}s)")


def _lex(*texts):
    lex, _ = build_lexicon([(t, None) for t in texts])
    return lex


def test_criterion_1_table2_golden():
    with criterion(1, "Table 2 golden segmentation"):
        started = time.perf_counter()
        lex = _lex("a ɖo jiɖiɖe ɖo wutu cé à", "nɔnvi cé", "cé", "a ɖo")
        words = split_words(normalize("a ɖo jiɖiɖe ɖo wutu cé à nɔnvi cé"))
        seg = segment_words(words, lex)
        assert seg.texts(words) == ["a ɖo jiɖiɖe ɖo wutu cé à", "nɔnvi cé"]
        assert time.perf_counter() - started < 1.0


def test_criterion_2_full_expression_golden():
    with criterion(2, "whole-sentence expression vs word split"):
        started = time.perf_counter()
        sentence = "mɛtà mɛtà wɛ zìnwó hɛn wa aligbo mɛ"
        words = split_words(normalize(sentence))
        assert len(segment_words(words, _lex(sentence))) == 1
        assert len(segment_words(words, _lex(*words))) == 8
        assert time.perf_counter() - started < 1.0


def _random_instances(count, seed):
    rng = random.Random(seed)
    return [random_segmentation_instance(rng) for _ in range(count)]


def test_criterion_3_cover_optimality_oracle():
    with criterion(3, "cover selection equals exhaustive optimum, 1000 instances"):
        started = time.perf_counter()
        for words, expressions in _random_instances(1000, seed=160_493):
            lex = _lex(*expressions)
            maximal = filter_subsumed(enumerate_candidates(words, lex))
            seg = select_cover(words, maximal)
            got = [(s.start, s.end) for s in seg.segments]
            expected = best_cover(len(words), [(s.start, s.end) for s in maximal])
            assert got == expected, (words, expressions, got, expected)
        assert time.perf_counter() - started < 30.0


def test_criterion_4_subsumption_filter():
    with criterion(4, "subsumption filter sound and complete, 1000 instances"):
        for words, expressions in _random_instances(1000, seed=160_493):
            lex = _lex(*expressions)
            candidates = enumerate_candidates(words, lex)
            kept = filter_subsumed(candidates)
            kept_set = set(kept)
            for w in kept:
                assert not any(v.contains(w) for v in kept)
            for c in candidates:
                if c not in kept_set:
                    assert any(v.contains(c) for v in kept)


def test_criterion_5_bpe():
    with criterion(5, "bpe round trip x1000 and toy merge sequence"):
        rng = random.Random(50_505)
        alphabet = "abɖɛco"
        corpus = [
            " ".join(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 10))
            )
            for _ in range(40)
        ]
        model = learn_bpe(corpus, target_size=120)
        for _ in range(1000):
            words = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(0, 8))
            ]
            assert decode_bpe(apply_bpe(model, words)) == words
        toy = learn_bpe(["low"] * 5 + ["lower"] * 2, target_size=100)
        assert toy.merges == (
            ("l", "o"),
            ("lo", "w</w>"),
            ("e", "r</w>"),
            ("lo", "w"),
            ("low", "er</w>"),
        )


def test_criterion_6_ibm1():
    with criterion(6, "ibm1 mass conservation, likelihood, toy convergence"):
        toy = [(["la", "maison"], ["the", "house"]), (["la"], ["the"])]
        previous_ll = None
        for iters in range(1, 11):
            table = train_ibm1(toy, iterations=iters, null_word=False)
            sums = Counter()
            for (e, _), p in table.probs.items():
                sums[e] += p
            for total in sums.values():
                assert abs(total - 1.0) <= 1e-9
            ll = log_likelihood(table, toy)
            if previous_ll is not None:
                assert ll >= previous_ll - 1e-12
            previous_ll = ll
            oracle = em_oracle(toy, iters, null_word=False)
            for (e, f), p in table.probs.items():
                assert abs(p - oracle[e][f]) <= 1e-9
        final = train_ibm1(toy, iterations=10, null_word=False)
        assert final.probs[("la", "the")] > 0.9


def test_criterion_7_phrase_extraction():
    with criterion(7, "phrase extraction equals brute-force enumeration"):
        corpus = [(["la", "maison"], ["the", "house"]), (["la"], ["the"])]
        table = train_ibm1(corpus, iterations=10, null_word=False)
        toy = [corpus[0]]
        alignment = align_best(table, toy[0])
        phrases = extract_phrases(toy, [alignment], max_len=2)
        got = Counter({(p.source, p.target): p.count for p in phrases})
        assert got == consistent_phrases_oracle(toy[0][0], toy[0][1], alignment, 2)
        assert got == Counter({
            ("la", "the"): 1,
            ("maison", "house"): 1,
            ("la maison", "the house"): 1,
        })
        rng = random.Random(7_777)
        for _ in range(300):
            src = [f"s{i}" for i in range(rng.randint(1, 5))]
            tgt = [f"t{j}" for j in range(rng.randint(1, 5))]
            alignment = [rng.choice([None] + list(range(len(src)))) for _ in tgt]
            max_len = rng.randint(1, 4)
            phrases = extract_phrases([(src, tgt)], [alignment], max_len=max_len)
            got = Counter({(p.source, p.target): p.count for p in phrases})
            assert got == consistent_phrases_oracle(src, tgt, alignment, max_len)


def test_criterion_8_metrics():
    with criterion(8, "metric identities, frozen values, edit-distance oracle"):
        identical = [("un ɖo ganji", "un ɖo ganji")]
        assert bleu(identical, "null") == pytest.approx(100.0)
        assert bleu(identical, "intl") == pytest.approx(100.0)
        assert chrf(identical) == pytest.approx(100.0)
        assert char_edit_rate(identical) == 0.0
        assert bleu([("the the the", "the cat")]) == pytest.approx(0.0, abs=1e-6)
        assert chrf([("abcd", "abce")]) == pytest.approx(47.916666666666664, abs=1e-6)
        assert char_edit_rate([("abd", "abc")]) == pytest.approx(1 / 3, abs=1e-6)
        rng = random.Random(808_808)
        alphabet = "abɖɛ x"
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert levenshtein(a, b) == levenshtein_matrix(a, b)


def test_criterion_9_degenerate_lexicon_equals_word_split():
    with criterion(9, "unigram lexicon reproduces word-based streams, 500 sentences"):
        rng = random.Random(909_909)
        vocab_words = ["un", "ɖo", "ganji", "mɛ", "wa", "zìnwó"]
        lex = _lex(*vocab_words)
        vocab = build_vocab(vocab_words * 2)
        for _ in range(500):
            words = [rng.choice(vocab_words) for _ in range(rng.randint(0, 8))]
            sentence = " ".join(words)
            seg = segment_words(words, lex)
            assert seg.texts(words) == words
            assert tokenize_web(sentence, lex, vocab, emit_tags=False) == vocab.encode(words)


REPO = Path(__file__).resolve().parent.parent


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("WEBLEX_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "weblex", *args],
        cwd=cwd, env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_cli_byte_determinism(tmp_path):
    with criterion(10, "CLI pipelines byte-identical across runs"):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "a ɖo jiɖiɖe ɖo wutu cé à nɔnvi cé\n"
            "un ɖo ganji\n"
            "mɛtà mɛtà wɛ zìnwó hɛn wa aligbo mɛ\n" * 3,
            encoding="utf-8",
        )
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "a ɖo jiɖiɖe ɖo wutu cé à\tas-tu confiance en moi ?\n"
            "nɔnvi cé\tmon frère\n"
            "un ɖo\tje suis\n",
            encoding="utf-8",
        )
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("la maison\nla\nun ɖo ganji\n", encoding="utf-8")
        tgt.write_text("the house\nthe\nje vais bien\n", encoding="utf-8")

        def pipeline(workdir):
            workdir.mkdir()
            out = {}
            _run_cli(["lexicon", "build", "--in", str(pairs),
                      "--out", str(workdir / "lex.weblex")], tmp_path)
            _run_cli(["bpe", "learn", "--size", "60", "--in", str(corpus),
                      "--out", str(workdir / "su.bpe")], tmp_path)
            _run_cli(["ibm1", "train", "--iters", "5", "--src", str(src), "--tgt", str(tgt),
                      "--out", str(workdir / "table.tsv")], tmp_path)
            _run_cli(["ibm1", "extract", "--table", str(workdir / "table.tsv"),
                      "--src", str(src), "--tgt", str(tgt), "--max-len", "7",
                      "--min-count", "1", "--out", str(workdir / "phb.weblex")], tmp_path)
            out["su.apply"] = _run_cli(
                ["bpe", "apply", "--model", str(workdir / "su.bpe"), "--in", str(corpus)], tmp_path)
            for strategy, extra in (
                ("wb", []),
                ("su", ["--model", str(workdir / "su.bpe")]),
                ("web", ["--lexicon", str(workdir / "lex.weblex")]),
                ("phb", ["--lexicon", str(workdir / "phb.weblex")]),
            ):
                vocab_path = workdir / f"{strategy}.vocab"
                _run_cli(["vocab", "build", "--strategy", strategy, *extra,
                          "--in", str(corpus), "--out", str(vocab_path)], tmp_path)
                out[f"{strategy}.ids"] = _run_cli(
                    ["tokenize", "--strategy", strategy, *extra, "--vocab", str(vocab_path),
                     "--in", str(corpus)], tmp_path)
                out[f"{strategy}.stats"] = _run_cli(
                    ["stats", "--strategy", strategy, *extra, "--vocab", str(vocab_path),
                     "--in", str(corpus)], tmp_path)
            ids_path = workdir / "wb.ids.txt"
            ids_path.write_bytes(out["wb.ids"])
            out["encoded"] = _run_cli(
                ["encode", "--vocab", str(workdir / "wb.vocab"), "--in", str(corpus)], tmp_path)
            out["decoded"] = _run_cli(
                ["decode", "--vocab", str(workdir / "wb.vocab"), "--in", str(ids_path)], tmp_path)
            out["eval"] = _run_cli(
                ["eval", "--hyp", str(corpus), "--ref", str(corpus)], tmp_path)
            for name in ("lex.weblex", "su.bpe", "table.tsv", "phb.weblex",
                         "wb.vocab", "su.vocab", "web.vocab", "phb.vocab"):
                out[name] = (workdir / name).read_bytes()
            return out

        assert pipeline(tmp_path / "run1") == pipeline(tmp_path / "run2")
