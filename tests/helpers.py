"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written as plain brute force, separate
from the library code paths it validates.
"""

import math
import unicodedata
from collections import Counter, defaultdict

from weblex.errors import FormatError
from weblex.lexicon import ExpressionLexicon
from weblex.metrics import tokenize_line
from weblex.textnorm import NormSettings, normalize, split_words

Span = tuple[int, int]


def read_lines_oracle(data: bytes, name: str) -> list[str]:
    """The framing rule applied to all of `data` at once: strict UTF-8, a
    ValueError naming the line of the first invalid byte, LF-only lines,
    one trailing CR dropped from each."""
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


def normalize_oracle(text: str, lowercase: bool = False) -> str:
    """Normalization with the control/format filter run on every string,
    the form `normalize` had before its printable-text fast path.
    """
    if lowercase:
        text = text.casefold()
    text = "".join(ch for ch in text if ch.isspace() or unicodedata.category(ch) not in ("Cc", "Cf"))
    text = unicodedata.normalize("NFC", text)
    return " ".join(text.split())


def all_covers(n: int, spans: list[Span]) -> list[list[Span]]:
    """Every complete disjoint cover of [0, n) buildable from the given
    spans plus single-word fallbacks at positions lacking a length-1 span.
    """
    choices: list[list[Span]] = [[] for _ in range(n)]
    for start, end in spans:
        choices[start].append((start, end))
    for i in range(n):
        if not any(end - start == 1 for start, end in choices[i]):
            choices[i].append((i, i + 1))

    def expand(i: int) -> list[list[Span]]:
        if i == n:
            return [[]]
        result = []
        for span in choices[i]:
            for rest in expand(span[1]):
                result.append([span] + rest)
        return result

    return expand(0)


def best_cover(n: int, spans: list[Span]) -> list[Span]:
    """Minimum-count cover; ties broken by the longer segment at the
    leftmost position where two covers differ.
    """
    covers = all_covers(n, spans)
    return min(covers, key=lambda cover: (len(cover), [start - end for start, end in cover]))


def maximal_spans_oracle(spans: list[Span]) -> list[Span]:
    """Spans not strictly contained in any other span, by pairwise scan."""
    kept = []
    for s in spans:
        contained = any(
            v[0] <= s[0] and s[1] <= v[1] and v != s
            for v in spans
        )
        if not contained:
            kept.append(s)
    return kept


def em_oracle(corpus, iterations, null_word=True):
    """Full-table IBM1 EM, dict-of-dicts, for comparison with the sparse
    implementation. Returns {source: {target: prob}}.
    """
    null = "<NULL>"
    src_vocab = []
    tgt_vocab = []
    for src, tgt in corpus:
        for w in src:
            if w not in src_vocab:
                src_vocab.append(w)
        for w in tgt:
            if w not in tgt_vocab:
                tgt_vocab.append(w)
    if null_word:
        src_vocab = [null] + src_vocab
    t = {e: {f: 1.0 / len(tgt_vocab) for f in tgt_vocab} for e in src_vocab}
    for _ in range(iterations):
        cnt = {e: {f: 0.0 for f in tgt_vocab} for e in src_vocab}
        for src, tgt in corpus:
            sources = [null] + list(src) if null_word else list(src)
            for f in tgt:
                z = sum(t[e][f] for e in sources)
                for e in sources:
                    cnt[e][f] += t[e][f] / z
        for e in src_vocab:
            total = sum(cnt[e].values())
            if total > 0.0:
                for f in tgt_vocab:
                    t[e][f] = cnt[e][f] / total
    return t


def ibm1_train_oracle(corpus, iterations, null_word=True):
    """Sparse IBM1 EM over a tuple-keyed dict, the straightforward form of
    the library's trainer. Returns {(source, target): prob} in first-seen
    order, computed with the same float operations in the same order, so
    the library must match it bit for bit.
    """
    null = "<NULL>"
    target_vocab = list(dict.fromkeys(w for _, tgt in corpus for w in tgt))
    uniform = 1.0 / len(target_vocab)
    probs = {}
    for src, tgt in corpus:
        sources = [null] + list(src) if null_word else list(src)
        for e in sources:
            for f in tgt:
                probs.setdefault((e, f), uniform)
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src, tgt in corpus:
            sources = [null] + list(src) if null_word else list(src)
            for f in tgt:
                z = sum(probs[(e, f)] for e in sources)
                for e in sources:
                    delta = probs[(e, f)] / z
                    counts[(e, f)] += delta
                    totals[e] += delta
        for (e, f) in probs:
            probs[(e, f)] = counts[(e, f)] / totals[e]
    return probs


def consistent_phrases_oracle(src, tgt, alignment, max_len):
    """Quadruple-loop enumeration of alignment-consistent phrase boxes."""
    links = [(a, j) for j, a in enumerate(alignment) if a is not None]
    out: Counter = Counter()
    for i1 in range(len(src)):
        for i2 in range(i1, len(src)):
            if i2 - i1 + 1 > max_len:
                continue
            for j1 in range(len(tgt)):
                for j2 in range(j1, len(tgt)):
                    if j2 - j1 + 1 > max_len:
                        continue
                    inside = [
                        (a, j) for a, j in links
                        if i1 <= a <= i2 and j1 <= j <= j2
                    ]
                    if not inside:
                        continue
                    if any((i1 <= a <= i2) != (j1 <= j <= j2) for a, j in links):
                        continue
                    key = (" ".join(src[i1:i2 + 1]), " ".join(tgt[j1:j2 + 1]))
                    out[key] += 1
    return out


def levenshtein_matrix(a, b) -> int:
    """Full-matrix edit distance, the quadratic textbook formulation."""
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[len(a)][len(b)]


def _tuple_ngram_counts(tokens, order):
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def bleu_statistics_oracle(pairs, mode="null", max_order=4):
    """BLEU sufficient statistics with one tuple-keyed Counter per order
    per side: (clipped matches, hypothesis totals) per order, then the
    hypothesis and reference token lengths. Lines are split by the
    library's `tokenize_line`; only the counting is independent.
    """
    correct = [0] * max_order
    total = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in pairs:
        hyp_tokens = tokenize_line(hyp, mode)
        ref_tokens = tokenize_line(ref, mode)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, max_order + 1):
            hyp_ngrams = _tuple_ngram_counts(hyp_tokens, n)
            ref_ngrams = _tuple_ngram_counts(ref_tokens, n)
            correct[n - 1] += sum(min(c, ref_ngrams[g]) for g, c in hyp_ngrams.items())
            total[n - 1] += sum(hyp_ngrams.values())
    return correct, total, hyp_len, ref_len


def bleu_oracle(pairs, mode="null", max_order=4):
    """Corpus BLEU from `bleu_statistics_oracle`, with the same float
    operations in the same order as the library, so it must match exactly.
    """
    correct, total, hyp_len, ref_len = bleu_statistics_oracle(pairs, mode, max_order)
    if hyp_len == 0:
        return 0.0
    orders = [i for i in range(max_order) if total[i] > 0]
    if any(correct[i] == 0 for i in orders):
        return 0.0
    log_precision = sum(math.log(correct[i] / total[i]) for i in orders) / len(orders)
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def chrf_oracle(pairs, max_order=6, beta=2.0):
    """Character n-gram F-score with one tuple-keyed Counter per order per
    side, totals summed from the counters. Same float operations in the
    same order as the library, so the library must match it exactly.
    """
    hyp_totals = [0] * max_order
    ref_totals = [0] * max_order
    matches = [0] * max_order
    for hyp, ref in pairs:
        hyp_chars = hyp.replace(" ", "")
        ref_chars = ref.replace(" ", "")
        for n in range(1, max_order + 1):
            hyp_ngrams = _tuple_ngram_counts(hyp_chars, n)
            ref_ngrams = _tuple_ngram_counts(ref_chars, n)
            hyp_totals[n - 1] += sum(hyp_ngrams.values())
            ref_totals[n - 1] += sum(ref_ngrams.values())
            matches[n - 1] += sum((hyp_ngrams & ref_ngrams).values())
    orders = [i for i in range(max_order) if ref_totals[i] > 0]
    if not orders:
        return 0.0
    precision = sum(matches[i] / hyp_totals[i] if hyp_totals[i] else 0.0 for i in orders) / len(orders)
    recall = sum(matches[i] / ref_totals[i] for i in orders) / len(orders)
    if precision + recall == 0.0:
        return 0.0
    beta_sq = beta * beta
    return 100.0 * (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)


def random_segmentation_instance(rng):
    """A random sentence (words from a 3-letter alphabet, length <= 8)
    and a random lexicon of expressions with order <= 4.
    """
    alphabet = ["a", "b", "c"]
    words = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
    expressions = set()
    for _ in range(rng.randint(0, 12)):
        order = rng.randint(1, 4)
        expressions.add(" ".join(rng.choice(alphabet) for _ in range(order)))
    return words, sorted(expressions)


def _bpe_merge(symbols, pair):
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _bpe_symbols(word):
    return tuple(word[:-1]) + (word[-1] + "</w>",)


def bpe_learn_oracle(corpus, target_size, lowercase=False):
    """Merge list learned by recounting every pair of every word before
    each merge and rewriting every word after it.
    """
    word_freq = Counter()
    for line in corpus:
        word_freq.update(split_words(normalize(line, lowercase)))
    symbolized = {word: _bpe_symbols(word) for word in word_freq}
    symbols = {s for syms in symbolized.values() for s in syms}
    merges = []
    while len(symbols) < target_size:
        pair_counts = Counter()
        for word, syms in symbolized.items():
            for pair in zip(syms, syms[1:]):
                pair_counts[pair] += word_freq[word]
        if not pair_counts:
            break
        top = max(pair_counts.values())
        if top < 2:
            break
        pair = min(p for p, c in pair_counts.items() if c == top)
        merges.append(pair)
        symbols.add(pair[0] + pair[1])
        symbolized = {word: _bpe_merge(syms, pair) for word, syms in symbolized.items()}
    return tuple(merges)


def bpe_apply_oracle(merges, sentence):
    """Tokens from replaying every merge, in order, over each word."""
    tokens = []
    for word in sentence:
        symbols = _bpe_symbols(word)
        for pair in merges:
            symbols = _bpe_merge(symbols, pair)
        tokens.extend(symbols)
    return tokens


class LexiconReportOracle:
    """The report of the former lexicon line parser, blank lines included."""

    def __init__(self):
        self.duplicates, self.rejected, self.blank_lines = 0, [], []


def _add_entry_oracle(lex, report, pos, text, gloss):
    """The former per-entry step shared by both lexicon builders."""
    words = tuple(split_words(normalize(text, lex.settings.lowercase)))
    if not words:
        report.rejected.append((pos, "empty expression after normalization"))
        return
    if gloss is not None:
        gloss = normalize(gloss) or None
    if not lex._add(words, gloss):
        report.duplicates += 1


def lexicon_build_oracle(lines, settings=NormSettings()):
    """The former `parse_lexicon_lines` over `lines`, numbered from 1:
    comments skipped, blank lines and empty entries reported by line, a
    row of more than two columns refused with FormatError naming it."""
    lex = ExpressionLexicon(settings)
    report = LexiconReportOracle()
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            continue
        if not line.strip():
            report.blank_lines.append(lineno)
            continue
        columns = line.split("\t")
        if len(columns) > 2:
            raise FormatError(f"line {lineno}: expected 'expression<TAB>gloss', got {len(columns)} columns")
        _add_entry_oracle(lex, report, lineno, columns[0], columns[1] if len(columns) == 2 else None)
    return lex, report


def phb_vocab_oracle(phrases, min_count=1, settings=NormSettings()):
    """The former `build_phb_vocab`: the first target of each raw source
    text, in (-count, source, target) order, fed to the former builder."""
    ordered = sorted(phrases, key=lambda p: (-p.count, p.source, p.target))
    entries = {}
    for phrase in ordered:
        if phrase.count < min_count or phrase.source in entries:
            continue
        entries[phrase.source] = phrase.target
    lex = ExpressionLexicon(settings)
    report = LexiconReportOracle()
    for pos, (text, gloss) in enumerate(entries.items(), start=1):
        _add_entry_oracle(lex, report, pos, text, gloss)
    return lex
