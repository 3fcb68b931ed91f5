"""Self-tests of the benchmark: generator, span arithmetic, tiny smoke runs.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import harness  # noqa: E402
import replay  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "web-curated": {"lines": 30, "entries": 60},
    "su-subword": {"train": 20, "heldout": 10},
    "phb-phrase": {"pairs": 20},
    "eval-metrics": {"pairs": 10},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = gen.generate(name, 7, TINY[name])
    assert first == gen.generate(name, 7, TINY[name])
    assert first != gen.generate(name, 8, TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_avoids_known_defects_and_exercises_nfc(name):
    files = gen.generate(name, 3, WORKLOADS[name].sizes)
    text = "".join(files.values())
    for bad in ("\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\r", "</w>"):
        assert bad not in text
    assert unicodedata.normalize("NFC", text) != text  # some lines typed decomposed
    assert all(t.endswith("\n") for t in files.values())


def test_corpus_word_total_does_not_depend_on_seed():
    totals = {sum(map(len, gen.corpus(gen.Source(seed), 52))) for seed in range(5)}
    assert len(totals) == 1


def test_word_lengths_and_counts_follow_the_rank_not_the_seed():
    one, two = gen.Source(1), gen.Source(2)
    assert one.words != two.words
    assert [len(w) for w in one.words] == [len(w) for w in two.words]
    rank = {w: r for r, w in enumerate(one.words)}
    counts = Counter(rank[w] for w in one.tokens(5000))
    assert sum(counts.values()) == 5000
    share = 5000 / one._cum[-1]
    assert all(abs(counts[r] - share / (r + 1)) < 1 for r in range(len(one.words)))


def _span(name, start, end, parent=None):
    return Span(None, name, start, end, parent)


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),    # overlaps a: [1, 5] counted once
        _span("c", 9.0, 12.0, parent=0),   # only [9, 10] lies inside root
        _span("a1", 1.5, 2.0, parent=1),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert got["a"] == pytest.approx(2.0 - 0.5)
    assert got["b"] == pytest.approx(3.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["a1"] == pytest.approx(0.5)
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_middle_mean_averages_the_middle_half():
    assert harness.middle_mean([5.0]) == 5.0
    assert harness.middle_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert harness.middle_mean(float(x) for x in range(10)) == 4.5


def test_recorder_links_nested_spans_to_their_parent():
    rec = Recorder(run=4)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert {s.run for s in rec.spans} == {4}
    assert all(s.end >= s.start for s in rec.spans)
    assert set(rec.self_times()) == {"outer", "inner"}


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in replay.LAYER_METRICS]


def test_digests_are_pinned_for_every_output_of_the_default_seed():
    pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    for name, wl in WORKLOADS.items():
        assert set(pinned[name]) == {step.output for step in wl.steps}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name):
    result = harness.measure(name, 5, 0.0, TINY[name], report=lambda line: None)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > len(WORKLOADS[name].steps)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name):
    lines = []
    result = harness.measure_traced(name, 5, 0.0, TINY[name], report=lines.append)
    assert result["correct"], (result, lines)
    assert list(result["metrics"]) == [m["name"] for m in replay.LAYER_METRICS]
    moved = [m for m in replay.LAYER_METRICS if any(name in w for w in m["moves"].values())]
    for m in moved:
        if m["unit"] == "s" and m["name"] != "cli.overhead_s":
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    trace = harness.WORK / f"trace-{name}-seed5.jsonl"
    records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert records[0]["meta"]["workload"] == name
    assert {"id", "name", "start", "end", "parent", "run"} <= set(records[1])


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "web-curated", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
