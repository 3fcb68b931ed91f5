"""Run one workload as a closed loop of CLI commands and compute its metrics.

One client runs one `python -m weblex` command at a time as a
subprocess, at the default WEBLEX_THREADS, against inputs generated
from the seed. With tracing off the loop repeats the whole pipeline for
the measuring time and reports end-to-end middle means (the mean of the
middle half of a run's samples). Each command is timed between two runs
of a fixed pure-Python reference loop, and the pipeline timings are
reported in units of that loop's time ("ref"), so that the speed swings
of a shared host largely cancel out; the raw seconds are printed in the
report lines. The traced run replays the
pipeline in-process through the public API with spans and reports
per-layer metrics instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import gen
import replay
from spans import NullRecorder, Recorder
from workloads import CHECKS, DEFAULT_SEED, WORKLOADS, Workload, read_lines

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

# One-line runs of the per-line command after each iteration. setup_s is
# their fastest: it is raw seconds, and a host that is busy for much of
# a run still leaves some quiet moments, so the minimum moves far less
# from one hour to the next than a mean or median does.
SETUP_PROBES = 3
# Extra runs of a threaded per-line command after each iteration: the
# WEBLEX_THREADS pool's speed swings with how the host schedules the two
# cores, so its estimate needs more samples than the rest of the pipeline.
THREADED_REPEATS = 2

END_TO_END = {
    "wall_ref": "ref",
    "build_ref": "ref",
    "lines_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
}


@dataclass
class Run:
    wall: float
    rss_mb: float
    code: int
    ref: float = 0.0  # mean time of the reference loops run just before and after

    @property
    def norm(self) -> float:
        """Wall time in units of the reference loop."""
        return self.wall / self.ref


# 20,000 distinct short strings: the reference loop's input, built once
REF_WORDS = [format(i * 7919 % 1_000_003, "x") + "ab" for i in range(20_000)]


def reference_loop() -> float:
    """Time of a fixed pure-Python loop, the unit ("ref") of the normalized timings.

    Like weblex it slices strings, builds tuples and counts them in a
    dict, so contention on a shared host slows it about as much as it
    slows the CLI; a pure arithmetic loop tracks the CLI far less well.
    It took 15-25 ms on the 2-vCPU Xeon machine where the bounds were set.
    """
    start = perf_counter()
    counts: dict[tuple[str, str], int] = {}
    for word in REF_WORDS:
        key = (word[:3], word[3:])
        counts[key] = counts.get(key, 0) + len(word)
    sorted(counts)
    return perf_counter() - start


@dataclass
class Tally:
    """Commands attempted and failed; a failed output check counts as a failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def command(self, run: Run, what: str) -> Run:
        self.attempted += 1
        if run.code != 0:
            self.fail(f"{what}: exit code {run.code}")
        return run

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)


def child_env(threads: int | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WEBLEX_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["WEBLEX_THREADS"] = str(threads)
    return env


class Launcher:
    """The small process that forks every CLI command (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(LAUNCHER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def execute(self, argv, d: Path, env: dict[str, str]) -> Run:
        """Run `python -m weblex argv` in d; wall time and peak RSS from wait4."""
        request = {"argv": [sys.executable, "-m", "weblex", *argv], "cwd": str(d), "env": env,
                   "stderr": str(d / "stderr.log")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Run(reply["wall"], reply["rss_kb"] / 1024, reply["code"])

    def close(self) -> None:
        """End of input: the launcher finishes its command and exits."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "src_lines": src_lines()}


def _swap_output(argv, old: str, new: str) -> tuple[str, ...]:
    return tuple(new if arg == old else arg for arg in argv)


class WorkloadRun:
    """One workload's directory, inputs and command bookkeeping."""

    def __init__(self, name: str, seed: int, sizes: dict | None):
        self.wl: Workload = WORKLOADS[name]
        self.seed = seed
        self.pinned = seed == DEFAULT_SEED and (sizes is None or sizes == self.wl.sizes)
        self.sizes = sizes or self.wl.sizes
        self.dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.tally = Tally()
        self.env = child_env()
        self.reference: dict[str, str] = {}
        self._last_ref: float | None = None

    def __enter__(self) -> "WorkloadRun":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for fname, text in gen.generate(self.wl.name, self.seed, self.sizes).items():
            (self.dir / fname).write_text(text, encoding="utf-8", newline="\n")
        self.launcher = Launcher()
        try:
            # compiles bytecode and warms the file cache before anything is timed
            self.launcher.execute(("--help",), self.dir, self.env)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def command(self, argv, what: str, env: dict[str, str] | None = None) -> Run:
        """Run one command between two reference loops; its ref is their mean."""
        before = self._last_ref if self._last_ref is not None else reference_loop()
        run = self.launcher.execute(argv, self.dir, env or self.env)
        self._last_ref = reference_loop()
        run.ref = (before + self._last_ref) / 2
        return self.tally.command(run, what)

    def pipeline(self) -> list[Run]:
        """All steps once, checking line counts and that bytes repeat across iterations."""
        runs = []
        for step in self.wl.steps:
            run = self.command(step.argv, step.name)
            runs.append(run)
            out = self.dir / step.output
            if run.code != 0:
                continue
            if not out.exists():
                self.tally.fail(f"{step.name}: wrote no {step.output}")
                continue
            if step.keeps_lines_of and len(read_lines(out)) != len(read_lines(self.dir / step.keeps_lines_of)):
                self.tally.fail(f"{step.name}: output line count differs from {step.keeps_lines_of}")
            sha = digest(out)
            if self.reference.setdefault(step.output, sha) != sha:
                self.tally.fail(f"{step.name}: {step.output} bytes changed between iterations")
        return runs

    def write_probe_inputs(self) -> None:
        for fname in self.wl.line_inputs:
            (self.dir / ("one-" + fname)).write_text(read_lines(self.dir / fname)[0] + "\n", encoding="utf-8")

    def line_run(self, threads: int | None, out: str) -> Run:
        """The per-line step writing to `out`; its bytes must equal the pipeline's."""
        step = self.wl.line_step
        run = self.command(_swap_output(step.argv, step.output, out),
                           f"{step.name} WEBLEX_THREADS={threads if threads is not None else 'default'}",
                           child_env(threads))
        if run.code == 0 and digest(self.dir / out) != self.reference.get(step.output):
            self.tally.fail(f"{step.name}: output differs at WEBLEX_THREADS={threads}")
        return run

    def verify(self) -> None:
        """Output checks made once per run, after the pipeline has run."""
        for why in CHECKS[self.wl.name](self.dir):
            self.tally.fail(why)
        if self.wl.threaded:
            self.line_run(1, "threads1.out")
        if self.pinned:
            pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.wl.name]
            for fname, sha in pinned.items():
                if self.reference.get(fname) != sha:
                    self.tally.fail(f"{fname}: sha256 {self.reference.get(fname)} is not the pinned {sha}")

    def describe(self, report) -> None:
        info = machine()
        report(f"# machine {info['machine']} x{info['cpus']}, {info['platform']}, "
               f"python {info['python']}, src/ {info['src_lines']} lines")
        report(f"# why {self.wl.name}: {self.wl.why}")
        for why in self.tally.errors:
            report(f"# FAILED {why}")
        if self.tally.errors:
            for line in (self.dir / "stderr.log").read_text(encoding="utf-8", errors="replace").splitlines()[-5:]:
                report(f"# stderr: {line}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {"correct": self.tally.failed == 0, "attempted": self.tally.attempted,
                "failed": self.tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def middle_mean(values) -> float:
    """Mean of the middle half of the values (the interquartile mean).

    As robust to a slow tail as the median, and steadier from run to run
    on the few samples a run has.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return fmean(ordered[cut:len(ordered) - cut])


def _keep_going(t0: float, last: float, seconds: float) -> bool:
    """Start another iteration only if one as long as the last fits in the time left."""
    return perf_counter() - t0 + last <= seconds


def measure(name: str, seed: int, seconds: float, sizes: dict | None = None, report=print) -> dict:
    """Tracing off: repeat the pipeline for `seconds`; end-to-end middle means."""
    with WorkloadRun(name, seed, sizes) as s:
        wl = s.wl
        iterations: list[tuple[float, list[Run]]] = []
        line_times: list[float] = []
        setup: list[float] = []
        t0 = perf_counter()
        while True:
            it_start = perf_counter()
            runs = s.pipeline()
            iterations.append((perf_counter() - it_start, runs))
            line_times.append(runs[wl.per_line].norm)
            for _ in range(THREADED_REPEATS if wl.threaded else 0):
                line_times.append(s.line_run(None, "again.out").norm)
            if len(iterations) == 1:
                s.write_probe_inputs()
            for _ in range(SETUP_PROBES):
                setup.append(s.command(wl.probe_argv(), "setup probe").wall)
            if not _keep_going(t0, perf_counter() - it_start, seconds):
                break
        s.verify()
        lines = len(read_lines(s.dir / wl.line_inputs[0]))
        per_step = [median(runs[i].norm for _, runs in iterations) for i in range(len(wl.steps))]
        metrics = {
            "wall_ref": middle_mean(sum(r.norm for r in runs) for _, runs in iterations),
            "build_ref": middle_mean(sum(r.norm for r, st in zip(runs, wl.steps) if st.build)
                                     for _, runs in iterations),
            "lines_per_ref": lines / middle_mean(line_times),
            "setup_s": min(setup),
            "peak_rss_mb": max(r.rss_mb for _, runs in iterations for r in runs),
            "success_rate": 1 - s.tally.failed / s.tally.attempted,
        }
        refs = [r.ref for _, runs in iterations for r in runs]
        report(f"# {name} seed={seed}: {len(iterations)} iterations in {perf_counter() - t0:.1f} s, "
               f"{lines} lines, {len(line_times)} per-line samples, {len(setup)} setup probes; 1 ref = median {median(refs) * 1e3:.2f} ms "
               f"(range {min(refs) * 1e3:.2f}-{max(refs) * 1e3:.2f})")
        report(f"#   median pipeline wall {median(wall for wall, _ in iterations):.3f} s")
        for i, (step, t) in enumerate(zip(wl.steps, per_step)):
            raw = median(runs[i].wall for _, runs in iterations)
            report(f"#   {step.name:<14} median {t:8.2f} ref {raw:.3f} s")
        s.describe(report)
        return s.result({k: (v, END_TO_END[k]) for k, v in metrics.items()})


def measure_traced(name: str, seed: int, seconds: float, sizes: dict | None = None, report=print) -> dict:
    """Tracing on: replay the pipeline in-process with spans; per-layer metrics."""
    with WorkloadRun(name, seed, sizes) as s:
        wl = s.wl
        s.pipeline()
        s.verify()
        passes: list[dict] = []
        t0 = perf_counter()
        while True:
            start = perf_counter()
            rec = Recorder(run=len(passes))
            for fname, data in replay.REPLAY[name](rec, s.dir).items():
                if hashlib.sha256(data).hexdigest() != s.reference.get(fname):
                    s.tally.fail(f"replay: {fname} differs from the CLI output")
            # the per-line command's library work with tracing on and off, and
            # the CLI at both thread counts; the order alternates between passes
            flip = len(passes) % 2
            stage = {}
            for traced in (not flip, bool(flip)):
                t = perf_counter()
                replay.PER_LINE[name](Recorder() if traced else NullRecorder(), s.dir)
                stage[traced] = perf_counter() - t
            cli = {threads: s.line_run(threads, "pool.out").wall for threads in ((None, 1), (1, None))[flip]}
            passes.append({"values": replay.layer_values(rec), "traced": stage[True],
                           "untraced": stage[False], "cli_default": cli[None], "cli_one": cli[1]})
            if not _keep_going(t0, perf_counter() - start, seconds):
                break

        def med(key: str) -> float:
            return median(p[key] for p in passes)

        values = {k: median(p["values"][k] for p in passes) for k in passes[0]["values"]}
        values.update(replay.input_properties(wl, s.dir))
        values["cli.overhead_s"] = med("cli_default") - med("untraced")
        values["cli.pool_speedup"] = med("cli_one") / med("cli_default")
        values["trace.overhead_share"] = (med("traced") - med("untraced")) / med("untraced")
        info = machine()
        values["repo.src_lines"] = info["src_lines"]

        trace_file = WORK / f"trace-{name}-seed{seed}.jsonl"
        meta = {"workload": name, "seed": seed, "why": wl.why, "passes": len(passes),
                "sizes": s.sizes, **info}
        with open(trace_file, "w", encoding="utf-8") as fh:
            rec.dump(fh, meta)
        report(f"# {name} seed={seed}: {len(passes)} traced passes; spans of the last in {trace_file}")
        for m in replay.LAYER_METRICS:
            moves = [e2e for e2e, wls in m["moves"].items() if name in wls]
            report(f"#   {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']:<6} "
                   f"moves: {', '.join(moves) or 'none'} on {name}")
        s.describe(report)
        return s.result({m["name"]: (values[m["name"]], m["unit"]) for m in replay.LAYER_METRICS})
