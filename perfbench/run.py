"""vecfig benchmark: seeded synthetic figures through vecfig's public API.

    python3 perfbench/run.py --workload dense_markers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller runs a closed loop: the next figure starts when the previous one
returns.  Every output is checked against the generated ground truth.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics from a traced run.  End-to-end times are corrected to a
reference host speed (hostspeed.py).  Lines before the result, starting
with ``#``, give the environment, every metric with the wall time behind a
corrected one (``raw``), and the metrics that BENCHMARK.json does not bound.
``--workload all`` runs every workload in its own process.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("corpus_mixed", "dense_markers", "gridded_axes")
SETUP_REPEATS = 11
IMPORT_REPEATS = 11  # fresh interpreters whose import time is measured
PROBE_EVERY_S = 0.25  # longest stretch of extract_figure calls between probes
# Each corpus pass takes latencies from a fifth of the figures, a different
# fifth each time, so that a run holds more run_project passes to take the
# median of.
CORPUS_LATENCY_EVERY = 5
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def _import_vecfig():
    """Import vecfig from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vecfig
    if Path(vecfig.__file__).resolve().parent != (SRC / "vecfig").resolve():
        raise ImportError(f"vecfig imported from {vecfig.__file__}, not {SRC}")
    from vecfig import evaluate, pipeline
    import workloads
    return pipeline, evaluate, workloads


def workload_sets(workloads):
    """The input set of each workload (one pass of the traced run)."""
    return {
        "corpus_mixed": workloads.CorpusSet("corpus_mixed", n_figures=300),
        "dense_markers": workloads.InMemorySet("dense_markers", n_figures=4,
                                               n_points=20_000),
        "gridded_axes": workloads.InMemorySet("gridded_axes", n_figures=6,
                                              n_points=50, n_gridlines=500),
    }


# ---------------------------------------------------------------------------
# environment

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checkout's git commit; outside a work tree, a SHA-256 of src/vecfig."""
    try:
        # the ceiling keeps git from finding a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              capture_output=True, text=True, timeout=30,
                              check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((SRC / "vecfig").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "platform": platform.platform(),
            "vecfig_commit": _commit(), "seed": seed}


# ---------------------------------------------------------------------------
# measurement

@contextlib.contextmanager
def one_cpu():
    """Run this process, and the processes it starts, on one CPU only.

    Other tenants of a shared host slow each vCPU by a different amount, so
    a speed probe corrects only work that ran on the CPU it ran on.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@dataclass
class Tally:
    """Operations attempted and failed; each failure names its figure."""
    attempted: int = 0
    failed: int = 0
    first_failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)


def _go_on(deadline: float, last: float) -> bool:
    """Start another step when it would end closer to the deadline."""
    return time.perf_counter() + 0.5 * last < deadline


Timing = tuple[float, float]  # (raw seconds, seconds at the reference speed)


class Bench:
    def __init__(self, name: str, seed: int, work: Path, tracer=None,
                 input_set=None) -> None:
        self.pipeline, self.evaluate, self.workloads = _import_vecfig()
        self.speed = HostSpeed()
        self.name = name
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.set = input_set or workload_sets(self.workloads)[name]
        self.tally = Tally()
        self.figures = []
        self.project = None

    def timed(self, fn, *args, **kwargs) -> tuple[object, Timing]:
        """Call ``fn`` between two host speed probes; returns (result, timing)."""
        before = self.speed.measure()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        factor = (before + self.speed.measure()) / 2
        return result, (elapsed, elapsed * factor)

    # -- set-up ------------------------------------------------------------

    def setup_once(self, root: Path) -> None:
        """Generate inputs, scan the project and warm up."""
        from vecfig.synth import SyntheticSpec
        self.figures = self.set.generate(self.seed, root / "inputs")
        if self.name == "corpus_mixed":
            self.project = self.pipeline.scan_project(root / "inputs")
        svg, _ = self.workloads.synth.generate_scatter_svg(SyntheticSpec(n_points=50))
        (root / "warmup.svg").write_bytes(svg)
        self.pipeline.extract_figure(root / "warmup.svg")

    def import_time(self) -> Timing:
        """Median time to import this benchmark and vecfig in a fresh interpreter.

        The import of this process alone is one sample, which spread too
        much between runs.
        """
        code = ("import time; t = time.perf_counter(); import run; "
                "run._import_vecfig(); print(time.perf_counter() - t)")
        timings = []
        for _ in range(IMPORT_REPEATS):
            proc, (raw, ref) = self.timed(
                subprocess.run, [sys.executable, "-c", code], cwd=HERE,
                capture_output=True, text=True, timeout=60, check=True)
            seconds = float(proc.stdout)
            timings.append((seconds, seconds * ref / raw))
        return (statistics.median(t[0] for t in timings),
                statistics.median(t[1] for t in timings))

    def setup(self) -> Timing:
        """Set up SETUP_REPEATS times; the last inputs are used.  Median timing.

        The repeats also check that one seed generates byte-identical inputs.
        Earlier repeats are deleted at once, before the kernel writes them
        back, so that they never reach the disk (see ``corpus_pass``), and
        each repeat starts after a sync, so that it does not pay for the
        deletions before it.
        """
        timings, digests = [], []
        for i in range(SETUP_REPEATS):
            root = self.work / f"setup-{i}"
            os.sync()
            timings.append(self.timed(self.setup_once, root)[1])
            digests.append(self.workloads.tree_digest(root / "inputs"))
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(root)
        self.tally.check(len(set(digests)) == 1, "same seed, different inputs")
        return (statistics.median(t[0] for t in timings),
                statistics.median(t[1] for t in timings))

    # -- operations ----------------------------------------------------------

    def extract(self, figure) -> float:
        """One checked ``extract_figure`` call; returns its seconds."""
        if self.tracer:
            self.tracer.set_figure(figure.id)
        start = time.perf_counter()
        points, _, report = self.pipeline.extract_figure(figure.path)
        elapsed = time.perf_counter() - start
        self.tally.check(self.workloads.points_by_id_ok(
            figure, report.status.value, points), f"extract {figure.id}")
        return elapsed

    def extract_all(self, figures) -> list[Timing]:
        """Each of ``figures`` once, with a host speed probe every PROBE_EVERY_S.

        Each stretch of calls is corrected by the probes on either side of
        it; one pair of probes around a whole corpus pass tracked the host
        too coarsely.
        """
        timings: list[Timing] = []
        stretch: list[float] = []
        before = self.speed.measure()
        for i, fig in enumerate(figures):
            stretch.append(self.extract(fig))
            if sum(stretch) >= PROBE_EVERY_S or i + 1 == len(figures):
                after = self.speed.measure()
                timings.extend((r, r * (before + after) / 2) for r in stretch)
                stretch, before = [], after
        return timings

    def corpus_pass(self, score: bool = True) -> tuple[Timing, Timing | None, int]:
        """``run_project`` into a fresh directory, then score it if asked.

        Returns (run_project timing, scoring timing, figures scored).
        """
        from vecfig.config import DEFAULT_CONFIG
        from vecfig.pipeline import DEFAULT_FIGURE_FILTER
        out = Path(tempfile.mkdtemp(dir=self.work, prefix="out-"))
        # Start each pass with the journal committed and no dirty pages left
        # by earlier steps, and delete the outputs before writeback, so that
        # they never reach the disk.  Without the sync, run_project ran about
        # 25% slower; with every pass written back and deleted only at exit,
        # it slowed by up to 30% from run to run over ten consecutive runs.
        os.sync()
        try:
            reports, run_t = self.timed(self.pipeline.run_project, self.project,
                                        DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
            verdicts = self._check_run(reports, out)
            if not score:
                return run_t, None, 0
            (records, agg), score_t = self.timed(
                self.evaluate.evaluate_output_tree, out, self.project.root)
            self._check_scores(records, agg, verdicts)
            return run_t, score_t, len(records)
        finally:
            shutil.rmtree(out)

    def _check_run(self, reports, out: Path) -> dict[str, bool]:
        """Check every figure's status and CSV; returns figure id -> correct."""
        by_tree = {r.tree_id: r for r in reports}
        verdicts = {}
        for fig in self.figures:
            report = by_tree.get(fig.id)
            ok = report is not None and self.workloads.output_dir_ok(
                fig, report.status.value,
                out / fig.path.parent.relative_to(self.project.root))
            self.tally.check(ok, f"run_project {fig.id}")
            verdicts[fig.id] = ok and fig.expected_status == "ok"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        want = {}
        for fig in self.figures:
            want[fig.expected_status] = want.get(fig.expected_status, 0) + 1
        got = {k: v for k, v in summary["statuses"].items() if v}
        self.tally.check(summary["n_figures"] == len(self.figures) and got == want,
                         "summary.json")
        return verdicts

    def _check_scores(self, records, agg, verdicts: dict[str, bool]) -> None:
        """Scores must agree with the benchmark's own verdict, figure by figure."""
        scored = {r.figure_id: r.x_axis_correct and r.y_axis_correct
                  for r in records}
        for fig in self.figures:
            self.tally.check(scored.get(f"{fig.id}/figure1") == verdicts[fig.id],
                             f"score {fig.id}")
        self.tally.check(len(records) == len(self.figures)
                         and agg["n_figures"] == len(self.figures)
                         and agg["n_both_axes_correct"] == sum(verdicts.values()),
                         "evaluation aggregate")

    def one_pass(self, score: bool = True
                 ) -> tuple[Timing, Timing | None, int, list[Timing]]:
        """One pass over the input set.

        Returns (timing, scoring timing, figures scored, single-call
        timings); the corpus pass makes no single-figure calls.
        """
        if self.name == "corpus_mixed":
            return (*self.corpus_pass(score), [])
        calls = self.extract_all(self.figures)
        return (sum(c[0] for c in calls), sum(c[1] for c in calls)), None, 0, calls

    # -- timed phases --------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict, dict]:
        """Passes over the input set until the deadline.

        A pass runs every figure once: through ``run_project`` on the corpus
        (followed there by single-figure calls on a rotating
        1/CORPUS_LATENCY_EVERY of the files, which give the latencies; the
        first pass is also scored), and through
        ``extract_figure`` calls on the others.  ``figures_per_s`` is the
        median over passes of figures ÷ seconds in those calls;
        ``figure_p50_ms`` is the median over all single-figure calls.  Both
        use times at the reference host speed (hostspeed.py).  Returns
        (metrics, raw metrics, info).
        """
        deadline = time.perf_counter() + seconds
        rates: list[Timing] = []
        calls: list[Timing] = []
        info: dict = {}
        last = 0.0
        while not rates or _go_on(deadline, last):
            began = time.perf_counter()
            run_t, score_t, scored, pass_calls = self.one_pass(score=not rates)
            if score_t:
                info["score_figures_per_s"] = (scored / score_t[1], "ref_fig/s")
                info["score_figures_per_s_raw"] = (scored / score_t[0], "fig/s")
            if self.name == "corpus_mixed":
                first = len(rates) % CORPUS_LATENCY_EVERY
                pass_calls = self.extract_all(
                    self.figures[first::CORPUS_LATENCY_EVERY])
            calls.extend(pass_calls)
            rates.append((len(self.figures) / run_t[0], len(self.figures) / run_t[1]))
            last = time.perf_counter() - began
        info["passes"] = (len(rates), "count")
        info["host_speed_median"] = (statistics.median(self.speed.factors), "x reference")
        info["latency_samples"] = (len(calls), "count")
        tail = tail_percentile([c[1] for c in calls])
        if tail is None:
            info["figure_tail_ms"] = ("omitted: fewer than "
                                      f"{2 * TAIL_BEYOND} figures", "")
        else:
            pct, value, beyond = tail
            info["figure_tail_ms"] = (value * 1e3, "ref_ms")
            info["figure_tail_percentile"] = (pct, "%")
            info["figure_tail_beyond"] = (beyond, "count")
        def medians(i: int) -> dict:  # i = 0: raw, 1: at the reference speed
            return {"figures_per_s": statistics.median(r[i] for r in rates),
                    "figure_p50_ms": statistics.median(c[i] for c in calls) * 1e3}
        return medians(1), medians(0), info

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Alternate untraced and traced passes over the input set."""
        deadline = time.perf_counter() + seconds
        plain: list[float] = []
        traced: list[float] = []
        scored, score_s = 0, 0.0
        last = 0.0
        while not traced or _go_on(deadline, last):
            began = time.perf_counter()
            # alternate which side goes first, so warm-up favours neither
            for side in ((plain, traced) if len(traced) % 2 == 0 else (traced, plain)):
                if side is plain:
                    run_t, score_t, n, _ = self.one_pass()
                    plain.append(run_t[1])
                    if score_t:
                        scored += n
                        score_s += score_t[0]
                    continue
                self.tracer.phase = "pass"
                self.tracer.install()
                try:
                    traced.append(self.one_pass()[0][1])
                finally:
                    self.tracer.uninstall()
            last = time.perf_counter() - began
        metrics = spans.layer_metrics(self.tracer.spans, len(traced),
                                      SETUP_REPEATS)
        metrics["evaluate.score_figures_per_s"] = scored / score_s if score_s else 0.0
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
        metrics["trace.figures_per_pass"] = len(self.figures)
        info = {"passes": (len(traced), "count"),
                "spans": (len(self.tracer.spans), "count"),
                "host_speed_median": (statistics.median(self.speed.factors),
                                      "x reference")}
        if self.tracer.missing:
            info["not_traced"] = (",".join(self.tracer.missing), "")
        return metrics, info


def tail_percentile(samples: list[float]) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, nearest-rank value, samples beyond), or None when
    that percentile would not be above the median.
    """
    n = len(samples)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n) if n else 0
    if pct <= 50:
        return None
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(samples)[rank - 1], n - rank


# ---------------------------------------------------------------------------
# entry points

def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def collect(name: str, seed: int, seconds: float, trace: bool,
            input_set=None) -> tuple[dict, dict, dict, Tally]:
    """Set up and measure one workload; returns (values, raw, info, tally).

    ``raw`` holds the wall times behind the values that are corrected to the
    reference host speed (empty when traced).

    ``input_set`` replaces the workload's input set (the smoke check uses
    tiny ones).  The work directory is removed before returning.
    """
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"work-{name}-"))
    try:
        tracer = spans.Tracer(name) if trace else None
        bench = Bench(name, seed, work, tracer, input_set)
        # flush earlier runs' writes now, so that their writeback does not
        # take CPU time from this run's timed phases
        os.sync()
        if tracer:
            tracer.install()
        try:
            with one_cpu():
                setup_raw, setup_ref = bench.setup()
        finally:
            if tracer:
                tracer.uninstall()
        if trace:
            values, info = bench.traced(seconds)
            raw = {}
            spans_file = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_jsonl(spans_file)
            info["spans_file"] = (spans_file.relative_to(ROOT).as_posix(), "")
        else:
            values, raw, info = bench.end_to_end(seconds)
            with one_cpu():
                import_raw, import_ref = bench.import_time()
            values["setup_s"] = import_ref + setup_ref
            raw["setup_s"] = import_raw + setup_raw
            values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                     .ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    info["failed_frac"] = (bench.tally.failed / bench.tally.attempted, "fraction")
    return values, raw, info, bench.tally


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    values, raw, info, tally = collect(name, seed, seconds, trace)
    units = declared_units("per_layer" if trace else "end_to_end")
    print("# env " + json.dumps(environment(seed), sort_keys=True))
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for key in sorted(values):
        print(f"# {key} = {values[key]!r} {units.get(key, '(undeclared)')}"
              + (f" (raw {raw[key]!r})" if key in raw else ""))
    for key, (value, unit) in info.items():
        print(f"# info {key} = {value} {unit}".rstrip())
    for failure in tally.first_failures:
        print(f"# FAILED {failure}")
    # a metric object holds only value and unit; the wall times behind the
    # corrected values are on the "#" lines above, marked "raw"
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        code = code or proc.returncode
        results[name] = None
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print("# workload               metric                     value")
    for name, result in results.items():
        for key, m in (result or {"metrics": {}})["metrics"].items():
            print(f"# {name:22} {key:26} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results), flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
