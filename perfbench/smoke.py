"""Smoke check of the benchmark itself, on tiny inputs (a few seconds).

    python3 perfbench/smoke.py

For each workload, with tiny input sets: every output check passes with
tracing off and on, the metrics produced are exactly the ones that
BENCHMARK.json declares, one seed generates byte-identical inputs (the
set-up repeats compare them) and another seed generates different ones.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run


def tiny_sets(workloads) -> dict:
    return {
        "corpus_mixed": workloads.CorpusSet("corpus_mixed", n_figures=20),
        "dense_markers": workloads.InMemorySet("dense_markers", n_figures=2,
                                               n_points=500),
        "gridded_axes": workloads.InMemorySet("gridded_axes", n_figures=2,
                                              n_points=20, n_gridlines=40),
    }


def main() -> int:
    _, _, workloads = run._import_vecfig()
    sets = tiny_sets(workloads)
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            values, _, _, tally = run.collect(name, 1, 0.0, trace, sets[name])
            declared = set(run.declared_units(kind))
            if tally.failed or not tally.attempted:
                problems.append(f"{name} trace={int(trace)}: {tally.failed} of "
                                f"{tally.attempted} checks failed: "
                                f"{tally.first_failures}")
            if declared != set(values):
                problems.append(f"{name}: {kind} metrics differ from "
                                f"BENCHMARK.json: {sorted(declared ^ set(values))}")
        run.OUT.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=run.OUT, prefix="smoke-"))
        try:
            digests = []
            for seed in (1, 2):
                sets[name].generate(seed, scratch / str(seed))
                digests.append(workloads.tree_digest(scratch / str(seed)))
        finally:
            shutil.rmtree(scratch)
        if digests[0] == digests[1]:
            problems.append(f"{name}: seeds 1 and 2 generate identical inputs")
        print(f"{name}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
