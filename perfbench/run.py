"""Benchmark for sftkit, run in-process on one of four workloads.

    python3 perfbench/run.py --workload cyclic_q --seed 1 --seconds 25 --trace 0

One process, no threads, no subprocesses.  The run

1. sets up ``SETUP_REPEATS`` times: imports ``sftkit.cli`` afresh (every
   ``sftkit`` and ``mpmath`` module is dropped from ``sys.modules`` first)
   and builds the workload's inputs from the seed; ``setup_s`` is the median;
2. runs one untimed warm-up job, then whole rounds of the workload's jobs
   until the timed work reaches ``--seconds``;
3. checks every output against answers computed outside sftkit (see
   ``oracles.py``), untimed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``spans.py``) with ``--trace 1``.
Each timing is a job's fastest time over the run's rounds, so a run of any
length reports the cost of one round; README.md says why and what each
metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
END_TO_END = {
    "wall_s": "s", "top_job_s": "s", "cmd_p50_s": "s", "cmd_p90_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Raised:
    """Stands for the output of an operation that raised."""

    error: str


def _purge():
    for name in [m for m in sys.modules if m.split(".")[0] in ("sftkit", "mpmath", "workloads")]:
        del sys.modules[name]


def setup(workload: str, seed: int):
    """Import sftkit and build the inputs SETUP_REPEATS times.

    Returns the last workload and the median import, input and total times.
    """
    imports, inputs, totals = [], [], []
    for _ in range(SETUP_REPEATS):
        _purge()
        start = time.perf_counter()
        importlib.import_module("sftkit.cli")
        imported = time.perf_counter()
        workloads = importlib.import_module("workloads")
        built_start = time.perf_counter()
        wl = workloads.build(workload, seed, ROOT, OUTDIR)
        done = time.perf_counter()
        imports.append(imported - start)
        inputs.append(done - built_start)
        totals.append(imported - start + done - built_start)
    med = statistics.median
    return wl, med(imports), med(inputs), med(totals)


def measure(wl, seconds: float, tracer=None):
    """Run whole rounds until the timed work reaches ``seconds``.

    Returns per-job time samples, round times, per job a Counter of output
    digests, and the peak resident set in MB after the first round.  Later
    rounds leave a few small objects (timings, digests) among the freed
    memory of each round, which keeps allocator arenas from being returned,
    so a later reading would grow with the number of rounds, not with the
    work of one round.
    """
    wl.warmup()
    samples = defaultdict(list)
    rounds = []
    digests = defaultdict(Counter)
    peak_rss_mb = None
    if tracer is not None:
        tracer.install()
    try:
        while True:
            outputs = []
            round_start = time.perf_counter()
            for job in wl.jobs:
                start = time.perf_counter()
                try:
                    out = job.run()
                except Exception as exc:  # counted as a failed operation
                    out = Raised(f"{type(exc).__name__}: {exc}")
                samples[job.name].append(time.perf_counter() - start)
                outputs.append(out)
            rounds.append(time.perf_counter() - round_start)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.end_round()
                tracer.uninstall()
            for job, out in zip(wl.jobs, outputs):
                digests[job.name][out if isinstance(out, Raised) else job.digest(out)] += 1
            del outputs
            if sum(rounds) >= seconds:
                break
            if tracer is not None:
                tracer.install()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return samples, rounds, digests, peak_rss_mb


def check(wl, digests):
    """Count (failed, wrong) operations; print each distinct fault to stderr.

    An operation fails when it raises or when its output is wrong.  Every
    distinct output of a job is checked once and counts for every operation
    that produced it.  A job whose output changes between rounds is wrong on
    every round that differs from its first.
    """
    failed = wrong = 0
    for job in wl.jobs:
        counts = digests[job.name]
        first = next(iter(counts))
        for digest, times in counts.items():
            if isinstance(digest, Raised):
                problem = None
                print(f"FAILED {job.name}: {digest.error}", file=sys.stderr)
            else:
                problem = job.check(digest)
                if problem is None and digest != first:
                    problem = f"{job.name}: output changed between rounds"
            if isinstance(digest, Raised) or problem is not None:
                failed += times
            if problem is not None:
                wrong += times
                print(f"WRONG {problem}", file=sys.stderr)
    return failed, wrong


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 by 10) of ``values``."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sftkit" / "__init__.py").is_file():
        print(f"error: no sftkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    wl, import_s, inputs_s, setup_s = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    samples, rounds, digests, peak_rss_mb = measure(wl, args.seconds, tracer)
    attempted = len(rounds) * len(wl.jobs)
    failed, wrong = check(wl, digests)

    best = [min(ts) for ts in samples.values()]  # each job's uncontended time
    if tracer is not None:
        metrics = tracer.per_layer(import_s, inputs_s)
        # wall_s under tracing, for the tracing overhead (README.md)
        print(f"traced wall_s {sum(best):.4f}", file=sys.stderr)
    else:
        values = {
            "wall_s": sum(best),
            "top_job_s": min(samples[wl.top]),
            "cmd_p50_s": quantile(best, 50),
            "cmd_p90_s": quantile(best, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
