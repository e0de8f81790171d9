"""One workload in one fresh process: set up, run the timed loop, check.

Started by ``run.py``, which caps the BLAS/OpenMP thread count in the
environment before this process imports numpy. Prints ``ready`` once the
interpreter, numpy, cohbreak and the seeded corpus (with its JSON files)
are in place, so the parent can time set-up from process start to the
first timed job. With ``--setup-only`` it stops there.

The timed loop is a closed loop with one caller: each job starts when the
previous one returns. It runs whole passes over the corpus until the time
is up, so every run weighs the job mix the same. Outputs are checked
after each pass, with the clock stopped. With ``--trace 1`` further passes run with
every public function wrapped (see ``tracer.py``), and per-layer figures
are reported per pass. The result is one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
TRACE_SHARE = 0.25   # traced passes run for at least this share of --seconds
# The timed loop runs at least this many passes, so that the job at the tail
# percentile (10 jobs beyond it) is of the same kind on a slow host too.
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PATTERN_TESTS = ("classifiers.is_incoherent_kraus", "classifiers.is_sio", "classifiers.is_scbc")


def run_passes(jobs, seconds: float, first_pass: int, work: Path, spans=None,
               min_passes: int = 1):
    """Whole passes, at least `min_passes`, until `seconds` of timed job loop
    have elapsed.

    The loop is timed by the wall clock. A job's latency is the CPU time of
    this thread during the call: jobs are single-threaded (BLAS is capped at
    one thread), and on a shared host the wall-clock time of one job also
    holds the time the host kept the process off the CPU, which dominates
    the high percentiles.

    Each pass runs every job back to back under the clock; its outputs are
    then checked, and its output files removed, with the clock stopped, so
    memory and disk stay bounded by one pass. With a tracer, each job is
    also recorded as a root span around its call. Returns latencies, timed
    wall seconds, passes, failure reasons and summed check counters.
    """
    latencies, failures, counters = [], [], {}
    wall = 0.0
    passes = 0
    while passes < min_passes or wall < seconds:
        outputs = []
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            span = spans.begin_job(i) if spans else None
            t0 = time.thread_time()
            try:
                out = job.run(first_pass + passes)
            except Exception as exc:  # a failed job is counted, not fatal
                out = exc
            latencies.append(time.thread_time() - t0)
            if spans:
                spans.end_job(span)
            outputs.append(out)
        wall += time.perf_counter() - start
        passes += 1
        for job, out in zip(jobs, outputs):
            reason, extra = check(job, out)
            if reason is not None:
                failures.append(f"{job.label}: {reason}")
            for key, value in extra.items():
                counters[key] = counters.get(key, 0) + value
        shutil.rmtree(work / "out")
        (work / "out").mkdir()
    return latencies, wall, passes, failures, counters


def check(job, out) -> tuple[str | None, dict]:
    if isinstance(out, Exception):
        return f"raised {out!r}", {}
    try:
        return job.check(out)
    except Exception as exc:  # a crash while checking fails the job
        return f"check raised {exc!r}", {}


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def layer_metrics(summary: dict, counters: dict, passes: int) -> dict:
    functions = summary["functions"]
    out = {}
    modules: dict[str, list[float]] = {}
    for name, row in functions.items():
        module = name.split(".")[0]
        if module == "bench":
            continue
        out[f"{name}.calls"] = row["calls"] / passes
        out[f"{name}.self_s"] = row["self_s"] / passes
        totals = modules.setdefault(module, [0.0, 0.0])
        totals[0] += row["calls"]
        totals[1] += row["self_s"]
    for module, (calls, self_s) in modules.items():
        out[f"{module}.calls"] = calls / passes
        out[f"{module}.self_s"] = self_s / passes
    out["classifiers.pattern.self_s"] = sum(functions[n]["self_s"] for n in PATTERN_TESTS) / passes
    tests = counters.get("pattern_tests", 0)
    out["classifiers.canonical_retry_ratio"] = (
        counters.get("pattern_retries", 0) / tests if tests else 0.0)
    composes = functions["channels.compose"]["calls"]
    out["channels.compose.reextract_ratio"] = (
        summary["compose_reextractions"] / composes if composes else 0.0)
    out["concentration.samples"] = summary["kets"] / passes
    inclusive = summary["concentration_inclusive_s"]
    out["concentration.samples_per_s"] = summary["kets"] / inclusive if inclusive else 0.0
    out["dynamics.coherence_breaking_index.powers"] = counters.get("powers", 0) / passes
    return out


def blas_version(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f'{deps["blas"]["name"]} {deps["blas"]["version"]}'
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np

    import cohbreak
    if Path(cohbreak.__file__).resolve().parent != (src / "cohbreak").resolve():
        print(f"cohbreak imported from {cohbreak.__file__}, not {src}", file=sys.stderr)
        return 2
    import corpus
    import tracer

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    try:
        jobs = corpus.BUILDERS[args.workload](args.seed & (2**63 - 1), work)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        latencies, wall, passes, failures, _ = run_passes(jobs, args.seconds, 0, work,
                                                            min_passes=MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs_per_s = len(latencies) / wall
        tail, tail_pct = tail_latency(latencies)
        by_label: dict[str, list[float]] = {}
        for job, latency in zip(jobs * passes, latencies):
            by_label.setdefault(job.label, []).append(latency)
        result = {
            "jobs": len(latencies),
            "passes": passes,
            "corpus_jobs": len(jobs),
            "jobs_per_s": jobs_per_s,
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_tail_ms": 1e3 * tail,
            "tail_percentile": tail_pct,
            "peak_rss_mb": peak_rss_mb,
            "cpu_share": sum(latencies) / wall,
            "label_p50_ms": {label: 1e3 * statistics.median(v) for label, v in by_label.items()},
            "env": {
                "nproc": os.cpu_count(),
                "numpy": np.__version__,
                "blas": blas_version(np),
                "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            },
        }
        attempted = len(latencies)

        if args.trace:
            spans = tracer.Tracer()
            spans.install(cohbreak)
            try:
                t_lat, t_wall, t_passes, t_failures, counters = run_passes(
                    jobs, TRACE_SHARE * args.seconds, passes, work, spans)
            finally:
                spans.uninstall()
            summary = spans.summary()
            spans.save(OUT / f"{args.workload}.spans.npz", [job.label for job in jobs])
            layers = layer_metrics(summary, counters, t_passes)
            layers["trace.overhead_ratio"] = (len(t_lat) / t_wall) / jobs_per_s
            result.update(layers=layers, trace_passes=t_passes,
                          trace_functions=summary["functions"])
            attempted += len(t_lat)
            failures += t_failures
        result["attempted"] = attempted
        result["failed"] = len(failures)
        result["failures"] = failures[:10]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
