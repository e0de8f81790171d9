"""cohbreak benchmark: one workload per call, end-to-end or traced metrics.

    python3 perfbench/run.py --workload classify-index --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload itself runs in a fresh worker
process (``worker.py``) with the BLAS/OpenMP thread count capped at 1.
Set-up time is measured from process start to the first timed job, in
that worker and in ``SETUP_PROBES`` more workers that stop after set-up;
the median is reported. Metric names, units and workloads come from
``BENCHMARK.json``. The last line of output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_CAP = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def start_worker(args, log, setup_only: bool, deadline: float):
    """Start a worker; return it with the seconds from start to its `ready` line."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **THREAD_CAP)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=log, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker exceeded the time limit") from None
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="cohbreak benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "cohbreak" / "__init__.py").is_file():
        print(f"no cohbreak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    log_path = out_dir / f"{args.workload}.stderr.log"
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            setups = []
            for _ in range(SETUP_PROBES):
                proc, ready = start_worker(args, log, True, deadline)
                finish(proc, deadline)
                if proc.returncode != 0:
                    raise RunError(f"set-up worker exited {proc.returncode}")
                setups.append(ready)
            proc, ready = start_worker(args, log, False, deadline)
            setups.append(ready)
            lines = finish(proc, deadline).strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RunError(f"worker exited {proc.returncode}")
            result = json.loads(lines[-1])
    except (RunError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}; see {log_path}", file=sys.stderr)
        return 1

    result["setup_s"] = statistics.median(setups)
    result["error_rate"] = result["failed"] / result["attempted"]
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  nproc {env['nproc']}  "
          f"numpy {env['numpy']}  {env['blas']}  threads {env['threads']}")
    print(f"  {result['jobs']} jobs in {result['passes']} passes of {result['corpus_jobs']}; "
          f"tail at p{result['tail_percentile']:.2f}; job CPU / loop wall "
          f"{result['cpu_share']:.3f}; set-up samples "
          + ", ".join(f"{s:.3f}" for s in setups))
    for name, unit in (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
                       ("peak_rss_mb", "MB"), ("setup_s", "s"), ("error_rate", "ratio")):
        print(f"  {name:12s} {result[name]:.6g} {unit}")
    print("  median latency per job kind:")
    for label, ms in sorted(result["label_p50_ms"].items(), key=lambda kv: kv[1]):
        print(f"    {ms:10.3f} ms  {label}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")

    if args.trace:
        ranked = sorted(result["trace_functions"].items(), key=lambda kv: -kv[1]["self_s"])
        print(f"  traced {result['trace_passes']} passes; self time per pass:")
        for name, row in ranked[:12]:
            print(f"    {name:45s} {row['self_s'] / result['trace_passes']:10.4f} s "
                  f"{row['calls'] / result['trace_passes']:10.0f} calls")
        declared, values = spec["per_layer"], result["layers"]
    else:
        declared, values = spec["end_to_end"], result
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
