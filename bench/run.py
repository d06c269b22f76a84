"""bsclab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload chunk_verify --seed 1 --seconds 10 --trace 0

With --trace 0 the run starts SETUP_SAMPLES fresh interpreters one after
another; each pays the cold set-up (imports, threshold tables, exact DP,
input generation) and setup_s is their median.  The last one then runs the
timed phase, whose end-to-end metrics are reported.  With --trace 1 it runs
one traced interpreter and reports its per-layer metrics, with the tracing
overhead estimated inside it.  Interpreters never overlap, and
BSCLAB_WORKERS process fan-out is deliberately not measured: scaling
figures on two shared cores would not be reliable.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report and a `meta` line.  The exit status is 0 exactly when every op and
every oracle check passed.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("chunk_verify", "compress", "walks", "info_cost")
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (name, unit) of every end-to-end metric printed in the final JSON line.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("bits_per_op", "bits"),
    ("bits_per_round", "bits/round"),
    ("energy_per_op", "energy"),
    ("peak_rss_mb", "MB"),
]
# Reported in the readable lines only: it is 0 on a healthy run, and the
# final line carries it as failed / attempted.
ERROR_RATE = ("error_rate", "fraction")


class RunError(RuntimeError):
    pass


def run_worker(args, role: str, trace: int, deadline: float) -> tuple[float, float, dict | None]:
    """Run worker.py once; returns (seconds from spawn to READY, the
    set-up's speed factor, result)."""
    env = {k: v for k, v in os.environ.items() if k != "BSCLAB_WORKERS"}
    env.update(THREAD_ENV)
    cmd = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--role", role,
        "--scale", str(args.scale),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready = factor = None
    last = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = time.perf_counter() - started
                factor = float(line.split()[1])
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RunError(f"worker ({role}, trace {trace}) exited with status {proc.returncode}")
    if role == "setup":
        return ready, factor, None
    if last is None:
        raise RunError("worker printed no result")
    return ready, factor, json.loads(last)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def meta(args, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        **versions,
        "git_commit": git_commit(),
        "thread_env": THREAD_ENV,
        "speed_reference_loop_ms": speed.REFERENCE_S * 1e3,
        "setup_samples": SETUP_SAMPLES if not args.trace else 1,
        "bsclab_workers": "not measured: the benchmark runs the library in one "
        "process and never sets BSCLAB_WORKERS",
    }


def measure(args, deadline: float) -> tuple[dict, dict]:
    setups = [run_worker(args, "setup", 0, deadline)[:2] for _ in range(SETUP_SAMPLES - 1)]
    ready, factor, result = run_worker(args, "measure", 0, deadline)
    setups.append((ready, factor))
    result["metrics"]["setup_s"] = statistics.median(r * f for r, f in setups)
    result["setup_samples_s"] = setups
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    return result, metrics


def trace(args, deadline: float) -> tuple[dict, dict]:
    ready, _, result = run_worker(args, "measure", 1, deadline)
    layer = result["per_layer"]
    layer.update(tracing.setup_shares(result["setup_self"], ready))
    layer["trace.setup_s"] = ready
    layer["trace.setup_overhead_share"] = tracing.ratio(result["setup_overhead_s"], ready)
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    return result, metrics


def report(args, result: dict, metrics: dict) -> None:
    print(f"bsclab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {'traced' if args.trace else 'untraced'}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        tail = result["tail"]
        print(f"  op_tail_ms is p{tail['percentile']:g}: {tail['beyond']} of "
              f"{tail['samples']} latency samples lie beyond it")
        print("  setup_s samples (wall clock s x speed factor): "
              + ", ".join(f"{r:.4f} x {f:.3f}" for r, f in result["setup_samples_s"]))
        wall, sp = result["wall_clock"], result["speed"]
        print(f"  wall clock: {wall['ops_per_s']:.6g} ops/s, op_p50_ms {wall['op_p50_ms']:.6g}, "
              f"op_tail_ms {wall['op_tail_ms']:.6g} over {wall['timed_s']:.2f} s")
        print(f"  speed loop: median {sp['loop_ms_median']:.4f} ms against "
              f"{speed.REFERENCE_S * 1e3:g} ms; block factors {sp['scale_min']:.3f} to "
              f"{sp['scale_max']:.3f} over {sp['blocks']} blocks")
        name, unit = ERROR_RATE
        print(f"  {name:34s} {result['metrics'][name]:>16.6g} {unit} "
              f"({result['failed_ops']} failed ops + {result['failed_checks']} failed checks "
              f"/ {result['attempted']} attempted)")
    for c in result["checks"]:
        print(f"  check {'PASS' if c['passed'] else 'FAIL'}: {c['name']}: {c['detail']}")
    print("meta " + json.dumps(meta(args, result["versions"]), sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply each workload's sample size (the tests use a small one)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bsclab", "__init__.py")):
        print(f"bench: no bsclab sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if not 0.0 < args.scale <= 1.0:
        ap.error("--scale must be in (0, 1]")

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        result, metrics = (trace if args.trace else measure)(args, deadline)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(args, result, metrics)
    failed = result["failed_ops"] + result["failed_checks"]
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
