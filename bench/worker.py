"""One benchmark process: set a workload up, time it, check it, report.

run.py starts this script in a fresh interpreter per sample, with the BLAS
thread pools pinned to one thread, so that module caches start cold.  It
prints READY and the set-up's speed factor when set-up is done (run.py
timestamps that line to measure set-up from process start) and, with
--role measure, then runs the timed phase and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import sys
import time
import traceback

import speed

# Set-up is scaled by the speed loop timed before the heavy imports, after
# them and at the end of set-up (see speed.py).
SETUP_LOOPS = [(time.perf_counter(), speed.loop_s())]

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np
import scipy

from bsclab import compressor, core, energy, infotheory, verify

import tracing
from tracing import ratio
from workloads import WORKLOADS

SETUP_LOOPS.append((time.perf_counter(), speed.loop_s()))

# Untraced runs time the speed loop between blocks of units this long.
BLOCK_S = 0.05
# Percentiles op_tail_ms may report; see tail_percentile.
TAIL_LADDER = (50, 90, 95, 99, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile leaving at least MIN_BEYOND samples above it.

    It is computed from the sample size every run is guaranteed to reach
    (the workload's sample cycles), so a workload always reports the same
    percentile however fast the machine is.
    """
    fitting = [p for p in TAIL_LADDER if samples * (100 - p) / 100 >= MIN_BEYOND]
    return max(fitting) if fitting else TAIL_LADDER[0]


def timed_phase(wl, seconds: float, tracer) -> dict:
    """Run the sample, then keep cycling until `seconds` have passed.

    Untraced, the speed loop runs between blocks of units at least BLOCK_S
    long, and each block's unit times are scaled by the loop timings at its
    two ends (see speed.py).  Traced runs skip the loop, so that it does
    not show in the layer shares, and report no timing metrics.
    """
    calibrate = tracer is None
    unit_s: list[tuple[float, int, int]] = []  # (seconds, ops, block) of each unit
    loops = [speed.loop_s()] if calibrate else []
    kept = []
    ops = failed = 0
    sample_ops = sample_rounds = sample_bits = 0
    sample_energy = 0.0
    k = 0
    sample_s = None
    start = block_start = time.perf_counter()
    while k < wl.prefix_cycles or time.perf_counter() - start < seconds:
        in_sample = k < wl.prefix_cycles
        if not in_sample and sample_s is None:
            sample_s = time.perf_counter() - start
            if tracer is not None:
                tracer.enter("rest")
        for j, unit in enumerate(wl.cycle(k)):
            ops += unit.ops
            t0 = time.perf_counter()
            try:
                out = unit.run()
            except Exception:  # a failed op is counted, and the run goes on
                failed += unit.ops
                traceback.print_exc(file=sys.stderr)
                continue
            unit_s.append((time.perf_counter() - t0, unit.ops, max(len(loops) - 1, 0)))
            done, bits, charged, unit_failed = wl.account(out)
            failed += unit_failed
            if in_sample:
                kept.append((k, j, out))
                sample_ops += done
                sample_rounds += unit.rounds * done // unit.ops
                sample_bits += bits
                sample_energy += charged
            if calibrate and time.perf_counter() - block_start >= BLOCK_S:
                loops.append(speed.loop_s())
                block_start = time.perf_counter()
        k += 1
    wall = time.perf_counter() - start
    if sample_s is None:
        sample_s = wall
    if calibrate:
        loops.append(speed.loop_s())
        factors = [speed.scale(a, b) for a, b in zip(loops, loops[1:])]
    else:
        factors = [1.0]
    if tracer is not None:
        tracer.enter("checks")
    checks = [dataclasses.asdict(c) for c in wl.checks(kept)]
    failed_checks = sum(c["failures"] for c in checks)

    pct = tail_percentile(wl.prefix_cycles * wl.units_per_cycle)

    def timings(scales: list[float]) -> tuple[np.ndarray, dict]:
        lat_ms = np.array([t * scales[b] / n for t, n, b in unit_s]) * 1e3
        busy = sum(t * scales[b] for t, _, b in unit_s)
        return lat_ms, {
            "ops_per_s": ratio(sum(n for _, n, _ in unit_s), busy),
            "op_p50_ms": float(np.median(lat_ms)) if lat_ms.size else 0.0,
            "op_tail_ms": float(np.percentile(lat_ms, pct)) if lat_ms.size else 0.0,
        }

    lat_ms, metrics = timings(factors)
    return {
        "attempted": ops,
        "failed_ops": failed,
        "failed_checks": failed_checks,
        "checks": checks,
        "sample_s": sample_s,
        "wall_clock": {"timed_s": wall, **timings([1.0] * len(factors))[1]},
        "speed": {
            "blocks": len(factors),
            "loop_ms_median": float(np.median(loops)) * 1e3 if loops else 0.0,
            "scale_min": min(factors),
            "scale_max": max(factors),
        },
        "tail": {
            "percentile": pct,
            "beyond": int(np.count_nonzero(lat_ms > metrics["op_tail_ms"])),
            "samples": int(lat_ms.size),
        },
        "metrics": {
            **metrics,
            "bits_per_op": ratio(sample_bits, sample_ops),
            "bits_per_round": ratio(sample_bits, sample_rounds),
            "energy_per_op": wl.energy_per_op(sample_energy, sample_ops),
            "error_rate": (failed + failed_checks) / ops,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, core, compressor, energy, infotheory, verify)
    streams = np.random.SeedSequence(args.seed).spawn(len(WORKLOADS))
    index = list(WORKLOADS).index(args.workload)
    wl = WORKLOADS[args.workload](streams[index], args.scale)
    wl.setup()
    # run.py multiplies the set-up time it measures by this factor.
    SETUP_LOOPS.append((time.perf_counter(), speed.loop_s()))
    print(f"READY {speed.scale_over(SETUP_LOOPS)!r}", flush=True)
    if args.role == "setup":
        return 0
    # The inputs built in set-up live for the whole run (info_cost holds
    # ~120 protocol tables); keep the collector from re-traversing them on
    # every collection the timed ops trigger, a cost of the benchmark's
    # input pool rather than of the library.
    gc.collect()
    gc.freeze()

    if tracer is not None:
        tracer.enter("timed")
    result = timed_phase(wl, args.seconds, tracer)
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        # run.py turns setup_self and setup_overhead_s into shares of the set-up
        # time it measured from process start, which includes the imports.
        layer, result["setup_self"] = tracer.summary(result["sample_s"])
        cost = tracing.span_cost()
        layer["trace.sample_s"] = result["sample_s"]
        layer["trace.span_us"] = cost * 1e6
        layer["trace.overhead_share"] = ratio(
            tracer.spans_in("timed") * cost, result["sample_s"]
        )
        result["per_layer"] = layer
        result["setup_overhead_s"] = tracer.spans_in("setup") * cost
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
