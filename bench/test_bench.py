"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py

The smoke test runs every workload end to end at a reduced sample size;
compress still builds its cold threshold tables three times, so the whole
file takes about two and a half minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = 0.01


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracing.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", "0", "--scale", str(SMALL))
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert "error_rate" in proc.stdout and "meta " in proc.stdout


# A per-layer counter each workload must drive.
BUSY_LAYER = {
    "chunk_verify": "verify.mc.trials",
    "compress": "compressor.table_build.calls",
    "walks": "energy.draw.calls",
    "info_cost": "infotheory.icost.calls",
}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", "1", "--scale", str(SMALL))
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [(n, u) for n, u, _ in tracing.PER_LAYER]
    assert metrics[BUSY_LAYER[workload]]["value"] > 0
    if workload == "compress":
        # One replay per simulate_noiseless call; the checks' own replays
        # of every transcript are not traced.
        assert metrics["core.replay.calls"]["value"] == metrics["compressor.sample.calls"]["value"]


def test_traced_counts_cover_the_sample_whatever_the_seconds():
    counts = []
    for seconds in ("0", "2"):
        proc = bench("--workload", "walks", "--seed", "5", "--seconds", seconds,
                     "--trace", "1", "--scale", str(SMALL))
        assert proc.returncode == 0, proc.stderr
        metrics = last_json(proc.stdout)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["energy.ubrw.steps"] > 0


def sample(workload: str, seed: int) -> tuple:
    streams = np.random.SeedSequence(seed).spawn(len(WORKLOADS))
    wl = WORKLOADS[workload](streams[list(WORKLOADS).index(workload)], SMALL)
    wl.setup()
    result = worker.timed_phase(wl, 0.0, None)  # runs exactly the sample
    m = result["metrics"]
    checks = [(c["name"], c["passed"]) for c in result["checks"]]
    return (m["bits_per_op"], m["bits_per_round"], m["energy_per_op"]), checks


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_and_checks_repeat_at_a_seed_and_move_with_it(workload):
    counts, checks = sample(workload, 7)
    assert sample(workload, 7) == (counts, checks)
    assert all(passed for _, passed in checks)
    assert sample(workload, 8)[0] != counts


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "walks", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_speed_scale_maps_the_reference_loop_time_to_one():
    assert speed.scale(speed.REFERENCE_S) == pytest.approx(1.0)
    # A machine running the loop at half speed reports half its seconds.
    assert speed.scale(speed.REFERENCE_S, 3 * speed.REFERENCE_S) == pytest.approx(0.5)
    # One second at reference speed, then two seconds at half speed.
    readings = [(0.0, speed.REFERENCE_S), (1.0, speed.REFERENCE_S), (3.0, 3 * speed.REFERENCE_S)]
    assert speed.scale_over(readings) == pytest.approx((1.0 + 2.0 * 0.5) / 3.0)
