"""The names the benchmark's tracer and workloads call in the library.

`bench/tracing.py` patches library functions by name and binds their
arguments by keyword, so renaming or removing one breaks the traced
benchmark run.  This test installs the tracer on freshly imported modules in
a child interpreter (the patches are process-wide) and makes the calls the
workloads make.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from bsclab import compressor, core, energy, infotheory, verify

tracer = tracing.Tracer()
tracing.install(tracer, core, compressor, energy, infotheory, verify)
eps, gamma = 0.1, 20
params = compressor.ChunkParams.for_advantage(
    eps, gamma=gamma, t=compressor.minimal_t(gamma, eps, gamma * (0.5 - 3 * eps))
)
spec = core.seeded_spec(gamma, 41)
ledger = core.CostLedger()
rng = core.RandomSource.for_trial(12345, 1)
leaf = compressor.simulate_chunk(spec, 0, 1, "", params, rng, ledger, {})
verify.monte_carlo_chunk(params, spec, 0, 1, 4, base_seed=12345)
compressor.simulate_noiseless(core.constant_spec(40), 0, 0, eps, core.RandomSource(3))
energy.sample_with_prior(0.3, 0.2, 64, core.RandomSource(4), core.CostLedger())
# The compress workload's alpha-ceiling check.
t = compressor.default_t(eps)
alpha = max(1.0 / compressor.DEFAULT_BETA**2, 50.0 * t * t + 10.0)
# The info_cost op on a variable-noise table protocol.
heap = ["", "0", "1", "00", "01", "10", "11"]
parties = (core.ALICE, core.BOB)
bits = {p: {o: dict.fromkeys(heap, 0.25 + 0.5 * int(o)) for o in "01"} for p in parties}
cross = {p: {o: dict.fromkeys(heap, 0.125) for o in "01"} for p in parties}
pi = core.table_spec(3, bits, (0, 1), (0, 1), crossover_table=cross)
mu = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
phi = energy.noiseless_from_noisy(pi, mu)
ic = infotheory.external_info_cost(phi, mu)
ec = energy.expected_energy_cost(pi, mu)
_, _, run = core.run_over_bsc(pi, 1, 0, None, core.RandomSource(5))
# The walks workload's replay set-up and run, and the tracer's draw regions.
joint = infotheory.FiniteJoint.from_protocol(phi, mu).table
transcript, _ = energy.noisy_from_noiseless(phi, mu, 16).run(0, 1, core.RandomSource(6))
q_rounded = energy.BitWithPrior(0.3, 0.2, 64).q_rounded
print(json.dumps({
    "leaf": leaf, "bits": ledger.bits_sent, "counts": dict(tracer.counts),
    "alpha": alpha, "gamma": compressor.default_gamma(eps),
    "ic": [ic.bits, ic.chain_bits, ic.divergence_bits], "ec": ec,
    "run": [run.bits_sent, run.energy], "joint": sum(joint.values()),
    "transcript": transcript, "q_rounded": q_rounded, "spans": sorted(set(tracer.names)),
}))
"""


def test_traced_library_calls():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert len(out["leaf"]) == 20 and out["bits"] > 0
    assert out["alpha"] > 64 and out["gamma"] == 100
    counts = out["counts"]
    assert counts["compressor.table_build.classes"] > 0
    assert counts["compressor.sample.bits"] > 0
    assert counts["compressor.high.accepted"] + counts.get("compressor.low.accepted", 0) == 5
    assert counts["compressor.threshold_rounds"] > 0
    assert counts["core.replay.rounds"] > 0
    assert counts["verify.mc.trials"] == 4
    assert max(out["ic"]) - min(out["ic"]) < 1e-9 and out["ec"] > 0.0
    assert out["run"][0] == 3 and out["run"][1] > 0.0
    assert abs(out["joint"] - 1.0) < 1e-12 and len(out["transcript"]) == 3
    assert 0.0 < out["q_rounded"] <= 0.5
    assert counts["infotheory.nodes"] > 0
    for span in (
        "infotheory.icost",
        "energy.expected_energy",
        "core.bsc_run",
        "infotheory.joint",
        "energy.replay",
    ):
        assert span in out["spans"], span
