"""Span tracer for the traced benchmark run.

The traced run wraps the public functions of each bsclab layer from here,
patching each name where its caller looks it up (a module global or a class
attribute), so the library itself is unchanged.  Every wrapped call records
one span (name, start, end, parent span, phase) in memory; counters
such as walk steps or charged bits are read off the call's arguments and
return value.  Spans and counters are recorded only in the set-up phase and
over the workload's fixed sample (the first `prefix_cycles` cycles of the
timed phase); the cycles after the sample and the benchmark's own checks
are not recorded, so every metric covers the same work however fast the
machine is.  `Tracer.summary` folds the spans into the per-layer metrics
when the run ends: calls and inclusive seconds per span name (outermost call
only, so recursion is not double counted) and self time per layer, where a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("core", "compressor", "energy", "infotheory", "verify")
PHASES = ("setup", "timed")
DRAW_REGIONS = ("p_le_2q", "small_q", "climb")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.rng_setup.calls", "count", "lower"),
    ("core.rng_setup.s", "s", "lower"),
    ("core.replay.calls", "count", "lower"),
    ("core.replay.rounds", "count", "lower"),
    ("core.replay.s", "s", "lower"),
    ("core.prefix_prob.calls", "count", "lower"),
    ("core.prefix_prob.s", "s", "lower"),
    ("core.bsc_run.calls", "count", "lower"),
    ("core.bsc_run.s", "s", "lower"),
    ("compressor.table_build.calls", "count", "lower"),
    ("compressor.table_build.classes", "count", "lower"),
    ("compressor.table_build.s", "s", "lower"),
    ("compressor.sample.calls", "count", "lower"),
    ("compressor.sample.s", "s", "lower"),
    ("compressor.sample.bits", "bits", "lower"),
    ("compressor.high.proposals", "count", "lower"),
    ("compressor.high.accept_ratio", "fraction", "higher"),
    ("compressor.low.proposals", "count", "lower"),
    ("compressor.low.accept_ratio", "fraction", "higher"),
    ("compressor.threshold_rounds", "count", "lower"),
    ("energy.draw.calls", "count", "lower"),
    ("energy.draw.s", "s", "lower"),
    *[
        (f"energy.draw.{region}.{field}", unit, better)
        for region in DRAW_REGIONS
        for field, unit, better in (("calls", "count", "lower"), ("s", "s", "lower"))
    ],
    ("energy.ubrw.calls", "count", "lower"),
    ("energy.ubrw.steps", "count", "lower"),
    ("energy.ubrw.s", "s", "lower"),
    ("energy.brw.calls", "count", "lower"),
    ("energy.brw.steps", "count", "lower"),
    ("energy.brw.s", "s", "lower"),
    ("energy.walk.steps_per_s", "1/s", "higher"),
    ("energy.replay.runs", "count", "lower"),
    ("energy.replay.s", "s", "lower"),
    ("energy.posterior.calls", "count", "lower"),
    ("energy.posterior.s", "s", "lower"),
    ("energy.expected_energy.calls", "count", "lower"),
    ("energy.expected_energy.s", "s", "lower"),
    ("infotheory.icost.calls", "count", "lower"),
    ("infotheory.icost.s", "s", "lower"),
    ("infotheory.joint.calls", "count", "lower"),
    ("infotheory.joint.s", "s", "lower"),
    ("infotheory.nodes", "count", "lower"),
    ("verify.mc.trials", "count", "lower"),
    ("verify.mc.s", "s", "lower"),
    ("verify.mc.failed", "count", "lower"),
    ("verify.exact.s", "s", "lower"),
    *[
        (f"share.{phase}.{layer}", "fraction", "lower")
        for phase in PHASES
        for layer in (*LAYERS, "other")
    ],
    ("trace.setup_s", "s", "lower"),
    ("trace.sample_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.span_us", "us", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.setup_overhead_share", "fraction", "lower"),
]

# Span names whose calls and inclusive seconds are reported as <name>.calls
# and <name>.s; the other metrics above are derived in `Tracer.summary`.
_TIMED_SPANS = (
    "core.rng_setup",
    "core.replay",
    "core.prefix_prob",
    "core.bsc_run",
    "compressor.table_build",
    "compressor.sample",
    "energy.ubrw",
    "energy.brw",
    "energy.posterior",
    "energy.expected_energy",
    "infotheory.icost",
    "infotheory.joint",
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.phases: list[str] = []
        self.outermost: list[bool] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.recording = True
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def enter(self, phase: str) -> None:
        """Switch phase between units; only PHASES are recorded."""
        self.phase = phase
        self.recording = phase in PHASES

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.phases.append(self.phase)
        self.outermost.append(self._open[name] == 0)
        self.ends.append(0.0)
        self._open[name] += 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[idx]] -= 1

    def summary(self, sample_wall: float) -> tuple[dict[str, float], dict[str, float]]:
        """Fold the spans into the per-layer metrics.

        Returns the metrics and the set-up phase's self seconds per layer;
        `setup_shares` turns the latter into shares once the set-up wall
        time from process start is known.  Time in the sample
        (`sample_wall` seconds) that no span covers is layer `other`.
        """
        n = len(self.names)
        covered = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                covered[self.parents[i]] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            self_time[(self.phases[i], name.split(".", 1)[0])] += duration - covered[i]
            if self.outermost[i]:
                calls[name] += 1
                inclusive[name] += duration

        out: dict[str, float] = {}
        for name in _TIMED_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
        for region in DRAW_REGIONS:
            out[f"energy.draw.{region}.calls"] = calls[f"energy.draw.{region}"]
            out[f"energy.draw.{region}.s"] = inclusive[f"energy.draw.{region}"]
        out["energy.draw.calls"] = sum(out[f"energy.draw.{r}.calls"] for r in DRAW_REGIONS)
        out["energy.draw.s"] = sum(out[f"energy.draw.{r}.s"] for r in DRAW_REGIONS)
        out["energy.replay.runs"] = calls["energy.replay"]
        out["energy.replay.s"] = inclusive["energy.replay"]
        out["verify.mc.s"] = inclusive["verify.mc"]
        out["verify.exact.s"] = inclusive["verify.exact"]
        walk_s = out["energy.ubrw.s"] + out["energy.brw.s"]
        out["energy.walk.steps_per_s"] = ratio(
            self.counts["energy.ubrw.steps"] + self.counts["energy.brw.steps"], walk_s
        )
        for key in (
            "core.replay.rounds",
            "compressor.table_build.classes",
            "compressor.sample.bits",
            "compressor.high.proposals",
            "compressor.low.proposals",
            "compressor.threshold_rounds",
            "energy.ubrw.steps",
            "energy.brw.steps",
            "infotheory.nodes",
            "verify.mc.trials",
            "verify.mc.failed",
        ):
            out[key] = self.counts[key]
        for branch in ("high", "low"):
            out[f"compressor.{branch}.accept_ratio"] = ratio(
                self.counts[f"compressor.{branch}.accepted"],
                self.counts[f"compressor.{branch}.proposals"],
            )
        out.update(_shares("timed", {l: self_time[("timed", l)] for l in LAYERS}, sample_wall))
        out["trace.spans"] = n
        return out, {layer: self_time[("setup", layer)] for layer in LAYERS}

    def spans_in(self, phase: str) -> int:
        return self.phases.count(phase)


def setup_shares(setup_self: dict[str, float], setup_wall: float) -> dict[str, float]:
    return _shares("setup", setup_self, setup_wall)


def _shares(phase: str, self_time: dict[str, float], wall: float) -> dict[str, float]:
    out = {f"share.{phase}.{layer}": ratio(self_time[layer], wall) for layer in LAYERS}
    out[f"share.{phase}.other"] = ratio(wall - sum(self_time.values()), wall)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _wrap(tracer: Tracer, name: str, fn, count=None):
    """Span around `fn`; `count(result, args, kwargs)` runs on the outermost
    call of a recursion only."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if count is not None and tracer.outermost[idx]:
            count(result, args, kwargs)
        return result

    return wrapper


def span_cost(batches: int = 7, calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call.

    Times a no-op wrapped like the traced functions (with a counter that
    binds its arguments, as most counters do) against the bare no-op, in
    alternating batches on a scratch tracer, and returns the median
    difference per call.  Both halves of a batch run back to back in the
    same process, so the machine's slow speed drift cancels out of the
    difference, which it does not between two separate interpreters.
    """

    def noop(a, b=None):
        return a

    sig = inspect.signature(noop)
    diffs = []
    for _ in range(batches):
        scratch = Tracer()
        scratch.enter("timed")
        traced = _wrap(scratch, "calibrate", noop, lambda r, a, k: _arg(sig, a, k, "a"))
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1)
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind(*args, **kwargs).arguments[name]


def install(tracer: Tracer, core, compressor, energy, infotheory, verify) -> None:
    """Patch the traced names in the given bsclab modules.

    Benchmark code must call the library through these module attributes
    (for example `verify.monte_carlo_chunk`) so its calls are traced too.
    """
    c = tracer.counts

    core.RandomSource.__init__ = _wrap(tracer, "core.rng_setup", core.RandomSource.__init__)

    def count_rounds(rounds):
        def count(result, args, kwargs):
            c["core.replay.rounds"] += rounds(args, kwargs)

        return count

    sig_count_errors = inspect.signature(verify.count_errors)

    def count_errors_rounds(args, kwargs):
        spec = _arg(sig_count_errors, args, kwargs, "spec")
        party = _arg(sig_count_errors, args, kwargs, "party")
        return (spec.rounds + 1) // 2 if party == core.ALICE else spec.rounds // 2

    sig_apply = inspect.signature(compressor.apply_flip_pattern)
    sig_flip = inspect.signature(core.flip_pattern)
    verify.count_errors = _wrap(
        tracer, "core.replay", verify.count_errors, count_rounds(count_errors_rounds)
    )
    compressor.apply_flip_pattern = _wrap(
        tracer,
        "core.replay",
        compressor.apply_flip_pattern,
        count_rounds(lambda a, k: len(_arg(sig_apply, a, k, "pattern"))),
    )
    core.flip_pattern = _wrap(
        tracer,
        "core.replay",
        core.flip_pattern,
        count_rounds(lambda a, k: _arg(sig_flip, a, k, "spec").rounds),
    )
    energy.prefix_probability = _wrap(tracer, "core.prefix_prob", energy.prefix_probability)
    core.run_over_bsc = _wrap(tracer, "core.bsc_run", core.run_over_bsc)

    sig_table = inspect.signature(compressor.threshold_table)

    def count_classes(result, args, kwargs):
        half = _arg(sig_table, args, kwargs, "half")
        c["compressor.table_build.classes"] += (half + 1) ** 2

    compressor.threshold_table = _wrap(
        tracer, "compressor.table_build", compressor.threshold_table, count_classes
    )

    # simulate_chunk charges a caller-supplied ledger; supply one if absent
    # so the bits it charges can be read back.  The branch counters come
    # from its public `record` argument when the caller passes one, as
    # monte_carlo_chunk does.  Supplying a record where the caller passed
    # none would make the high branch do extra bookkeeping, so
    # simulate_noiseless, which exposes no record, reports no branch counts.
    simulate_chunk = compressor.simulate_chunk
    sig_chunk = inspect.signature(simulate_chunk)

    @functools.wraps(simulate_chunk)
    def traced_chunk(*args, **kwargs):
        if not tracer.recording:
            return simulate_chunk(*args, **kwargs)
        bound = sig_chunk.bind(*args, **kwargs)
        ledger = bound.arguments.get("ledger")
        if ledger is None:
            ledger = bound.arguments["ledger"] = core.CostLedger()
        record = bound.arguments.get("record")
        before = ledger.bits_sent
        idx = tracer.begin("compressor.sample")
        try:
            result = simulate_chunk(*bound.args, **bound.kwargs)
        finally:
            tracer.finish(idx)
            c["compressor.sample.bits"] += ledger.bits_sent - before
        if record is not None:
            branch = "high" if record.get("branch") == 1 else "low"
            c[f"compressor.{branch}.proposals"] += record.get("rounds", 0)
            c[f"compressor.{branch}.accepted"] += 1
            c["compressor.threshold_rounds"] += record.get("threshold_rounds", 0)
        return result

    compressor.simulate_chunk = traced_chunk

    def count_noiseless_bits(result, args, kwargs):
        c["compressor.sample.bits"] += result[1].bits_sent

    compressor.simulate_noiseless = _wrap(
        tracer, "compressor.sample", compressor.simulate_noiseless, count_noiseless_bits
    )

    # sample_with_prior reduces q > 1/2 by symmetry and calls itself again
    # through the module global, so only the reduced call gets a span.
    sample = energy.sample_with_prior

    regions: dict = {}

    @functools.wraps(sample)
    def traced_sample(p, q, n_i, rng, ledger):
        if q > 0.5 or not tracer.recording:
            return sample(p, q, n_i, rng, ledger)
        key = (p, q, n_i)
        if key not in regions:
            regions[key] = draw_region(energy, p, q, n_i)
        idx = tracer.begin("energy.draw." + regions[key])
        try:
            return sample(p, q, n_i, rng, ledger)
        finally:
            tracer.finish(idx)

    energy.sample_with_prior = traced_sample

    def count_steps(key):
        def count(result, args, kwargs):
            c[key] += result.steps

        return count

    energy.unbiased_walk = _wrap(
        tracer, "energy.ubrw", energy.unbiased_walk, count_steps("energy.ubrw.steps")
    )
    energy.brw_to_top = _wrap(
        tracer, "energy.brw", energy.brw_to_top, count_steps("energy.brw.steps")
    )
    energy.NoisySimulation.run = _wrap(tracer, "energy.replay", energy.NoisySimulation.run)
    energy.posterior_q = _wrap(tracer, "energy.posterior", energy.posterior_q)
    energy.expected_energy_cost = _wrap(
        tracer, "energy.expected_energy", energy.expected_energy_cost
    )

    infotheory.external_info_cost = _wrap(
        tracer, "infotheory.icost", infotheory.external_info_cost
    )

    def count_nodes(result, args, kwargs):
        c["infotheory.nodes"] += len(result.table)

    infotheory.FiniteJoint.from_protocol = staticmethod(
        _wrap(tracer, "infotheory.joint", infotheory.FiniteJoint.from_protocol, count_nodes)
    )

    sig_mc = inspect.signature(verify.monte_carlo_chunk)

    def count_trials(result, args, kwargs):
        c["verify.mc.trials"] += _arg(sig_mc, args, kwargs, "n_trials")
        c["verify.mc.failed"] += len(result.failures)

    verify.monte_carlo_chunk = _wrap(
        tracer, "verify.mc", verify.monte_carlo_chunk, count_trials
    )
    verify.exact_chunk_distribution = _wrap(
        tracer, "verify.exact", verify.exact_chunk_distribution
    )


def draw_region(energy, p: float, q: float, n_i: int) -> str:
    """Dispatch region of sample_with_prior for a prior q <= 1/2."""
    q_rounded = energy.BitWithPrior(p, q, n_i).q_rounded
    if p <= 2.0 * q_rounded:
        return "p_le_2q"
    if q_rounded < 0.01:
        return "small_q"
    return "climb"
