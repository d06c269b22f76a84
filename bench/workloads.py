"""The benchmark's four workloads: inputs, timed units and oracle checks.

Each workload turns one `SeedSequence` into its inputs and an endless,
deterministic schedule of cycles.  A cycle is a fixed list of units; a unit
is one call into the library covering one or more ops.  The first
`prefix_cycles` cycles are the workload's sample: the count metrics (bits,
energy) and the oracle checks use exactly those, so they repeat exactly at a
fixed seed whatever the machine's speed.  The timed phase runs at least the
sample and keeps cycling until the requested seconds have passed.

The library is always called through its module attributes (for example
`verify.monte_carlo_chunk`), so the traced run's patches see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bsclab import compressor, core, energy, infotheory, verify

SIGNIFICANCE = 0.001  # chi-square level used by the acceptance suite
DP_TOLERANCE = 1e-10  # class DP against the product-binomial law
ROUTE_TOLERANCE = 1e-9  # information-cost route agreement and IC <= EC / ln 2
ENERGY_RATIO_LIMIT = 200.0  # criterion 08's divergence-scale energy bound


@dataclass
class Unit:
    """One timed library call: `run()` returns the output that `account`
    and the checks read."""

    ops: int
    rounds: int
    run: Callable[[], Any]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str
    failures: int = 0


def check(name: str, passed: bool, detail: str, failures: int | None = None) -> Check:
    if failures is None:
        failures = 0 if passed else 1
    return Check(name, bool(passed), detail, failures)


class SeedStream:
    """Endless stream of distinct 64-bit seeds drawn from one SeedSequence."""

    def __init__(self, seq: np.random.SeedSequence, block: int = 4096):
        self._seq = seq
        self._block = block
        self._buffer: list[int] = []

    def next(self) -> int:
        if not self._buffer:
            (child,) = self._seq.spawn(1)
            self._buffer = child.generate_state(self._block, np.uint64).tolist()[::-1]
        return self._buffer.pop()


class Workload:
    name = ""
    prefix_cycles = 1
    units_per_cycle = 1

    def __init__(self, seq: np.random.SeedSequence, scale: float = 1.0):
        self.inputs_seq, self.warm_seq = seq.spawn(2)
        self.prefix_cycles = max(1, round(type(self).prefix_cycles * scale))

    def setup(self) -> None:
        """Build inputs and run one warm-up cycle on a separate seed stream."""
        raise NotImplementedError

    def cycle(self, k: int) -> list[Unit]:
        raise NotImplementedError

    def account(self, out) -> tuple[int, int, float, int]:
        """(ops completed, bits charged, energy charged, ops failed) of a unit."""
        raise NotImplementedError

    def checks(self, kept: list[tuple[int, int, Any]]) -> list[Check]:
        """Oracle checks over the sample: (cycle, unit index, output) triples."""
        raise NotImplementedError

    def energy_per_op(self, sample_energy: float, sample_ops: int) -> float:
        """Energy per op over the sample, from the ledgers `account` read;
        called after `checks`."""
        return sample_energy / sample_ops if sample_ops else 0.0


# ---------------------------------------------------------------------------
# chunk_verify: many tiny chunks, one fresh RandomSource per trial
# ---------------------------------------------------------------------------


class ChunkVerify(Workload):
    """Gamma-20 chunk trials through verify.monte_carlo_chunk.

    A unit is one monte_carlo_chunk call of BATCH trials; with one trial per
    call, the call's own bookkeeping would nearly double a 0.3 ms trial.
    Each call gets a fresh 64-bit base seed, so batches never share trials.

    monte_carlo_chunk keeps each trial's ledger to itself, so the checks
    rerun the trials of every REPLAY_EVERY-th batch of the sample, untimed,
    through simulate_chunk with the same per-trial seeds and their own
    ledgers: each rerun must charge exactly the bits monte_carlo_chunk
    reported, and energy_per_op is read from those ledgers.
    """

    name = "chunk_verify"
    prefix_cycles = 3750
    BATCH = 8
    GAMMA = 20
    EPSILON = 0.1
    REPLAY_EVERY = 8

    def setup(self) -> None:
        gamma, eps = self.GAMMA, self.EPSILON
        self.params = compressor.ChunkParams.for_advantage(
            eps, gamma=gamma, t=compressor.minimal_t(gamma, eps, gamma * (0.5 - 3 * eps))
        )
        self.spec = core.seeded_spec(gamma, 41)
        self.expected = verify.exact_chunk_distribution(self.params)
        self.dp_diff = float(
            np.max(np.abs(self.expected - verify.class_law(self.params.half, eps)))
        )
        self.seeds = SeedStream(self.inputs_seq)
        self.base_seeds: dict[int, int] = {}
        self.replay_energy = 0.0
        warm = SeedStream(self.warm_seq)
        verify.monte_carlo_chunk(self.params, self.spec, 0, 1, self.BATCH, base_seed=warm.next())

    def cycle(self, k: int) -> list[Unit]:
        seed = self.seeds.next()
        if k < self.prefix_cycles:
            self.base_seeds[k] = seed
        return [
            Unit(
                self.BATCH,
                self.BATCH * self.GAMMA,
                lambda: verify.monte_carlo_chunk(
                    self.params, self.spec, 0, 1, self.BATCH, base_seed=seed
                ),
            )
        ]

    def account(self, res):
        # Energy comes from the replayed ledgers; see energy_per_op.
        return res.n_trials, int(res.bits.sum()), 0.0, len(res.failures)

    def replay(self, kept) -> tuple[int, int, float]:
        """(trials rerun, bit mismatches, energy charged) over every
        REPLAY_EVERY-th batch of the sample."""
        trials = mismatches = 0
        charged = 0.0
        for k, _, res in kept:
            if k % self.REPLAY_EVERY:
                continue
            failed = {int(f.split(":", 1)[0].split()[1]) for f in res.failures}
            reported = iter(res.bits.tolist())
            for i in range(self.BATCH):
                if i in failed:
                    continue
                ledger = core.CostLedger()
                compressor.simulate_chunk(
                    self.spec, 0, 1, "", self.params,
                    core.RandomSource.for_trial(self.base_seeds[k], i), ledger, {},
                )
                trials += 1
                mismatches += ledger.bits_sent != next(reported)
                charged += ledger.energy
        return trials, mismatches, charged

    def energy_per_op(self, sample_energy, sample_ops):
        return self.replay_energy

    def checks(self, kept):
        counts = sum(res.counts for _, _, res in kept)
        gof = verify.chi_square_gof(counts, self.expected)
        trials, mismatches, charged = self.replay(kept)
        self.replay_energy = charged / trials if trials else 0.0
        return [
            check(
                "class DP = product binomial",
                self.dp_diff <= DP_TOLERANCE,
                f"max |diff| {self.dp_diff:.3g} <= {DP_TOLERANCE:g}",
            ),
            check(
                "chunk law chi-square",
                gof.p_value >= SIGNIFICANCE,
                f"p {gof.p_value:.4g} >= {SIGNIFICANCE:g} over {gof.sample_size} trials",
            ),
            check(
                "rerun trials charge the reported bits",
                trials > 0 and mismatches == 0,
                f"{mismatches} of {trials} rerun trials differ",
                mismatches if trials else 1,
            ),
        ]


# ---------------------------------------------------------------------------
# compress: few large chunks at canonical gamma across an epsilon ladder
# ---------------------------------------------------------------------------


class Compress(Workload):
    """simulate_noiseless on a constant protocol at eps 0.1, 0.08 and 0.06.

    Canonical gamma and default t; each call covers CHUNKS chunks and each
    cycle visits every rung once.  Cold threshold tables dominate set-up.
    """

    name = "compress"
    prefix_cycles = 180
    RUNGS = (0.1, 0.08, 0.06)
    CHUNKS = 2
    units_per_cycle = len(RUNGS)

    def setup(self) -> None:
        self.rungs = []
        for eps in self.RUNGS:
            gamma = compressor.default_gamma(eps)
            spec = core.constant_spec(self.CHUNKS * gamma)
            self.rungs.append((eps, gamma, spec))
        self.seeds = SeedStream(self.inputs_seq)
        warm = SeedStream(self.warm_seq)
        for eps, _, spec in self.rungs:
            compressor.simulate_noiseless(spec, 0, 0, eps, core.RandomSource(warm.next()))

    def cycle(self, k: int) -> list[Unit]:
        units = []
        for eps, gamma, spec in self.rungs:
            seed = self.seeds.next()
            units.append(
                Unit(
                    self.CHUNKS,
                    self.CHUNKS * gamma,
                    lambda eps=eps, spec=spec, seed=seed: compressor.simulate_noiseless(
                        spec, 0, 0, eps, core.RandomSource(seed)
                    ),
                )
            )
        return units

    def account(self, out):
        _, ledger = out
        return self.CHUNKS, ledger.bits_sent, ledger.energy, 0

    def checks(self, kept):
        results = []
        for j, (eps, gamma, spec) in enumerate(self.rungs):
            half = gamma // 2
            counts = np.zeros((half + 1, half + 1), dtype=np.int64)
            bits = []
            for _, unit, (transcript, ledger) in kept:
                if unit != j:
                    continue
                pattern = core.flip_pattern(spec, 0, 0, transcript)
                for c in range(self.CHUNKS):
                    chunk = pattern[c * gamma : (c + 1) * gamma]
                    counts[int(chunk[0::2].sum()), int(chunk[1::2].sum())] += 1
                bits.append(ledger.bits_sent)
            gof = verify.chi_square_gof(counts, verify.class_law(half, eps))
            results.append(
                check(
                    f"eps {eps:g} chunk law chi-square",
                    gof.p_value >= SIGNIFICANCE,
                    f"p {gof.p_value:.4g} >= {SIGNIFICANCE:g} over {gof.sample_size} chunks",
                )
            )
            # Criterion 03's expected-communication ceiling, loose by design.
            t = compressor.default_t(eps)
            alpha = max(1.0 / compressor.DEFAULT_BETA**2, 50.0 * t * t + 10.0)
            ceiling = alpha * math.ceil(eps**2 * 2 * spec.rounds)
            mean_bits = float(np.mean(bits))
            results.append(
                check(
                    f"eps {eps:g} alpha ceiling",
                    mean_bits <= ceiling,
                    f"mean bits/run {mean_bits:.4g} <= {ceiling:.4g}",
                )
            )
        return results


# ---------------------------------------------------------------------------
# walks: prior-guided draws and noisy replays of noiseless protocols
# ---------------------------------------------------------------------------


def ecub_battery() -> list[tuple[str, core.ProtocolSpec]]:
    """The three two-round protocols of the info-to-energy criterion."""
    mixed = core.table_spec(
        2,
        {
            "alice": {"0": {"": 0.25}, "1": {"": 0.75}},
            "bob": {"0": {"0": 0.125, "1": 0.125}, "1": {"0": 0.875, "1": 0.875}},
        },
        (0, 1),
        (0, 1),
    )
    skewed = core.table_spec(
        2,
        {
            "alice": {"0": {"": 0.0}, "1": {"": 1.0}},
            "bob": {"0": {"0": 0.98, "1": 0.98}, "1": {"0": 1.0, "1": 1.0}},
        },
        (0, 1),
        (0, 1),
    )
    return [
        ("send-inputs", core.xor_spec(2, noise=0.0)),
        ("mixed-coins", mixed),
        ("skewed-prior", skewed),
    ]


class Walks(Workload):
    """One draw per criterion-08 (p, q) pair and one replay per ecub protocol
    in every cycle.  No compressor code runs here."""

    name = "walks"
    prefix_cycles = 3000
    PAIRS = ((0.3, 0.2), (0.25, 0.25), (0.01, 0.002), (0.6, 0.25), (0.05, 0.005))
    N_I = 512
    REPLAY_N = 256
    LEAVES = ("00", "01", "10", "11")
    units_per_cycle = len(PAIRS) + 3

    def setup(self) -> None:
        seeds = SeedStream(self.inputs_seq)
        self.pair_rngs = [core.RandomSource(seeds.next()) for _ in self.PAIRS]
        self.replays = []
        for name, phi in ecub_battery():
            mu = infotheory.uniform_inputs(phi)
            joint = infotheory.FiniteJoint.from_protocol(phi, mu)
            law = np.array(
                [sum(pr for (_, _, t), pr in joint.table.items() if t == leaf) for leaf in self.LEAVES]
            )
            pairs = list(mu)
            weights = np.array([mu[pair] for pair in pairs])
            sim = energy.noisy_from_noiseless(phi, mu, self.REPLAY_N)
            self.replays.append(
                {
                    "name": name,
                    "sim": sim,
                    "law": law,
                    "pairs": pairs,
                    "weights": weights,
                    "inputs": np.random.default_rng(seeds.next()),
                    "rng": core.RandomSource(seeds.next()),
                }
            )
        warm = SeedStream(self.warm_seq)
        for p, q in self.PAIRS:
            energy.sample_with_prior(p, q, self.N_I, core.RandomSource(warm.next()), core.CostLedger())
        for rep in self.replays:
            for x, y in rep["pairs"]:
                rep["sim"].run(x, y, core.RandomSource(warm.next()))

    def cycle(self, k: int) -> list[Unit]:
        units = [
            Unit(1, 1, lambda p=p, q=q, rng=rng: self._draw(p, q, rng))
            for (p, q), rng in zip(self.PAIRS, self.pair_rngs)
        ]
        for rep in self.replays:
            x, y = rep["pairs"][rep["inputs"].choice(len(rep["pairs"]), p=rep["weights"])]
            units.append(Unit(1, 2, lambda rep=rep, x=x, y=y: rep["sim"].run(x, y, rep["rng"])))
        return units

    def _draw(self, p, q, rng):
        ledger = core.CostLedger()
        return energy.sample_with_prior(p, q, self.N_I, rng, ledger), ledger

    def account(self, out):
        _, ledger = out
        return 1, ledger.bits_sent, ledger.energy, 0

    def checks(self, kept):
        results = []
        eps_i = 1.0 / (2 * self.N_I)
        by_unit: dict[int, list] = {}
        for _, unit, out in kept:
            by_unit.setdefault(unit, []).append(out)
        for j, (p, q) in enumerate(self.PAIRS):
            draws = by_unit.get(j, [])
            n = len(draws)
            mean = sum(bit for bit, _ in draws) / n
            sigma = math.sqrt(p * (1 - p) / n)
            total_energy = sum(ledger.energy for _, ledger in draws)
            results.append(
                check(
                    f"({p:g},{q:g}) mean within 3 sigma",
                    abs(mean - p) <= 3 * sigma,
                    f"|{mean:.4f} - {p:g}| <= {3 * sigma:.4f} over {n} draws",
                )
            )
            ratio = (total_energy / n) / (infotheory.kl_bernoulli(p, q) + eps_i)
            results.append(
                check(
                    f"({p:g},{q:g}) energy ratio",
                    ratio <= ENERGY_RATIO_LIMIT,
                    f"{ratio:.4g} <= {ENERGY_RATIO_LIMIT:g}",
                )
            )
            if p == q:
                results.append(
                    check(
                        f"({p:g},{q:g}) zero energy",
                        total_energy == 0.0,
                        f"total energy {total_energy:g} == 0",
                    )
                )
        for i, rep in enumerate(self.replays):
            runs = by_unit.get(len(self.PAIRS) + i, [])
            counts = np.zeros(len(self.LEAVES), dtype=np.int64)
            for transcript, _ in runs:
                counts[self.LEAVES.index(transcript)] += 1
            gof = verify.chi_square_gof(counts, rep["law"])
            results.append(
                check(
                    f"{rep['name']} transcript law chi-square",
                    gof.p_value >= SIGNIFICANCE,
                    f"p {gof.p_value:.4g} >= {SIGNIFICANCE:g} over {gof.sample_size} runs",
                )
            )
        return results


# ---------------------------------------------------------------------------
# info_cost: exact information and energy of random variable-noise protocols
# ---------------------------------------------------------------------------


class InfoCost(Workload):
    """Random 2x2-input variable-noise table protocols at 10, 11 and 12 rounds.

    Each op builds the noiseless replay, computes the external information
    cost by all three routes and the exact expected energy, and runs the
    protocol once over the channel for its ledger cost.  The instances are
    generated in set-up, one per (cycle, round count) of the sample; later
    cycles revisit them.
    """

    name = "info_cost"
    prefix_cycles = 40
    ROUNDS = (10, 11, 12)
    units_per_cycle = len(ROUNDS)

    def setup(self) -> None:
        self.prefixes = {r: _prefixes(r) for r in self.ROUNDS}
        root = self.inputs_seq
        self.pool = [
            [self._instance(np.random.default_rng(seq), r) for seq, r in zip(root.spawn(3), self.ROUNDS)]
            for _ in range(self.prefix_cycles)
        ]
        for seq, rounds in zip(self.warm_seq.spawn(3), self.ROUNDS):
            self._op(self._instance(np.random.default_rng(seq), rounds))

    def _instance(self, gen: np.random.Generator, rounds: int) -> dict:
        prefixes = self.prefixes[rounds]
        bits: dict = {}
        crossovers: dict = {}
        for party in (core.ALICE, core.BOB):
            bits[party] = {}
            crossovers[party] = {}
            for own in ("0", "1"):
                bits[party][own] = dict(zip(prefixes, gen.random(len(prefixes)).tolist()))
                crossovers[party][own] = dict(
                    zip(prefixes, (0.5 * gen.random(len(prefixes))).tolist())
                )
        pi = core.table_spec(rounds, bits, (0, 1), (0, 1), crossover_table=crossovers)
        pairs = [(x, y) for x in pi.alice_inputs for y in pi.bob_inputs]
        weights = gen.random(len(pairs)) + 0.05
        weights /= weights.sum()
        mu = {pair: float(w) for pair, w in zip(pairs, weights)}
        x, y = pairs[gen.choice(len(pairs), p=weights)]
        seed = int(gen.integers(0, 2**63))
        return {"pi": pi, "mu": mu, "x": x, "y": y, "seed": seed}

    def _op(self, inst: dict):
        pi, mu = inst["pi"], inst["mu"]
        phi = energy.noiseless_from_noisy(pi, mu)
        ic = infotheory.external_info_cost(phi, mu)
        ec = energy.expected_energy_cost(pi, mu)
        _, _, ledger = core.run_over_bsc(pi, inst["x"], inst["y"], None, core.RandomSource(inst["seed"]))
        return ic, ec, ledger

    def cycle(self, k: int) -> list[Unit]:
        return [
            Unit(1, inst["pi"].rounds, lambda inst=inst: self._op(inst))
            for inst in self.pool[k % self.prefix_cycles]
        ]

    def account(self, out):
        _, _, ledger = out
        return 1, ledger.bits_sent, ledger.energy, 0

    def checks(self, kept):
        spreads = []
        slacks = []
        for _, _, (ic, ec, _) in kept:
            routes = (ic.bits, ic.chain_bits, ic.divergence_bits)
            spreads.append(max(routes) - min(routes))
            slacks.append(ic.bits - ec / infotheory.LN2)
        bad_routes = sum(s > ROUTE_TOLERANCE for s in spreads)
        bad_slack = sum(s > ROUTE_TOLERANCE for s in slacks)
        return [
            check(
                "three IC routes agree",
                bad_routes == 0,
                f"worst spread {max(spreads):.3g} <= {ROUTE_TOLERANCE:g} over {len(spreads)} instances",
                bad_routes,
            ),
            check(
                "IC <= EC / ln 2",
                bad_slack == 0,
                f"worst slack {max(slacks):.3g} <= {ROUTE_TOLERANCE:g} over {len(slacks)} instances",
                bad_slack,
            ),
        ]


def _prefixes(rounds: int) -> list[str]:
    """Every interior node of a depth-`rounds` binary tree, root first."""
    out = [""]
    for depth in range(1, rounds):
        out.extend(format(i, f"0{depth}b") for i in range(1 << depth))
    return out


# Fixed order: workload i draws from SeedSequence(seed).spawn(len(WORKLOADS))[i],
# so no two workloads share a stream.
WORKLOADS = {cls.name: cls for cls in (ChunkVerify, Compress, Walks, InfoCost)}
