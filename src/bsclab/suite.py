"""Experiments and the acceptance battery built on them.

Each experiment is one function from parameters and seed(s) to an
ExperimentResult: it runs the sampling loop, computes the statistics and
applies the pass/fail checks, and returns them with per-trial columns.  The
CLI subcommands call these functions at user-chosen parameters; each
acceptance criterion in `CRITERIA` is a name and one call of them at pinned
parameters and seeds, so a CLI report carries exactly the checks of the
criterion it generalises.  `combine` folds several named results into one;
`run_suite` folds the chosen criteria with it.  Statistical checks run at
significance 0.001; exact checks carry explicit numeric tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import compressor, energy, infotheory, verify
from .compressor import ChunkParams, default_theta, minimal_t
from .core import (
    CostLedger,
    ParameterError,
    ProtocolSpec,
    RandomSource,
    SpecError,
    constant_spec,
    flip_pattern,
    heap_prefixes,
    pad_to_even,
    seeded_spec,
    table_spec,
    xor_spec,
)
from .infotheory import LN2, external_info_cost, kl_bernoulli, uniform_inputs

DEFAULT_SUITE_SEED = 20250809


@dataclass
class ExperimentResult:
    """Metrics, named pass/fail checks and per-trial columns of one run;
    `trials` maps each column name to one value per trial."""

    metrics: dict
    checks: list[dict]
    trials: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _check(name: str, passed) -> dict:
    return {"name": name, "passed": bool(passed)}


def require_count(name: str, value: int, least: int = 1) -> None:
    """Reject a trial, sample or instance count below `least` before any run."""
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")


def combine(results: dict[str, ExperimentResult]) -> ExperimentResult:
    """Fold named results into one: metric `{key}_{name}` and check
    `{key}: {name}` for each metric and check of the result under `key`.
    Per-trial columns are not carried over."""
    return ExperimentResult(
        {f"{key}_{k}": v for key, r in results.items() for k, v in r.metrics.items()},
        [
            _check(f"{key}: {c['name']}", c["passed"])
            for key, r in results.items()
            for c in r.checks
        ],
    )


# ---------------------------------------------------------------------------
# Random small instances for the information/energy equivalence checks
# ---------------------------------------------------------------------------


def _random_tables(gen: np.random.Generator, rounds: int, noisy: bool):
    bits: dict = {"alice": {}, "bob": {}}
    crossovers: dict = {"alice": {}, "bob": {}}
    for party in ("alice", "bob"):
        for inp in ("0", "1"):
            bits[party][inp] = {}
            crossovers[party][inp] = {}
            for prefix in heap_prefixes(rounds):
                bits[party][inp][prefix] = float(gen.random())
                crossovers[party][inp][prefix] = float(0.5 * gen.random())
    return bits, (crossovers if noisy else None)


def random_variable_noise_spec(gen: np.random.Generator, rounds: int) -> ProtocolSpec:
    """Random per-node Bernoulli protocol with random per-bit crossovers."""
    bits, crossovers = _random_tables(gen, rounds, noisy=True)
    return table_spec(rounds, bits, (0, 1), (0, 1), crossover_table=crossovers)


def random_noiseless_spec(gen: np.random.Generator, rounds: int) -> ProtocolSpec:
    bits, _ = _random_tables(gen, rounds, noisy=False)
    return table_spec(rounds, bits, (0, 1), (0, 1))


def random_mu(gen: np.random.Generator, spec: ProtocolSpec) -> dict:
    pairs = [(x, y) for x in spec.alice_inputs for y in spec.bob_inputs]
    weights = gen.random(len(pairs)) + 0.05
    weights /= weights.sum()
    return {pair: float(w) for pair, w in zip(pairs, weights)}


def _random_instances(instances: int, seed: int, draw_spec: Callable):
    """Yield (spec, mu) per instance k: 1-3 rounds, the spec drawn by
    draw_spec(gen, rounds) and a random input law, from default_rng(seed + k)."""
    for k in range(instances):
        gen = np.random.default_rng(seed + k)
        spec = draw_spec(gen, int(gen.integers(1, 4)))
        yield spec, random_mu(gen, spec)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def chunk_experiment(
    params: ChunkParams,
    spec: ProtocolSpec | None = None,
    samples: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """One chunk's exact class law against the product binomial, then
    `samples` runs of `spec` on inputs (0, 1) by `verify.monte_carlo_chunk`
    at base seed `seed`, against the exact law.  `params` is exact by
    construction; sampling without a spec raises `SpecError` before the
    class DP runs."""
    require_count("samples", samples, least=0)
    if samples and spec is None:
        raise SpecError(f"samples={samples} chunk runs need a spec")
    exact = verify.exact_chunk_distribution(params)
    max_diff = float(np.max(np.abs(exact - verify.class_law(params.half, params.epsilon))))
    metrics = {"exact_max_abs_diff": max_diff}
    checks = [_check("exact law matches product binomial (1e-10)", max_diff <= 1e-10)]
    if not samples:
        return ExperimentResult(metrics, checks)
    mc = verify.monte_carlo_chunk(params, spec, 0, 1, samples, seed)
    gof = verify.chi_square_gof(mc.counts, exact)
    metrics.update(
        chi2_statistic=gof.statistic,
        chi2_p_value=gof.p_value,
        mean_bits=mc.mean_bits,
        p95_bits=mc.p95_bits,
        branch_trials=mc.branch_trials,
        branch_mean_rounds=mc.branch_mean_rounds,
        mean_threshold_rounds=mc.mean_threshold_rounds,
        trials=mc.n_trials,
        failed_trials=len(mc.failures),
    )
    checks += [
        _check("chi-square fit at 0.001", gof.passed),
        _check("no aborted trials", not mc.failures),
    ]
    trials = {"trial": [t.index for t in mc.trials], "bits": mc.bits}
    return ExperimentResult(metrics, checks, trials)


def compression_experiment(
    spec: ProtocolSpec,
    epsilon: float,
    trials: int,
    seed: int,
) -> ExperimentResult:
    """Whole-protocol compression of `spec` on its first input pair, trial i
    at seed seed + i.  Each chunk of the padded flip pattern must fit the
    channel class law at its own half-size, and the mean cost must stay under
    the (loose) ceiling alpha * ceil(eps^2 * 2T), alpha = max(1/beta^2, 50 t^2 + 10),
    with t the largest of `default_t(eps)` and the plan's chunk normalizers.
    """
    require_count("trials", trials)
    x, y = spec.alice_inputs[0], spec.bob_inputs[0]
    padded = pad_to_even(spec)
    plan = compressor.chunk_plan(epsilon, padded.rounds)
    sizes = [p.gamma for p in plan] or [padded.rounds]
    bounds = np.cumsum([0, *sizes])
    counts = [np.zeros((g // 2 + 1, g // 2 + 1), dtype=np.int64) for g in sizes]
    bits = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        rng = RandomSource.for_trial(seed, i)
        transcript, ledger = compressor.simulate_noiseless(spec, x, y, epsilon, rng)
        bits[i] = ledger.bits_sent
        pattern = flip_pattern(padded, x, y, transcript)
        for c, lo, hi in zip(counts, bounds, bounds[1:]):
            chunk = pattern[lo:hi]
            c[int(chunk[0::2].sum()), int(chunk[1::2].sum())] += 1
    gofs = [verify.chi_square_gof(c, verify.class_law(len(c) - 1, epsilon)) for c in counts]
    mean_bits = int(bits.sum()) / trials
    t = max([compressor.default_t(epsilon), *(p.t for p in plan)])
    alpha = max(1.0 / compressor.DEFAULT_BETA**2, 50.0 * t * t + 10.0)
    ceiling = alpha * math.ceil(epsilon**2 * 2 * spec.rounds)
    checks = [
        _check(f"chunk {k} ({2 * (len(c) - 1)} rounds) class law chi-square at 0.001", g.passed)
        for k, (c, g) in enumerate(zip(counts, gofs))
    ]
    checks.append(_check("mean bits within alpha ceiling", mean_bits <= ceiling))
    return ExperimentResult(
        {
            "mean_bits": mean_bits,
            "p95_bits": float(np.percentile(bits, 95)),
            "mean_bits_per_chunk": mean_bits / len(counts),
            "chunks": len(counts),
            "min_gof_p": min(g.p_value for g in gofs),
            "alpha_ceiling": ceiling,
            "within_alpha_ceiling": mean_bits <= ceiling,
        },
        checks,
        {"trial": np.arange(trials), "bits": bits},
    )


def _walk_batch(walk: Callable, trials: int, seed: int) -> tuple[np.ndarray, ...]:
    """Per-run ends, energies and steps of `trials` runs of walk(rng, ledger)
    on RandomSource(seed), plus their energy summed run by run in order."""
    rng = RandomSource(seed)
    ends = np.zeros(trials, dtype=np.int64)
    energies = np.zeros(trials)
    steps = np.zeros(trials, dtype=np.int64)
    total = 0.0
    for i in range(trials):
        ledger = CostLedger()
        out = walk(rng, ledger)
        ends[i], energies[i], steps[i] = out.end_index, ledger.energy, out.steps
        total += ledger.energy
    return ends, energies, steps, total


def biased_walk_experiment(
    battery: list[tuple[int, int, int]], trials: int
) -> ExperimentResult:
    """Guaranteed-ascent walks from a to a+b, `trials` runs per (a, b, seed).

    Every run must end at a+b, and the mean energy pooled over the battery
    must stay at most 48.
    """
    require_count("trials", trials)
    batches = []
    tops = 0
    total_energy = 0.0
    per_pair: dict[str, float] = {}
    for a, b, seed in battery:
        *batch, pair_energy = _walk_batch(
            lambda rng, ledger: energy.brw_to_top(a, b, rng, ledger), trials, seed
        )
        batches.append(batch)
        tops += int(np.sum(batch[0] == a + b))
        total_energy += pair_energy
        per_pair[f"{a},{b}"] = pair_energy / trials
    ends, energies, steps = (np.concatenate(col) for col in zip(*batches))
    runs = len(ends)
    pooled = total_energy / runs
    return ExperimentResult(
        {
            "top_fraction": tops / runs,
            "mean_energy": pooled,
            "max_pair_mean_energy": max(per_pair.values()),
            "mean_steps": float(np.mean(steps)),
            "pairs": len(per_pair),
            "per_pair_mean_energy": per_pair,
        },
        [
            _check("absorbed at a+b in every run", tops == runs),
            _check("mean energy <= 48", pooled <= 48.0),
        ],
        {"trial": np.arange(runs), "end": ends, "energy": energies, "steps": steps},
    )


def unbiased_walk_experiment(a: int, b: int, trials: int, seed: int) -> ExperimentResult:
    """Symmetric walks on [0, a+b] from a: absorption at the top within
    3 sigma of a/(a+b), and zero energy identically."""
    require_count("trials", trials)
    if a + b < 1:
        raise ParameterError(f"a + b must be >= 1, got a={a}, b={b}")
    top = a + b
    ends, energies, steps, total = _walk_batch(
        lambda rng, ledger: energy.unbiased_walk(a, top, rng, ledger), trials, seed
    )
    freq = int(np.sum(ends == top)) / trials
    target = a / top
    three_sigma = 3 * math.sqrt(target * (1 - target) / trials)
    return ExperimentResult(
        {
            "top_fraction": freq,
            "three_sigma": three_sigma,
            "total_energy": total,
            "mean_energy": total / trials,
            "mean_steps": float(np.mean(steps)),
        },
        [
            _check("top frequency within 3 sigma of a/(a+b)", abs(freq - target) <= three_sigma),
            _check("zero energy", total == 0.0),
        ],
        {"trial": np.arange(trials), "end": ends, "energy": energies, "steps": steps},
    )


def sample_prior_experiment(
    pairs: list[tuple[float, float]], grid_n: int, samples: int, seed: int
) -> ExperimentResult:
    """Prior-guided sampling, `samples` draws per (p, q) on RandomSource(seed + idx).

    Each pair's mean must lie within 3 sigma of p, and its mean energy over
    (divergence + 1/(2 grid_n)) must stay at most 200.
    """
    require_count("samples", samples)
    require_count("grid_n", grid_n)
    eps_i = 1.0 / (2 * grid_n)
    rows = []
    checks = []
    for idx, (p, q) in enumerate(pairs):
        rng = RandomSource(seed + idx)
        ledger = CostLedger()
        ones = 0
        for _ in range(samples):
            ones += energy.sample_with_prior(p, q, grid_n, rng, ledger)
        mean = ones / samples
        three_sigma = 3 * math.sqrt(p * (1 - p) / samples)
        mean_energy = ledger.energy / samples
        ratio = mean_energy / (kl_bernoulli(p, q) + eps_i)
        in_sigma = abs(mean - p) <= three_sigma
        checks += [
            _check(f"mean within 3 sigma at p={p}, q={q}", in_sigma),
            _check(f"energy ratio <= 200 at p={p}, q={q}", ratio <= 200.0),
        ]
        rows.append(
            {
                "p": p,
                "q": q,
                "mean": mean,
                "three_sigma": three_sigma,
                "mean_energy": mean_energy,
                "energy_ratio": ratio,
                "ok": in_sigma and ratio <= 200.0,
            }
        )
    return ExperimentResult(
        {"max_energy_ratio": max(r["energy_ratio"] for r in rows), "grid": rows},
        checks,
        {name: [r[name] for r in rows] for name in rows[0]},
    )


def eclb_experiment(instances: int, seed: int) -> ExperimentResult:
    """Noiseless replay of random variable-noise protocols: IC_ext <= EC / ln 2.

    Instance k is drawn from default_rng(seed + k).
    """
    require_count("instances", instances)
    worst_slack = -math.inf
    holds = True
    for pi, mu in _random_instances(instances, seed, random_variable_noise_spec):
        phi = energy.noiseless_from_noisy(pi, mu)
        slack = external_info_cost(phi, mu).bits - energy.expected_energy_cost(pi, mu) / LN2
        worst_slack = max(worst_slack, slack)
        holds = holds and slack <= 1e-9
    return ExperimentResult(
        {"instances": instances, "worst_slack_bits": worst_slack},
        [_check("info cost <= energy / ln 2 on all instances", holds)],
    )


def ecub_battery() -> list[tuple[str, ProtocolSpec]]:
    send_inputs = xor_spec(2, noise=0.0)
    mixed = table_spec(
        2,
        {
            "alice": {"0": {"": 0.25}, "1": {"": 0.75}},
            "bob": {
                "0": {"0": 0.125, "1": 0.125},
                "1": {"0": 0.875, "1": 0.875},
            },
        },
        (0, 1),
        (0, 1),
    )
    skewed = table_spec(
        2,
        {
            "alice": {"0": {"": 0.0}, "1": {"": 1.0}},
            "bob": {
                "0": {"0": 0.98, "1": 0.98},
                "1": {"0": 1.0, "1": 1.0},
            },
        },
        (0, 1),
        (0, 1),
    )
    return [("send-inputs", send_inputs), ("mixed-coins", mixed), ("skewed-prior", skewed)]


def ecub_experiment(grid_n: int, samples: int, seed: int) -> ExperimentResult:
    """Variable-noise replay of the ecub battery under uniform inputs.

    Protocol idx draws its input pairs from default_rng(seed + idx) and runs
    on RandomSource(seed + 100 + idx).  Each replayed transcript law must fit
    the noiseless protocol's, and its mean energy over
    (IC_ext + 1/(2 grid_n)) must stay at most 1e4.
    """
    require_count("samples", samples)
    require_count("grid_n", grid_n)
    rows = []
    checks = []
    for idx, (name, phi) in enumerate(ecub_battery()):
        mu = uniform_inputs(phi)
        sim = energy.noisy_from_noiseless(phi, mu, grid_n)
        expected = np.zeros(1 << phi.rounds)
        for (_, _, leaf), pr in infotheory.FiniteJoint.from_protocol(phi, mu).table.items():
            expected[int(leaf, 2)] += pr
        pair_list = list(mu.keys())
        weights = np.array([mu[p] for p in pair_list])
        gen = np.random.default_rng(seed + idx)
        draws = gen.choice(len(pair_list), size=samples, p=weights)
        rng = RandomSource(seed + 100 + idx)
        counts = np.zeros(len(expected), dtype=np.int64)
        total_energy = 0.0
        for d in draws:
            x, y = pair_list[d]
            transcript, ledger = sim.run(x, y, rng)
            counts[int(transcript, 2)] += 1
            total_energy += ledger.energy
        gof = verify.chi_square_gof(counts, expected)
        ic = external_info_cost(phi, mu).bits
        ratio = (total_energy / samples) / (ic + 1.0 / (2 * grid_n))
        checks += [
            _check(f"{name}: transcript law chi-square at 0.001", gof.passed),
            _check(f"{name}: energy ratio <= 1e4", ratio <= 1e4),
        ]
        rows.append(
            {
                "protocol": name,
                "p_value": gof.p_value,
                "mean_energy": total_energy / samples,
                "info_bits": ic,
                "energy_ratio": ratio,
                "ok": gof.passed and ratio <= 1e4,
            }
        )
    return ExperimentResult(
        {
            "min_p_value": min(r["p_value"] for r in rows),
            "max_energy_ratio": max(r["energy_ratio"] for r in rows),
            "battery": rows,
        },
        checks,
    )


def icost_experiment(spec: ProtocolSpec, mu: dict) -> ExperimentResult:
    """Exact external information cost by three routes, which must agree to 1e-9."""
    res = external_info_cost(spec, mu)
    routes = (res.bits, res.chain_bits, res.divergence_bits)
    spread = max(routes) - min(routes)
    return ExperimentResult(
        {
            "external_info_cost_bits": res.bits,
            "chain_rule_bits": res.chain_bits,
            "divergence_form_bits": res.divergence_bits,
            "route_spread_bits": spread,
            "per_round_bits": list(res.per_round),
        },
        [_check("three routes agree (1e-9)", spread <= 1e-9)],
    )


def icost_battery_experiment(seed: int) -> ExperimentResult:
    """`icost_experiment` on 50 random noiseless protocols under random input
    laws; instance k is drawn from default_rng(seed + k)."""
    runs = [
        icost_experiment(phi, mu)
        for phi, mu in _random_instances(50, seed, random_noiseless_spec)
    ]
    return ExperimentResult(
        {
            "instances": 50,
            "worst_spread_bits": max(r.metrics["route_spread_bits"] for r in runs),
        },
        [_check("three routes agree (1e-9) on all instances", all(r.passed for r in runs))],
    )


def threshold_experiment(seed: int) -> ExperimentResult:
    """The sampler's threshold table at theta 4 on uniform leaves of
    half-size 10, the high branch of criterion 02's gamma-20 chunk at eps
    0.1: its witnesses must be sound on every class (m_x, m_y), and its
    exact mean rounds under the Binomial(10, 1/2)^2 class law at most two.
    1,000 trials of that chunk, trial i at seed + i, check the sampler's
    charges: on every high-branch trial, bits - 4 * threshold rounds are the
    accept bits, an even number in [2, 2 * proposals] and 2 when the first
    proposal wins.  The chunk runs at the minimal t, so first wins occur;
    `bits_per_round` is measured on them: their bits less the 2 accept
    bits, per threshold round.  It is nan, and a check fails, when they
    charged no threshold round."""
    params = ChunkParams.for_advantage(0.1, gamma=20, t=minimal_t(20, 0.1, default_theta(20, 0.1)))
    half, theta = params.half, params.theta_int
    margin = compressor.binomial_margin(half, 0.5)
    answer, tx, ty, rounds = compressor.threshold_table(margin, margin, theta, half)
    m_x, m_y = np.ogrid[: half + 1, : half + 1]
    sound = bool(
        np.all(answer == (m_x + m_y > theta))
        and np.all(tx + ty == theta)
        and np.all(np.where(answer == 0, (m_x <= tx) & (m_y <= ty), (m_x >= tx) & (m_y >= ty)))
    )
    mean_rounds = float(margin @ rounds @ margin)
    mc = verify.monte_carlo_chunk(params, constant_spec(params.gamma), 0, 0, 1000, seed)
    accept_bits = [
        (t.bits - 4 * t.threshold_rounds, t.rounds) for t in mc.trials if t.branch == 1
    ]
    bits_exact = bool(accept_bits) and all(
        a % 2 == 0 and 2 <= a <= 2 * proposals and (proposals > 1 or a == 2)
        for a, proposals in accept_bits
    )
    # A trial won by its first proposal paid its threshold rounds and the 2
    # accept bits of that one proposal, nothing else.
    first = [(t.bits - 2, t.threshold_rounds) for t in mc.trials if (t.branch, t.rounds) == (1, 1)]
    first_rounds = sum(r for _, r in first)
    bits_per_round = sum(b for b, _ in first) / first_rounds if first_rounds else math.nan
    return ExperimentResult(
        {"witnesses_sound": sound, "mean_rounds": mean_rounds, "bits_per_round": bits_per_round},
        [
            _check("witnesses sound on every class", sound),
            _check("4 bits per threshold round", bits_exact),
            _check("mean rounds <= 2", mean_rounds <= 2.0),
            _check("first-proposal wins charged threshold rounds", first_rounds > 0),
        ],
    )


def round_mass_experiment() -> ExperimentResult:
    """Closed-form per-round acceptance masses of both branches against the
    brute-force class sums, at (gamma, epsilon) = (20, 0.1) and (8, 0.05)."""
    worst = 0.0
    for gamma, eps in ((20, 0.1), (8, 0.05)):
        params = ChunkParams.for_advantage(eps, gamma=gamma)
        analysis = verify.exact_branch_analysis(params)
        worst = max(
            worst,
            abs(analysis.mass_low - compressor.round_accept_mass_low(params)),
            abs(analysis.mass_high - compressor.round_accept_mass_high(params)),
        )
    return ExperimentResult(
        {"max_abs_diff": worst},
        [_check("closed-form masses match class sums (1e-12)", worst <= 1e-12)],
    )


def divergence_bounds_experiment() -> ExperimentResult:
    """The quadratic sandwich of ln 2 * D(p || q) on the 0.01-grid of (0, 1)^2,
    and the four-region lower bounds of `infotheory.table1_bound` on a
    100 x 100 grid per region."""
    sandwich_ok = True
    grid = np.arange(0.01, 1.0, 0.01)
    for p in grid:
        for q in grid:
            lower, upper = infotheory.ine_bounds(p, q)
            mid = LN2 * kl_bernoulli(float(p), float(q))
            sandwich_ok = sandwich_ok and lower <= mid + 1e-12 and mid <= upper + 1e-12

    def region_grid():
        qs1 = np.linspace(0.005, 0.49, 100)
        for q in qs1:
            for p in np.linspace(0.0, min(2 * q, 1.0), 100):
                yield float(p), float(q)
        qs2 = np.linspace(1e-4, 0.0099, 100)
        for q in qs2:
            for p in np.linspace(2 * q * 1.001, 0.0199, 100):
                yield float(p), float(q)
        for q in np.linspace(0.01, 0.49, 100):
            for p in np.linspace(2 * q * 1.001, 1.0, 100):
                yield float(p), float(q)
        for q in qs2:
            for p in np.linspace(0.02, 1.0, 100):
                yield float(p), float(q)

    table_ok = True
    worst_margin = math.inf
    for p, q in region_grid():
        _, bound = infotheory.table1_bound(p, q)
        d = kl_bernoulli(p, q)
        table_ok = table_ok and bound <= d + 1e-15
        worst_margin = min(worst_margin, d - bound)
    return ExperimentResult(
        {"sandwich_ok": sandwich_ok, "table_ok": table_ok, "worst_table_margin": worst_margin},
        [
            _check("ln 2 * D(p || q) within the quadratic sandwich (1e-12)", sandwich_ok),
            _check("region bounds <= D(p || q) (1e-15)", table_ok),
        ],
    )


# ---------------------------------------------------------------------------
# Criteria: experiments at pinned parameters and seeds
# ---------------------------------------------------------------------------


def _exact_chunk_law_within_a_second(seed: int) -> ExperimentResult:
    start = time.perf_counter()
    res = chunk_experiment(ChunkParams.for_advantage(0.1, gamma=20))
    elapsed = time.perf_counter() - start
    res.metrics["wall_clock_seconds"] = elapsed
    res.checks.append(_check("exact law within 1 s wall clock", elapsed < 1.0))
    return res


def _compression_scales_linearly(seed: int) -> ExperimentResult:
    res = combine(
        {
            "T200": compression_experiment(constant_spec(200), 0.1, 200, seed),
            "T400": compression_experiment(constant_spec(400), 0.1, 200, seed + 10_000),
        }
    )
    ratio = res.metrics["T400_mean_bits"] / res.metrics["T200_mean_bits"]
    res.metrics["ratio"] = ratio
    res.checks += [
        _check("T400/T200 mean bits ratio in [1.6, 2.4]", 1.6 <= ratio <= 2.4),
        _check(
            "finite T200 bits per chunk", math.isfinite(res.metrics["T200_mean_bits_per_chunk"])
        ),
    ]
    return res


CRITERIA: dict[int, tuple[str, Callable[[int], ExperimentResult]]] = {
    1: ("chunk exactness (analytic)", _exact_chunk_law_within_a_second),
    2: (
        "chunk exactness (statistical)",
        lambda seed: chunk_experiment(
            ChunkParams.for_advantage(0.1, gamma=20, t=minimal_t(20, 0.1, default_theta(20, 0.1))),
            seeded_spec(20, seed=41),
            50_000,
            seed,
        ),
    ),
    3: ("end-to-end compression", _compression_scales_linearly),
    4: ("threshold witnesses and cost", lambda seed: threshold_experiment(seed + 200_000)),
    5: ("per-round acceptance masses", lambda seed: round_mass_experiment()),
    6: (
        "biased walk absorption and energy",
        lambda seed: biased_walk_experiment(
            [(a, b, seed + 1000 * a + b) for a in range(1, 41) for b in range(1, a + 1)], 500
        ),
    ),
    7: ("unbiased walk law", lambda seed: unbiased_walk_experiment(3, 1, 100_000, seed + 7)),
    8: (
        "prior-guided bit sampling",
        lambda seed: sample_prior_experiment(
            [(0.3, 0.2), (0.25, 0.25), (0.01, 0.002), (0.6, 0.25), (0.05, 0.005)],
            512,
            50_000,
            seed + 100,
        ),
    ),
    9: ("energy dominates external information", lambda seed: eclb_experiment(100, seed + 300)),
    10: (
        "noisy replay of noiseless protocols",
        lambda seed: ecub_experiment(256, 50_000, seed + 500),
    ),
    11: ("divergence sandwich and region bounds", lambda seed: divergence_bounds_experiment()),
    12: ("information-cost route agreement", lambda seed: icost_battery_experiment(seed + 900)),
}
"""Criterion number -> (name, seed -> ExperimentResult)."""


def run_suite(seed: int = DEFAULT_SUITE_SEED, numbers: list[int] | None = None) -> ExperimentResult:
    """Run the criteria in `numbers` (all when None or empty), in order, and
    `combine` them under keys `criterion_NN`, each with its name as metric `name`."""
    unknown = sorted(set(numbers or ()) - CRITERIA.keys())
    if unknown:
        raise SpecError(f"unknown criteria {unknown}; the suite has criteria 1 to {len(CRITERIA)}")
    results = {}
    for number, (name, call) in CRITERIA.items():
        if not numbers or number in numbers:
            res = call(seed)
            key = f"criterion_{number:02d}"
            results[key] = ExperimentResult({"name": name, **res.metrics}, res.checks)
    return combine(results)
