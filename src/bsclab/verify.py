"""Oracles certifying the compressor's exactness claims.

All chunk probabilities factor through the per-party error counts
(m_x, m_y), so instead of 2^gamma leaves the oracle works on the
(gamma/2+1)^2 class grid.  The class DP reads the sampler's own per-class
tables (`compressor.chunk_tables`: threshold answers and each party's
acceptance probabilities) and weights them by the exact proposal laws
(`class_law`), giving each branch's output law and per-round acceptance
mass.  The mixture must reproduce the product-binomial channel law
exactly.  `monte_carlo_chunk` runs every seeded batch of real chunk trials;
its class counts are compared against the exact law with a chi-square
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from . import compressor
from .core import (
    ALICE,
    BOB,
    CostLedger,
    IterationCapExceeded,
    ParameterError,
    ProtocolSpec,
    RandomSource,
    SpecError,
    count_errors,
)
from .compressor import ChunkParams

# Every chi-square check in bsclab runs at this significance.
SIGNIFICANCE = 0.001


def party_margin(rounds: int, epsilon: float) -> np.ndarray:
    """Exact law of one party's error count over `rounds` of its own rounds:
    Binomial(rounds, 1/2 - eps), the point mass at 0 when eps = 1/2."""
    if epsilon == 0.5:
        return np.eye(1, rounds + 1)[0]
    ks = np.arange(rounds + 1)
    lm, lp = math.log(0.5 - epsilon), math.log(0.5 + epsilon)
    return np.exp(compressor.log_binomials(rounds) + ks * lm + (rounds - ks) * lp)


def class_law(half: int, epsilon: float) -> np.ndarray:
    """Exact product law of (m_x, m_y) for a depth-2*half run at advantage eps."""
    return segment_law(2 * half, epsilon)


def segment_law(rounds: int, epsilon: float) -> np.ndarray:
    """Exact law of (m_x, m_y) over a `rounds`-round segment that opens with
    an Alice round: Alice speaks ceil(rounds/2) of them, Bob floor(rounds/2)."""
    alice, bob = party_margin(rounds - rounds // 2, epsilon), party_margin(rounds // 2, epsilon)
    return np.outer(alice, bob)


@dataclass
class ChunkAnalysis:
    """Exact branch-by-branch account of one chunk's sampling distribution."""

    params: ChunkParams
    mixture: np.ndarray
    low_law: np.ndarray
    high_law: np.ndarray
    mass_low: float
    mass_high: float


def exact_branch_analysis(params: ChunkParams) -> ChunkAnalysis:
    half = params.half
    tables = compressor.chunk_tables(params)

    # Low branch: candidate law is the exact doubled-advantage class law
    # (the nested simulation is itself exact, verified at its own scale).
    accepted_low = (
        class_law(half, params.nested_epsilon)
        * (tables.ans_low == 0)
        * tables.acc_low_x
        * tables.acc_low_y
    )
    mass_low = float(accepted_low.sum())
    low_law = accepted_low / mass_low if mass_low > 0 else accepted_low

    # High branch: uniform proposals over leaves.
    accepted_high = (
        class_law(half, 0.0)
        * (tables.ans_high == 1)
        * tables.acc_high_x
        * tables.acc_high_y
    )
    mass_high = float(accepted_high.sum())
    high_law = accepted_high / mass_high if mass_high > 0 else accepted_high

    p = params.low_mass
    mixture = p * low_law + (1.0 - p) * high_law
    return ChunkAnalysis(params, mixture, low_law, high_law, mass_low, mass_high)


def exact_chunk_distribution(params: ChunkParams) -> np.ndarray:
    """Exact output class law of one chunk, from the protocol mechanics alone."""
    return exact_branch_analysis(params).mixture


@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    p_value: float
    passed: bool
    sample_size: int
    significance: float = SIGNIFICANCE


def chi_square_gof(counts: np.ndarray, expected_probs: np.ndarray) -> GofResult:
    """Chi-square goodness of fit at `SIGNIFICANCE`, with cells below
    expected count 5 pooled.  Cells pool in increasing expected count and
    tied cells in index order, so the groups of tied cells do not follow ulp
    moves elsewhere in the law.

    A degenerate expectation (fewer than two pooled cells) passes trivially
    with p = 1.
    """
    observed = np.asarray(counts, dtype=float).ravel()
    probs = np.asarray(expected_probs, dtype=float).ravel()
    if observed.shape != probs.shape:
        raise ParameterError(
            f"counts have shape {np.shape(counts)} and the expected law shape "
            f"{np.shape(expected_probs)}; they must have the same number of cells"
        )
    n = observed.sum()
    expected = probs * n
    order = np.argsort(expected, kind="stable")
    groups: list[tuple[float, float]] = []
    obs_acc = exp_acc = 0.0
    for idx in order:
        obs_acc += observed[idx]
        exp_acc += expected[idx]
        if exp_acc >= 5.0:
            groups.append((obs_acc, exp_acc))
            obs_acc = exp_acc = 0.0
    if exp_acc > 0.0:
        if groups:
            o, e = groups[-1]
            groups[-1] = (o + obs_acc, e + exp_acc)
        else:
            groups.append((obs_acc, exp_acc))
    if len(groups) < 2:
        return GofResult(0.0, 0, 1.0, True, int(n))
    stat = sum((o - e) ** 2 / e for o, e in groups)
    dof = len(groups) - 1
    # The one scipy call in bsclab, imported here so only a p-value loads it.
    from scipy.special import chdtrc

    p_value = float(chdtrc(dof, stat))
    return GofResult(float(stat), dof, p_value, p_value >= SIGNIFICANCE, int(n))


class ChunkTrial(NamedTuple):
    """One completed chunk run: its class and cost."""

    index: int
    m_x: int
    m_y: int
    bits: int
    branch: int
    rounds: int
    threshold_rounds: int


@dataclass
class MonteCarloChunkResult:
    """A batch of chunk runs: the completed trials in index order and one
    "trial {i}: ..." line per trial aborted at an iteration cap.  Every
    statistic is derived from the trials."""

    half: int
    trials: list[ChunkTrial]
    failures: list[str]

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def counts(self) -> np.ndarray:
        counts = np.zeros((self.half + 1, self.half + 1), dtype=np.int64)
        for t in self.trials:
            counts[t.m_x, t.m_y] += 1
        return counts

    @property
    def bits(self) -> np.ndarray:
        return np.array([t.bits for t in self.trials], dtype=np.int64)

    @property
    def mean_bits(self) -> float:
        return float(self.bits.mean()) if self.trials else 0.0

    @property
    def p95_bits(self) -> float:
        return float(np.percentile(self.bits, 95)) if self.trials else 0.0

    def _rounds_by_branch(self) -> dict[int, list[int]]:
        return {b: [t.rounds for t in self.trials if t.branch == b] for b in (0, 1)}

    @property
    def branch_trials(self) -> dict[int, int]:
        return {b: len(r) for b, r in self._rounds_by_branch().items()}

    @property
    def branch_mean_rounds(self) -> dict[int, float]:
        return {
            b: float(np.mean(r)) if r else 0.0 for b, r in self._rounds_by_branch().items()
        }

    @property
    def mean_threshold_rounds(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.threshold_rounds for t in self.trials) / self.n_trials


def monte_carlo_chunk(
    params: ChunkParams,
    spec: ProtocolSpec,
    x: Any,
    y: Any,
    n_trials: int,
    base_seed: int,
) -> MonteCarloChunkResult:
    """Seeded batch of real chunk runs, trial i at
    `RandomSource.for_trial(base_seed, i)`.

    Each leaf's class is recovered by independent replay (count_errors).  A
    trial that hits an iteration cap is recorded in `failures` as
    "trial {i}: ...", not fatal; any other error propagates.
    """
    if spec.rounds != params.gamma:
        raise SpecError(
            f"chunk trials want a spec of exactly one chunk depth: "
            f"spec.rounds={spec.rounds}, params.gamma={params.gamma}"
        )
    trials: list[ChunkTrial] = []
    failures: list[str] = []
    for i in range(n_trials):
        rng = RandomSource.for_trial(base_seed, i)
        ledger = CostLedger()
        record: dict = {}
        try:
            leaf = compressor.simulate_chunk(
                spec, x, y, "", params, rng, ledger, record
            )
        except IterationCapExceeded as exc:
            failures.append(f"trial {i}: {exc}")
            continue
        trials.append(
            ChunkTrial(
                i,
                count_errors(spec, ALICE, x, leaf),
                count_errors(spec, BOB, y, leaf),
                ledger.bits_sent,
                record["branch"],
                record["rounds"],
                record["threshold_rounds"],
            )
        )
    return MonteCarloChunkResult(params.half, trials, failures)
