"""Variable-noise channel protocols and their energy ledgers.

The transmitter picks a crossover for every bit and pays 4*(c-1/2)^2 energy
for it.  A guaranteed-ascent biased walk (constant expected energy per call)
and a zero-energy unbiased walk are combined into a sampler that delivers a
Bernoulli(p) bit to the receiver when both sides share a prior q, spending
energy on the order of the divergence between p and q.  On top of that sit
the two constructions tying energy to external information cost: a noisy
protocol can be replayed noiselessly with private coins, and a noiseless
protocol can be replayed over the variable-noise channel bit by bit.
Each walk stops with `IterationCapExceeded` at its cap (`BRW_MAX_STEPS`,
`BRW_MAX_DEPTH`, 100 * top^2 for the unbiased walk), read per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    CostLedger,
    IterationCapExceeded,
    ParameterError,
    ProtocolSpec,
    RandomSource,
    SpecError,
    Transcript,
    bernoulli,
    check_mu,
    level_law,
    node_law,
    prefix_probability,
    protocol_tree,
    received_one,
    speaker,
)

BRW_BASE_CASE = 12
BRW_MAX_DEPTH = 100
BRW_MAX_STEPS = 10**7
_BLOCK = 1 << 15


def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Net displacement, lowest and highest prefix sum of every 16-step word.

    Bit j of a word (little-endian) is step j, 1 for up and 0 for down.  The
    prefix sums run over steps 1..16, not the empty prefix, so a word flags
    only positions the walk reaches.  The 16-bit tables are joined from the
    8-bit ones: word = first + 256 * second.
    """
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    sums = np.cumsum(2 * bits - 1, axis=1)
    disp, lo, hi = sums[:, -1], sums.min(axis=1), sums.max(axis=1)
    tables = (
        disp + disp[:, None],
        np.minimum(lo, disp + lo[:, None]),
        np.maximum(hi, disp + hi[:, None]),
    )
    return tuple(t.ravel().astype(np.int8) for t in tables)


_WORD_DISP, _WORD_LO, _WORD_HI = _word_tables()


@dataclass(frozen=True)
class WalkOutcome:
    """Where a walk ended and how many steps it took; its bits and energy
    are charged to the caller's ledger."""

    end_index: int
    steps: int


def _walk_phase(
    start: int,
    low: int,
    high: int,
    up_prob: float,
    crossover: float,
    step_budget: int,
    rng: RandomSource,
    ledger: CostLedger,
) -> tuple[int, int]:
    """Step until absorption at low/high or until the budget runs out.

    Every step is one transmitted bit at the given crossover; the received
    bit moves the walk right with probability up_prob.  Returns the final
    position and the number of steps taken.

    Contract: step k moves up exactly when the k-th double of `rng.channel`
    is below up_prob, and the doubles are drawn in blocks of
    min(step_budget - taken, 2 * expected, _BLOCK) steps, where expected is
    the symmetric walk's mean exit time from start, floored at 64.  A block
    is drawn whole even when the walk exits inside it, and each block
    charges the ledger once (the steps up to and including the exit for the
    last one).  The result, the ledger and the state of the channel stream
    are bit-identical to a walk that checks the boundaries after every step.

    The exit is found per 16-step word: each word's start position is pos
    plus its predecessors' net displacements, and the first word whose
    lowest or highest prefix position reaches a boundary holds the exit,
    which is then resolved step by step.  The steps after the last whole
    word (fewer than 16) are also resolved step by step.
    """
    pos = start
    taken = 0
    expected = max((start - low) * (high - start), 64)
    while taken < step_budget:
        block = int(min(step_budget - taken, min(2 * expected, _BLOCK)))
        ups = rng.channel.random(block) < up_prob
        words = np.packbits(ups[: block & ~15], bitorder="little").view("<u2")
        begins = np.empty(words.size + 1, dtype=np.int64)
        begins[0] = pos
        np.cumsum(_WORD_DISP[words], out=begins[1:])
        begins[1:] += pos
        heads = begins[:-1]
        hits = np.flatnonzero(
            (heads + _WORD_LO[words] <= low) | (heads + _WORD_HI[words] >= high)
        )
        w = int(hits[0]) if hits.size else words.size
        pos = int(begins[w])
        for k, up in enumerate(ups[16 * w : 16 * w + 16].tolist(), 16 * w):
            pos += 1 if up else -1
            if pos <= low or pos >= high:
                ledger.charge(crossover, k + 1)
                return pos, taken + k + 1
        ledger.charge(crossover, block)
        taken += block
    return pos, taken


def brw_to_top(
    a: int, b: int, rng: RandomSource, ledger: CostLedger, *, _depth: int = 0
) -> WalkOutcome:
    """Climb from a to a+b with certainty at bounded expected energy.

    For b <= 12 the bits are sent noiselessly.  Otherwise the walk runs on
    [a - floor(a/2), a+b] with per-step crossover 1/2 - 3/c for up to c^2
    steps; shortfalls are recovered by recursive climbs and the phase
    repeats.  Requires a >= b >= 0; the walk always ends at a+b.  A call
    raises `IterationCapExceeded` once it has taken `BRW_MAX_STEPS` steps,
    its recoveries included, or when recoveries nest past `BRW_MAX_DEPTH`.
    """
    if not a >= b >= 0:
        raise ParameterError(f"need a >= b >= 0, got a={a}, b={b}")
    if _depth > BRW_MAX_DEPTH:
        raise IterationCapExceeded(
            f"biased-walk recursion exceeded its depth cap: a={a}, b={b}, "
            f"depth {_depth} > BRW_MAX_DEPTH={BRW_MAX_DEPTH}"
        )
    if b == 0:
        return WalkOutcome(a, 0)
    if b <= BRW_BASE_CASE:
        ledger.charge(0.0, b)
        return WalkOutcome(a + b, b)
    c = a // 2
    crossover = 0.5 - 3.0 / c
    steps = 0
    while True:
        if steps >= BRW_MAX_STEPS:
            raise IterationCapExceeded(
                f"biased walk from {a} to {a + b} exceeded {BRW_MAX_STEPS} steps"
            )
        d, used = _walk_phase(
            a, a - c, a + b, 1.0 - crossover, crossover, c * c, rng, ledger
        )
        steps += used
        if d == a + b:
            break
        if d < a:
            sub = brw_to_top(d, a - d, rng, ledger, _depth=_depth + 1)
            steps += sub.steps
        elif d > a:
            sub = brw_to_top(d, a + b - d, rng, ledger, _depth=_depth + 1)
            steps += sub.steps
            break
        # d == a: just run the phase again.
    return WalkOutcome(a + b, steps)


def unbiased_walk(a: int, top: int, rng: RandomSource, ledger: CostLedger) -> WalkOutcome:
    """Symmetric walk on [0, top] from a; absorbs at top with probability a/top.

    Every step rides the crossover-1/2 channel, so the energy cost is
    identically zero no matter how long the walk runs.  The walk is capped
    at 100 * top^2 steps, 400 times the longest mean absorption time
    top^2 / 4; a walk still unabsorbed there raises `IterationCapExceeded`.
    """
    if not 0 <= a <= top:
        raise ParameterError(f"start {a} outside [0, {top}]")
    if a in (0, top):
        return WalkOutcome(a, 0)
    cap = 100 * top * top
    pos, taken = _walk_phase(a, 0, top, 0.5, 0.5, cap, rng, ledger)
    if pos not in (0, top):
        raise IterationCapExceeded(
            f"unbiased walk on [0, {top}] unabsorbed after {cap} steps"
        )
    return WalkOutcome(pos, taken)


def _final_bit(lam: float, rng: RandomSource, ledger: CostLedger) -> int:
    """Deliver a received bit that is 1 with probability lam.

    The sent symbol is chosen so the crossover is min(lam, 1-lam) <= 1/2.
    """
    if not 0.0 <= lam <= 1.0 + 1e-12:
        raise ParameterError(f"final-bit probability {lam} outside [0, 1]")
    lam = min(lam, 1.0)
    sent = 1 if lam >= 0.5 else 0
    crossover = 1.0 - lam if sent else lam
    flipped = bernoulli(rng.channel, crossover)
    ledger.charge(crossover)
    return sent ^ flipped


@dataclass(frozen=True)
class BitWithPrior:
    """One bit to sample: target parameter p against common-knowledge prior q.

    Stores the symmetry reduction (work with complements when q > 1/2) and
    the grid rounding q' = ceil(2*n_i*q)/(2*n_i), so all case logic below
    sees 0 < q' <= 1/2.
    """

    p: float
    q: float
    n_i: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0 or not 0.0 <= self.q <= 1.0:
            raise ParameterError("p and q must be probabilities")
        if self.n_i < 1:
            raise ParameterError("grid resolution must be positive")

    @property
    def flipped(self) -> bool:
        return self.q > 0.5

    @property
    def q_reduced(self) -> float:
        return 1.0 - self.q if self.flipped else self.q

    @property
    def start_index(self) -> int:
        return math.ceil(self.q_reduced * 2 * self.n_i)

    @property
    def q_rounded(self) -> float:
        return self.start_index / (2 * self.n_i)


def sample_with_prior(
    p: float, q: float, n_i: int, rng: RandomSource, ledger: CostLedger
) -> int:
    """Sample a bit that is exactly Bernoulli(p) when the shared prior is q.

    Dispatch on the rounded prior q': for p <= 2q' an unbiased walk to the
    midpoint plus one bit; for small q' an unbiased walk to an intermediate
    point, guaranteed climbs to the midpoint and one bit; otherwise climbs
    from the prior directly.  A walk absorbing at 0 yields bit 0.
    """
    plan = BitWithPrior(p, q, n_i)
    if q in (0.0, 1.0) and p != q:
        raise ParameterError(f"prior q={q} forces the parameter to {q}, got p={p}")
    if plan.flipped:
        return 1 - sample_with_prior(1.0 - p, 1.0 - q, n_i, rng, ledger)
    if q == 0.0:
        return 0
    s0 = plan.start_index
    q_r = plan.q_rounded
    top = n_i
    if p <= 2.0 * q_r:
        out = unbiased_walk(s0, top, rng, ledger)
        if out.end_index == 0:
            return 0
        return _final_bit(p / (2.0 * q_r), rng, ledger)
    if q_r < 0.01:
        s = math.floor(s0 / p)
        out = unbiased_walk(s0, s, rng, ledger)
        if out.end_index == 0:
            return 0
        _climb(s, top, rng, ledger)
        return _final_bit(p * s / s0, rng, ledger)
    _climb(s0, top, rng, ledger)
    return _final_bit(p, rng, ledger)


def _climb(a: int, top: int, rng: RandomSource, ledger: CostLedger) -> None:
    """Doubling schedule a -> min(2a, top) of guaranteed climbs."""
    while a < top:
        b = min(a, top - a)
        brw_to_top(a, b, rng, ledger)
        a += b


# ---------------------------------------------------------------------------
# Noisy <-> noiseless constructions
# ---------------------------------------------------------------------------


class ReceivedBit:
    """Intent rule of a noisy protocol's noiseless replay: the noisy
    protocol's received-one probability at the node, per node or per level.
    The level form asks pi's own rules through `level_law`, so a table pi
    answers from the dense rows `table_spec` read when it built pi, the
    same store the energy walk of pi reads."""

    __slots__ = ("pi",)

    def __init__(self, pi: ProtocolSpec):
        self.pi = pi

    def __call__(self, party: str, own_input: Any, prefix: Transcript) -> float:
        return node_law(self.pi, party, own_input, prefix)[2]

    def level(self, party: str, own_input: Any, depth: int, ids: np.ndarray) -> np.ndarray:
        return received_one(*level_law(self.pi, party, own_input, depth, ids))


def noiseless_from_noisy(pi: ProtocolSpec, mu: dict | None = None) -> ProtocolSpec:
    """Replay a variable-noise protocol over the noiseless channel.

    Wherever the noisy protocol sends b over crossover c, the new protocol's
    speaker sends b xor N with a private coin N ~ B_c, so its sent bit *is*
    the noisy protocol's received bit and the transcript laws coincide for
    every input pair (mu only enters the information/energy guarantee).
    """
    if pi.crossover is None:
        raise SpecError("protocol has no per-bit crossover table to absorb")
    return ProtocolSpec(
        pi.rounds,
        pi.alice_inputs,
        pi.bob_inputs,
        ReceivedBit(pi),
        crossover=None,
        deterministic=False,
    )


def expected_energy_cost(pi: ProtocolSpec, mu: dict) -> float:
    """Exact distributional energy of a variable-noise protocol under mu."""
    if pi.crossover is None:
        raise SpecError("protocol has no per-bit crossover table")
    total = 0.0
    for _, reach, _, crossover, columns in protocol_tree(pi, mu):
        if crossover is not None:
            # bit_energy per (node, own value), then per pair; the walk has
            # validated every crossover.
            total += float(np.sum(reach * (4.0 * (crossover - 0.5) ** 2)[:, columns]))
    return total


def posterior_q(phi: ProtocolSpec, mu: dict, prefix: Transcript) -> float:
    """Exact probability that the next transmitted bit is 1 given the prefix.

    Marginalizes over the input distribution and the speakers' private
    coins; the prefix must be reachable with positive probability.
    """
    party = speaker(len(prefix))
    total = 0.0
    hot = 0.0
    for (x, y), weight in mu.items():
        if weight == 0.0:
            continue
        reach = weight * prefix_probability(phi, x, y, prefix)
        if reach == 0.0:
            continue
        total += reach
        hot += reach * phi.intent(party, phi.input_for(party, x, y), prefix)
    if total <= 0.0:
        raise ParameterError(f"prefix {prefix!r} has zero probability under mu")
    return hot / total


@dataclass
class NoisySimulation:
    """Bit-by-bit replay of a noiseless protocol over the variable-noise channel.

    For bit i the transmitter knows its true parameter p from its own view;
    both sides compute the public posterior q of that bit and run the
    prior-guided sampler on a grid of resolution n * 2^i.  The sampled
    received bit extends the shared transcript, so the transcript law equals
    the noiseless protocol's exactly.
    """

    phi: ProtocolSpec
    mu: dict
    n: int
    _posteriors: dict[Transcript, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("grid base resolution must be positive")

    def grid_resolution(self, round_index: int) -> int:
        """Resolution for the (1-indexed) round: n * 2^i."""
        return self.n * (1 << round_index)

    def posterior(self, prefix: Transcript) -> float:
        q = self._posteriors.get(prefix)
        if q is None:
            q = posterior_q(self.phi, self.mu, prefix)
            self._posteriors[prefix] = q
        return q

    def run(self, x: Any, y: Any, rng: RandomSource) -> tuple[Transcript, CostLedger]:
        ledger = CostLedger()
        prefix = ""
        for i in range(self.phi.rounds):
            party = speaker(i)
            p = self.phi.intent(party, self.phi.input_for(party, x, y), prefix)
            q = self.posterior(prefix)
            bit = sample_with_prior(p, q, self.grid_resolution(i + 1), rng, ledger)
            prefix += str(bit)
        return prefix, ledger


def noisy_from_noiseless(phi: ProtocolSpec, mu: dict, n: int) -> NoisySimulation:
    """Executable variable-noise simulation of a noiseless protocol."""
    if phi.crossover is not None:
        raise SpecError("expected a noiseless protocol")
    check_mu(phi, mu)
    return NoisySimulation(phi, mu, n)
