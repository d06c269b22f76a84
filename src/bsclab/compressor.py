"""Noiseless-channel compression of protocols run over a BSC with feedback.

A T-round execution at advantage eps (crossover 1/2 - eps) is simulated by a
public-coin protocol over the noiseless channel.  Below beta (the constant
`DEFAULT_BETA`) a span's even part is cut into chunks of depth gamma ~
1/eps^2 and each chunk's leaf is sampled exactly via a biased public coin
that picks a low-error or high-error regime, rejection sampling inside the
regime, and a recursive simulation of the chunk at doubled advantage as the
low-regime proposal.  Every other round (all of them at eps >= beta, the
last of an odd span below it) is transmitted directly, 1 bit, and flipped
with a shared public coin; the BSC flips rounds independently, so the
pieces compose exactly.  `chunk_plan` is the one place that cuts a span and
picks each chunk's theta and t.  A `ChunkParams` checks its own exactness
conditions when built, and building a plan builds every level the
recursion can reach, so a bad level raises before the first draw.

Each regime runs a threshold subprotocol on the parties' error counts
(m_x, m_y).  A node of its tree is a class rectangle [x0, x1] x [y0, y1],
and its law is the two unconditioned margins (`binomial_margin`) read
through that window; `threshold_table` records every class's answer,
witnesses and rounds.

Everything the sampler decides on depends on the chunk's flip pattern only,
never on the protocol tree, so the internal engine samples flip patterns;
`core.apply_flip_pattern` turns the accepted pattern into the actual leaf.
`simulate_noiseless` runs a whole protocol and `simulate_chunk` one chunk;
both cap each rejection loop at `DEFAULT_MAX_ROUNDS` proposals, read per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Any, Iterator

import numpy as np

from .core import (
    CostLedger,
    InvariantViolation,
    IterationCapExceeded,
    ParameterError,
    ProtocolSpec,
    RandomSource,
    SpecError,
    Transcript,
    apply_flip_pattern,
)

DEFAULT_BETA = 0.125
DEFAULT_T_CAP = math.exp(6.0)
DEFAULT_MAX_ROUNDS = 10**9

BITS_PER_THRESHOLD_ROUND = 4
MAX_THRESHOLD_ROUNDS = 10_000


def default_gamma(epsilon: float) -> int:
    """Canonical chunk depth: ceil(1/eps^2) rounded up to even."""
    if not 0.0 < epsilon <= 0.5:
        raise ParameterError(f"advantage must be in (0, 1/2], got {epsilon}")
    g = math.ceil(1.0 / epsilon**2 - 1e-9)
    return g + (g % 2)


def default_t(epsilon: float) -> float:
    """Per-advantage rejection normalizer: (1+2eps)^(3/eps), capped at e^6.

    The cap never binds: ln(1+2eps) < 2eps puts (1+2eps)^(3/eps) below e^6
    for every eps > 0.  It stays because it is the paper's setting.
    """
    return min(DEFAULT_T_CAP, (1.0 + 2.0 * epsilon) ** (3.0 / epsilon))


def default_theta(gamma: int, epsilon: float) -> float:
    """Canonical error threshold: gamma * (1/2 - 3 eps), clamped at 0."""
    return max(0.0, gamma * (0.5 - 3.0 * epsilon))


def integer_budget(theta: float) -> int:
    """floor(theta) with a guard against floating-point fuzz in gamma*(1/2-3eps)."""
    return math.floor(theta + 1e-9)


def minimal_t(gamma: int, epsilon: float, theta: float) -> float:
    """Smallest normalizer keeping every high-branch acceptance probability
    <= 1, or inf where it exceeds every float (then no finite t is
    admissible)."""
    ti = integer_budget(theta)
    try:
        return math.exp(
            0.5 * ti * math.log1p(-4.0 * epsilon**2)
            + (gamma / 2.0 - ti) * math.log1p(2.0 * epsilon)
        )
    except OverflowError:
        return math.inf


def _describe(params: ChunkParams) -> str:
    """The chunk parameters an error message names."""
    return (
        f"eps={params.epsilon}, gamma={params.gamma}, "
        f"theta={params.theta:.6g}, t={params.t:.6g}"
    )


@dataclass(frozen=True)
class ChunkParams:
    """Knobs of one compression chunk, exact by construction.

    gamma is the chunk depth, theta the error threshold separating the
    regimes, t the high-regime normalizer.  The sampled leaf follows the
    channel law exactly when gamma is even and positive, theta lies in
    [0, gamma], the nested advantage 2 eps lies in (0, 1/2) and t is at
    least the high branch's acceptance supremum `minimal_t`; the constructor
    checks these and raises `ParameterError` naming the parameters and every
    violation, so every `ChunkParams` is admissible, on either side of
    `DEFAULT_BETA`.  Only the cost bound needs the canonical settings.
    """

    gamma: int
    epsilon: float
    theta: float
    t: float

    def __post_init__(self) -> None:
        violations = []
        if self.gamma < 2 or self.gamma % 2 != 0:
            violations.append(f"gamma must be even and positive, got {self.gamma}")
        if not 0.0 < self.nested_epsilon < 0.5:
            violations.append(f"nested advantage 2*eps={self.nested_epsilon} outside (0, 1/2)")
        if not 0.0 <= self.theta <= self.gamma:
            violations.append(f"theta must be finite and lie in [0, gamma], got {self.theta}")
        if not 0.0 < self.t < math.inf:
            violations.append(f"t must be positive and finite, got {self.t}")
        if not violations:
            sup = minimal_t(self.gamma, self.epsilon, self.theta)
            if self.t < sup * (1.0 - 1e-12):
                violations.append(
                    f"t={self.t:.6g} below the high-branch acceptance supremum {sup:.6g}"
                )
        if violations:
            raise ParameterError(f"{_describe(self)}: " + "; ".join(violations))

    @classmethod
    def for_advantage(
        cls,
        epsilon: float,
        gamma: int | None = None,
        theta: float | None = None,
        t: float | None = None,
    ) -> "ChunkParams":
        """The chunk at advantage eps with the paper's gamma, theta and t for
        every knob left out.  Where rounding puts `default_t` below the
        acceptance supremum (eps 0.1175 at canonical depth, for example) the
        default t is not admissible and construction raises; `chunk_plan`
        picks its own t there."""
        if gamma is None:
            gamma = default_gamma(epsilon)
        if theta is None:
            theta = default_theta(gamma, epsilon)
        if t is None:
            t = default_t(epsilon)
        return cls(gamma, epsilon, theta, t)

    @property
    def nested_epsilon(self) -> float:
        """The advantage 2 eps at which the low branch proposes its span."""
        return 2 * self.epsilon

    @property
    def theta_int(self) -> int:
        """Integer error budget used by the threshold protocol's witnesses."""
        return integer_budget(self.theta)

    @property
    def half(self) -> int:
        return self.gamma // 2

    @cached_property
    def low_mass(self) -> float:
        return low_error_mass(self)


def log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, each the log of the exact integer C(n, k).

    The running product C(n, k + 1) = C(n, k) (n - k) // (k + 1) stays
    exact, so every entry is within an ulp at any n; differences of
    log-gammas lose digits as n grows (7e-12 absolute at n = 3,200)."""
    logs = np.empty(n + 1)
    c = 1
    for k in range(n + 1):
        logs[k] = math.log(c)
        c = c * (n - k) // (k + 1)
    return logs


def _log_binom_pmf(n: int, q: float) -> np.ndarray:
    """log Pr[Binomial(n, q) = k] for k = 0..n."""
    k = np.arange(n + 1)
    return log_binomials(n) + k * math.log(q) + (n - k) * math.log1p(-q)


def low_error_mass(params: ChunkParams) -> float:
    """Pr[Binomial(gamma, 1/2-eps) <= floor(theta)]: the log pmf summed
    after shifting by its largest term."""
    ti = params.theta_int
    if ti >= params.gamma:
        return 1.0
    log_pmf = _log_binom_pmf(params.gamma, 0.5 - params.epsilon)[: ti + 1]
    top = log_pmf.max()
    return float(np.exp(log_pmf - top).sum() * math.exp(top))


def round_accept_mass_low(params: ChunkParams) -> float:
    """Closed-form per-round acceptance mass of the low-error branch: p * R.

    R is the likelihood ratio of the doubled-advantage law against the true
    law at the integer budget; the threshold witnesses make the per-leaf
    acceptance products collapse to exactly this value times the leaf law.
    """
    e, e2 = params.epsilon, params.nested_epsilon
    ti = params.theta_int
    log_r = ti * (math.log(0.5 - e2) - math.log(0.5 - e)) + (
        params.gamma - ti
    ) * (math.log(0.5 + e2) - math.log(0.5 + e))
    return params.low_mass * math.exp(log_r)


def round_accept_mass_high(params: ChunkParams) -> float:
    """Closed-form per-round acceptance mass of the high-error branch: (1-p)/t^2."""
    return (1.0 - params.low_mass) / params.t**2


# ---------------------------------------------------------------------------
# The threshold protocol
# ---------------------------------------------------------------------------


def binomial_margin(n: int, q: float) -> np.ndarray:
    """Binomial(n, q) pmf on [0, n] for 0 < q < 1, divided by its float sum
    when that strays from 1 by more than 1e-12: one party's error-count
    margin."""
    pmf = np.exp(_log_binom_pmf(n, q))
    total = pmf.sum()
    return pmf / total if abs(total - 1.0) > 1e-12 else pmf


def _window_cdf(pmf: np.ndarray, lo: int, hi: int):
    """k -> Pr[count <= k] for `pmf` conditioned to the window [lo, hi]:
    cumsum(pmf[lo:hi+1]) over its last entry, the window's mass, inside the
    window, 0 below it and 1 from its top.  A window without mass raises
    before anything is divided by it."""
    cum = np.cumsum(pmf[lo : hi + 1])
    if not cum[-1] > 0.0:
        raise InvariantViolation("conditioning emptied the support")

    def cdf(k: np.ndarray) -> np.ndarray:
        inside = cum[np.clip(k - lo, 0, hi - lo)] / cum[-1]
        return np.where(k < lo, 0.0, np.where(k >= hi, 1.0, inside))

    return cdf


def find_xi(
    px: np.ndarray, py: np.ndarray, rect: tuple[int, int, int, int], theta: int
) -> int:
    """Smallest integer xi in [-1, theta] balancing the two tail conditions
    at the node whose classes are rect = (x0, x1, y0, y1), i.e.
    [x0, x1] x [y0, y1]: under the margins px, py conditioned to it,
    Pr[m_x <= xi - 1] <= Pr[m_y <= theta - xi] and
    Pr[m_x <= xi] >= Pr[m_y <= theta - xi - 1]."""
    x0, x1, y0, y1 = rect
    cdf_x, cdf_y = _window_cdf(px, x0, x1), _window_cdf(py, y0, y1)
    xi = np.arange(-1, theta + 1)
    ok = (cdf_x(xi - 1) <= cdf_y(theta - xi)) & (cdf_x(xi) >= cdf_y(theta - xi - 1))
    if ok.any():
        return int(xi[ok.argmax()])
    raise InvariantViolation(
        f"no admissible xi for theta={theta}, half={px.size - 1}, "
        f"m_x support {x0}..{x1}, m_y support {y0}..{y1}; "
        "the sweep argument guarantees one"
    )


def threshold_nodes(
    px: np.ndarray, py: np.ndarray, theta: int, half: int
) -> Iterator[tuple[int, slice, slice, int]]:
    """Walk the threshold protocol's node tree over the class grid [0, half]^2.

    The protocol decides whether m_x + m_y > theta with witnesses, 4 bits per
    round: at a node with split xi the parties exchange (m_x = xi),
    (m_x > xi), (m_y = theta - xi) and (m_y > theta - xi).  Opposite strict
    verdicts recurse on the surviving rectangle; any other answer ends the
    run with witnesses theta_x = xi, theta_y = theta - xi.

    A node is its class rectangle: its law is the margins px, py (m_x's and
    m_y's unconditioned pmfs) restricted to it, and `find_xi` reads them
    through that window.  Yields (rounds, rows, cols, xi) for every node,
    parents before children: the classes reaching the node are rows x cols
    (slices) and xi is the node's split.  Only the two off-diagonal
    quadrants that hold classes recurse, so each class meets the nodes of
    its own run, as the tests' per-class reference replays it.  A run deeper
    than `MAX_THRESHOLD_ROUNDS` raises `InvariantViolation`.
    """
    stack = [(1, 0, half, 0, half)]
    while stack:
        rounds, x0, x1, y0, y1 = stack.pop()
        if rounds > MAX_THRESHOLD_ROUNDS:
            raise InvariantViolation(
                f"threshold recursion failed to terminate: theta={theta}, "
                f"half={half}, {rounds} rounds > {MAX_THRESHOLD_ROUNDS}"
            )
        xi = find_xi(px, py, (x0, x1, y0, y1), theta)
        k = theta - xi
        yield rounds, slice(x0, x1 + 1), slice(y0, y1 + 1), xi
        if xi < x1 and y0 < k:
            stack.append((rounds + 1, max(x0, xi + 1), x1, y0, min(y1, k - 1)))
        if x0 < xi and k < y1:
            stack.append((rounds + 1, x0, min(x1, xi - 1), max(y0, k + 1), y1))


def threshold_table(
    px: np.ndarray, py: np.ndarray, theta: int, half: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trace the threshold protocol for every class (m_x, m_y) in [0, half]^2
    under m_x's and m_y's pmfs px and py on [0, half].

    Returns (answer, theta_x, theta_y, rounds) arrays indexed [m_x, m_y],
    equal to the tests' per-class reference run class by class.  Each node of
    `threshold_nodes` decides its whole rectangle at once; the quadrants it
    leaves open are overwritten by its children.
    """
    shape = (half + 1, half + 1)
    answer = np.zeros(shape, dtype=np.int64)
    tx = np.zeros(shape, dtype=np.int64)
    ty = np.zeros(shape, dtype=np.int64)
    rounds = np.zeros(shape, dtype=np.int64)
    grid = np.arange(half + 1)
    for depth, rows, cols, xi in threshold_nodes(px, py, theta, half):
        m_x, m_y = grid[rows, None], grid[None, cols]
        # m_x = xi answers by m_y's verdict; any other class decided here
        # (the column m_y = theta - xi or an agreeing quadrant) by m_x's.
        answer[rows, cols] = np.where(m_x == xi, m_y > theta - xi, m_x > xi)
        tx[rows, cols] = xi
        ty[rows, cols] = theta - xi
        rounds[rows, cols] = depth
    return answer, tx, ty, rounds


# ---------------------------------------------------------------------------
# The paper's chunk plan
# ---------------------------------------------------------------------------

COST_RATIO_FLOOR = 5.0


@cache
def chunk_plan(epsilon: float, depth: int) -> tuple[ChunkParams, ...]:
    """The chunks, in order, a depth-`depth` span at advantage eps is cut into.

    `()` means direct simulation: always at eps >= beta, and for a span
    under two rounds.  Otherwise depth-`default_gamma(eps)` chunks follow
    one another, then the shorter even remainder, if any, all at the
    paper's theta; at odd depth the last round is direct.  A
    canonical chunk runs at t = max(`default_t`, sup) and the remainder at
    t = sup, where sup = `minimal_t` is the high branch's acceptance
    supremum; rounding gamma up and flooring theta can put `default_t` below
    it.  The output law does not depend on t.

    Building a plan builds every chunk, which checks its exactness, and the
    plan of each distinct chunk's nested-advantage span, so a span whose
    plan builds never meets a bad level while sampling.  A canonical chunk
    must also keep the low branch's mass ratio R at or above
    `COST_RATIO_FLOOR`: a cost rule of the paper plan, not an exactness
    one.  Each distinct chunk is one `ChunkParams`.
    """
    if epsilon >= DEFAULT_BETA:
        return ()
    canonical = default_gamma(epsilon)

    def chunk(gamma: int) -> ChunkParams:
        theta = default_theta(gamma, epsilon)
        sup = minimal_t(gamma, epsilon, theta)
        t = max(default_t(epsilon), sup) if gamma == canonical else sup
        params = ChunkParams(gamma, epsilon, theta, t)
        if gamma == canonical:
            ratio = round_accept_mass_low(params) / max(params.low_mass, 5e-324)
            if ratio < COST_RATIO_FLOOR:
                raise ParameterError(
                    f"{_describe(params)}: low-branch mass ratio R={ratio:.4g} "
                    f"< {COST_RATIO_FLOOR} at canonical chunk depth"
                )
        chunk_plan(params.nested_epsilon, gamma)
        return params

    full, rest = divmod(depth - depth % 2, canonical)
    plan = (chunk(canonical),) * full if full else ()
    return plan + ((chunk(rest),) if rest else ())


# ---------------------------------------------------------------------------
# Precomputed per-parameter tables for the samplers
# ---------------------------------------------------------------------------


def _masked_exp(exponent: np.ndarray, unused: np.ndarray) -> np.ndarray:
    """exp(exponent), with 0 on the unused classes: their exponents can
    overflow, and 0 * inf would put NaN into the class DP."""
    return np.exp(np.where(unused, -np.inf, exponent))


class ChunkTables:
    """Both branches' threshold answers and rounds and each party's
    acceptance probabilities, indexed [m_x, m_y].  The samplers draw from
    these arrays and the exact class DP (`verify.exact_branch_analysis`)
    reads the same ones.  A branch's acceptance probabilities are 0 on the
    classes its threshold answer rejects, which neither reads.

    For the high branch it also holds what its sampler draws from:
    the per-proposal accept mass `mass_high`, the cumulative law of the
    accepted class over the flat index m_x * (half + 1) + m_y
    (`high_win_cdf`), and the distinct (threshold rounds, answer) categories
    (`high_cat_rounds`, `high_cat_answer`) with the law of a rejected
    proposal's category (`high_reject_law`)."""

    def __init__(self, params: ChunkParams):
        try:
            self._build(params)
        except InvariantViolation as err:
            raise InvariantViolation(f"{_describe(params)}: {err}") from err

    def _build(self, params: ChunkParams) -> None:
        e = params.epsilon
        half = params.half
        ti = params.theta_int
        l1m, l1p = math.log(0.5 - e), math.log(0.5 + e)
        e2 = params.nested_epsilon
        l2m, l2p = math.log(0.5 - e2), math.log(0.5 + e2)
        log_t = math.log(params.t)

        # Each branch's log acceptance probability for one party with error
        # count m and threshold witness w.
        def log_acc_low(m, w):
            return (m - w) * (l1m - l2m) + (w - m) * (l1p - l2p)

        def log_acc_high(m, w):
            return (
                m * l1m
                + (half - m) * l1p
                - log_t
                - (w - ti / 2.0) * (l1m - l1p)
                + half * math.log(2.0)
            )

        def accept(branch, log_acc, tx, ty, unused):
            acc_x = _masked_exp(log_acc(np.arange(half + 1)[:, None], tx), unused)
            acc_y = _masked_exp(log_acc(np.arange(half + 1)[None, :], ty), unused)
            if np.any(acc_x > 1.0 + 1e-12) or np.any(acc_y > 1.0 + 1e-12):
                raise InvariantViolation(f"{branch}-branch acceptance probability exceeds 1")
            return acc_x, acc_y

        low = binomial_margin(half, 0.5 - e2)
        self.ans_low, tx, ty, self.rounds_low = threshold_table(low, low, ti, half)
        self.acc_low_x, self.acc_low_y = accept("low", log_acc_low, tx, ty, self.ans_low == 1)
        margin = binomial_margin(half, 0.5)
        self.ans_high, tx, ty, self.rounds_high = threshold_table(margin, margin, ti, half)
        self.acc_high_x, self.acc_high_y = accept("high", log_acc_high, tx, ty, self.ans_high == 0)

        # A rejected proposal's cost depends only on its (threshold rounds,
        # answer) category, so the sampler needs no per-class rejected law.
        law = np.outer(margin, margin)
        won = self.ans_high * self.acc_high_x * self.acc_high_y
        win_cdf = np.cumsum((law * won).reshape(-1))
        self.mass_high = float(win_cdf[-1])
        self.high_win_cdf = win_cdf / win_cdf[-1] if win_cdf[-1] > 0 else win_cdf
        codes, category = np.unique(2 * self.rounds_high + self.ans_high, return_inverse=True)
        self.high_cat_rounds, self.high_cat_answer = np.divmod(codes, 2)
        reject = np.bincount(category.reshape(-1), (law * (1.0 - won)).reshape(-1))
        self.high_reject_law = reject / reject.sum()


@cache
def chunk_tables(params: ChunkParams) -> ChunkTables:
    """The cached `ChunkTables` of one parameter set."""
    return ChunkTables(params)


def expected_high_bits(params: ChunkParams) -> float:
    """Exact mean bits of one high-branch run (Wald's identity): a proposal's
    mean charge, 4 per threshold round plus 2 when the threshold lets it
    through, times the mean proposal count 1 / `mass_high`."""
    tables = chunk_tables(params)
    margin = binomial_margin(params.half, 0.5)
    charge = BITS_PER_THRESHOLD_ROUND * tables.rounds_high + 2 * tables.ans_high
    return float(margin @ charge @ margin) / tables.mass_high


# ---------------------------------------------------------------------------
# Pattern-space sampling engine
# ---------------------------------------------------------------------------


def _span_pattern(
    epsilon: float, depth: int, rng: RandomSource, ledger: CostLedger
) -> np.ndarray:
    """The chunks of `chunk_plan` in order, then every round they leave
    uncovered: one true bit each, which a shared coin flips at 1/2 - eps."""
    plan = chunk_plan(epsilon, depth)
    patterns = [_chunk_pattern(params, rng, ledger)[0] for params in plan]
    direct = depth - sum(params.gamma for params in plan)
    if direct:
        ledger.charge(0.0, direct)
        patterns.append((rng.public.random(direct) < 0.5 - epsilon).astype(np.int8))
    return np.concatenate(patterns)


def _materialize_counts(
    half: int, m_x: int, m_y: int, rng: RandomSource
) -> np.ndarray:
    """Uniform flip pattern conditioned on the per-party counts."""
    pattern = np.zeros(2 * half, dtype=np.int8)
    if m_x:
        pattern[2 * rng.public.choice(half, size=m_x, replace=False)] = 1
    if m_y:
        pattern[2 * rng.public.choice(half, size=m_y, replace=False) + 1] = 1
    return pattern


# (branch, rounds, threshold_rounds) of one chunk: 0 low or 1 high, its
# proposals up to the accepted one, and the threshold rounds they ran.
_ChunkCounts = tuple[int, int, int]


def _branch_high_pattern(
    params: ChunkParams, rng: RandomSource, ledger: CostLedger
) -> tuple[np.ndarray, _ChunkCounts]:
    """The high branch's rejection loop, drawn from its exact joint law.

    Proposals are i.i.d., so the accepted class is independent of the
    rejected ones: the number of rejections N is geometric in the accept
    mass, their (threshold rounds, answer) histogram is multinomial in the
    rejected law's categories, and the winner follows the accepted law.  The
    charges are those of running every proposal: 4 bits per threshold round
    and 2 accept bits per proposal the threshold lets through.
    """
    tables = chunk_tables(params)
    half = params.half
    if tables.mass_high <= 0.0:
        raise InvariantViolation("high branch entered with zero acceptance mass")
    rejected = int(rng.public.geometric(tables.mass_high)) - 1
    if rejected + 1 > DEFAULT_MAX_ROUNDS:
        raise IterationCapExceeded(
            f"high-branch rejection loop exceeded {DEFAULT_MAX_ROUNDS} rounds: "
            f"{_describe(params)}"
        )
    hist = rng.public.multinomial(rejected, tables.high_reject_law)
    won = int(tables.high_win_cdf.searchsorted(rng.public.random(), side="right"))
    m_x, m_y = divmod(won, half + 1)
    won_rounds = int(tables.rounds_high[m_x, m_y])
    threshold_rounds = int(hist @ tables.high_cat_rounds) + won_rounds
    accept_bits = 2 * (int(hist @ tables.high_cat_answer) + 1)
    ledger.charge(0.0, BITS_PER_THRESHOLD_ROUND * threshold_rounds + accept_bits)
    pattern = _materialize_counts(half, m_x, m_y, rng)
    return pattern, (1, rejected + 1, threshold_rounds)


def _branch_low_pattern(
    params: ChunkParams, rng: RandomSource, ledger: CostLedger
) -> tuple[np.ndarray, _ChunkCounts]:
    tables = chunk_tables(params)
    rounds = 0
    threshold_rounds = 0
    while True:
        rounds += 1
        if rounds > DEFAULT_MAX_ROUNDS:
            raise IterationCapExceeded(
                f"low-branch rejection loop exceeded {DEFAULT_MAX_ROUNDS} rounds: "
                f"{_describe(params)}"
            )
        pattern = _span_pattern(params.nested_epsilon, params.gamma, rng, ledger)
        mx = int(pattern[0::2].sum())
        my = int(pattern[1::2].sum())
        used = int(tables.rounds_low[mx, my])
        threshold_rounds += used
        ledger.charge(0.0, BITS_PER_THRESHOLD_ROUND * used)
        if tables.ans_low[mx, my] == 1:
            continue
        ledger.charge(0.0, 2)
        if rng.alice.random() < tables.acc_low_x[mx, my] and rng.bob.random() < tables.acc_low_y[mx, my]:
            return pattern, (0, rounds, threshold_rounds)


def _chunk_pattern(
    params: ChunkParams, rng: RandomSource, ledger: CostLedger
) -> tuple[np.ndarray, _ChunkCounts]:
    # Public coin; b = 0 (probability p = low_mass) enters the low branch.
    go_low = rng.public.random() < params.low_mass
    if go_low:
        return _branch_low_pattern(params, rng, ledger)
    return _branch_high_pattern(params, rng, ledger)


# ---------------------------------------------------------------------------
# Public sampling API
# ---------------------------------------------------------------------------


def simulate_noiseless(
    spec: ProtocolSpec,
    x: Any,
    y: Any,
    epsilon: float,
    rng: RandomSource,
) -> tuple[Transcript, CostLedger]:
    """Sample a full transcript distributed exactly as the BSC execution.

    The ledger counts only noiseless bits actually exchanged (each charged
    unit energy).  A span whose `chunk_plan` does not build raises
    `ParameterError` before the first draw.
    """
    if not spec.deterministic:
        raise SpecError("only deterministic protocols can be compressed")
    if not 0.0 < epsilon <= 0.5:
        raise ParameterError(f"advantage must be in (0, 1/2], got {epsilon}")
    ledger = CostLedger()
    pattern = _span_pattern(epsilon, spec.rounds, rng, ledger)
    return apply_flip_pattern(spec, x, y, "", pattern), ledger


def simulate_chunk(
    spec: ProtocolSpec,
    x: Any,
    y: Any,
    root: Transcript,
    params: ChunkParams,
    rng: RandomSource,
    ledger: CostLedger | None = None,
    record: dict | None = None,
) -> Transcript:
    """Sample one depth-gamma leaf below `root` with the exact channel law,
    which every `ChunkParams` admits by construction.

    Bits are charged to `ledger`.  `record` gets "branch" (0 low, 1 high) and
    adds the chunk's proposal and threshold rounds to "rounds" and
    "threshold_rounds"; a chunk stopped at the iteration cap leaves it as is.
    """
    if len(root) % 2 != 0:
        raise SpecError("chunk roots sit at even depth (an Alice round)")
    if len(root) + params.gamma > spec.rounds:
        raise SpecError("chunk extends past the protocol's leaf level")
    ledger = CostLedger() if ledger is None else ledger
    pattern, (branch, rounds, threshold_rounds) = _chunk_pattern(params, rng, ledger)
    if record is not None:
        record["branch"] = branch
        record["rounds"] = record.get("rounds", 0) + rounds
        record["threshold_rounds"] = record.get("threshold_rounds", 0) + threshold_rounds
    return apply_flip_pattern(spec, x, y, root, pattern)
