"""Two-party protocols over binary symmetric channels with feedback.

A protocol runs for a fixed number of rounds with strictly alternating
speakers (Alice speaks round 1).  Because the channel has feedback, both
parties observe every *received* bit, so the shared state after round i is
the received transcript prefix.  Transcripts are plain strings of '0'/'1'.

The reference executor `run_over_bsc` is the ground-truth oracle for the
rest of the package: it flips each transmitted bit independently with the
channel's crossover probability and accounts bits and energy exactly.

`protocol_tree` is the one exact walk over a protocol tree: it checks the
input law, applies ENUMERATION_GUARD and yields one level at a time as
arrays: the joint reach of every reachable node and input pair, and the
intent and crossover of every node and speaker's own input value, with the
map from input pair to own value that expands them to pairs.  The leaf law,
the joint (x, y, transcript) table, expected energy and information cost are
reductions over those arrays.  The walk names nodes by integer id: id j at
depth d is the prefix `format(j, f"0{d}b")` (`node_prefixes`), so id order
is lexicographic order and the children of j are 2j and 2j+1.  Prefix
strings are built only where something needs them: leaf names, and rules
without a level form.

A node's law has two forms with the same values: `node_law` asks the spec's
rules at one node (the executor and the per-prefix callers use it), and
`level_law` asks them over the ids of one depth for one own input value,
through a rule's `level(party, own_input, depth, ids)` method when it has
one.  The walker queries each level once per speaker's own input value, so
every rule is still asked once per (node, own value); `received_one` is the
one received-bit formula.  `TableRule`, the rule of `table_spec`, answers
node and level queries from one store: dense per-row arrays that
`table_spec` reads once, when it builds the spec.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import cycle, repeat
from typing import Any, Callable, Iterator

import numpy as np

ALICE = "alice"
BOB = "bob"

Transcript = str

# Largest number of (input pair, leaf) rows a protocol-tree walk may reach;
# keeps exact enumeration small enough to stay exact in double precision.
ENUMERATION_GUARD = 1 << 20


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class SpecError(ValueError):
    """A protocol specification is malformed or queried off its tree."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class IterationCapExceeded(RuntimeError):
    """A rejection loop or random walk exceeded its configured step cap."""


def speaker(round_index: int) -> str:
    """Speaker of a 0-indexed round; Alice opens and the schedule alternates."""
    return ALICE if round_index % 2 == 0 else BOB


def bit_energy(crossover: float) -> float:
    """Energy charged for one bit sent at the given crossover: 4*(c - 1/2)^2."""
    if not 0.0 <= crossover <= 1.0:
        raise ParameterError(f"crossover must be in [0, 1], got {crossover}")
    return 4.0 * (crossover - 0.5) ** 2


@dataclass(frozen=True)
class Noise:
    """Channel noise level, stored as the advantage eps; crossover = 1/2 - eps.

    It is also a crossover rule that sends every bit at that crossover, per
    node and per level, so `replace(spec, crossover=Noise(eps))` is `spec`
    run over BSC(1/2 - eps): a variable-noise protocol paying
    `bit_energy(1/2 - eps)` = 4 eps^2 per bit.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 0.5:
            raise ParameterError(f"advantage must be in [0, 1/2], got {self.epsilon}")

    @property
    def crossover(self) -> float:
        return 0.5 - self.epsilon

    @classmethod
    def from_crossover(cls, crossover: float) -> "Noise":
        if not 0.0 <= crossover <= 0.5:
            raise ParameterError(f"crossover must be in [0, 1/2], got {crossover}")
        return cls(0.5 - crossover)

    def __call__(self, party: str, own_input: Any, prefix: Transcript) -> float:
        return self.crossover

    def level(self, party: str, own_input: Any, depth: int, ids: np.ndarray) -> np.ndarray:
        return np.full(len(ids), self.crossover)


@dataclass(frozen=True)
class ErrorCounts:
    """Per-party flip counts of one execution; m_x on Alice rounds, m_y on Bob's."""

    m_x: int
    m_y: int

    @property
    def m(self) -> int:
        return self.m_x + self.m_y


@dataclass
class CostLedger:
    """Monotone bit counter and energy accumulator.

    Every transmitted bit charges 1 to `bits_sent` and `bit_energy(c)` to
    `energy`, where c is the crossover actually used for that bit.
    """

    bits_sent: int = 0
    energy: float = 0.0

    def charge(self, crossover: float, count: int = 1) -> None:
        if count < 0:
            raise ParameterError("cannot charge a negative bit count")
        self.bits_sent += count
        self.energy += count * bit_energy(crossover)


class RandomSource:
    """Four independent deterministic streams: public, alice, bob, channel.

    Stream k (public, alice, bob, channel in that order) is the generator of
    `SeedSequence(seed).spawn(4)[k]`, built on first read, so a caller that
    reads only `public` never pays for the other three.  Identical seeds
    reproduce identical executions bit-for-bit, whatever order the streams
    are first read in.  Trial i of a batch uses seed base+i, so batches are
    embarrassingly parallel.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")

    def _stream(self, k: int) -> np.random.Generator:
        # SeedSequence(seed).spawn(4)[k] is SeedSequence(seed, spawn_key=(k,)).
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(k,)))

    @cached_property
    def public(self) -> np.random.Generator:
        return self._stream(0)

    @cached_property
    def alice(self) -> np.random.Generator:
        return self._stream(1)

    @cached_property
    def bob(self) -> np.random.Generator:
        return self._stream(2)

    @cached_property
    def channel(self) -> np.random.Generator:
        return self._stream(3)

    @classmethod
    def for_trial(cls, base_seed: int, index: int) -> "RandomSource":
        return cls(base_seed + index)

    def stream_for(self, party: str) -> np.random.Generator:
        if party == ALICE:
            return self.alice
        if party == BOB:
            return self.bob
        raise SpecError(f"unknown party {party!r}")


def bernoulli(gen: np.random.Generator, p: float) -> int:
    return int(gen.random() < p)


@dataclass(frozen=True)
class ProtocolSpec:
    """Finite two-party protocol tree with alternating speakers.

    `next_bit(party, own_input, received_prefix)` gives the speaker's intent
    for the next round: 0/1 for a deterministic protocol, or a Bernoulli
    parameter in [0, 1] when the speaker uses a private coin at that node.
    `crossover`, when present, gives the per-bit channel choice of a
    variable-noise protocol (the transmitter picks it from the same view);
    a `Noise` there is the BSC at its crossover.  Without it every walk and
    node query reads crossover 0, the noiseless sent-bit law.
    """

    rounds: int
    alice_inputs: tuple
    bob_inputs: tuple
    next_bit: Callable[[str, Any, str], float]
    crossover: Callable[[str, Any, str], float] | None = None
    deterministic: bool = True

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise SpecError("protocol needs at least one round")
        if not self.alice_inputs or not self.bob_inputs:
            raise SpecError("input domains must be non-empty")

    def input_for(self, party: str, x: Any, y: Any) -> Any:
        return x if party == ALICE else y

    def intent(self, party: str, own_input: Any, prefix: Transcript) -> float:
        """Intent at a node, validated to be a probability."""
        if len(prefix) >= self.rounds:
            raise SpecError(f"prefix {prefix!r} is not interior to a {self.rounds}-round tree")
        try:
            value = self.next_bit(party, own_input, prefix)
        except KeyError as exc:
            raise _undefined(party, own_input, prefix) from exc
        return _probability(value, prefix)

    def crossover_at(self, party: str, own_input: Any, prefix: Transcript) -> float:
        if self.crossover is None:
            raise SpecError("protocol has no per-bit crossover table")
        try:
            c = float(self.crossover(party, own_input, prefix))
        except KeyError as exc:
            raise _undefined(party, own_input, prefix, "crossover") from exc
        if not 0.0 <= c <= 0.5:
            raise ParameterError(f"per-bit crossover {c} outside [0, 1/2]")
        return c


def _undefined(
    party: str, own_input: Any, prefix: Transcript, rule: str = "next_bit"
) -> SpecError:
    return SpecError(f"{rule} undefined at ({party}, {own_input!r}, {prefix!r})")


def _probability(value: Any, prefix: Transcript) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise SpecError(f"next_bit value {value} at {prefix!r} is not a probability")
    return value


def _deterministic(value: float, party: str, own_input: Any, prefix: Transcript) -> int:
    if value not in (0.0, 1.0):
        raise SpecError(
            f"protocol is not deterministic at this node: next_bit value {value} "
            f"at ({party}, {own_input!r}, {prefix!r})"
        )
    return int(value)


def pad_to_even(spec: ProtocolSpec) -> ProtocolSpec:
    """Append a constant-0 dummy round if the round count is odd."""
    if spec.rounds % 2 == 0:
        return spec
    base_rounds = spec.rounds
    inner_next = spec.next_bit
    inner_cross = spec.crossover

    def padded_next(party: str, own_input: Any, prefix: Transcript) -> float:
        if len(prefix) >= base_rounds:
            return 0.0
        return inner_next(party, own_input, prefix)

    padded_cross = None
    if inner_cross is not None:
        def padded_cross(party: str, own_input: Any, prefix: Transcript) -> float:
            if len(prefix) >= base_rounds:
                return 0.0
            return inner_cross(party, own_input, prefix)

    return replace(
        spec,
        rounds=base_rounds + 1,
        next_bit=padded_next,
        crossover=padded_cross,
    )


def run_over_bsc(
    spec: ProtocolSpec,
    x: Any,
    y: Any,
    noise: Noise | None,
    rng: RandomSource,
) -> tuple[Transcript, ErrorCounts, CostLedger]:
    """Execute all rounds over the BSC with feedback.

    Each transmitted bit is flipped independently with the spec's crossover
    rule, or, when the spec has none, with `noise`'s crossover; thanks to
    feedback both parties continue from the received bit.
    """
    if x not in spec.alice_inputs or y not in spec.bob_inputs:
        raise SpecError(f"inputs ({x!r}, {y!r}) outside the declared domains")
    if spec.crossover is None:
        if noise is None:
            raise ParameterError("need either a channel noise level or a per-bit crossover table")
        spec = replace(spec, crossover=noise)
    transcript = ""
    m_x = m_y = 0
    ledger = CostLedger()
    for i in range(spec.rounds):
        party = speaker(i)
        intent, c, _ = node_law(spec, party, spec.input_for(party, x, y), transcript)
        if intent in (0.0, 1.0):
            sent = int(intent)
        else:
            sent = bernoulli(rng.stream_for(party), intent)
        flipped = bernoulli(rng.channel, c)
        received = sent ^ flipped
        ledger.charge(c)
        if flipped:
            if party == ALICE:
                m_x += 1
            else:
                m_y += 1
        transcript += str(received)
    return transcript, ErrorCounts(m_x, m_y), ledger


# A deterministic intent as a bit; 0, 0.0 and False (1, 1.0, True) share a key.
_BIT = {0: "0", 1: "1"}
# How a replay step grows the node, indexed [step][intended bit].  Under a
# flip pattern the step is the round's flip.  Along a known leaf it is the
# stretch of the leaf from the round up to the speaker's next round, kept
# whatever was intended.
_FLIPPED = {0: {"0": "0", "1": "1"}, 1: {"0": "1", "1": "0"}}
_GIVEN = {s: {"0": s, "1": s} for s in ("0", "1", "00", "01", "10", "11")}


def _replay(
    turns: Iterator, root: Transcript, steps: Any, grow: dict, intended: list | None = None
) -> Transcript:
    """The one replay loop of a deterministic protocol: apply_flip_pattern,
    flip_pattern and count_errors run it, and their callers check lengths.

    Step k replays the node reached so far for the k-th (party, own input,
    rule) of `turns`: it asks the rule once and checks the value in the order
    of `ProtocolSpec.intent` followed by `_deterministic`, so a KeyError is
    "next_bit undefined", a value outside [0, 1] (or NaN) is "not a
    probability", and any other value but 0 and 1 is "not deterministic".
    The intended bit goes to `intended` when given, and the node grows by
    `grow[step][bit]`.  Returns the node reached.
    """
    prefix = root
    for step, (party, own_input, rule) in zip(steps, turns):
        try:
            value = rule(party, own_input, prefix)
        except KeyError as exc:
            raise _undefined(party, own_input, prefix) from exc
        try:
            bit = _BIT[value]
        except (KeyError, TypeError):
            bit = "01"[_deterministic(_probability(value, prefix), party, own_input, prefix)]
        if intended is not None:
            intended.append(bit)
        prefix += grow[step][bit]
    return prefix


def _turns(spec: ProtocolSpec, x: Any, y: Any, root: Transcript) -> Iterator:
    """(party, own input, rule) of each round below `root`, speakers alternating."""
    speakers = ((ALICE, x, spec.next_bit), (BOB, y, spec.next_bit))
    return cycle(speakers if len(root) % 2 == 0 else speakers[::-1])


def _leaf_intents(turns: Iterator, transcript: Transcript, first: int, steps: Any) -> str:
    """Intended bits of the rounds a replay of a full leaf visits, from round
    `first` on, one per step."""
    if transcript.strip("01"):
        raise SpecError(f"transcript {transcript!r} is not a string of 0/1 bits")
    intended: list = []
    _replay(turns, transcript[:first], steps, _GIVEN, intended)
    return "".join(intended)


def count_errors(spec: ProtocolSpec, party: str, own_input: Any, transcript: Transcript) -> int:
    """Replay one party's intended bits along a leaf and count corrupted rounds.

    Only meaningful for deterministic protocols: the intent at each node is
    pinned by the received prefix, so received != intended exactly at flips.
    Only `party`'s rounds ask the spec.
    """
    if len(transcript) != spec.rounds:
        raise SpecError(
            f"transcript length {len(transcript)} != protocol rounds {spec.rounds}"
        )
    if party not in (ALICE, BOB):
        raise SpecError(f"unknown party {party!r}")
    first = 0 if party == ALICE else 1
    stretches = [transcript[i : i + 2] for i in range(first, spec.rounds, 2)]
    turns = repeat((party, own_input, spec.next_bit))
    intended = _leaf_intents(turns, transcript, first, stretches)
    return sum(map(str.__ne__, intended, transcript[first::2]))


def flip_pattern(spec: ProtocolSpec, x: Any, y: Any, transcript: Transcript) -> np.ndarray:
    """Per-round flip indicators of a leaf of a deterministic protocol."""
    if len(transcript) != spec.rounds:
        raise SpecError("transcript is not a full leaf")
    intended = _leaf_intents(_turns(spec, x, y, ""), transcript, 0, transcript)
    return (
        np.frombuffer(intended.encode(), dtype=np.uint8)
        != np.frombuffer(transcript.encode(), dtype=np.uint8)
    ).astype(np.int8)


def apply_flip_pattern(
    spec: ProtocolSpec, x: Any, y: Any, root: Transcript, pattern: np.ndarray
) -> Transcript:
    """Materialize the leaf reached from `root` under a given flip pattern.

    Inverse of `flip_pattern` restricted to the subtree below `root`; the
    pattern bit of round i flips the speaker's intended bit at that node.
    Each round asks `spec.next_bit` once and checks the value in this order:
    a KeyError raises "next_bit undefined", a value outside [0, 1] "is not a
    probability", any other value but 0 and 1 "not deterministic".  A
    pattern longer than the rounds below `root` replays the rounds there are
    and then raises "is not interior", naming the leaf it reached.
    """
    steps = np.asarray(pattern, dtype=np.int8).tolist()
    free = max(spec.rounds - len(root), 0)
    leaf = _replay(_turns(spec, x, y, root), root, steps[:free], _FLIPPED)
    if len(steps) > free:
        raise SpecError(f"prefix {leaf!r} is not interior to a {spec.rounds}-round tree")
    return leaf


def check_mu(spec: ProtocolSpec, mu: dict) -> None:
    """Reject an input law that is not a probability law on the declared domains."""
    for pair, weight in mu.items():
        x, y = pair
        if x not in spec.alice_inputs or y not in spec.bob_inputs:
            raise SpecError(f"input pair {pair!r} outside the declared domains")
        if not weight >= 0.0:
            raise ParameterError(f"input pair {pair!r} has negative weight {weight}")
    total = sum(mu.values())
    if not abs(total - 1.0) <= 1e-9:
        raise ParameterError(f"input distribution sums to {total}, not 1")


def received_one(r, c):
    """Probability r(1-c) + (1-r)c that the received bit is 1, for intent r
    sent over crossover c; floats and arrays get the same IEEE operations."""
    return r * (1.0 - c) + (1.0 - r) * c


def node_law(
    spec: ProtocolSpec, party: str, own_input: Any, prefix: Transcript
) -> tuple[float, float, float]:
    """Intent r, crossover c and received-one probability of a node.

    The crossover is the spec's crossover rule when it has one, else 0 (the
    noiseless sent-bit law).  This is the reference form of a node's law:
    `level_law` gives the same values for the ids of one depth, and the
    walker replays its faults through this function to raise its errors.
    """
    r = spec.intent(party, own_input, prefix)
    c = 0.0 if spec.crossover is None else spec.crossover_at(party, own_input, prefix)
    return r, c, received_one(r, c)


def node_prefixes(depth: int, ids: Any) -> list[Transcript]:
    """Prefix strings of node ids at `depth`: id j is `format(j, f"0{depth}b")`."""
    ids = np.asarray(ids, dtype=np.int64).tolist()
    if depth == 0:
        return [""] * len(ids)
    return list(map(format, ids, repeat(f"0{depth}b")))


def _level_laws(
    spec: ProtocolSpec, party: str, depth: int, ids: np.ndarray, asks: list[tuple[Any, Any]]
) -> np.ndarray:
    """Intents `[0]` and crossovers `[1]` of the nodes `ids` of one depth,
    an array of shape (2, len(ids), len(asks)).

    Column g holds own value asks[g][0] at the rows asks[g][1] selects of
    `ids`, and 0 elsewhere.  A rule with a `level(party, own_input, depth,
    ids)` method answers a column at once; any other rule is called per
    node, on the node's prefix string.  With no crossover rule every
    crossover is 0.  A fault is a depth at or below the leaves, a rule that
    raises or gives other than one number per node, an intent that is not a
    probability or a crossover outside [0, 1/2].  On a fault the asked
    (node, own value) pairs are replayed through `node_law` in node order,
    which raises its error at the first bad one, so any exception is caught
    here; a replay that raises nothing gives the laws.
    """
    laws = np.zeros((2, len(ids), len(asks)))
    try:
        if depth >= spec.rounds:
            raise SpecError(f"depth {depth} holds no interior node")
        for rule, out in zip((spec.next_bit, spec.crossover), laws):
            if rule is None:
                continue
            level = getattr(rule, "level", None)
            for g, (own_input, rows) in enumerate(asks):
                nodes = ids[rows]
                if not nodes.size:
                    continue
                got = np.asarray(
                    level(party, own_input, depth, nodes)
                    if level is not None
                    else [rule(party, own_input, p) for p in node_prefixes(depth, nodes)],
                    np.float64,
                )
                if got.shape != nodes.shape:
                    raise SpecError(f"rule gave shape {got.shape} for {nodes.size} nodes")
                out[rows, g] = got
    except Exception:
        pass
    else:
        # Unasked entries are 0, which is in range.  A NaN fails, as min and
        # max propagate it.  The axis is positional: a keyword costs numpy
        # about a microsecond per call.
        if laws.size == 0 or (
            np.minimum.reduce(laws, None) >= 0.0
            and np.maximum.reduce(laws[0], None) <= 1.0
            and np.maximum.reduce(laws[1], None) <= 0.5
        ):
            return laws
    asked = np.zeros((len(ids), len(asks)), dtype=bool)
    for g, (_, rows) in enumerate(asks):
        asked[rows, g] = True
    rows, groups = np.nonzero(asked)
    laws[:, rows, groups] = np.array(
        [
            node_law(spec, party, asks[g][0], prefix)[:2]
            for prefix, g in zip(node_prefixes(depth, ids[rows]), groups.tolist())
        ]
    ).reshape(-1, 2).T
    return laws


def level_law(
    spec: ProtocolSpec, party: str, own_input: Any, depth: int, ids: Any
) -> tuple[np.ndarray, np.ndarray]:
    """Intent and crossover float64 arrays of one own input value over the
    node ids `ids` of one depth, each in [0, 2**depth) or SpecError.

    Entry k equals `node_law(spec, party, own_input, prefix)[:2]` at the
    prefix of `ids[k]` (`node_prefixes`), and each rule is asked once per
    node, through its `level` method when it has one.  A fault (a rule
    raises, a value is not a probability, a crossover is outside [0, 1/2]
    or the depth is at or below the leaves) raises `node_law`'s error at the
    first bad node, as `_level_laws` replays it.
    """
    ids = np.asarray(ids, np.int64)
    # The ids' bitwise OR is negative or has a bit at `depth` or above
    # exactly when some id is outside [0, 2**depth).
    if np.bitwise_or.reduce(ids, None) >> depth:
        bad = next(j for j in ids.tolist() if not 0 <= j < 1 << depth)
        raise SpecError(f"node id {bad} at depth {depth} is outside [0, 2**{depth})")
    laws = _level_laws(spec, party, depth, ids, [(own_input, slice(None))])
    return laws[0, :, 0], laws[1, :, 0]


def _own_values(pairs: list[tuple], own: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Distinct values of coordinate `own` over `pairs`, each pair's index into
    them, and the (pair x value) 0/1 float matrix of who holds what.

    The type is part of a value's identity, so 0, 0.0 and False stay distinct
    inputs, as they are to a spec keyed on str(own_input).
    """
    index: dict[tuple, int] = {}
    columns = np.array(
        [index.setdefault((type(p[own]), p[own]), len(index)) for p in pairs], dtype=np.intp
    )
    values = [key[1] for key in index]
    holds = (columns[:, None] == np.arange(len(values))).astype(np.float64)
    return values, columns, holds


# Added to twice a node's id, the ids of its two children.
_CHILD_BIT = np.array([0, 1], dtype=np.int64)


def protocol_tree(spec: ProtocolSpec, mu: dict) -> Iterator[
    tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]
]:
    """Walk the tree one level at a time, yielding
    (ids, reach, intent, crossover, columns).

    The k-th level yielded is depth k, the leaves (depth `spec.rounds`)
    last.  `ids` is an int64 array of the level's reachable node ids in
    increasing, that is lexicographic, order (`node_prefixes` names them).
    `reach` is a float64 array with one row per node and one column per
    input pair of positive weight, in the order of `mu`: the joint
    probability of the pair and the received prefix over the spec's
    crossover rule (crossover 0 without one, as in `node_law`).  A node is
    dropped when all its entries are 0.

    Intent and crossover depend only on the speaker's own input, so they
    come per (node, own value): float64 arrays with one row per node and
    one column per distinct own input value of the level's speaker among
    the pairs, and `columns` maps each pair (a column of `reach`) to its
    value's column, so `intent[:, columns]` is the (node, pair) intent.
    All three are None at the leaf level.  A (node, own value) that no pair
    of positive reach holds is never asked and reads 0, so consumers must
    weight by reach.

    Each level asks the rules once per own input value held by some pair of
    positive reach, over the ids where such a pair is (the `level_law`
    query).  The level's laws are validated at once; on any fault
    `_level_laws` replays them through `node_law` node by node, then own
    value by own value, so the error raised is `node_law`'s at the first
    bad (node, value).  Only the current level is held in memory.
    """
    check_mu(spec, mu)
    size = len(mu) << spec.rounds
    if size > ENUMERATION_GUARD:
        raise SpecError(
            f"protocol tree of {size} (pair, leaf) rows exceeds the guard: "
            f"{len(mu)} input pairs x 2^{spec.rounds} leaves ({spec.rounds} rounds) "
            f"> ENUMERATION_GUARD = {ENUMERATION_GUARD}"
        )
    pairs = [pair for pair, w in mu.items() if w > 0.0]
    own_values = {ALICE: _own_values(pairs, 0), BOB: _own_values(pairs, 1)}
    # With no crossover rule every crossover is 0, and received_one(r, 0.0)
    # is r exactly.
    noiseless = spec.crossover is None
    ones = np.ones(len(pairs))
    ids = np.zeros(1, dtype=np.int64)
    reach = np.array([[mu[pair] for pair in pairs]], dtype=np.float64)
    # Reaches are never negative, so a sum of them is positive exactly when
    # one of them is.  `full` says every reach of the level is positive.
    full = True
    for depth in range(spec.rounds):
        party = speaker(depth)
        values, columns, holds = own_values[party]
        # Ask the rules value by value where some pair holding the value
        # reaches the node: on a full level, at every node.
        if full:
            asks = [(own_input, slice(None)) for own_input in values]
        else:
            live = reach @ holds > 0.0
            asks = [(own_input, np.flatnonzero(live[:, g])) for g, own_input in enumerate(values)]
        intent, crossover = _level_laws(spec, party, depth, ids, asks)
        yield ids, reach, intent, crossover, columns
        pr_one = intent if noiseless else received_one(intent, crossover)
        children = np.empty((len(ids), 2, len(pairs)))
        np.multiply(reach, (1.0 - pr_one)[:, columns], out=children[:, 0])
        np.multiply(reach, pr_one[:, columns], out=children[:, 1])
        reach = children.reshape(2 * len(ids), len(pairs))
        ids = (2 * ids[:, None] + _CHILD_BIT).ravel()
        full = np.minimum.reduce(reach, None) > 0.0
        if not full:
            keep = reach @ ones > 0.0
            ids, reach = ids[keep], reach[keep]
    yield ids, reach, None, None, None


def enumerate_transcripts(spec: ProtocolSpec, x: Any, y: Any) -> Iterator[tuple[Transcript, float]]:
    """Exact leaf law of one input pair: yields (leaf, probability).

    With a crossover rule (a `Noise` for the BSC) the law is the
    received-bit law over that channel; without one, the noiseless sent-bit
    law.
    """
    for ids, reach, intent, *_ in protocol_tree(spec, {(x, y): 1.0}):
        if intent is None:
            yield from zip(node_prefixes(spec.rounds, ids), reach[:, 0].tolist())


def prefix_probability(spec: ProtocolSpec, x: Any, y: Any, prefix: Transcript) -> float:
    """Exact probability of observing a received prefix for one input pair,
    over the spec's crossover rule (crossover 0 without one)."""
    prob = 1.0
    for i, bit in enumerate(prefix):
        party = speaker(i)
        pr_one = node_law(spec, party, spec.input_for(party, x, y), prefix[:i])[2]
        prob *= pr_one if bit == "1" else 1.0 - pr_one
    return prob


# ---------------------------------------------------------------------------
# Spec constructors and the JSON file interface
# ---------------------------------------------------------------------------


def constant_spec(
    rounds: int,
    bit: int = 1,
    alice_inputs: tuple = (0,),
    bob_inputs: tuple = (0,),
) -> ProtocolSpec:
    """Both parties always intend the same constant bit."""
    value = float(int(bit))

    def next_bit(party: str, own_input: Any, prefix: Transcript) -> float:
        return value

    return ProtocolSpec(rounds, tuple(alice_inputs), tuple(bob_inputs), next_bit)


def xor_spec(
    rounds: int,
    noise: float = 0.0,
    alice_inputs: tuple = (0, 1),
    bob_inputs: tuple = (0, 1),
) -> ProtocolSpec:
    """Each party streams its input bits, each XORed with an iid B_noise coin.

    On its k-th speaking turn a party intends bit k of its integer input.
    noise=0 gives the deterministic send-your-input protocol.
    """
    if not 0.0 <= noise <= 0.5:
        raise ParameterError("xor noise must be in [0, 1/2]")

    def next_bit(party: str, own_input: Any, prefix: Transcript) -> float:
        turn = len(prefix) // 2
        b = (int(own_input) >> turn) & 1
        return b * (1.0 - noise) + (1 - b) * noise

    return ProtocolSpec(
        rounds,
        tuple(alice_inputs),
        tuple(bob_inputs),
        next_bit,
        deterministic=(noise == 0.0),
    )


def seeded_spec(
    rounds: int,
    seed: int,
    alice_inputs: tuple = (0, 1),
    bob_inputs: tuple = (0, 1),
) -> ProtocolSpec:
    """Deterministic tree whose bits come from a keyed hash of (party, input, prefix).

    Lets tests exercise large trees without materializing 2^T tables.
    """
    key = int(seed).to_bytes(8, "little", signed=True)

    def next_bit(party: str, own_input: Any, prefix: Transcript) -> int:
        h = hashlib.blake2b(
            f"{party}|{own_input}|{prefix}".encode(), key=key, digest_size=1
        )
        return h.digest()[0] & 1

    return ProtocolSpec(rounds, tuple(alice_inputs), tuple(bob_inputs), next_bit)


# Deepest table whose rows, of 2**rounds - 1 nodes, stay within ENUMERATION_GUARD.
_MAX_TABLE_ROUNDS = ENUMERATION_GUARD.bit_length() - 1
# Rows of tables up to this many rounds are checked against a cached tuple of
# heap-ordered prefixes (all tuples together at most 2**17 strings, about
# 10 MB); a deeper row is read key by key.
_HEAP_CHECK_ROUNDS = 16
# A row stores an absent node as +NaN and an entry float() reads as NaN as
# -NaN, so the two stay apart in one float64 array.
_ABSENT = math.copysign(math.nan, 1.0)
_NAN_ENTRY = math.copysign(math.nan, -1.0)


@cache
def heap_prefixes(rounds: int) -> tuple[Transcript, ...]:
    """Every interior node of a `rounds`-round tree, in heap order: the root,
    then each depth in lexicographic order."""
    return tuple(p for depth in range(rounds) for p in node_prefixes(depth, range(1 << depth)))


def _read_row(name: str, party: str, own: Any, row: dict, rounds: int) -> np.ndarray:
    """A table row as a float64 array in heap order: node p sits at
    2**len(p) - 1 + int(p, 2), over the 2**rounds - 1 interior nodes.

    A row whose keys are all the interior nodes in heap order is read by one
    `np.fromiter`; fromiter reads None as NaN, so a row with a NaN, like any
    other row, is read entry by entry.  SpecError at a key that is not a 0/1
    string shorter than `rounds`, or at an entry float() rejects.
    """
    size = (1 << rounds) - 1
    if rounds <= _HEAP_CHECK_ROUNDS and len(row) == size and tuple(row) == heap_prefixes(rounds):
        try:
            dense = np.fromiter(row.values(), np.float64, size)
            if not np.isnan(dense).any():
                return dense
        except (TypeError, ValueError, OverflowError):
            pass
    dense = np.full(size, _ABSENT)
    for prefix, value in row.items():
        if not isinstance(prefix, str) or len(prefix) >= rounds or prefix.strip("01"):
            raise SpecError(
                f"{name} key {prefix!r} at ({party}, {own!r}) is not a 0/1 string "
                f"shorter than {rounds}"
            )
        try:
            entry = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(
                f"{name} entry {value!r} at ({party}, {own!r}, {prefix!r}) is not a number"
            ) from exc
        dense[int("1" + prefix, 2) - 1] = entry if entry == entry else _NAN_ENTRY
    return dense


class TableRule:
    """A rule read off a table: table[party][str(own_input)][prefix].

    It holds every (party, own input) row of the table as a float64 array in
    heap order (`_read_row`), read once when the rule is built; it keeps no
    reference to the table, so editing the table afterwards changes nothing.
    Called per node, it gives the node's entry, and KeyError where the row
    or the node is absent.  Its level form `level(party, own_input, depth,
    ids)` gives the entries of the ids of one depth by one array index; an
    absent node or a NaN entry reads NaN there, which the walker treats as a
    fault and replays through `node_law`, so a level answer is the per-node
    answer or `node_law`'s error.

    Memory: each row is 8 B x (2**rounds - 1), at most 8 MB at 20 rounds.
    """

    __slots__ = ("rows", "rounds")

    def __init__(self, name: str, table: dict, rounds: int):
        self.rounds = rounds
        self.rows = {
            (party, own): _read_row(name, party, own, row, rounds)
            for party, per_party in table.items()
            for own, row in per_party.items()
        }

    def __call__(self, party: str, own_input: Any, prefix: Transcript) -> float:
        row = self.rows[party, str(own_input)]
        if len(prefix) >= self.rounds or prefix.strip("01"):
            raise KeyError(prefix)
        value = row[int("1" + prefix, 2) - 1]
        if value != value and math.copysign(1.0, value) > 0.0:
            raise KeyError(prefix)
        return value

    def level(self, party: str, own_input: Any, depth: int, ids: np.ndarray) -> np.ndarray:
        return self.rows[party, str(own_input)][(1 << depth) - 1 :][ids]


def table_spec(
    rounds: int,
    table: dict,
    alice_inputs: tuple,
    bob_inputs: tuple,
    crossover_table: dict | None = None,
) -> ProtocolSpec:
    """Explicit per-node table: table[party][str(input)][prefix] -> bit or probability.

    Every row of `table` and `crossover_table` is read here, once, into the
    spec's `TableRule`s.  A table needs 1 to 20 rounds, every key must be a
    0/1 string shorter than `rounds` and every entry must be accepted by
    float(), or SpecError; ranges are checked where the walk reads a node.
    """
    if not 1 <= rounds <= _MAX_TABLE_ROUNDS:
        raise SpecError(
            f"a table protocol needs 1 to {_MAX_TABLE_ROUNDS} rounds, got rounds = {rounds}: "
            f"a row holds 2**rounds - 1 nodes, at most ENUMERATION_GUARD = {ENUMERATION_GUARD}"
        )
    next_bit = TableRule("table", table, rounds)
    crossover = None
    if crossover_table is not None:
        crossover = TableRule("crossover_table", crossover_table, rounds)
    # Absent nodes (+NaN) do not count; a NaN entry (-NaN) is not a bit.
    deterministic = all(
        ((row == 0.0) | (row == 1.0) | (np.isnan(row) & ~np.signbit(row))).all()
        for row in next_bit.rows.values()
    )
    return ProtocolSpec(
        rounds,
        tuple(alice_inputs),
        tuple(bob_inputs),
        next_bit,
        crossover=crossover,
        deterministic=bool(deterministic),
    )


def spec_from_dict(doc: dict) -> ProtocolSpec:
    """Build a ProtocolSpec from its JSON document form."""
    try:
        rounds = int(doc["rounds"])
        alice_inputs = tuple(doc["alice_inputs"])
        bob_inputs = tuple(doc["bob_inputs"])
        kind = doc["kind"]
    except KeyError as exc:
        raise SpecError(f"spec document missing field {exc}") from exc
    if kind == "constant":
        return constant_spec(rounds, int(doc.get("bit", 1)), alice_inputs, bob_inputs)
    if kind == "xor":
        return xor_spec(rounds, float(doc.get("noise", 0.0)), alice_inputs, bob_inputs)
    if kind == "seeded":
        return seeded_spec(rounds, int(doc["seed"]), alice_inputs, bob_inputs)
    if kind == "table":
        return table_spec(
            rounds,
            doc["table"],
            alice_inputs,
            bob_inputs,
            crossover_table=doc.get("crossover_table"),
        )
    raise SpecError(f"unknown spec kind {kind!r}")


def load_spec(path: str) -> ProtocolSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
