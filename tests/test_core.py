import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsclab import core
from bsclab.core import (
    ALICE,
    BOB,
    ENUMERATION_GUARD,
    Noise,
    ParameterError,
    RandomSource,
    SpecError,
    bit_energy,
    constant_spec,
    count_errors,
    enumerate_transcripts,
    flip_pattern,
    level_law,
    node_law,
    node_prefixes,
    pad_to_even,
    prefix_probability,
    protocol_tree,
    received_one,
    run_over_bsc,
    seeded_spec,
    speaker,
    spec_from_dict,
    table_spec,
    xor_spec,
)
from bsclab.energy import expected_energy_cost, noiseless_from_noisy
from bsclab.infotheory import (
    FiniteJoint,
    InfoCostResult,
    _divergence,
    _entropy,
    binary_entropy,
    external_info_cost,
    kl_bernoulli,
)
from bsclab.verify import chi_square_gof


class TestBitEnergy:
    def test_zero_advantage(self):
        assert bit_energy(0.5) == 0.0

    def test_noiseless(self):
        assert bit_energy(0.0) == 1.0

    def test_direct_value(self):
        assert bit_energy(0.3) == pytest.approx(0.16, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ParameterError):
            bit_energy(1.5)


class TestNoise:
    def test_crossover(self):
        assert Noise(0.1).crossover == pytest.approx(0.4)
        assert Noise.from_crossover(0.4).epsilon == pytest.approx(0.1)

    def test_range(self):
        with pytest.raises(ParameterError):
            Noise(0.6)
        with pytest.raises(ParameterError):
            Noise.from_crossover(0.7)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5])
    def test_bsc_is_a_variable_noise_protocol(self, eps):
        """BSC(1/2 - eps) is the variable-noise channel sending every bit at
        crossover 1/2 - eps: it costs 4 eps^2 per round, and its noiseless
        replay has its transcript law."""
        gen = np.random.default_rng(21)
        table = table_spec(4, _full_tables(gen, 4, 1.0), (0, 1), (0, 1))
        mu = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
        for spec in (table, seeded_spec(5, seed=3)):
            bsc = replace(spec, crossover=Noise(eps))
            energy = expected_energy_cost(bsc, mu)
            assert energy == pytest.approx(spec.rounds * bit_energy(0.5 - eps), abs=1e-12)
            replay = noiseless_from_noisy(bsc)
            for x, y in mu:
                assert list(enumerate_transcripts(replay, x, y)) == list(
                    enumerate_transcripts(bsc, x, y)
                )


class TestRunOverBsc:
    def test_noiseless_identity(self):
        spec = constant_spec(1)
        tr, ec, ledger = run_over_bsc(spec, 0, 0, Noise(0.5), RandomSource(0))
        assert tr == "1" and ec.m == 0
        assert ledger.bits_sent == 1 and ledger.energy == 1.0  # crossover 0 costs 1

    def test_pure_noise_is_uniform(self):
        # crossover 1/2: the received bit ignores the intent
        spec = constant_spec(1)
        law = dict(enumerate_transcripts(replace(spec, crossover=Noise(0.0)), 0, 0))
        assert law == {"0": 0.5, "1": 0.5}

    def test_exact_two_round_law(self):
        spec = constant_spec(2)
        law = dict(enumerate_transcripts(replace(spec, crossover=Noise.from_crossover(0.4)), 0, 0))
        assert law["11"] == pytest.approx(0.36)
        assert law["00"] == pytest.approx(0.16)

    def test_monte_carlo_matches_enumeration(self):
        # The xor spec's Bernoulli intents draw from the speakers' private
        # streams; each spec has its own seed base.
        noise = Noise.from_crossover(0.3)
        for spec, base in ((seeded_spec(4, seed=9), 11), (xor_spec(4, noise=0.25), 13)):
            bsc = replace(spec, crossover=noise)
            leaves = sorted(t for t, _ in enumerate_transcripts(bsc, 1, 0))
            expected = np.array([dict(enumerate_transcripts(bsc, 1, 0))[t] for t in leaves])
            counts = np.zeros(len(leaves), dtype=int)
            for i in range(20_000):
                tr, _, _ = run_over_bsc(spec, 1, 0, noise, RandomSource.for_trial(base, i))
                counts[leaves.index(tr)] += 1
            assert chi_square_gof(counts, expected).passed

    def test_error_counts_match_replay(self):
        spec = seeded_spec(6, seed=2)
        noise = Noise.from_crossover(0.25)
        for i in range(200):
            tr, ec, _ = run_over_bsc(spec, 0, 1, noise, RandomSource.for_trial(5, i))
            assert ec.m_x == count_errors(spec, ALICE, 0, tr)
            assert ec.m_y == count_errors(spec, BOB, 1, tr)
            assert ec.m == ec.m_x + ec.m_y

    def test_ledger_exactness(self):
        spec = constant_spec(7)
        _, _, ledger = run_over_bsc(spec, 0, 0, Noise.from_crossover(0.37), RandomSource(3))
        assert ledger.bits_sent == 7
        assert ledger.energy == pytest.approx(7 * bit_energy(0.37), abs=1e-12)

    def test_replay_determinism(self):
        spec = seeded_spec(8, seed=4)
        runs = [run_over_bsc(spec, 1, 1, Noise(0.1), RandomSource(99)) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2].energy == runs[1][2].energy

    def test_feedback_echo_law(self):
        # Bob repeats the bit he received, so the rounds are coupled through
        # the transcript, not through Alice's intent.
        echo = core.ProtocolSpec(
            2, (0,), (0,), lambda p, i, pre: 1.0 if pre == "" or pre[-1] == "1" else 0.0
        )
        bsc = replace(echo, crossover=Noise.from_crossover(0.25))
        law = dict(enumerate_transcripts(bsc, 0, 0))
        assert law["11"] == pytest.approx(0.5625)
        assert law["01"] == pytest.approx(0.0625)

    def test_undefined_prefix_is_spec_error(self):
        spec = table_spec(2, {"alice": {"0": {"": 1}}, "bob": {"0": {}}}, (0,), (0,))
        with pytest.raises(SpecError):
            run_over_bsc(spec, 0, 0, Noise(0.1), RandomSource(0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: node_law(spec, ALICE, 0, ""),
            lambda spec: expected_energy_cost(spec, {(0, 0): 1.0}),
            lambda spec: run_over_bsc(spec, 0, 0, None, RandomSource(0)),
        ],
        ids=["node_law", "expected_energy_cost", "run_over_bsc"],
    )
    def test_undefined_crossover_is_spec_error(self, call):
        spec = table_spec(
            1,
            {"alice": {"0": {"": 1.0}}, "bob": {"0": {}}},
            (0,),
            (0,),
            crossover_table={"alice": {"0": {}}, "bob": {"0": {}}},
        )
        with pytest.raises(SpecError, match=re.escape("crossover undefined at (alice, 0, '')")):
            call(spec)

    def test_input_outside_domain(self):
        with pytest.raises(SpecError):
            run_over_bsc(constant_spec(2), 5, 0, Noise(0.1), RandomSource(0))


class TestCountErrors:
    def test_no_corruption(self):
        spec = constant_spec(2)
        assert count_errors(spec, ALICE, 0, "11") == 0

    def test_single_flip(self):
        spec = constant_spec(2)
        assert count_errors(spec, ALICE, 0, "01") == 1
        assert count_errors(spec, BOB, 0, "01") == 0

    def test_shape_error(self):
        with pytest.raises(SpecError):
            count_errors(constant_spec(3), ALICE, 0, "01")

    def test_flip_pattern_roundtrip(self):
        spec = seeded_spec(6, seed=12)
        rng = RandomSource(31)
        tr, _, _ = run_over_bsc(spec, 0, 1, Noise(0.2), rng)
        pattern = flip_pattern(spec, 0, 1, tr)
        assert core.apply_flip_pattern(spec, 0, 1, "", pattern) == tr


def _reference_intent_bit(spec, party, own_input, prefix):
    """The per-node check the replay loop must reproduce: `intent` then the
    0/1 test, each with its message."""
    if len(prefix) >= spec.rounds:
        raise SpecError(f"prefix {prefix!r} is not interior to a {spec.rounds}-round tree")
    try:
        value = spec.next_bit(party, own_input, prefix)
    except KeyError as exc:
        raise SpecError(f"next_bit undefined at ({party}, {own_input!r}, {prefix!r})") from exc
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise SpecError(f"next_bit value {value} at {prefix!r} is not a probability")
    if value not in (0.0, 1.0):
        raise SpecError("protocol is not deterministic at this node")
    return int(value)


def _reference_apply(spec, x, y, root, pattern):
    """Per-round replay, one full intent check per round."""
    transcript = root
    for e in np.asarray(pattern, dtype=np.int8):
        i = len(transcript)
        party = speaker(i)
        intended = _reference_intent_bit(spec, party, spec.input_for(party, x, y), transcript)
        transcript += str(intended ^ int(e))
    return transcript


def _reference_flips(spec, x, y, transcript):
    return [
        _reference_intent_bit(spec, speaker(i), (x, y)[i % 2], transcript[:i]) ^ int(bit)
        for i, bit in enumerate(transcript)
    ]


def _raised(call):
    try:
        return "returned", call()
    except SpecError as exc:
        return "raised", str(exc)


@st.composite
def replay_cases(draw):
    """A random deterministic table protocol of 1-10 rounds on inputs {0, 1}
    with every node defined, its table, inputs, a root at even depth and a
    flip pattern for the rounds below it."""
    rounds = draw(st.integers(1, 10))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefixes = _prefixes(rounds)
    table = {
        party: {
            inp: dict(zip(prefixes, gen.integers(0, 2, len(prefixes)).tolist()))
            for inp in ("0", "1")
        }
        for party in ("alice", "bob")
    }
    x, y = draw(st.sampled_from([0, 1])), draw(st.sampled_from([0, 1]))
    depth = draw(st.integers(0, rounds // 2)) * 2
    root = "".join(draw(st.lists(st.sampled_from("01"), min_size=depth, max_size=depth)))
    pattern = np.array(
        draw(st.lists(st.integers(0, 1), min_size=rounds - depth, max_size=rounds - depth)),
        dtype=np.int8,
    )
    return table_spec(rounds, table, (0, 1), (0, 1)), table, x, y, root, pattern


class TestReplay:
    """apply_flip_pattern, flip_pattern and count_errors against the per-round
    reference loop, on their results and on their errors."""

    @settings(max_examples=150, deadline=None)
    @given(replay_cases())
    def test_matches_reference(self, case):
        spec, _, x, y, root, pattern = case
        leaf = core.apply_flip_pattern(spec, x, y, root, pattern)
        assert leaf == _reference_apply(spec, x, y, root, pattern)
        flips = flip_pattern(spec, x, y, leaf)
        assert flips.dtype == np.int8
        assert flips.tolist() == _reference_flips(spec, x, y, leaf)
        assert flips[len(root):].tolist() == pattern.tolist()
        assert count_errors(spec, ALICE, x, leaf) == int(flips[0::2].sum())
        assert count_errors(spec, BOB, y, leaf) == int(flips[1::2].sum())

    @settings(max_examples=150, deadline=None)
    @given(
        replay_cases(),
        st.sampled_from(["missing", 1.5, math.nan, 0.5, "long"]),
        st.integers(0, 9),
    )
    def test_errors_match_reference(self, case, fault, at):
        spec, table, x, y, root, pattern = case
        leaf = _reference_apply(spec, x, y, root, pattern)
        if fault == "long":
            pattern = np.append(pattern, np.int8(at % 2))
        else:
            # Break the node the replay reaches at round `at` (mod the rounds
            # below the root), for the input its speaker holds.
            i = len(root) + at % max(spec.rounds - len(root), 1)
            if i >= spec.rounds:
                return
            party = speaker(i)
            row = table[party][str((x, y)[i % 2])]
            if fault == "missing":
                del row[leaf[:i]]
            else:
                row[leaf[:i]] = fault
            spec = table_spec(spec.rounds, table, (0, 1), (0, 1))
        got = _raised(lambda: core.apply_flip_pattern(spec, x, y, root, pattern))
        want = _raised(lambda: _reference_apply(spec, x, y, root, pattern))
        assert got[0] == want[0] == "raised"
        assert got[1].startswith(want[1])
        if fault == 0.5:
            assert got[1] == (
                f"{want[1]}: next_bit value 0.5 at ({speaker(i)}, {(x, y)[i % 2]!r}, {leaf[:i]!r})"
            )
        else:
            assert got[1] == want[1]
        if fault != "long":
            for call, reference in (
                (lambda: flip_pattern(spec, x, y, leaf), lambda: _reference_flips(spec, x, y, leaf)),
                (
                    lambda: count_errors(spec, party, (x, y)[i % 2], leaf),
                    lambda: _reference_flips(spec, x, y, leaf),
                ),
            ):
                got, want = _raised(call), _raised(reference)
                assert got[0] == want[0] == "raised"
                assert got[1].startswith(want[1])

    def test_not_deterministic_names_the_node(self):
        spec = table_spec(
            2, {"alice": {"1": {"": 1}}, "bob": {"0": {"1": 0.25}}}, (1,), (0,)
        )
        named = "protocol is not deterministic at this node: next_bit value 0.25 at (bob, 0, '1')"
        with pytest.raises(SpecError) as replayed:
            core.apply_flip_pattern(spec, 1, 0, "", np.zeros(2, dtype=np.int8))
        assert str(replayed.value) == named

    def test_odd_root_starts_with_bob(self):
        spec = xor_spec(4)
        assert core.apply_flip_pattern(spec, 0b10, 0b01, "1", [0, 0, 1]) == "1111"
        assert _reference_apply(spec, 0b10, 0b01, "1", [0, 0, 1]) == "1111"

    @pytest.mark.parametrize("root", ["", "01", "0110", "01101"])
    def test_pattern_past_the_leaves(self, root):
        spec = constant_spec(4)
        pattern = np.zeros(6, dtype=np.int8)
        with pytest.raises(SpecError) as exc:
            core.apply_flip_pattern(spec, 0, 0, root, pattern)
        with pytest.raises(SpecError) as ref:
            _reference_apply(spec, 0, 0, root, pattern)
        assert str(exc.value) == str(ref.value)

    def test_root_past_the_leaves_with_empty_pattern(self):
        spec = constant_spec(2)
        assert core.apply_flip_pattern(spec, 0, 0, "0110", np.zeros(0, dtype=np.int8)) == "0110"

    def test_leaf_must_be_bits(self):
        with pytest.raises(SpecError, match="not a string of 0/1 bits"):
            flip_pattern(constant_spec(2), 0, 0, "0a")
        with pytest.raises(SpecError, match="unknown party 'carol'"):
            count_errors(constant_spec(2), "carol", 0, "01")


class TestFlipIndependence:
    def test_positionwise_and_pairwise(self):
        # Empirical flip patterns over 1e5 runs behave as iid Bernoulli(0.3):
        # each position fits its marginal and each pair fits the product law.
        spec = constant_spec(6)
        noise = Noise.from_crossover(0.3)
        n = 100_000
        patterns = np.zeros((n, 6), dtype=np.int8)
        for i in range(n):
            tr, _, _ = run_over_bsc(spec, 0, 0, noise, RandomSource.for_trial(71, i))
            patterns[i] = flip_pattern(spec, 0, 0, tr)
        c = noise.crossover
        for j in range(6):
            ones = int(patterns[:, j].sum())
            gof = chi_square_gof(np.array([n - ones, ones]), np.array([1 - c, c]))
            assert gof.passed, f"position {j}: p={gof.p_value}"
        pair_law = np.array(
            [(1 - c) * (1 - c), (1 - c) * c, c * (1 - c), c * c]
        )
        for a in range(6):
            for b in range(a + 1, 6):
                idx = 2 * patterns[:, a] + patterns[:, b]
                gof = chi_square_gof(np.bincount(idx, minlength=4), pair_law)
                assert gof.passed, f"pair ({a},{b}): p={gof.p_value}"


def _prefixes(rounds: int) -> list[str]:
    return [""] + [format(i, f"0{r}b") for r in range(1, rounds) for i in range(1 << r)]


@st.composite
def table_documents(draw):
    """JSON documents of random table protocols of 1-5 rounds on inputs {0, 1},
    with deterministic and Bernoulli nodes and, sometimes, per-bit crossovers."""
    rounds = draw(st.integers(1, 5))

    def table(values):
        return {
            party: {inp: {p: draw(values) for p in _prefixes(rounds)} for inp in ("0", "1")}
            for party in ("alice", "bob")
        }

    doc = {
        "rounds": rounds,
        "alice_inputs": [0, 1],
        "bob_inputs": [0, 1],
        "kind": "table",
        "table": table(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
    }
    if draw(st.booleans()):
        doc["crossover_table"] = table(st.floats(0.0, 0.5))
    return doc


class TestPadding:
    def test_even_spec_untouched(self):
        spec = constant_spec(4)
        assert pad_to_even(spec) is spec

    def test_odd_spec_padded(self):
        spec = xor_spec(3)
        padded = pad_to_even(spec)
        assert padded.rounds == 4
        # dummy round intends 0 regardless of state
        assert padded.intent(BOB, 1, "101") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(table_documents(), st.floats(0.0, 0.5), st.sampled_from([0, 1]), st.sampled_from([0, 1]))
    def test_padded_prefix_law_matches_raw(self, doc, crossover, x, y):
        spec = _over(spec_from_dict(doc), crossover)
        raw = dict(enumerate_transcripts(spec, x, y))
        padded_law: dict = {}
        for leaf, pr in enumerate_transcripts(pad_to_even(spec), x, y):
            cut = leaf[: spec.rounds]
            padded_law[cut] = padded_law.get(cut, 0.0) + pr
        assert padded_law.keys() == raw.keys()
        for leaf, pr in raw.items():
            assert padded_law[leaf] == pytest.approx(pr, abs=1e-12)


class TestProtocolTree:
    """The walker against routes that do not use it: per-path products
    (prefix_probability) and per-leaf energy sums."""

    @settings(max_examples=60, deadline=None)
    @given(
        table_documents(),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
            lambda w: sum(w) > 0.1
        ),
    )
    def test_walk_matches_path_products(self, doc, weights):
        spec = spec_from_dict(doc)
        pairs = [(x, y) for x in (0, 1) for y in (0, 1)]
        mu = {pair: w / sum(weights) for pair, w in zip(pairs, weights)}
        leaves = [format(i, f"0{spec.rounds}b") for i in range(1 << spec.rounds)]
        path = {
            (x, y, leaf): prefix_probability(spec, x, y, leaf)
            for (x, y) in pairs
            for leaf in leaves
        }
        for x, y in pairs:
            law = dict(enumerate_transcripts(spec, x, y))
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
            for leaf in leaves:
                assert law.get(leaf, 0.0) == pytest.approx(path[(x, y, leaf)], abs=1e-12)
        table = FiniteJoint.from_protocol(spec, mu).table
        for (x, y, leaf), pr in path.items():
            expected = mu[(x, y)] * pr
            assert table.get((x, y, leaf), 0.0) == pytest.approx(expected, abs=1e-12)
        if spec.crossover is None:
            return
        by_leaves = 0.0
        for (x, y, leaf), pr in path.items():
            for i in range(spec.rounds):
                party = speaker(i)
                c = spec.crossover_at(party, spec.input_for(party, x, y), leaf[:i])
                by_leaves += mu[(x, y)] * pr * bit_energy(c)
        assert expected_energy_cost(spec, mu) == pytest.approx(by_leaves, abs=1e-12)


# ---------------------------------------------------------------------------
# Reference oracle: the per-(pair, node) row walker and its four consumers.
# The level walker must reproduce its reaches bit for bit.
# ---------------------------------------------------------------------------


def _row_walk(spec, mu):
    """Yield (prefix, rows) level by level; a row is (pair, reach, intent,
    crossover) at an interior node and (pair, reach) at a leaf."""
    frontier = {"": [(pair, w) for pair, w in mu.items() if w > 0.0]}
    for i in range(spec.rounds):
        party = speaker(i)
        own = 0 if party == ALICE else 1
        nxt = {}
        for prefix, reached in frontier.items():
            rows, zeros, ones = [], [], []
            for pair, reach in reached:
                r, c, pr_one = node_law(spec, party, pair[own], prefix)
                rows.append((pair, reach, r, c))
                zero, one = reach * (1.0 - pr_one), reach * pr_one
                if zero > 0.0:
                    zeros.append((pair, zero))
                if one > 0.0:
                    ones.append((pair, one))
            yield prefix, rows
            if zeros:
                nxt[prefix + "0"] = zeros
            if ones:
                nxt[prefix + "1"] = ones
        frontier = nxt
    yield from frontier.items()


def _row_joint(spec, mu):
    return {
        (*pair, prefix): reach
        for prefix, rows in _row_walk(spec, mu)
        if len(prefix) == spec.rounds
        for pair, reach in rows
    }


def _row_transcripts(spec, x, y):
    return [
        (prefix, rows[0][1])
        for prefix, rows in _row_walk(spec, {(x, y): 1.0})
        if len(prefix) == spec.rounds
    ]


def _row_energy(pi, mu):
    return sum(
        reach * bit_energy(c)
        for prefix, rows in _row_walk(pi, mu)
        if len(prefix) < pi.rounds
        for _, reach, _, c in rows
    )


def _row_info_cost(phi, mu):
    """(bits, chain_bits, divergence_bits, per_round) by scalar loops."""
    chain = [0.0] * phi.rounds
    div = [0.0] * phi.rounds
    leaves = {}
    for prefix, rows in _row_walk(phi, mu):
        if len(prefix) == phi.rounds:
            for pair, reach in rows:
                leaves[(*pair, prefix)] = reach
            continue
        p_prefix = sum(row[1] for row in rows)
        q = sum(reach * r for _, reach, r, _ in rows) / p_prefix
        chain[len(prefix)] += p_prefix * binary_entropy(q) - sum(
            reach * binary_entropy(r) for _, reach, r, _ in rows
        )
        div[len(prefix)] += sum(reach * kl_bernoulli(r, q) for _, reach, r, _ in rows)
    p_xy, p_t = {}, {}
    for (x, y, t), pr in leaves.items():
        p_xy[(x, y)] = p_xy.get((x, y), 0.0) + pr
        p_t[t] = p_t.get(t, 0.0) + pr
    bits = sum(pr * math.log2(pr / (p_xy[(x, y)] * p_t[t])) for (x, y, t), pr in leaves.items())
    return bits, sum(chain), sum(div), chain


# ---------------------------------------------------------------------------
# Reference: the information and energy costs computed on (node, pair)
# arrays, the laws expanded to one column per input pair.  The consumers,
# which work per (node, own value), must equal them bit for bit.
# ---------------------------------------------------------------------------


def _expanded_tree(spec, mu):
    """The walker's levels as (reach, intent, crossover), the laws expanded
    to one column per input pair."""
    for _, reach, intent, crossover, columns in protocol_tree(spec, mu):
        if intent is None:
            yield reach, None, None
        else:
            yield reach, intent[:, columns], crossover[:, columns]


def _expanded_info_cost(phi, mu):
    chain = [0.0] * phi.rounds
    div = [0.0] * phi.rounds
    for level, (reach, intent, _) in enumerate(_expanded_tree(phi, mu)):
        rows, cols = np.nonzero(reach > 0.0)
        w = reach[rows, cols]
        if intent is None:
            p_leaf = reach.sum(axis=1)[rows]
            p_pair = reach.sum(axis=0)[cols]
            bits = float(np.dot(w, np.log2(w / (p_pair * p_leaf))))
            break
        r = intent[rows, cols]
        p_prefix = reach.sum(axis=1)
        q = (reach * intent).sum(axis=1) / p_prefix
        chain[level] = float(np.dot(p_prefix, _entropy(q)) - np.dot(w, _entropy(r)))
        div[level] = float(np.dot(w, _divergence(r, q[rows])))
    return InfoCostResult(bits, sum(chain), sum(div), tuple(chain))


def _expanded_energy_cost(pi, mu):
    total = 0.0
    for reach, _, crossover in _expanded_tree(pi, mu):
        if crossover is not None:
            total += float(np.sum(reach * (4.0 * (crossover - 0.5) ** 2)))
    return total


DOMAINS = [((0, 1), (0, 1)), ((0, 1, 2), (0, 1)), (("a", "b"), ("u", "v", "w"))]


def _random_walk_case(gen, rounds, alice, bob, p_det, noisy, zero_pairs):
    """Table protocol whose nodes are deterministic with probability p_det
    (so branches prune), with a crossover table when `noisy` (0 at half the
    nodes, so pruning survives it), and an input law with `zero_pairs` zeroed."""
    prefixes = _prefixes(rounds)
    domains = {"alice": alice, "bob": bob}

    def table(draw_node):
        return {
            party: {str(v): {p: draw_node() for p in prefixes} for v in domain}
            for party, domain in domains.items()
        }

    def node_bit():
        return float(gen.integers(2)) if gen.random() < p_det else float(gen.random())

    def node_crossover():
        return 0.0 if gen.random() < 0.5 else float(0.5 * gen.random())

    bits = table(node_bit)
    crossovers = table(node_crossover) if noisy else None
    spec = table_spec(rounds, bits, alice, bob, crossover_table=crossovers)
    pairs = [(x, y) for x in alice for y in bob]
    weights = gen.random(len(pairs))
    weights[[k % len(pairs) for k in zero_pairs]] = 0.0
    if weights.sum() == 0.0:
        weights[0] = 1.0
    mu = {pair: float(w) for pair, w in zip(pairs, weights / weights.sum())}
    return spec, mu


def _over(spec, crossover):
    """`spec` over its own crossover rule, else over the BSC at `crossover`
    (noiseless when None): the channel `run_over_bsc` picks."""
    if spec.crossover is not None or crossover is None:
        return spec
    return replace(spec, crossover=Noise.from_crossover(crossover))


def _per_node(spec):
    """The same spec behind plain closures, which have no level form, so the
    walker asks them node by node."""
    return replace(
        spec,
        next_bit=lambda *a: spec.next_bit(*a),
        crossover=None if spec.crossover is None else lambda *a: spec.crossover(*a),
    )


def _full_tables(gen, rounds, scale):
    """A heap-ordered table on inputs {0, 1} with a uniform [0, scale) entry
    at every interior node, built like the `info_cost` bench's."""
    prefixes = _prefixes(rounds)
    return {
        party: {
            own: dict(zip(prefixes, (scale * gen.random(len(prefixes))).tolist()))
            for own in ("0", "1")
        }
        for party in ("alice", "bob")
    }


def _assert_level_matches_calls(rule, party, own, depth, ids, names):
    """`rule.level` gives float(rule(...)) at every asked node, NaN where the
    call raises KeyError, and a missing row raises KeyError both ways."""
    try:
        dense = rule.level(party, own, depth, np.asarray(ids, dtype=np.int64))
    except KeyError:
        with pytest.raises(KeyError):
            rule(party, own, "")
        return
    assert dense.dtype == np.float64 and dense.shape == (len(ids),)
    for got, prefix in zip(dense.tolist(), names):
        try:
            want = float(rule(party, own, prefix))
        except KeyError:
            want = math.nan
        assert got == want or (math.isnan(got) and math.isnan(want))


@st.composite
def edited_table_cases(draw):
    """A 1-5 round table on inputs {0, 1}, both tables edited before
    `table_spec` reads them: key order shuffled, nodes removed, entries set
    to NaN, 1.5 or "0.3", an own-input row removed; sometimes one key added
    that is not a 0/1 string shorter than the rounds, with the build-time
    error it raises; and a few (depth, ids) queries, ids unsorted, down to
    the leaf depth.  Returns (rounds, bits, crossovers, build error or None,
    queries)."""
    rounds = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = {
        "table": _full_tables(gen, rounds, 1.0),
        "crossover_table": _full_tables(gen, rounds, 0.5),
    }
    prefixes = _prefixes(rounds)
    for table in tables.values():
        for party in ("alice", "bob"):
            for own in ("0", "1"):
                row = table[party][own]
                if draw(st.booleans()):
                    order = draw(st.permutations(list(row)))
                    items = {p: row[p] for p in order}
                    row.clear()
                    row.update(items)
                for p in draw(st.sets(st.sampled_from(prefixes), max_size=2)):
                    del row[p]
                bad = st.sampled_from([math.nan, 1.5, "0.3"])
                row.update(draw(st.dictionaries(st.sampled_from(prefixes), bad, max_size=2)))
        if draw(st.booleans()):
            del table[draw(st.sampled_from(["alice", "bob"]))][draw(st.sampled_from(["0", "1"]))]
    build_error = None
    extra = ["2", "0a", " 1", "0" * rounds, "1" * (rounds + 3), 7, ("0",)]
    key = draw(st.none() | st.sampled_from(extra))
    if key is not None:
        name = draw(st.sampled_from(list(tables)))
        party, own = draw(
            st.sampled_from([(p, o) for p, rows in tables[name].items() for o in rows])
        )
        tables[name][party][own][key] = 0.25
        build_error = (
            f"{name} key {key!r} at ({party}, {own!r}) is not a 0/1 string shorter than {rounds}"
        )
    queries = []
    for depth in draw(st.lists(st.integers(0, rounds), min_size=1, max_size=3)):
        queries.append((depth, draw(st.lists(st.integers(0, (1 << depth) - 1), max_size=6))))
    return rounds, tables["table"], tables["crossover_table"], build_error, queries


def _xor4_tables():
    """Noiseless 4-round send-your-input protocol on inputs 0..3, with the
    intent and a zero crossover defined only at reachable nodes."""
    bits = {"alice": {}, "bob": {}}
    for x in range(4):
        for y in range(4):
            t = _xor4_leaf(x, y)
            for i in range(4):
                party, own = ("alice", x) if i % 2 == 0 else ("bob", y)
                bits[party].setdefault(str(own), {})[t[:i]] = int(t[i])
    cross = {
        party: {v: dict.fromkeys(nodes, 0.0) for v, nodes in per.items()}
        for party, per in bits.items()
    }
    return bits, cross


def _xor4_leaf(x, y):
    return f"{x & 1}{y & 1}{x >> 1}{y >> 1}"


XOR4 = (0, 1, 2, 3)

# Edit to the partial XOR tables, the error it raises and the message fragment.
BAD_NODES = {
    "undefined reachable node": (
        lambda bits, cross: bits["bob"]["1"].pop("0"),
        SpecError,
        "next_bit undefined at (bob, 1, '0')",
    ),
    "undefined reachable crossover": (
        lambda bits, cross: cross["bob"]["1"].pop("0"),
        SpecError,
        "crossover undefined at (bob, 1, '0')",
    ),
    "intent 1.5": (
        lambda bits, cross: bits["alice"]["2"].update({"": 1.5}),
        SpecError,
        "next_bit value 1.5 at '' is not a probability",
    ),
    "crossover 0.7": (
        lambda bits, cross: cross["bob"]["3"].update({"111": 0.7}),
        ParameterError,
        "per-bit crossover 0.7 outside [0, 1/2]",
    ),
    "NaN intent": (
        lambda bits, cross: bits["alice"]["1"].update({"10": math.nan}),
        SpecError,
        "next_bit value nan at '10' is not a probability",
    ),
    "NaN crossover": (
        lambda bits, cross: cross["alice"]["0"].update({"00": math.nan}),
        ParameterError,
        "per-bit crossover nan outside [0, 1/2]",
    ),
    # One level, two faults: node '010' comes first in node order, but its
    # bad crossover belongs to the larger own value and is a crossover, not
    # an intent; the level must still fail at '010' with the crossover's error.
    "crossover at '010' before intent at '110'": (
        lambda bits, cross: (
            cross["bob"]["3"].update({"010": 0.7}),
            bits["bob"]["1"].update({"110": 1.5}),
        ),
        ParameterError,
        "per-bit crossover 0.7 outside [0, 1/2]",
    ),
}

# (depth, ids) queries of 5-round trees: ids unsorted, repeated depths, none.
LEVEL_QUERIES = [(0, [0]), (1, [0, 1]), (2, [2]), (3, [3, 7]), (4, [6, 1]), (2, [])]

WALK_CONSUMERS = {
    "external_info_cost": lambda pi, mu: external_info_cost(noiseless_from_noisy(pi, mu), mu),
    "expected_energy_cost": expected_energy_cost,
}


class TestLevelWalker:
    """The level walker against the row-walker oracle above, its call set
    and its errors."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from(DOMAINS),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        st.booleans(),
        st.lists(st.integers(0, 5), max_size=3),
        st.sampled_from([None, 0.0, 0.2, 0.5]),
    )
    def test_matches_row_walker(self, rounds, domains, seed, p_det, noisy, zero_pairs, crossover):
        gen = np.random.default_rng(seed)
        spec, mu = _random_walk_case(gen, rounds, *domains, p_det, noisy, zero_pairs)
        assert FiniteJoint.from_protocol(spec, mu).table == _row_joint(spec, mu)
        bsc = _over(spec, crossover)
        for x, y in mu:
            assert list(enumerate_transcripts(bsc, x, y)) == _row_transcripts(bsc, x, y)
        if noisy:
            assert expected_energy_cost(spec, mu) == pytest.approx(_row_energy(spec, mu), abs=1e-12)
        phi = replace(spec, crossover=None)
        got = external_info_cost(phi, mu)
        bits, chain_bits, divergence_bits, per_round = _row_info_cost(phi, mu)
        assert got.bits == pytest.approx(bits, abs=1e-12)
        assert got.chain_bits == pytest.approx(chain_bits, abs=1e-12)
        assert got.divergence_bits == pytest.approx(divergence_bits, abs=1e-12)
        assert got.per_round == pytest.approx(per_round, abs=1e-12)

    def test_one_node_law_call_per_node_and_own_value(self):
        gen = np.random.default_rng(7)
        base, mu = _random_walk_case(gen, 6, (0, 1, 2), (0, 1), 0.7, True, [])
        mu = {(x, y): (0.0 if x == 2 else 0.25) for x, y in mu}
        calls = {"intent": [], "crossover": []}

        def counted(kind, inner):
            def rule(party, own_input, prefix):
                calls[kind].append((party, own_input, prefix))
                return inner(party, own_input, prefix)

            return rule

        spec = replace(
            base,
            next_bit=counted("intent", base.next_bit),
            crossover=counted("crossover", base.crossover),
        )
        expected = Counter(
            {
                (speaker(len(prefix)), pair[0 if speaker(len(prefix)) == ALICE else 1], prefix): 1
                for prefix, rows in _row_walk(base, mu)
                if len(prefix) < base.rounds
                for pair, *_ in rows
            }
        )
        FiniteJoint.from_protocol(spec, mu)
        assert Counter(calls["intent"]) == expected
        assert Counter(calls["crossover"]) == expected
        # Pruning and the unused input 2 both show: fewer calls than the
        # 2 * 63 (node, value) combinations of a full 6-round tree.
        assert len(expected) < 126 and all(own != 2 for _, own, _ in expected)

    def test_partial_table_on_reachable_paths(self):
        bits, cross = _xor4_tables()
        phi = table_spec(4, bits, XOR4, XOR4)
        pi = table_spec(4, bits, XOR4, XOR4, crossover_table=cross)
        mu = {(x, y): 1 / 16 for x in XOR4 for y in XOR4}
        assert FiniteJoint.from_protocol(phi, mu).table == {
            (x, y, _xor4_leaf(x, y)): 1 / 16 for x, y in mu
        }
        for x, y in mu:
            assert list(enumerate_transcripts(phi, x, y)) == [(_xor4_leaf(x, y), 1.0)]
        ic = external_info_cost(phi, mu)
        for route in (ic.bits, ic.chain_bits, ic.divergence_bits):
            assert route == pytest.approx(4.0, abs=1e-12)
        assert expected_energy_cost(pi, mu) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("case", list(BAD_NODES))
    @pytest.mark.parametrize("consumer", list(WALK_CONSUMERS))
    def test_bad_node_raises_typed_error(self, consumer, case):
        edit, error, named = BAD_NODES[case]
        bits, cross = _xor4_tables()
        edit(bits, cross)
        pi = table_spec(4, bits, XOR4, XOR4, crossover_table=cross)
        mu = {(x, y): 1 / 16 for x in XOR4 for y in XOR4}
        with pytest.raises(error, match=re.escape(named)):
            WALK_CONSUMERS[consumer](pi, mu)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from(DOMAINS),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        st.booleans(),
        st.lists(st.integers(0, 5), max_size=3),
        st.sampled_from([None, 0.0, 0.2, 0.5]),
    )
    # The info_cost bench's size: a full 12-round table of Bernoulli nodes
    # on 2x2 inputs, so nothing prunes.
    @example(12, DOMAINS[0], 12, 0.0, True, [], None)
    def test_level_rules_match_per_node_rules(
        self, rounds, domains, seed, p_det, noisy, zero_pairs, crossover
    ):
        """Rules with a level form (tables, the noiseless replay) give the
        same bits as plain closures over them, which the walker asks node
        by node."""
        gen = np.random.default_rng(seed)
        spec, mu = _random_walk_case(gen, rounds, *domains, p_det, noisy, zero_pairs)
        specs = [spec, pad_to_even(spec)]
        if noisy:
            specs.append(noiseless_from_noisy(spec, mu))
        for fast in specs:
            fast = _over(fast, crossover)
            slow = _per_node(fast)
            for got, want in zip(protocol_tree(fast, mu), protocol_tree(slow, mu), strict=True):
                assert got[0].dtype == want[0].dtype == np.int64
                assert np.array_equal(got[0], want[0])
                for a, b in zip(got[1:], want[1:]):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.shape == b.shape and a.tobytes() == b.tobytes()
            joint = FiniteJoint.from_protocol(fast, mu).table
            assert joint == FiniteJoint.from_protocol(slow, mu).table
            if fast.crossover is not None:
                assert expected_energy_cost(fast, mu) == expected_energy_cost(slow, mu)
            phi, phi_slow = (
                (fast, slow)
                if fast.crossover is None
                else (replace(fast, crossover=None), replace(slow, crossover=None))
            )
            assert external_info_cost(phi, mu) == external_info_cost(phi_slow, mu)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9]),
        st.booleans(),
        st.lists(st.integers(0, 8), max_size=3),
        st.sampled_from([None, 0.0, 0.2, 0.5]),
    )
    # Full 8-round trees: 4 columns and 128 nodes (row sums by column
    # additions), 8 and 9 columns (numpy's pairwise row sums).
    @example(8, 2, 2, 3, 0.0, True, [], None)
    @example(8, 3, 3, 3, 0.0, True, [0], 0.2)
    @example(8, 3, 3, 3, 0.0, False, [], None)
    def test_compact_laws_match_expanded_reference(
        self, rounds, n_alice, n_bob, seed, p_det, noisy, zero_pairs, crossover
    ):
        """The walker's laws per (node, own value) expand by `columns` to
        `node_law` at every reached (node, pair), and the costs computed on
        them equal the (node, pair) reference bit for bit."""
        gen = np.random.default_rng(seed)
        alice, bob = tuple(range(n_alice)), tuple(range(n_bob))
        spec, mu = _random_walk_case(gen, rounds, alice, bob, p_det, noisy, zero_pairs)
        bsc = _over(spec, crossover)
        pairs = [pair for pair, w in mu.items() if w > 0.0]
        for depth, (ids, reach, intent, cross, columns) in enumerate(protocol_tree(bsc, mu)):
            if depth == rounds:
                assert intent is None and cross is None and columns is None
                continue
            party = speaker(depth)
            own = 0 if party == ALICE else 1
            assert len(columns) == len(pairs)
            assert intent.shape == cross.shape == (len(ids), len({p[own] for p in pairs}))
            for i, prefix in enumerate(node_prefixes(depth, ids)):
                for j, pair in enumerate(pairs):
                    if reach[i, j] > 0.0:
                        want = node_law(bsc, party, pair[own], prefix)[:2]
                        assert (intent[i, columns[j]], cross[i, columns[j]]) == want
        phi = noiseless_from_noisy(spec, mu) if noisy else spec
        assert external_info_cost(phi, mu) == _expanded_info_cost(phi, mu)
        assert FiniteJoint.from_protocol(phi, mu).table == _row_joint(phi, mu)
        if noisy:
            assert expected_energy_cost(spec, mu) == _expanded_energy_cost(spec, mu)
            assert FiniteJoint.from_protocol(spec, mu).table == _row_joint(spec, mu)

    def test_level_law_matches_node_law(self):
        gen = np.random.default_rng(11)
        spec, _ = _random_walk_case(gen, 5, (0, 1, 2), (0, 1), 0.5, True, [])
        for which in (spec, noiseless_from_noisy(spec)):
            for party, inputs in ((ALICE, spec.alice_inputs), (BOB, spec.bob_inputs)):
                for own in inputs:
                    for depth, ids in LEVEL_QUERIES:
                        intent, crossover = level_law(which, party, own, depth, ids)
                        assert intent.dtype == crossover.dtype == np.float64
                        laws = [
                            node_law(which, party, own, p)[:2] for p in node_prefixes(depth, ids)
                        ]
                        assert intent.tolist() == [r for r, _ in laws]
                        assert crossover.tolist() == [c for _, c in laws]

    @pytest.mark.parametrize(
        "depth, ids, error, named",
        [
            (5, [31, 0], SpecError, "prefix '11111' is not interior"),
            (1, [0, 1], SpecError, "next_bit value 1.5 at '1' is not a probability"),
            (2, [0, 1], SpecError, "next_bit undefined at (alice, 0, '01')"),
            # Ids outside [0, 2**depth) would read another node of the row.
            (1, [2], SpecError, "node id 2 at depth 1 is outside [0, 2**1)"),
            (1, [-1], SpecError, "node id -1 at depth 1 is outside [0, 2**1)"),
            (3, [5, 8, -2], SpecError, "node id 8 at depth 3 is outside [0, 2**3)"),
        ],
    )
    def test_level_law_raises_node_law_error(self, depth, ids, error, named):
        gen = np.random.default_rng(12)
        bits = _full_tables(gen, 5, 1.0)
        bits["alice"]["0"]["1"] = 1.5
        bits["alice"]["0"]["10"] = math.nan
        del bits["alice"]["0"]["01"]
        spec = table_spec(5, bits, (0, 1), (0, 1), crossover_table=_full_tables(gen, 5, 0.5))
        with pytest.raises(error, match=re.escape(named)):
            level_law(spec, ALICE, 0, depth, ids)

    @settings(max_examples=100, deadline=None)
    @given(edited_table_cases())
    def test_dense_rows_answer_like_per_node_rules(self, case):
        """A table rule's level answers are its per-node answers as floats
        (NaN where a node has none), and `level_law` returns `node_law`'s
        values or raises `node_law`'s exact error, however a table is edited
        before `table_spec` reads it; a key it cannot store fails the build."""
        rounds, bits, crossovers, build_error, queries = case
        if build_error is not None:
            with pytest.raises(SpecError) as built:
                table_spec(rounds, bits, (0, 1), (0, 1), crossover_table=crossovers)
            assert str(built.value) == build_error
            return
        spec = table_spec(rounds, bits, (0, 1), (0, 1), crossover_table=crossovers)
        for depth, ids in queries:
            names = node_prefixes(depth, ids)
            for party in (ALICE, BOB):
                for own in (0, 1):
                    for rule in (spec.next_bit, spec.crossover):
                        if depth < spec.rounds:
                            _assert_level_matches_calls(rule, party, own, depth, ids, names)
                    try:
                        want = [node_law(spec, party, own, p)[:2] for p in names]
                    except Exception as exc:
                        with pytest.raises(type(exc)) as got:
                            level_law(spec, party, own, depth, ids)
                        assert str(got.value) == str(exc)
                    else:
                        intent, crossover = level_law(spec, party, own, depth, ids)
                        assert intent.tolist() == [r for r, _ in want]
                        assert crossover.tolist() == [c for _, c in want]

    def test_table_rows_read_once_across_both_walks(self):
        """`table_spec` fetches each row of pi's two tables once; the
        info_cost op's two walks (IC of the noiseless replay, then EC) and a
        repeat of them fetch none."""
        gen = np.random.default_rng(5)
        rounds = 8
        bits, crossovers = _full_tables(gen, rounds, 1.0), _full_tables(gen, rounds, 0.5)
        fetched = Counter()

        class CountingRows(dict):
            def __init__(self, key, rows):
                super().__init__(rows)
                self.key = key

            def __getitem__(self, own):
                fetched[(*self.key, own)] += 1
                return super().__getitem__(own)

            def items(self):
                for own, row in super().items():
                    fetched[(*self.key, own)] += 1
                    yield own, row

        def counted(name, table):
            return {party: CountingRows((name, party), rows) for party, rows in table.items()}

        pi = table_spec(
            rounds,
            counted("table", bits),
            (0, 1),
            (0, 1),
            crossover_table=counted("crossover_table", crossovers),
        )
        assert fetched == Counter(
            {
                (name, party, own): 1
                for name in ("table", "crossover_table")
                for party in ("alice", "bob")
                for own in ("0", "1")
            }
        )
        plain = table_spec(rounds, bits, (0, 1), (0, 1), crossover_table=crossovers)
        mu = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
        fetched.clear()
        ic = external_info_cost(noiseless_from_noisy(pi, mu), mu)
        ec = expected_energy_cost(pi, mu)
        assert ic == external_info_cost(noiseless_from_noisy(plain, mu), mu)
        assert ec == expected_energy_cost(plain, mu)
        assert external_info_cost(noiseless_from_noisy(pi, mu), mu) == ic
        assert expected_energy_cost(pi, mu) == ec
        assert not fetched

    def test_edits_after_build_change_nothing(self):
        """The spec keeps no reference to the caller's tables: editing them
        after `table_spec`, before or after a walk, changes no node query, no
        level query and no walk, so both exact routes keep agreeing."""
        bits = {"alice": {"0": {"": 0.25}}, "bob": {"0": {"0": 0.5, "1": 0.5}}}
        cross = {"alice": {"0": {"": 0.125}}, "bob": {"0": {"0": 0.0, "1": 0.25}}}
        phi = table_spec(2, bits, (0,), (0,))
        pi = table_spec(2, bits, (0,), (0,), crossover_table=cross)
        leaves = dict(enumerate_transcripts(phi, 0, 0))
        bits["alice"]["0"][""] = 0.75
        cross["bob"]["0"]["1"] = 0.5
        del bits["bob"]["0"]["0"]
        bits["bob"]["1"] = {"0": 1.0, "1": 1.0}
        assert dict(enumerate_transcripts(phi, 0, 0)) == leaves
        assert leaves["10"] + leaves["11"] == prefix_probability(phi, 0, 0, "1") == 0.25
        assert node_law(pi, ALICE, 0, "") == (0.25, 0.125, received_one(0.25, 0.125))
        assert [a.tolist() for a in level_law(pi, BOB, 0, 1, [0, 1])] == [[0.5, 0.5], [0.0, 0.25]]
        with pytest.raises(SpecError, match=re.escape("next_bit undefined at (bob, 1, '0')")):
            node_law(pi, BOB, 1, "0")

    def test_rule_returning_none_raises_like_node_law(self):
        base = xor_spec(3)
        spec = replace(
            base,
            next_bit=lambda party, own, prefix: (
                None if prefix == "1" else base.next_bit(party, own, prefix)
            ),
        )
        mu = {(x, y): 0.25 for x in (0, 1) for y in (0, 1)}
        with pytest.raises(TypeError) as scalar:
            node_law(spec, BOB, 0, "1")
        with pytest.raises(TypeError) as walked:
            FiniteJoint.from_protocol(spec, mu)
        assert str(walked.value) == str(scalar.value)

    def test_guard_names_its_parameters(self):
        mu = {(x, y): 0.25 for x in (0, 1) for y in (0, 1)}
        with pytest.raises(
            SpecError,
            match=re.escape(
                f"protocol tree of {4 << 19} (pair, leaf) rows exceeds the guard: "
                f"4 input pairs x 2^19 leaves (19 rounds) > ENUMERATION_GUARD = {ENUMERATION_GUARD}"
            ),
        ):
            FiniteJoint.from_protocol(constant_spec(19, alice_inputs=(0, 1), bob_inputs=(0, 1)), mu)


class TestSpecFiles:
    def test_kinds(self, tmp_path):
        doc = {
            "rounds": 2,
            "alice_inputs": [0, 1],
            "bob_inputs": [0, 1],
            "kind": "xor",
            "noise": 0.25,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = core.load_spec(str(path))
        assert spec.rounds == 2 and not spec.deterministic
        assert spec.intent(ALICE, 1, "") == pytest.approx(0.75)

    def test_constant_and_seeded(self):
        spec = spec_from_dict(
            {"rounds": 3, "alice_inputs": [0], "bob_inputs": [0], "kind": "constant", "bit": 0}
        )
        assert spec.intent(ALICE, 0, "") == 0.0
        spec = spec_from_dict(
            {"rounds": 40, "alice_inputs": [0, 1], "bob_inputs": [0, 1], "kind": "seeded", "seed": 3}
        )
        assert spec.intent(ALICE, 0, "0" * 39) in (0.0, 1.0)

    def test_table_with_crossovers(self):
        spec = spec_from_dict(
            {
                "rounds": 1,
                "alice_inputs": [0, 1],
                "bob_inputs": [0],
                "kind": "table",
                "table": {"alice": {"0": {"": 0}, "1": {"": 1}}, "bob": {"0": {}}},
                "crossover_table": {"alice": {"0": {"": 0.25}, "1": {"": 0.25}}, "bob": {"0": {}}},
            }
        )
        assert spec.crossover_at(ALICE, 0, "") == 0.25

    @settings(max_examples=60, deadline=None)
    @given(table_documents(), st.sampled_from([0, 1]), st.sampled_from([0, 1]))
    def test_table_document_matches_table_spec(self, doc, x, y):
        built = spec_from_dict(doc)
        direct = table_spec(
            doc["rounds"], doc["table"], (0, 1), (0, 1), doc.get("crossover_table")
        )
        assert built.deterministic == direct.deterministic
        assert dict(enumerate_transcripts(_over(built, 0.2), x, y)) == dict(
            enumerate_transcripts(_over(direct, 0.2), x, y)
        )

    @pytest.mark.parametrize("field", ["table", "crossover_table"])
    @pytest.mark.parametrize("entry", [None, "abc", [0.5], {"p": 1}])
    def test_non_numeric_entry_is_named(self, field, entry):
        bits = {"alice": {"0": {"": 0.0}, "1": {"": 1.0}}, "bob": {"0": {"0": 0.0, "1": 1.0}}}
        cross = {"alice": {"0": {"": 0.1}, "1": {"": 0.1}}, "bob": {"0": {"0": 0.1, "1": 0.1}}}
        ({"table": bits, "crossover_table": cross}[field])["bob"]["0"]["1"] = entry
        named = f"{field} entry {entry!r} at (bob, '0', '1') is not a number"
        with pytest.raises(SpecError, match=re.escape(named)):
            table_spec(2, bits, (0, 1), (0,), crossover_table=cross)

    def test_entries_float_accepts_stay_accepted(self):
        bits = {"alice": {"0": {"": "1"}, "1": {"": True}}, "bob": {"0": {"0": 0, "1": " 0.5 "}}}
        cross = {"alice": {"0": {"": "0.25"}, "1": {"": 0}}, "bob": {"0": {"0": 0.1, "1": "0.1"}}}
        spec = table_spec(2, bits, (0, 1), (0,), crossover_table=cross)
        assert not spec.deterministic
        assert [a.tolist() for a in level_law(spec, BOB, 0, 1, [0, 1])] == [[0.0, 0.5], [0.1, 0.1]]
        slow = _per_node(spec)
        mu = {(0, 0): 0.5, (1, 0): 0.5}
        joint = FiniteJoint.from_protocol(spec, mu).table
        assert joint == FiniteJoint.from_protocol(slow, mu).table
        assert expected_energy_cost(spec, mu) == expected_energy_cost(slow, mu)
        # float() reads "nan" as a number; the walk then rejects it as a crossover.
        cross["bob"]["0"]["1"] = "nan"
        with pytest.raises(ParameterError, match="per-bit crossover nan outside"):
            expected_energy_cost(table_spec(2, bits, (0, 1), (0,), crossover_table=cross), mu)

    @pytest.mark.parametrize("key", ["2", "0a", "000", 7])
    def test_malformed_row_key_fails_the_build(self, key, tmp_path):
        bits = {"alice": {"0": {"": 0.5}}, "bob": {"0": {"0": 0.5, "1": 0.5}}}
        bits["bob"]["0"][key] = 0.5
        doc = {"rounds": 2, "alice_inputs": [0], "bob_inputs": [0], "kind": "table", "table": bits}
        named = f"table key {key!r} at (bob, '0') is not a 0/1 string shorter than 2"
        with pytest.raises(SpecError, match=re.escape(named)):
            table_spec(2, bits, (0,), (0,))
        with pytest.raises(SpecError, match=re.escape(named)):
            spec_from_dict(doc)
        cross = {"alice": {"0": {"": 0.25}}, "bob": {"0": {key: 0.25}}}
        named_cross = f"crossover_table key {key!r} at (bob, '0')"
        with pytest.raises(SpecError, match=re.escape(named_cross)):
            spec_from_dict({**doc, "table": {"alice": {"0": {"": 0.5}}}, "crossover_table": cross})
        # JSON object keys are strings, so 7 comes back from the file as '7'.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecError, match=re.escape(named.replace(repr(key), repr(str(key))))):
            core.load_spec(str(path))

    def test_table_depth_is_bounded_by_the_guard(self):
        row = {"": 1.0, "1" * 19: 0.25}
        spec = table_spec(20, {"alice": {"0": row}, "bob": {"0": row}}, (0,), (0,))
        assert spec.next_bit.rows["alice", "0"].size == (1 << 20) - 1 <= ENUMERATION_GUARD
        assert node_law(spec, BOB, 0, "1" * 19)[0] == 0.25
        assert level_law(spec, BOB, 0, 19, [(1 << 19) - 1])[0].tolist() == [0.25]
        named = (
            "a table protocol needs 1 to 20 rounds, got rounds = 21: "
            f"a row holds 2**rounds - 1 nodes, at most ENUMERATION_GUARD = {ENUMERATION_GUARD}"
        )
        with pytest.raises(SpecError, match=re.escape(named)):
            table_spec(21, {"alice": {"0": {"": 1.0}}, "bob": {}}, (0,), (0,))
        doc = {"rounds": 21, "alice_inputs": [0], "bob_inputs": [0], "kind": "table", "table": {}}
        with pytest.raises(SpecError, match=re.escape(named)):
            spec_from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            spec_from_dict({"rounds": 1, "alice_inputs": [0], "bob_inputs": [0], "kind": "nope"})

    def test_missing_field(self):
        with pytest.raises(SpecError):
            spec_from_dict({"rounds": 1, "kind": "constant"})


class TestRandomSource:
    def test_trial_seeds(self):
        a = RandomSource.for_trial(10, 3)
        b = RandomSource(13)
        assert a.public.random() == b.public.random()

    def test_streams_differ(self):
        rng = RandomSource(0)
        draws = {rng.public.random(), rng.alice.random(), rng.bob.random(), rng.channel.random()}
        assert len(draws) == 4

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.permutations(["public", "alice", "bob", "channel"]),
    )
    def test_lazy_streams_are_the_spawned_ones(self, seed, order):
        rng = RandomSource(seed)
        children = np.random.SeedSequence(seed).spawn(4)
        for name in order:
            k = ["public", "alice", "bob", "channel"].index(name)
            want = np.random.default_rng(children[k])
            got = getattr(rng, name)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random(3).tolist() == want.random(3).tolist()
            assert got.integers(0, 2**63, 2).tolist() == want.integers(0, 2**63, 2).tolist()
            assert getattr(rng, name) is got

    def test_bad_seed_raises_at_construction(self):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource.for_trial(0, -5)

    def test_prefix_probability_consistency(self):
        spec = seeded_spec(4, seed=8)
        bsc = replace(spec, crossover=Noise.from_crossover(0.3))
        total = sum(prefix_probability(bsc, 1, 1, f"{i:02b}") for i in range(4))
        assert total == pytest.approx(1.0, abs=1e-12)
