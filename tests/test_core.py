import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsclab import core
from bsclab.core import (
    ALICE,
    BOB,
    Noise,
    ParameterError,
    RandomSource,
    SpecError,
    bit_energy,
    constant_spec,
    count_errors,
    enumerate_transcripts,
    flip_pattern,
    pad_to_even,
    prefix_probability,
    run_over_bsc,
    seeded_spec,
    speaker,
    spec_from_dict,
    table_spec,
    xor_spec,
)
from bsclab.energy import expected_energy_cost
from bsclab.infotheory import FiniteJoint
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


class TestRunOverBsc:
    def test_noiseless_identity(self):
        spec = constant_spec(1)
        tr, ec, ledger = run_over_bsc(spec, 0, 0, Noise(0.5), RandomSource(0))
        assert tr == "1" and ec.m == 0
        assert ledger.bits_sent == 1 and ledger.energy == 1.0  # crossover 0 costs 1

    def test_pure_noise_is_uniform(self):
        # crossover 1/2: the received bit ignores the intent
        spec = constant_spec(1)
        law = dict(enumerate_transcripts(spec, 0, 0, Noise(0.0)))
        assert law == {"0": 0.5, "1": 0.5}

    def test_exact_two_round_law(self):
        spec = constant_spec(2)
        law = dict(enumerate_transcripts(spec, 0, 0, Noise.from_crossover(0.4)))
        assert law["11"] == pytest.approx(0.36)
        assert law["00"] == pytest.approx(0.16)

    def test_monte_carlo_matches_enumeration(self):
        spec = seeded_spec(4, seed=9)
        noise = Noise.from_crossover(0.3)
        leaves = sorted(t for t, _ in enumerate_transcripts(spec, 1, 0, noise))
        expected = np.array(
            [dict(enumerate_transcripts(spec, 1, 0, noise))[t] for t in leaves]
        )
        counts = np.zeros(len(leaves), dtype=int)
        for i in range(20_000):
            tr, _, _ = run_over_bsc(spec, 1, 0, noise, RandomSource.for_trial(11, i))
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
        law = dict(enumerate_transcripts(echo, 0, 0, Noise.from_crossover(0.25)))
        assert law["11"] == pytest.approx(0.5625)
        assert law["01"] == pytest.approx(0.0625)

    def test_undefined_prefix_is_spec_error(self):
        spec = table_spec(2, {"alice": {"0": {"": 1}}, "bob": {"0": {}}}, (0,), (0,))
        with pytest.raises(SpecError):
            run_over_bsc(spec, 0, 0, Noise(0.1), RandomSource(0))

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
        assert padded.rounds == 4 and padded.padding == 1
        # dummy round intends 0 regardless of state
        assert padded.intent(BOB, 1, "101") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(table_documents(), st.floats(0.0, 0.5), st.sampled_from([0, 1]), st.sampled_from([0, 1]))
    def test_padded_prefix_law_matches_raw(self, doc, crossover, x, y):
        spec = spec_from_dict(doc)
        noise = Noise.from_crossover(crossover)
        raw = dict(enumerate_transcripts(spec, x, y, noise))
        padded_law: dict = {}
        for leaf, pr in enumerate_transcripts(pad_to_even(spec), x, y, noise):
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
        noise = Noise.from_crossover(0.2)
        assert dict(enumerate_transcripts(built, x, y, noise)) == dict(
            enumerate_transcripts(direct, x, y, noise)
        )

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

    def test_prefix_probability_consistency(self):
        spec = seeded_spec(4, seed=8)
        noise = Noise.from_crossover(0.3)
        total = sum(
            prefix_probability(spec, 1, 1, f"{i:02b}", noise) for i in range(4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)
