import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsclab import energy as E
from bsclab import infotheory as I
from bsclab import suite as S
from bsclab.core import (
    CostLedger,
    IterationCapExceeded,
    ParameterError,
    RandomSource,
    SpecError,
    constant_spec,
    enumerate_transcripts,
    table_spec,
    xor_spec,
)


class TestGridTypes:
    def test_prior_rounding(self):
        plan = E.BitWithPrior(0.3, 0.2, 512)
        assert plan.start_index == 205
        assert plan.q_rounded == pytest.approx(205 / 1024)
        assert not plan.flipped

    def test_symmetry_reduction(self):
        plan = E.BitWithPrior(0.3, 0.75, 512)
        assert plan.flipped
        assert plan.q_reduced == pytest.approx(0.25)
        assert 0 < plan.q_rounded <= 0.5


def per_step_walk_phase(start, low, high, up_prob, crossover, step_budget, rng, ledger):
    """Reference walker: the same draws and blocks, boundaries checked per step."""
    pos = start
    taken = 0
    expected = max((start - low) * (high - start), 64)
    while taken < step_budget:
        block = int(min(step_budget - taken, min(2 * expected, E._BLOCK)))
        moves = np.where(rng.channel.random(block) < up_prob, 1, -1).astype(np.int32)
        path = pos + np.cumsum(moves, dtype=np.int32)
        hits = np.flatnonzero((path <= low) | (path >= high))
        if hits.size:
            k = int(hits[0])
            ledger.charge(crossover, k + 1)
            return int(path[k]), taken + k + 1
        ledger.charge(crossover, block)
        pos = int(path[-1])
        taken += block
    return pos, taken


def _walk_record(walker, args, seed):
    rng = RandomSource(seed)
    ledger = CostLedger()
    end = walker(*args, rng, ledger)
    return end, ledger.bits_sent, ledger.energy, rng.channel.bit_generator.state


@st.composite
def walk_cases(draw):
    low = draw(st.integers(-40, 40))
    high = low + draw(st.integers(1, 600))
    start = draw(
        st.one_of(
            st.sampled_from([low, low + 1, high - 1, high]),
            st.integers(low, high),
        )
    )
    c = draw(st.integers(6, 400))
    up_prob = draw(
        st.one_of(st.just(0.5), st.just(1.0 - (0.5 - 3.0 / c)), st.floats(0.0, 1.0))
    )
    crossover = min(up_prob, 1.0 - up_prob)
    budget = draw(st.integers(1, 5000))
    return (start, low, high, up_prob, crossover, budget), draw(st.integers(0, 2**32))


class TestWalkPhase:
    """The word-level walker against the per-step reference, draw for draw."""

    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_matches_per_step_walker(self, case):
        args, seed = case
        assert _walk_record(E._walk_phase, args, seed) == _walk_record(
            per_step_walk_phase, args, seed
        )

    @pytest.mark.parametrize(
        "args",
        [
            (500, 0, 1000, 0.5, 0.5, 37),  # budget runs out inside the first block
            (500, 0, 1000, 0.5, 0.5, 4096),  # budget a multiple of 16
            (1, 0, 2, 0.5, 0.5, 100),  # one step from both boundaries
            (30, 15, 55, 0.7, 0.3, 225),  # a biased phase of brw_to_top
            (50_000, 0, 100_000, 0.5, 0.5, 70_001),  # three blocks, the last partial
            (10, 0, 100_000, 0.0, 0.0, 70_001),  # every step down
            (10, 0, 100_000, 1.0, 0.0, 70_001),  # every step up
        ],
    )
    def test_fixed_cases(self, args):
        for seed in range(5):
            assert _walk_record(E._walk_phase, args, seed) == _walk_record(
                per_step_walk_phase, args, seed
            )

    def test_word_tables(self):
        for word in np.random.default_rng(0).integers(0, 1 << 16, size=500):
            steps = 2 * ((int(word) >> np.arange(16)) & 1) - 1
            sums = np.cumsum(steps)
            assert E._WORD_DISP[word] == sums[-1]
            assert E._WORD_LO[word] == sums.min()
            assert E._WORD_HI[word] == sums.max()

    @pytest.mark.parametrize(
        "p,q", [(0.3, 0.2), (0.25, 0.25), (0.01, 0.002), (0.6, 0.25), (0.05, 0.005)]
    )
    def test_sample_with_prior_unchanged(self, p, q, monkeypatch):
        def draws():
            rng = RandomSource(81)
            ledger = CostLedger()
            bits = [E.sample_with_prior(p, q, 512, rng, ledger) for _ in range(150)]
            return bits, ledger.bits_sent, ledger.energy, rng.channel.bit_generator.state

        fast = draws()
        monkeypatch.setattr(E, "_walk_phase", per_step_walk_phase)
        assert fast == draws()

    @pytest.mark.parametrize("idx", range(3))
    def test_noisy_replay_unchanged(self, idx, monkeypatch):
        _, phi = S.ecub_battery()[idx]
        sim = E.noisy_from_noiseless(phi, I.uniform_inputs(phi), 256)

        def runs():
            rng = RandomSource(82 + idx)
            out = []
            for k in range(60):
                x, y = list(sim.mu)[k % len(sim.mu)]
                tr, ledger = sim.run(x, y, rng)
                out.append((tr, ledger.bits_sent, ledger.energy))
            return out, rng.channel.bit_generator.state

        fast = runs()
        monkeypatch.setattr(E, "_walk_phase", per_step_walk_phase)
        assert fast == runs()


class TestBiasedWalk:
    def test_base_case_exact_energy(self):
        led = CostLedger()
        out = E.brw_to_top(20, 3, RandomSource(1), led)
        assert out.end_index == 23 and led.energy == 3.0 and led.bits_sent == 3

    def test_minimal_pair(self):
        led = CostLedger()
        out = E.brw_to_top(1, 1, RandomSource(2), led)
        assert out.end_index == 2 and led.energy == 1.0

    def test_zero_climb(self):
        out = E.brw_to_top(5, 0, RandomSource(3), CostLedger())
        assert out.end_index == 5 and out.steps == 0

    def test_precondition(self):
        with pytest.raises(ParameterError):
            E.brw_to_top(3, 4, RandomSource(0), CostLedger())

    def test_always_absorbed_with_bounded_energy(self):
        rng = RandomSource(11)
        energies = []
        for _ in range(1000):
            led = CostLedger()
            out = E.brw_to_top(13, 13, rng, led)
            assert out.end_index == 26
            energies.append(led.energy)
        assert np.mean(energies) <= 48.0

    def test_depth_cap_names_its_parameters(self, monkeypatch):
        # Every phase falls one step short of its start, so the first
        # recursive climb runs at depth 1, past a cap of 0.
        monkeypatch.setattr(E, "BRW_MAX_DEPTH", 0)
        monkeypatch.setattr(E, "_walk_phase", lambda start, *_: (start - 1, 1))
        with pytest.raises(
            IterationCapExceeded,
            match=re.escape("depth cap: a=39, b=1, depth 1 > BRW_MAX_DEPTH=0"),
        ):
            E.brw_to_top(40, 20, RandomSource(0), CostLedger())

    def test_ledger_energy_matches_outcome(self):
        led = CostLedger()
        out = E.brw_to_top(30, 25, RandomSource(13), led)
        assert out.end_index == 55
        # one bit per step, each at energy <= 1 and some strictly above 0
        assert led.bits_sent == out.steps
        assert 0.0 < led.energy <= out.steps


class TestUnbiasedWalk:
    def test_symmetric_pair(self):
        rng = RandomSource(21)
        tops = sum(
            E.unbiased_walk(1, 2, rng, CostLedger()).end_index == 2
            for _ in range(20_000)
        )
        assert abs(tops / 20_000 - 0.5) <= 3 * math.sqrt(0.25 / 20_000)

    def test_three_quarters(self):
        rng = RandomSource(22)
        led = CostLedger()
        outs = [E.unbiased_walk(3, 4, rng, led) for _ in range(20_000)]
        freq = np.mean([o.end_index == 4 for o in outs])
        assert abs(freq - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / 20_000)
        assert led.energy == 0.0 and led.bits_sent == sum(o.steps for o in outs)

    def test_boundary_starts(self):
        assert E.unbiased_walk(0, 5, RandomSource(0), CostLedger()).end_index == 0
        assert E.unbiased_walk(5, 5, RandomSource(0), CostLedger()).end_index == 5

    def test_bits_counted(self):
        led = CostLedger()
        out = E.unbiased_walk(4, 8, RandomSource(23), led)
        assert led.bits_sent == out.steps > 0 and led.energy == 0.0


class TestSampleWithPrior:
    def test_zero_prior(self):
        led = CostLedger()
        assert E.sample_with_prior(0.0, 0.0, 512, RandomSource(0), led) == 0
        assert led.bits_sent == 0 and led.energy == 0.0

    def test_zero_prior_rejects_positive_parameter(self):
        # So does prior 1; the error quotes the prior as given (q = 1 is not
        # mirrored to 0) and nothing is drawn before it.
        for q in (0.0, 1.0):
            rng = RandomSource(0)
            with pytest.raises(ParameterError, match=f"prior q={q} .* got p=0.5"):
                E.sample_with_prior(0.5, q, 512, rng, CostLedger())
            assert rng.channel.random() == RandomSource(0).channel.random()

    def test_certain_prior_matched(self):
        led = CostLedger()
        assert E.sample_with_prior(1.0, 1.0, 512, RandomSource(0), led) == 1
        assert led.bits_sent == 0

    def test_matched_quarter_prior_costs_nothing(self):
        # p = q = 1/4 on a grid where the prior is exact: the walk spends
        # nothing and the final bit rides the crossover-1/2 channel
        rng = RandomSource(31)
        led = CostLedger()
        ones = sum(E.sample_with_prior(0.25, 0.25, 512, rng, led) for _ in range(3000))
        assert led.energy == 0.0
        assert abs(ones / 3000 - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 3000)

    def test_case1_final_bit_energy_analytic(self):
        p, q, n_i = 0.3, 0.2, 512
        q_r = math.ceil(q * 2 * n_i) / (2 * n_i)
        expected = 2 * (p - q_r) ** 2 / q_r
        rng = RandomSource(32)
        led = CostLedger()
        n = 20_000
        for _ in range(n):
            E.sample_with_prior(p, q, n_i, rng, led)
        assert led.energy / n == pytest.approx(expected, rel=0.05)

    def test_small_prior_region(self):
        rng = RandomSource(33)
        led = CostLedger()
        n = 20_000
        ones = sum(E.sample_with_prior(0.01, 0.002, 512, rng, led) for _ in range(n))
        assert abs(ones / n - 0.01) <= 3 * math.sqrt(0.01 * 0.99 / n)

    @pytest.mark.parametrize(
        "p,q", [(0.3, 0.2), (0.6, 0.25), (0.05, 0.005), (0.7, 0.75), (0.9, 0.5)]
    )
    def test_dispatch_grid_means(self, p, q):
        rng = RandomSource(34 + int(1000 * p) + int(100 * q))
        led = CostLedger()
        n = 8000
        ones = sum(E.sample_with_prior(p, q, 512, rng, led) for _ in range(n))
        assert abs(ones / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_grid_rounding_penalty(self):
        # divergence against the rounded prior exceeds the true one by at
        # most 2 * eps_i on the sampler's operating points
        for p, q in [(0.3, 0.2), (0.01, 0.002), (0.6, 0.25), (0.05, 0.005), (0.1, 0.3)]:
            plan = E.BitWithPrior(p, q, 512)
            delta = I.kl_bernoulli(p, plan.q_rounded) - I.kl_bernoulli(p, q)
            assert delta <= 2 / (2 * plan.n_i) + 1e-12


class TestNoiselessFromNoisy:
    def _send_x_over(self, crossover):
        return table_spec(
            1,
            {"alice": {"0": {"": 0.0}, "1": {"": 1.0}}, "bob": {"0": {}}},
            (0, 1),
            (0,),
            crossover_table={
                "alice": {"0": {"": crossover}, "1": {"": crossover}},
                "bob": {"0": {}},
            },
        )

    def test_quarter_crossover_example(self):
        pi = self._send_x_over(0.25)
        mu = I.uniform_inputs(pi)
        phi = E.noiseless_from_noisy(pi, mu)
        ic = I.external_info_cost(phi, mu).bits
        ec = E.expected_energy_cost(pi, mu)
        assert ic == pytest.approx(0.188722, abs=1e-6)
        assert ec / I.LN2 == pytest.approx(0.360674, abs=1e-6)
        assert ic <= ec / I.LN2

    def test_pure_noise_reveals_nothing(self):
        pi = self._send_x_over(0.5)
        mu = I.uniform_inputs(pi)
        phi = E.noiseless_from_noisy(pi, mu)
        assert I.external_info_cost(phi, mu).bits == pytest.approx(0.0, abs=1e-12)
        assert E.expected_energy_cost(pi, mu) == 0.0

    def test_noiseless_identity(self):
        pi = self._send_x_over(0.0)
        mu = I.uniform_inputs(pi)
        phi = E.noiseless_from_noisy(pi, mu)
        for x in (0, 1):
            raw = dict(enumerate_transcripts(pi, x, 0))
            new = dict(enumerate_transcripts(phi, x, 0))
            assert raw == new
        assert I.external_info_cost(phi, mu).bits <= 1 / I.LN2 + 1e-12

    def test_transcript_laws_coincide(self):
        gen = np.random.default_rng(61)
        pi = S.random_variable_noise_spec(gen, 3)
        phi = E.noiseless_from_noisy(pi, S.random_mu(gen, pi))
        for x in (0, 1):
            for y in (0, 1):
                noisy = dict(enumerate_transcripts(pi, x, y))
                clean = dict(enumerate_transcripts(phi, x, y))
                for leaf, pr in noisy.items():
                    assert clean.get(leaf, 0.0) == pytest.approx(pr, abs=1e-12)

    def test_requires_crossover_table(self):
        with pytest.raises(SpecError):
            E.noiseless_from_noisy(constant_spec(1), {})

    def test_inequality_on_random_instances(self):
        for k in range(30):
            gen = np.random.default_rng(6200 + k)
            pi = S.random_variable_noise_spec(gen, int(gen.integers(1, 4)))
            mu = S.random_mu(gen, pi)
            phi = E.noiseless_from_noisy(pi, mu)
            ic = I.external_info_cost(phi, mu).bits
            assert ic <= E.expected_energy_cost(pi, mu) / I.LN2 + 1e-9


class TestPosterior:
    def test_uniform_first_round(self):
        phi = xor_spec(2)
        mu = I.uniform_inputs(phi)
        assert E.posterior_q(phi, mu, "") == pytest.approx(0.5)

    def test_private_coin_symmetry(self):
        phi = table_spec(
            1,
            {"alice": {"0": {"": 0.25}, "1": {"": 0.75}}, "bob": {"0": {}}},
            (0, 1),
            (0,),
        )
        assert E.posterior_q(phi, I.uniform_inputs(phi), "") == pytest.approx(0.5)

    def test_correlated_inputs_condition_round_two(self):
        # mu weights (x, y): after seeing round 1 = x, the posterior of
        # round 2 = y is mu's exact conditional
        phi = xor_spec(2)
        mu = {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.2, (1, 1): 0.3}
        assert E.posterior_q(phi, mu, "0") == pytest.approx(0.1 / 0.5)
        assert E.posterior_q(phi, mu, "1") == pytest.approx(0.3 / 0.5)

    def test_zero_probability_prefix(self):
        phi = xor_spec(2)
        mu = {(0, 0): 1.0}
        with pytest.raises(ParameterError):
            E.posterior_q(phi, mu, "1")


class TestNoisyFromNoiseless:
    def test_constant_protocol_costs_nothing(self):
        for bit in (0, 1):
            phi = constant_spec(2, bit=bit)
            sim = E.noisy_from_noiseless(phi, I.uniform_inputs(phi), 64)
            tr, ledger = sim.run(0, 0, RandomSource(71))
            assert tr == f"{bit}{bit}"
            assert ledger.bits_sent == 0 and ledger.energy == 0.0

    def test_send_inputs_is_exact_on_every_run(self):
        phi = xor_spec(2)
        sim = E.noisy_from_noiseless(phi, I.uniform_inputs(phi), 64)
        rng = RandomSource(72)
        for x in (0, 1):
            for y in (0, 1):
                for _ in range(30):
                    tr, _ = sim.run(x, y, rng)
                    assert tr == f"{x}{y}"

    def test_transcript_law_matches_exactly(self):
        phi = table_spec(
            2,
            {
                "alice": {"0": {"": 0.25}, "1": {"": 0.75}},
                "bob": {"0": {"0": 0.125, "1": 0.125}, "1": {"0": 0.875, "1": 0.875}},
            },
            (0, 1),
            (0, 1),
        )
        mu = I.uniform_inputs(phi)
        sim = E.noisy_from_noiseless(phi, mu, 64)
        joint = I.FiniteJoint.from_protocol(phi, mu)
        leaves = ["00", "01", "10", "11"]
        expected = np.array(
            [sum(pr for (x, y, t), pr in joint.table.items() if t == leaf) for leaf in leaves]
        )
        gen = np.random.default_rng(73)
        pairs = list(mu)
        rng = RandomSource(74)
        counts = np.zeros(4, dtype=int)
        for _ in range(4000):
            x, y = pairs[gen.integers(len(pairs))]
            tr, _ = sim.run(x, y, rng)
            counts[leaves.index(tr)] += 1
        from bsclab.verify import chi_square_gof

        assert chi_square_gof(counts, expected).passed

    def test_grid_resolution_doubles_per_round(self):
        sim = E.noisy_from_noiseless(xor_spec(2), I.uniform_inputs(xor_spec(2)), 256)
        assert sim.grid_resolution(1) == 512 and sim.grid_resolution(2) == 1024

    def test_rejects_noisy_input(self):
        gen = np.random.default_rng(75)
        pi = S.random_variable_noise_spec(gen, 2)
        with pytest.raises(SpecError):
            E.noisy_from_noiseless(pi, {}, 16)


def _noisy_two_rounds():
    return S.random_variable_noise_spec(np.random.default_rng(76), 2)


# mu, the error it raises and a fragment of the message naming the fault.
BAD_MU = {
    "pair outside the domains": ({(0, 0): 0.5, (2, 3): 0.5}, SpecError, "(2, 3)"),
    "negative weight": (
        {(0, 0): 1.5, (1, 1): -0.5}, ParameterError, "(1, 1) has negative weight -0.5"
    ),
    "total 2": ({(0, 0): 2.0}, ParameterError, "sums to 2.0"),
}

MU_CONSUMERS = {
    "external_info_cost": lambda mu: I.external_info_cost(xor_spec(2), mu),
    "expected_energy_cost": lambda mu: E.expected_energy_cost(_noisy_two_rounds(), mu),
    "FiniteJoint.from_protocol": lambda mu: I.FiniteJoint.from_protocol(xor_spec(2), mu),
    "noisy_from_noiseless": lambda mu: E.noisy_from_noiseless(xor_spec(2), mu, 16),
}


@pytest.mark.parametrize("case", list(BAD_MU))
@pytest.mark.parametrize("consumer", list(MU_CONSUMERS))
def test_bad_input_law_rejected(consumer, case):
    mu, error, named = BAD_MU[case]
    with pytest.raises(error, match=re.escape(named)):
        MU_CONSUMERS[consumer](mu)
