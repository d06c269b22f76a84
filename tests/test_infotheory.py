import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import entr, rel_entr

from bsclab import infotheory as I
from bsclab import suite as S
from bsclab.core import ParameterError, SpecError, constant_spec, table_spec, xor_spec


class TestEntropy:
    def test_fair_coin(self):
        assert I.binary_entropy(0.5) == 1.0

    def test_boundary(self):
        assert I.binary_entropy(0.0) == 0.0 and I.binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert I.binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ParameterError):
            I.binary_entropy(1.2)


class TestKl:
    def test_matched(self):
        assert I.kl_bernoulli(0.37, 0.37) == 0.0

    def test_half_vs_quarter(self):
        assert I.kl_bernoulli(0.5, 0.25) == pytest.approx(0.207519, abs=1e-6)

    def test_deterministic_vs_fair(self):
        assert I.kl_bernoulli(1.0, 0.5) == 1.0

    def test_infinite_signal(self):
        assert I.kl_bernoulli(0.5, 0.0) == math.inf
        assert I.kl_bernoulli(0.5, 1.0) == math.inf
        assert I.kl_bernoulli(0.0, 0.0) == 0.0


UNIT = st.floats(0.0, 1.0)  # with 0, 1 and the subnormals
EDGES = np.array([0.0, 5e-324, 1e-310, np.finfo(float).smallest_normal, 0.5, 1.0])


def kernels(x, y):
    """(x ln x, x ln(x / y)) from the library's kernels, with every
    RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return I._xlogx(x), I._rel_entr(x, y)


def assert_within_ulps(got, want, ulps):
    """Equal where `want` is 0 or infinite; within `ulps` ulps of it elsewhere."""
    edge = (want == 0.0) | np.isinf(want)
    np.testing.assert_array_equal(got[edge], want[edge])
    assert np.all(np.abs(got[~edge] - want[~edge]) <= ulps * np.spacing(np.abs(want[~edge])))


class TestKernels:
    """The numpy kernels behind `_entropy` and `_divergence` against scipy's
    `entr` and `rel_entr`, which they replace, within 4 ulps."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=30))
    def test_match_scipy(self, pairs):
        x, y = np.array(pairs).T
        xlogx, div = kernels(x, y)
        assert_within_ulps(-xlogx, entr(x), 4)
        assert_within_ulps(div, rel_entr(x, y), 4)

    def test_edges(self):
        x, y = np.meshgrid(EDGES, EDGES)
        xlogx, div = kernels(x, y)
        assert_within_ulps(-xlogx, entr(x), 4)
        assert_within_ulps(div, rel_entr(x, y), 4)
        assert np.all(xlogx[x == 0.0] == 0.0) and np.all(xlogx[x == 1.0] == 0.0)
        assert np.all(div[x == 0.0] == 0.0)
        assert np.all(div[(x > 0.0) & (y == 0.0)] == math.inf)

    def test_entropy_and_divergence_edges(self):
        p = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
        q = np.array([0.0, 1.0, 1.0, 0.0, 0.5])
        np.testing.assert_array_equal(I._entropy(p), [0.0, 0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(I._divergence(p, q), [0.0, 0.0, math.inf, math.inf, 0.0])


class TestExternalInfoCost:
    def test_uniform_input_bit(self):
        phi = xor_spec(1, alice_inputs=(0, 1), bob_inputs=(0,))
        res = I.external_info_cost(phi, I.uniform_inputs(phi))
        assert res.bits == pytest.approx(1.0, abs=1e-12)

    def test_noisy_relay(self):
        phi = table_spec(
            1, {"alice": {"0": {"": 0.25}, "1": {"": 0.75}}, "bob": {"0": {}}}, (0, 1), (0,)
        )
        res = I.external_info_cost(phi, I.uniform_inputs(phi))
        assert res.bits == pytest.approx(0.188722, abs=1e-6)

    def test_fresh_coin_reveals_nothing(self):
        phi = table_spec(
            1, {"alice": {"0": {"": 0.5}, "1": {"": 0.5}}, "bob": {"0": {}}}, (0, 1), (0,)
        )
        assert I.external_info_cost(phi, I.uniform_inputs(phi)).bits == pytest.approx(
            0.0, abs=1e-12
        )

    def test_three_routes_agree(self):
        for k in range(20):
            gen = np.random.default_rng(8100 + k)
            phi = S.random_noiseless_spec(gen, int(gen.integers(1, 4)))
            mu = S.random_mu(gen, phi)
            res = I.external_info_cost(phi, mu)
            assert res.chain_bits == pytest.approx(res.bits, abs=1e-9)
            assert res.divergence_bits == pytest.approx(res.bits, abs=1e-9)
            assert sum(res.per_round) == pytest.approx(res.chain_bits, abs=1e-12)

    def test_enumeration_guard(self):
        with pytest.raises(SpecError):
            I.external_info_cost(constant_spec(25), {(0, 0): 1.0})


class TestIneBounds:
    def test_matched_pair(self):
        assert I.ine_bounds(0.4, 0.4) == (0.0, 0.0)

    def test_reference_point(self):
        lower, upper = I.ine_bounds(0.5, 0.25)
        assert lower == pytest.approx(0.104167, abs=1e-6)
        assert upper == pytest.approx(0.333333, abs=1e-6)
        mid = I.LN2 * I.kl_bernoulli(0.5, 0.25)
        assert mid == pytest.approx(0.143841, abs=1e-6)
        assert lower <= mid <= upper

    def test_swapped_point(self):
        lower, upper = I.ine_bounds(0.25, 0.5)
        mid = I.LN2 * I.kl_bernoulli(0.25, 0.5)
        assert lower <= mid <= upper

    def test_sandwich_on_grid(self):
        for p in np.arange(0.05, 1.0, 0.05):
            for q in np.arange(0.05, 1.0, 0.05):
                lower, upper = I.ine_bounds(float(p), float(q))
                mid = I.LN2 * I.kl_bernoulli(float(p), float(q))
                assert lower <= mid + 1e-12 and mid <= upper + 1e-12

    def test_boundary_reference(self):
        with pytest.raises(ParameterError):
            I.ine_bounds(0.5, 0.0)


class TestTableBounds:
    def test_low_region_example(self):
        label, bound = I.table1_bound(0.3, 0.2)
        assert label == "p <= 2q"
        assert bound == pytest.approx(0.018034, abs=1e-6)
        assert I.kl_bernoulli(0.3, 0.2) >= bound

    def test_matched_pair_zero(self):
        assert I.table1_bound(0.4, 0.4)[1] == 0.0

    def test_tiny_prior_region_scales_with_log(self):
        label, bound = I.table1_bound(0.05, 0.005)
        assert label == "p >= 0.02, q < 0.01"
        assert bound == pytest.approx(
            (1 - I.binary_entropy(0.02) / 0.02 / math.log2(200)) * 0.05 * math.log2(200)
        )
        assert I.kl_bernoulli(0.05, 0.005) >= bound

    def test_boundary_follows_dispatch_order(self):
        # p exactly 2q goes to the quadratic region, matching the sampler
        label, _ = I.table1_bound(0.4, 0.2)
        assert label == "p <= 2q"

    def test_all_regions_reachable(self):
        assert I.table1_bound(0.01, 0.004)[0] == "2q < p < 0.02, q < 0.01"
        assert I.table1_bound(0.5, 0.1)[0] == "2q < p, q >= 0.01"
        assert I.table1_bound(0.5, 0.004)[0] == "p >= 0.02, q < 0.01"

    def test_bounds_hold_on_sample_grid(self):
        gen = np.random.default_rng(12)
        for _ in range(2000):
            q = float(gen.uniform(1e-4, 0.6))
            p = float(gen.uniform(0.0, 1.0))
            bound = I.table1_bound(p, q)[1]
            assert bound <= I.kl_bernoulli(p, q) + 1e-15


class TestGridRounding:
    def test_relative_penalty_bound(self):
        # rounding the reference upward costs at most 2 (q'-q)/(1-q') bits
        gen = np.random.default_rng(13)
        for _ in range(500):
            q = float(gen.uniform(0.01, 0.49))
            q_r = min(0.5, q + float(gen.uniform(0, 0.002)))
            p = float(gen.uniform(0.0, 1.0))
            delta = I.kl_bernoulli(p, q_r) - I.kl_bernoulli(p, q)
            assert delta <= 2 * (q_r - q) / (1 - q_r) + 1e-12
