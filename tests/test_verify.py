import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaln
from hypothesis import given, settings
from hypothesis import strategies as st

from bsclab import compressor as C
from bsclab import suite
from bsclab import verify as V
from bsclab.compressor import ChunkParams
from bsclab.core import (
    IterationCapExceeded,
    InvariantViolation,
    ParameterError,
    SpecError,
    seeded_spec,
)


class TestExactChunkDistribution:
    def test_matches_product_binomial(self):
        params = ChunkParams.for_advantage(0.1, gamma=20)
        law = V.exact_chunk_distribution(params)
        expected = V.class_law(10, 0.1)
        assert np.max(np.abs(law - expected)) <= 1e-10

    def test_degenerate_full_budget(self):
        # theta = gamma: single low branch, reweighting the doubled-noise
        # candidates back to the true law exactly
        params = ChunkParams(4, 0.08, 4.0, 5.0)
        law = V.exact_chunk_distribution(params)
        np.testing.assert_allclose(law, V.class_law(2, 0.08), atol=1e-12)
        assert params.low_mass == 1.0

    def test_branch_laws_are_restrictions(self):
        params = ChunkParams.for_advantage(0.1, gamma=12)
        analysis = V.exact_branch_analysis(params)
        m = np.add.outer(np.arange(7), np.arange(7))
        base = V.class_law(6, 0.1)
        high = base * (m > params.theta_int)
        np.testing.assert_allclose(
            analysis.high_law, high / high.sum(), atol=1e-12
        )
        low = base * (m <= params.theta_int)
        np.testing.assert_allclose(analysis.low_law, low / low.sum(), atol=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.08, 0.06])
    def test_matches_class_law_at_canonical_depth(self, eps):
        params = ChunkParams.for_advantage(eps)
        law = V.exact_chunk_distribution(params)
        assert np.max(np.abs(law - V.class_law(params.half, eps))) <= 1e-10

    def test_reads_the_sampler_tables(self, monkeypatch):
        # Halving one used high-branch acceptance entry of the sampler's
        # cached tables must move the exact law off the channel law.
        params = ChunkParams.for_advantage(0.1, gamma=20)
        tables = C.chunk_tables(params)
        used = V.class_law(params.half, 0.0) * (tables.ans_high == 1)
        cls = np.unravel_index(np.argmax(used), used.shape)
        faulty = tables.acc_high_x.copy()
        faulty[cls] /= 2
        monkeypatch.setattr(tables, "acc_high_x", faulty)
        law = V.exact_chunk_distribution(params)
        assert np.max(np.abs(law - V.class_law(params.half, 0.1))) > 1e-10

    def test_large_chunk_stays_finite(self):
        # At half 600 the unused classes' acceptance exponents overflow; they
        # must be 0 in the tables, not inf (0 * inf is NaN in the DP).
        params = ChunkParams(1200, 0.2, 0.0, C.minimal_t(1200, 0.2, 0.0))
        with np.errstate(over="raise", invalid="raise"):
            analysis = V.exact_branch_analysis(params)
        tables = C.chunk_tables(params)
        assert not np.any(tables.acc_low_x[tables.ans_low == 1])
        assert not np.any(tables.acc_high_y[tables.ans_high == 0])
        assert analysis.mass_low == pytest.approx(
            C.round_accept_mass_low(params), rel=1e-10
        )
        assert np.max(np.abs(analysis.mixture - V.class_law(600, 0.2))) <= 1e-10

    def test_bad_params_raise_parameter_error(self):
        with pytest.raises(ParameterError, match="gamma=7.*gamma must be even"):
            V.exact_branch_analysis(ChunkParams.for_advantage(0.1, gamma=7))

    def test_class_law_normalized(self):
        law = V.class_law(9, 0.13)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("half,eps", [(10, 0.1), (50, 0.1), (79, 0.08), (139, 0.06), (139, 0.0)])
    def test_class_law_matches_the_log_gamma_formula(self, half, eps):
        k = np.arange(half + 1)
        log_margin = (
            gammaln(half + 1) - gammaln(k + 1) - gammaln(half - k + 1)
            + k * math.log(0.5 - eps) + (half - k) * math.log(0.5 + eps)
        )
        margin = np.exp(log_margin)
        np.testing.assert_allclose(
            V.class_law(half, eps), np.outer(margin, margin), rtol=1e-12, atol=0
        )


class TestChiSquare:
    def test_perfect_counts_pass(self):
        expected = V.class_law(4, 0.1)
        counts = np.round(expected * 100_000)
        assert V.chi_square_gof(counts, expected).passed

    def test_shifted_law_fails(self):
        # power check: samples from a law with the advantage off by 0.05
        gen = np.random.default_rng(5)
        wrong = V.class_law(4, 0.15)
        counts = gen.multinomial(100_000, wrong.ravel()).reshape(wrong.shape)
        result = V.chi_square_gof(counts, V.class_law(4, 0.1))
        assert not result.passed

    def test_pooling_merges_rare_cells(self):
        expected = np.array([0.96, 0.01, 0.01, 0.01, 0.01])
        counts = np.array([192, 2, 2, 2, 2])
        res = V.chi_square_gof(counts, expected)
        # rare cells pool together until their expectation clears 5
        assert res.dof == 1

    def test_pooling_degenerates_gracefully(self):
        expected = np.array([0.96, 0.01, 0.01, 0.01, 0.01])
        res = V.chi_square_gof(np.array([96, 1, 1, 1, 1]), expected)
        assert res.dof == 0 and res.passed

    def test_degenerate_single_cell_passes(self):
        res = V.chi_square_gof(np.array([50]), np.array([1.0]))
        assert res.passed and res.p_value == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError) as info:
            V.chi_square_gof(np.zeros(3), np.zeros(4))
        assert isinstance(info.value, ParameterError)
        assert "(3,)" in str(info.value) and "(4,)" in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 40).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, 60), min_size=k, max_size=k),
                # few distinct weights, so many cells tie
                st.lists(st.sampled_from([1.0, 2.0, 3.0, 0.5]), min_size=k, max_size=k),
            )
        )
    )
    def test_pools_cells_in_expected_then_index_order(self, case):
        counts, weights = case
        law = np.array(weights) / sum(weights)
        res = V.chi_square_gof(np.array(counts), law)
        assert (res.statistic, res.dof) == reference_gof(counts, law)

    def test_pools_criterion_02_laws_in_reference_order(self):
        # Criterion 02's 121-cell law, whose symmetric cells tie, and copies
        # of it built from the margin moved by +-1 ulp.
        margin = np.sqrt(np.diag(V.class_law(10, 0.1)))
        counts = np.random.default_rng(7).multinomial(50_000, np.outer(margin, margin).ravel())
        gen = np.random.default_rng(3)
        for _ in range(6):
            law = np.outer(margin, margin).ravel()
            res = V.chi_square_gof(counts, law)
            assert (res.statistic, res.dof) == reference_gof(counts.tolist(), law)
            margin = np.nextafter(margin, np.where(gen.random(margin.size) < 0.5, 0.0, 1.0))

    def test_pass_iff_pvalue_at_threshold(self):
        res = V.chi_square_gof(np.array([40, 60]), np.array([0.5, 0.5]))
        assert res.passed == (res.p_value >= res.significance)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 60).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, 400), min_size=k, max_size=k),
                st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k),
            )
        )
    )
    def test_p_value_is_scipy_stats_chi2_sf(self, case):
        counts, weights = case
        law = np.array(weights) / sum(weights)
        res = V.chi_square_gof(np.array(counts), law)
        if res.dof > 0:
            assert res.p_value == float(scipy.stats.chi2.sf(res.statistic, res.dof))

    def test_p_value_is_scipy_stats_chi2_sf_on_compress_table(self):
        # The size of the `compress` workload's eps-0.06 class table.
        law = V.class_law(139, 0.06)
        law /= law.sum()
        counts = np.random.default_rng(2024).multinomial(20_000, law.ravel()).reshape(law.shape)
        res = V.chi_square_gof(counts, law)
        assert res.dof > 100
        assert res.p_value == float(scipy.stats.chi2.sf(res.statistic, res.dof))


def reference_gof(counts, law):
    """(statistic, dof) of `chi_square_gof` in plain Python: cells sorted by
    (expected count, index), pooled in that order until each group expects
    5, a remainder folded into the last group."""
    n = float(sum(counts))
    expected = [float(p) * n for p in law]
    groups = []
    obs_acc = exp_acc = 0.0
    for i in sorted(range(len(counts)), key=lambda i: (expected[i], i)):
        obs_acc += counts[i]
        exp_acc += expected[i]
        if exp_acc >= 5.0:
            groups.append((obs_acc, exp_acc))
            obs_acc = exp_acc = 0.0
    if exp_acc > 0.0:
        if groups:
            groups[-1] = (groups[-1][0] + obs_acc, groups[-1][1] + exp_acc)
        else:
            groups.append((obs_acc, exp_acc))
    if len(groups) < 2:
        return 0.0, 0
    return sum((o - e) ** 2 / e for o, e in groups), len(groups) - 1


def test_library_imports_leave_scipy_stats_unloaded():
    # No scipy module at all until a chi-square p-value is asked for; that
    # first call loads scipy.special and still no scipy.stats.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    script = (
        "import sys, bsclab, bsclab.cli, bsclab.suite, bsclab.verify; "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded; "
        "bsclab.verify.chi_square_gof([40, 60], [0.5, 0.5]); "
        "assert 'scipy.special' in sys.modules; "
        "assert 'scipy.stats' not in sys.modules"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


class TestMonteCarloChunk:
    def test_counts_and_diagnostics(self):
        params = ChunkParams(8, 0.1, 8 * 0.2, C.minimal_t(8, 0.1, 1.6))
        spec = seeded_spec(8, seed=77)
        result = V.monte_carlo_chunk(params, spec, 0, 1, 3000, base_seed=9)
        assert result.counts.sum() == 3000 and not result.failures
        assert result.n_trials == 3000 and result.bits.size == 3000
        assert set(result.branch_trials) == {0, 1}
        assert result.branch_trials[0] + result.branch_trials[1] == 3000
        assert result.mean_bits > 0 and result.p95_bits >= result.mean_bits
        gof = V.chi_square_gof(result.counts, V.exact_chunk_distribution(params))
        assert gof.passed

    def test_spec_must_cover_exactly_one_chunk(self):
        params = ChunkParams(8, 0.1, 1.6, 3.0)
        with pytest.raises(SpecError, match=r"spec\.rounds=10, params\.gamma=8"):
            V.monte_carlo_chunk(params, seeded_spec(10, seed=1), 0, 0, 10, 0)

    def test_reproducible_from_seed(self):
        params = ChunkParams(6, 0.1, 1.2, C.minimal_t(6, 0.1, 1.2))
        spec = seeded_spec(6, seed=3)
        a = V.monte_carlo_chunk(params, spec, 0, 0, 500, base_seed=4)
        b = V.monte_carlo_chunk(params, spec, 0, 0, 500, base_seed=4)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.bits, b.bits)

    @pytest.mark.parametrize("gamma", [8, 20])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_oracle_agreement_matrix(self, gamma, eps):
        theta = gamma * (0.5 - 3 * eps)
        params = ChunkParams(gamma, eps, theta, C.minimal_t(gamma, eps, theta))
        spec = seeded_spec(gamma, seed=gamma + int(100 * eps))
        result = V.monte_carlo_chunk(params, spec, 1, 0, 4000, base_seed=88)
        gof = V.chi_square_gof(result.counts, V.exact_chunk_distribution(params))
        assert gof.passed, (gamma, eps, gof.p_value)

    def test_only_iteration_caps_abort_trials(self, monkeypatch):
        params = ChunkParams(8, 0.1, 1.6, C.minimal_t(8, 0.1, 1.6))
        spec = seeded_spec(8, seed=77)
        real = C.simulate_chunk

        def capped_at_trial_4(spec, x, y, root, params, rng, *args, **kwargs):
            if rng.seed == 9 + 4:
                raise IterationCapExceeded("cap hit")
            return real(spec, x, y, root, params, rng, *args, **kwargs)

        monkeypatch.setattr(C, "simulate_chunk", capped_at_trial_4)
        result = V.monte_carlo_chunk(params, spec, 0, 1, 6, base_seed=9)
        assert result.failures == ["trial 4: cap hit"] and result.n_trials == 5
        assert [t.index for t in result.trials] == [0, 1, 2, 3, 5]

        def broken(*args, **kwargs):
            raise InvariantViolation("bug")

        monkeypatch.setattr(C, "simulate_chunk", broken)
        with pytest.raises(InvariantViolation):
            V.monte_carlo_chunk(params, spec, 0, 1, 6, base_seed=9)


class TestChunkExperiment:
    def test_samples_without_a_spec_raise_before_the_class_dp(self, monkeypatch):
        def no_class_dp(params):
            raise AssertionError("the class DP ran")

        monkeypatch.setattr(V, "exact_chunk_distribution", no_class_dp)
        with pytest.raises(SpecError, match="samples=10"):
            suite.chunk_experiment(ChunkParams.for_advantage(0.1, gamma=20), samples=10)
