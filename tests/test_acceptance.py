"""Acceptance battery at the pinned tolerances.

Each test runs one criterion of `suite.CRITERIA` end to end and prints its
named checks, so a plain run of this module doubles as the sign-off sheet.
"""

import math

import pytest
from test_compressor import per_class_threshold

from bsclab import compressor, suite, verify


def _run(number, seed=suite.DEFAULT_SUITE_SEED):
    name, call = suite.CRITERIA[number]
    result = call(seed)
    for check in result.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"[criterion {number:02d}] {name}: [{verdict}] {check['name']}")
    return result


def test_criterion_01_chunk_exactness_analytic():
    res = _run(1)
    assert res.passed, res.metrics
    assert res.metrics["exact_max_abs_diff"] <= 1e-10
    assert res.metrics["wall_clock_seconds"] < 1.0


def test_criterion_02_chunk_exactness_statistical():
    res = _run(2)
    assert res.passed, res.metrics
    assert res.metrics["chi2_p_value"] >= 0.001
    assert res.metrics["trials"] == 50_000


def test_criterion_03_end_to_end_compression():
    res = _run(3)
    assert res.passed, res.metrics
    assert 1.6 <= res.metrics["ratio"] <= 2.4
    assert min(res.metrics["T200_min_gof_p"], res.metrics["T400_min_gof_p"]) >= 0.001


def test_criterion_04_threshold_protocol():
    res = _run(4)
    assert res.passed, res.metrics
    assert res.metrics["witnesses_sound"]
    assert res.metrics["mean_rounds"] <= 2.0
    assert res.metrics["bits_per_round"] == 4
    # The exact mean: each class's reference rounds under Bin(10, 1/2)^2.
    margin = compressor.binomial_margin(10, 0.5)
    mean = sum(
        margin[m_x] * margin[m_y] * per_class_threshold(4, margin, margin, m_x, m_y)[3]
        for m_x in range(11)
        for m_y in range(11)
    )
    assert res.metrics["mean_rounds"] == pytest.approx(mean, rel=0, abs=1e-12)


@pytest.mark.parametrize("bits_per_round,passes", [(4, True), (3, False)])
def test_criterion_04_checks_the_sampler_charges(monkeypatch, bits_per_round, passes):
    monkeypatch.setattr(compressor, "BITS_PER_THRESHOLD_ROUND", bits_per_round)
    res = _run(4)
    checks = {c["name"]: c["passed"] for c in res.checks}
    assert checks["4 bits per threshold round"] is passes
    assert res.metrics["bits_per_round"] == bits_per_round


def test_criterion_04_reports_uncharged_threshold_rounds(monkeypatch):
    # A ledger defect that records no threshold round for any trial: the
    # criterion reports nan and a failed check instead of dividing by 0.
    real = verify.monte_carlo_chunk

    def no_rounds(*args, **kwargs):
        mc = real(*args, **kwargs)
        mc.trials = [t._replace(threshold_rounds=0) for t in mc.trials]
        return mc

    monkeypatch.setattr(verify, "monte_carlo_chunk", no_rounds)
    res = _run(4)
    checks = {c["name"]: c["passed"] for c in res.checks}
    assert checks["first-proposal wins charged threshold rounds"] is False
    assert math.isnan(res.metrics["bits_per_round"])


def test_criterion_05_per_round_masses():
    res = _run(5)
    assert res.passed, res.metrics
    assert res.metrics["max_abs_diff"] <= 1e-12


def test_criterion_06_biased_walk():
    res = _run(6)
    assert res.passed, res.metrics
    assert res.metrics["top_fraction"] == 1.0
    assert res.metrics["mean_energy"] <= 48.0


def test_criterion_07_unbiased_walk():
    res = _run(7)
    assert res.passed, res.metrics
    assert abs(res.metrics["top_fraction"] - 0.75) <= res.metrics["three_sigma"]
    assert res.metrics["total_energy"] == 0.0


def test_criterion_08_sample_with_prior():
    res = _run(8)
    assert res.passed, res.metrics["grid"]
    assert res.metrics["max_energy_ratio"] <= 200.0


def test_criterion_09_energy_dominates_information():
    res = _run(9)
    assert res.passed, res.metrics
    assert res.metrics["instances"] == 100
    assert res.metrics["worst_slack_bits"] <= 1e-9


def test_criterion_10_noisy_replay():
    res = _run(10)
    assert res.passed, res.metrics["battery"]
    assert res.metrics["min_p_value"] >= 0.001
    assert res.metrics["max_energy_ratio"] <= 1e4


def test_criterion_11_divergence_bounds():
    res = _run(11)
    assert res.passed, res.metrics
    assert res.metrics["worst_table_margin"] >= 0.0


def test_criterion_12_chain_rule_agreement():
    res = _run(12)
    assert res.passed, res.metrics
    assert res.metrics["instances"] == 50
    assert res.metrics["worst_spread_bits"] <= 1e-9


# The numbers criteria 05, 11 and 12 reported at seed 7 when each ran inline
# code of its own, before it became a call of an experiment function.
# Criterion 04's mean rounds is exact on the sampler's table, whatever the seed.
@pytest.mark.parametrize(
    "number,key,matches",
    [
        (4, "mean_rounds", lambda v: abs(v - 1.021926879882814) <= 1e-12),
        (5, "max_abs_diff", lambda v: v <= 1e-12),
        (11, "worst_table_margin", lambda v: v == 1.846148844972185e-07),
        (12, "worst_spread_bits", lambda v: v <= 1e-9),
    ],
    ids=["04", "05", "11", "12"],
)
def test_moved_criteria_keep_their_seed_7_numbers(number, key, matches):
    res = _run(number, seed=7)
    assert res.passed and matches(res.metrics[key]), res.metrics
