import decimal
import hashlib
import itertools
import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import chi2_contingency

from bsclab import compressor as C
from bsclab import verify as V
from bsclab.core import (
    CostLedger,
    InvariantViolation,
    IterationCapExceeded,
    Noise,
    ParameterError,
    RandomSource,
    SpecError,
    apply_flip_pattern,
    constant_spec,
    count_errors,
    enumerate_transcripts,
    seeded_spec,
    xor_spec,
)
from bsclab.compressor import (
    ChunkParams,
    find_xi,
    low_error_mass,
    threshold_nodes,
    threshold_table,
)


class TestParams:
    def test_default_gamma_even_ceiling(self):
        assert C.default_gamma(0.1) == 100
        assert C.default_gamma(0.125) == 64
        assert C.default_gamma(0.3) == 12

    def test_default_t_minimal_admissible(self):
        # (1 + 2 eps)^(3/eps) increases toward the e^6 cap as eps shrinks
        assert C.default_t(0.1) == pytest.approx(1.2**30)
        assert C.default_t(0.01) == pytest.approx(1.02**300)
        assert C.default_t(0.01) < math.e**6

    @given(st.floats(1e-4, 0.5))
    def test_t_cap_never_binds(self, eps):
        # ln(1 + 2 eps) < 2 eps keeps (1 + 2 eps)^(3/eps) below e^6
        assert C.default_t(eps) == (1.0 + 2.0 * eps) ** (3.0 / eps) < C.DEFAULT_T_CAP

    def test_default_theta_clamped_at_zero(self):
        assert C.default_theta(100, 0.1) == pytest.approx(20.0)
        assert C.default_theta(20, 0.2) == 0.0
        assert ChunkParams.for_advantage(0.2, gamma=20).theta == 0.0

    def test_theta_integer_budget_guard(self):
        params = ChunkParams.for_advantage(0.1, gamma=100)
        assert params.theta_int == 20
        assert ChunkParams.for_advantage(0.1, gamma=20).theta_int == 4

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_t_positive_and_finite(self, t):
        with pytest.raises(ParameterError, match="t must be positive and finite"):
            ChunkParams(20, 0.1, 4.0, t)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_finite(self, theta):
        with pytest.raises(ParameterError, match="theta must be finite"):
            ChunkParams(20, 0.1, theta, 3.0)

    def test_low_mass_cached_matches_function(self):
        params = ChunkParams.for_advantage(0.07, gamma=16)
        assert params.low_mass == low_error_mass(params)


def plan_sizes(eps, depth):
    return [params.gamma for params in C.chunk_plan(eps, depth)]


def plan_levels(eps, depth):
    """Every chunk the recursion from a depth-`depth` span at eps can reach."""
    for params in dict.fromkeys(C.chunk_plan(eps, depth)):
        yield params
        yield from plan_levels(params.nested_epsilon, params.gamma)


@pytest.fixture
def cold_plans():
    """A cached plan builds no chunk, so start and end with an empty cache."""
    C.chunk_plan.cache_clear()
    yield
    C.chunk_plan.cache_clear()


def stream_states(rng):
    return [g.bit_generator.state for g in (rng.public, rng.alice, rng.bob, rng.channel)]


class TestChunkPlan:
    @given(st.floats(0.02, 0.5), st.integers(1, 2000).map(lambda h: 2 * h))
    def test_cuts_the_span(self, eps, depth):
        sizes = plan_sizes(eps, depth)
        if eps >= C.DEFAULT_BETA:
            assert sizes == []
        else:
            assert sum(sizes) == depth
            assert all(g > 0 and g % 2 == 0 for g in sizes)
            assert set(sizes[:-1]) <= {C.default_gamma(eps)}
            assert sizes[-1] <= C.default_gamma(eps)

    @given(st.floats(0.02, 0.5), st.integers(1, 2000).map(lambda h: 2 * h))
    def test_every_level_valid_with_the_paper_t_rule(self, eps, depth):
        for params in plan_levels(eps, depth):
            if params.gamma == C.default_gamma(params.epsilon):
                ratio = C.round_accept_mass_low(params) / params.low_mass
                assert ratio >= C.COST_RATIO_FLOOR
            assert params.theta == C.default_theta(params.gamma, params.epsilon)
            sup = C.minimal_t(params.gamma, params.epsilon, params.theta)
            if params.gamma == C.default_gamma(params.epsilon):
                assert params.t == max(C.default_t(params.epsilon), sup)
            else:
                assert params.t == sup

    def test_canonical_then_remainder(self):
        assert plan_sizes(0.1, 250) == [100, 100, 50]
        assert plan_sizes(0.1, 20) == [20]
        assert C.chunk_plan(0.125, 250) == ()
        assert C.chunk_plan(0.1, 0) == ()
        plan = C.chunk_plan(0.1, 250)
        assert plan[0] is plan[1] and plan[0].t == C.default_t(0.1)
        assert plan[2].t == C.minimal_t(50, 0.1, plan[2].theta) < C.default_t(0.1)

    @given(st.floats(0.02, 0.5), st.integers(0, 2000).map(lambda h: 2 * h + 1))
    def test_odd_depth_leaves_its_last_round(self, eps, depth):
        assert C.chunk_plan(eps, depth) == C.chunk_plan(eps, depth - 1)

    def test_odd_depth_examples(self):
        assert plan_sizes(0.1, 251) == [100, 100, 50]
        assert plan_sizes(0.1, 201) == [100, 100]
        assert plan_sizes(0.1, 7) == [6]
        assert C.chunk_plan(0.1, 1) == ()
        assert C.chunk_plan(0.3, 9) == ()

    @pytest.mark.parametrize(
        "eps,level", [(0.0587, 0.1174), (0.0614, 0.1228), (0.1175, 0.1175), (0.1226, 0.1226)]
    )
    def test_default_t_below_the_supremum(self, eps, level):
        # Rounding gamma up to even and flooring theta put default_t below
        # the high-branch acceptance supremum at these canonical levels, so
        # their chunks run at the supremum.
        params = next(p for p in plan_levels(eps, C.default_gamma(eps))
                      if p.gamma == C.default_gamma(p.epsilon) and p.epsilon == level)
        sup = C.minimal_t(params.gamma, params.epsilon, params.theta)
        assert C.default_t(params.epsilon) < sup == params.t
        with pytest.raises(ParameterError, match="below the high-branch acceptance supremum"):
            ChunkParams.for_advantage(level)
        C.simulate_noiseless(constant_spec(148), 0, 0, eps, RandomSource(1))

    def test_nested_level_validated_before_the_first_draw(self, cold_plans, monkeypatch):
        # A theta above gamma at the nested eps 0.1 level only: the plan of
        # the eps 0.05 span must reject it before the first draw.
        real = C.default_theta
        monkeypatch.setattr(
            C, "default_theta", lambda g, e: g + 1.0 if e == 0.1 else real(g, e)
        )
        rng = RandomSource(5)
        before = stream_states(rng)
        with pytest.raises(
            ParameterError,
            match=r"^eps=0\.1, gamma=10, theta=11, t=\S+: "
            r"theta must be finite and lie in \[0, gamma\], got 11\.0$",
        ):
            C.simulate_noiseless(seeded_spec(10, 3), 0, 1, 0.05, rng)
        assert stream_states(rng) == before


class TestLowErrorMass:
    def test_full_support(self):
        assert low_error_mass(ChunkParams(4, 0.1, 4.0, 5.0)) == 1.0

    def test_gamma_four(self):
        assert low_error_mass(ChunkParams.for_advantage(0.1, gamma=4)) == pytest.approx(
            0.1296, abs=1e-12
        )

    def test_gamma_two_single_term(self):
        assert low_error_mass(ChunkParams(2, 0.1, 0.4, 5.0)) == pytest.approx(
            0.36, abs=1e-12
        )


class TestLogBinomials:
    @pytest.mark.parametrize("n", [10, 139, 278, 3200])
    def test_within_an_ulp_of_50_digits(self, n):
        with decimal.localcontext(prec=50):
            exact = np.array([float(decimal.Decimal(math.comb(n, k)).ln()) for k in range(n + 1)])
        row = C.log_binomials(n)
        assert np.all(np.abs(row - exact) <= np.spacing(np.abs(exact)))

    @pytest.mark.parametrize("n,q", [(10, 0.5), (50, 0.3), (79, 0.5), (139, 0.38)])
    def test_margin_matches_the_log_gamma_formula(self, n, q):
        k = np.arange(n + 1)
        log_pmf = (
            gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            + k * math.log(q) + (n - k) * math.log1p(-q)
        )
        np.testing.assert_allclose(C.binomial_margin(n, q), np.exp(log_pmf), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("eps", [0.1, 0.08, 0.06])
    def test_low_mass_matches_the_exact_sum(self, eps):
        params = ChunkParams.for_advantage(eps)
        q = Fraction(0.5 - eps)
        exact = sum(
            math.comb(params.gamma, k) * q**k * (1 - q) ** (params.gamma - k)
            for k in range(params.theta_int + 1)
        )
        assert low_error_mass(params) == pytest.approx(float(exact), rel=1e-13, abs=0)


def window_cdf(pmf, lo, hi, k):
    """Pr[count <= k] under `pmf` conditioned to [lo, hi], one k at a time."""
    if k < lo:
        return 0.0
    if k >= hi:
        return 1.0
    cum = np.cumsum(pmf[lo : hi + 1])
    return cum[k - lo] / cum[-1]


def scan_xi(px, py, rect, theta):
    """`find_xi` by its definition: the first xi in [-1, theta] meeting both
    tail conditions on the node's windows, or None."""
    x0, x1, y0, y1 = rect
    for xi in range(-1, theta + 1):
        if window_cdf(px, x0, x1, xi - 1) <= window_cdf(py, y0, y1, theta - xi) and window_cdf(
            px, x0, x1, xi
        ) >= window_cdf(py, y0, y1, theta - xi - 1):
            return xi
    return None


def per_class_threshold(theta, px, py, m_x, m_y):
    """(answer, theta_x, theta_y, rounds) of one class's threshold run, one
    `find_xi` per round on the rectangle of classes still in the run: the
    reference the node-tree walk (`threshold_nodes`, `threshold_table`) must
    equal."""
    x0, x1, y0, y1 = 0, px.size - 1, 0, py.size - 1
    for rounds in itertools.count(1):
        xi = find_xi(px, py, (x0, x1, y0, y1), theta)
        b2, b4 = m_x > xi, m_y > theta - xi
        if m_x == xi:
            answer = b4
        elif m_y == theta - xi or b2 == b4:
            answer = b2
        elif b2:
            x0, y1 = max(x0, xi + 1), min(y1, theta - xi - 1)
            continue
        else:
            x1, y0 = min(x1, xi - 1), max(y0, theta - xi + 1)
            continue
        return int(answer), xi, theta - xi, rounds


def table_entry(margin, theta, half, m_x, m_y):
    """(answer, theta_x, theta_y, rounds) of class (m_x, m_y) in `threshold_table`
    with `margin` for both parties."""
    return tuple(int(a[m_x, m_y]) for a in threshold_table(margin, margin, theta, half))


def assert_witnesses_sound(px, py, theta, half):
    answer, tx, ty, rounds = threshold_table(px, py, theta, half)
    m_x = np.arange(half + 1)[:, None]
    m_y = np.arange(half + 1)[None, :]
    np.testing.assert_array_equal(answer, m_x + m_y > theta)
    assert np.all(tx + ty == theta)
    low = answer == 0
    assert np.all(((m_x <= tx) & (m_y <= ty))[low])
    assert np.all(((m_x >= tx) & (m_y >= ty))[~low])
    assert rounds.min() >= 1


class TestThreshold:
    def test_low_pair_one_round(self):
        assert table_entry(C.binomial_margin(4, 0.5), 2, 4, 0, 0) == (0, 1, 1, 1)

    def test_high_pair_one_round(self):
        assert table_entry(C.binomial_margin(4, 0.5), 2, 4, 3, 3) == (1, 1, 1, 1)

    def test_two_level_recursion(self):
        assert table_entry(C.binomial_margin(4, 0.5), 2, 4, 2, 0) == (0, 2, 0, 2)

    def test_point_mass_single_round(self):
        assert table_entry(np.array([0.0, 1.0]), 2, 1, 1, 1)[3] == 1

    def test_point_mass_one_sided(self):
        # Margins of unequal length: no square class grid, so the reference.
        assert per_class_threshold(2, np.array([0.0, 0.0, 1.0]), np.array([1.0]), 2, 0)[3] == 1

    def test_zero_errors_full_budget(self):
        answer, _, _, rounds = table_entry(C.binomial_margin(5, 0.4), 10, 5, 0, 0)
        assert answer == 0 and rounds == 1

    @pytest.mark.parametrize("q", [0.5, 0.3])
    @pytest.mark.parametrize("half,theta", [(4, 2), (12, 5), (10, 4)])
    def test_witnesses_exhaustive(self, half, theta, q):
        m = C.binomial_margin(half, q)
        assert_witnesses_sound(m, m, theta, half)


@st.composite
def count_margins(draw, half):
    """One error-count pmf on [0, half]: binomial at a random q, or random
    positive weights normalised."""
    if draw(st.booleans()):
        return C.binomial_margin(half, draw(st.floats(0.02, 0.98)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=half + 1, max_size=half + 1)))
    return weights / weights.sum()


@st.composite
def threshold_instances(draw):
    """(px, py, theta, half): random margins with a budget in [0, 2 half]."""
    half = draw(st.integers(1, 40))
    px, py = draw(count_margins(half)), draw(count_margins(half))
    return px, py, draw(st.integers(0, 2 * half)), half


@st.composite
def find_xi_instances(draw):
    """(px, py, rect, theta): margins of unequal lengths, some of few distinct
    weights so the two tail conditions tie, a sub-rectangle of their grid and
    a budget in [-1, the grid's diagonal + 2]."""

    def margin(size):
        if draw(st.booleans()):
            return draw(count_margins(size - 1))
        weights = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=size, max_size=size))
        return np.array(weights) / sum(weights)

    px, py = margin(draw(st.integers(1, 30))), margin(draw(st.integers(1, 30)))
    x0, x1 = sorted(draw(st.lists(st.integers(0, px.size - 1), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, py.size - 1), min_size=2, max_size=2)))
    return px, py, (x0, x1, y0, y1), draw(st.integers(-1, px.size + py.size))


class TestFindXi:
    def test_zero_budget_symmetric(self):
        m = C.binomial_margin(3, 0.5)
        assert find_xi(m, m, (0, 3, 0, 3), 0) == 0

    def test_binomial_example(self):
        m = C.binomial_margin(4, 0.5)
        assert find_xi(m, m, (0, 4, 0, 4), 2) == 1

    def test_conditioned_example(self):
        # m_x conditioned to [2, 4] reads 6/11, 10/11, 1; m_y sits at 0.
        px = np.array([1, 2, 6, 4, 1], dtype=float) / 14
        assert find_xi(px, np.array([1.0]), (2, 4, 0, 0), 2) == 2

    def test_no_admissible_xi_names_the_node(self):
        m = C.binomial_margin(4, 0.5)
        with pytest.raises(
            InvariantViolation,
            match=r"^no admissible xi for theta=-2, half=4, "
            r"m_x support 0\.\.4, m_y support 0\.\.4; ",
        ):
            find_xi(m, m, (0, 4, 0, 4), -2)

    @pytest.mark.parametrize("rect", [(1, 2, 0, 3), (0, 3, 1, 2)])
    def test_zero_mass_window_is_typed(self, rect):
        # Checked before the division, so no 0/0 warning precedes the error.
        pmf = np.array([0.5, 0.0, 0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="^conditioning emptied the support$"):
                find_xi(pmf, pmf, rect, 3)

    @settings(max_examples=200, deadline=None)
    @given(find_xi_instances())
    def test_first_xi_of_the_scalar_scan(self, instance):
        px, py, rect, theta = instance
        expected = scan_xi(px, py, rect, theta)
        if expected is None:
            with pytest.raises(InvariantViolation, match="^no admissible xi"):
                find_xi(px, py, rect, theta)
        else:
            assert find_xi(px, py, rect, theta) == expected


def replay_table(px, py, theta, classes):
    """(answer, theta_x, theta_y, rounds) per class, one `per_class_threshold`
    run each."""
    traces = [per_class_threshold(theta, px, py, int(mx), int(my)) for mx, my in classes]
    return list(np.array(traces).T)


def assert_table_matches_replay(px, py, theta, half, classes=None):
    if classes is None:
        classes = np.argwhere(np.ones((half + 1, half + 1), dtype=bool))
    table = threshold_table(px, py, theta, half)
    for built, replayed in zip(table, replay_table(px, py, theta, classes)):
        assert built.dtype == np.int64
        np.testing.assert_array_equal(built[classes[:, 0], classes[:, 1]], replayed)


def branch_margins(params):
    """Each branch's error-count margin: Bin(half, 1/2 - 2 eps) for the low
    branch's doubled-advantage proposals, Bin(half, 1/2) for the high
    branch's uniform leaves."""
    return {
        "low": C.binomial_margin(params.half, 0.5 - 2 * params.epsilon),
        "high": C.binomial_margin(params.half, 0.5),
    }


# SHA-256 of both branches' `threshold_table` arrays (answer, theta_x,
# theta_y, rounds; low branch first, int64 little-endian) at every distinct
# chunk the `compress` workload's plans reach (eps 0.1, 0.08 and 0.06 and
# their nested eps-0.12 chunks) and at criterion 02's gamma-20 chunk.
PLAN_TABLE_DIGESTS = {
    (0.06, 278): "179fff7bf6719ebdea1029f270cfe42c2845ab6c1dcbee6dfd4883c28840acbf",
    (0.08, 158): "9a5d6522cc308592016596481f7fd13be7cbb41b7166fa3575b48193cb41887d",
    (0.1, 20): "5fd961e6fbb5a78d4c463c5a6688725fafd8ca1e1ca5a1e25399cf358ee07264",
    (0.1, 100): "9da4aeae8ab5c7596d801134b4a800c6b6c7484e8486ee32f647344b0f734208",
    (0.12, 68): "3fa4194c5790fea542a1212d80d42df6d261b2f71e3c0ef68417e22b5c4bfd5b",
    (0.12, 70): "469d189e2517ee24da31465d02397dbe2e0a2bc7fef3c50ff6fe9ef367662779",
}


class TestThresholdTable:
    @settings(max_examples=40, deadline=None)
    @given(threshold_instances())
    def test_matches_per_class_replay(self, instance):
        assert_table_matches_replay(*instance)

    @settings(max_examples=60, deadline=None)
    @given(threshold_instances())
    def test_find_xi_exists_on_every_node(self, instance):
        px, py, theta, half = instance
        seen = np.zeros((half + 1, half + 1), dtype=bool)
        for _, rows, cols, xi in threshold_nodes(px, py, theta, half):
            x0, x1, y0, y1 = rows.start, rows.stop - 1, cols.start, cols.stop - 1
            assert -1 <= xi <= theta
            assert window_cdf(px, x0, x1, xi - 1) <= window_cdf(py, y0, y1, theta - xi)
            assert window_cdf(px, x0, x1, xi) >= window_cdf(py, y0, y1, theta - xi - 1)
            assert x0 <= x1 and y0 <= y1
            seen[rows, cols] = True
        assert seen.all()

    @settings(max_examples=60, deadline=None)
    @given(threshold_instances())
    def test_witnesses_sound(self, instance):
        assert_witnesses_sound(*instance)

    @pytest.mark.parametrize("branch", ["low", "high"])
    def test_canonical_full_grid(self, branch):
        params = ChunkParams.for_advantage(0.1)
        m = branch_margins(params)[branch]
        assert_table_matches_replay(m, m, params.theta_int, params.half)

    @pytest.mark.parametrize("branch", ["low", "high"])
    def test_canonical_sampled_classes(self, branch):
        params = ChunkParams.for_advantage(0.06)
        m = branch_margins(params)[branch]
        classes = np.random.default_rng(6).integers(0, params.half + 1, size=(500, 2))
        assert_table_matches_replay(m, m, params.theta_int, params.half, classes)

    def test_plan_tables_pinned(self):
        # The tables the samplers draw from at the `compress` workload's
        # chunks: a change to the threshold engine that moves one of them
        # moves the bench's draws, and must re-pin.
        chunks = {(0.1, 20): ChunkParams.for_advantage(0.1, gamma=20)}
        for eps in (0.1, 0.08, 0.06):
            for params in plan_levels(eps, C.default_gamma(eps)):
                chunks[params.epsilon, params.gamma] = params
        assert chunks.keys() == PLAN_TABLE_DIGESTS.keys()
        for key, params in chunks.items():
            digest = hashlib.sha256()
            for m in branch_margins(params).values():
                for a in threshold_table(m, m, params.theta_int, params.half):
                    assert a.dtype == np.int64
                    digest.update(a.astype("<i8").tobytes())
            assert digest.hexdigest() == PLAN_TABLE_DIGESTS[key], key

    def test_nonterminating_recursion_guarded(self, monkeypatch):
        # A split that leaves the whole rectangle in one off-diagonal quadrant
        # never shrinks it; the depth guard must stop the walk.
        m = C.binomial_margin(4, 0.5)
        monkeypatch.setattr(C, "find_xi", lambda px, py, rect, theta: -1)
        with pytest.raises(
            InvariantViolation, match="failed to terminate: theta=10, half=4, 10001 rounds"
        ):
            threshold_table(m, m, 10, 4)


@st.composite
def admissible_chunks(draw, eps=st.floats(0.005, 0.2499)):
    """(gamma, eps, theta, t): even gamma <= 60, theta in [0, gamma], integer
    values included, and t = sup * f with f >= 1.  eps stops at 0.2499:
    within about 1e-7 of 1/4 the float class DP underflows, which
    `test_chunk_near_a_quarter_is_exact` marks."""
    eps = draw(eps)
    gamma = 2 * draw(st.integers(1, 30))
    theta = draw(st.one_of(st.integers(0, gamma).map(float), st.floats(0.0, float(gamma))))
    t = C.minimal_t(gamma, eps, theta) * draw(st.floats(1.0, 100.0))
    return gamma, eps, theta, t


@st.composite
def inadmissible_chunks(draw):
    """(gamma, eps, theta, t) breaking exactly one exactness condition, at eps
    0.1 or 0.2, or with eps in [1/4, 1/2]."""
    gamma, eps, theta, t = draw(admissible_chunks(st.sampled_from([0.1, 0.2])))
    fault = draw(st.sampled_from(["odd gamma", "theta", "t", "eps"]))
    if fault == "odd gamma":
        gamma -= 1
        theta = min(theta, gamma)
        t = C.minimal_t(gamma, eps, theta) * draw(st.floats(1.0, 100.0))
    elif fault == "theta":
        theta = draw(
            st.one_of(
                st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
                st.floats(min_value=float(gamma), exclude_min=True),
                st.just(math.nan),
            )
        )
    elif fault == "t":
        f = draw(st.one_of(st.just(1.0 - 1e-9), st.floats(1e-6, 1.0 - 1e-9)))
        t = C.minimal_t(gamma, eps, theta) * f
    else:
        eps = draw(st.floats(0.25, 0.5))
    return gamma, eps, theta, t


class TestValidateParams:
    """What a `ChunkParams` checks when it is built."""

    def test_canonical_ok_with_large_ratio(self):
        params = ChunkParams(100, 0.1, 20.0, math.e**6)
        ratio = C.round_accept_mass_low(params) / params.low_mass
        assert ratio == pytest.approx(math.exp(6.5784), rel=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(admissible_chunks())
    def test_chunk_that_builds_is_exact(self, chunk):
        # On both sides of beta: exactness needs the four conditions only.
        params = ChunkParams(*chunk)
        law = V.exact_chunk_distribution(params)
        assert np.max(np.abs(law - V.class_law(params.half, params.epsilon))) <= 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="1/2 - 2 eps near 0 underflows the float class DP's low-branch products",
    )
    def test_chunk_near_a_quarter_is_exact(self):
        params = ChunkParams(40, 0.25 - 1e-15, 23.0, C.minimal_t(40, 0.25 - 1e-15, 23.0))
        law = V.exact_chunk_distribution(params)
        assert np.max(np.abs(law - V.class_law(params.half, params.epsilon))) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(inadmissible_chunks())
    def test_chunk_that_is_not_exact_does_not_build(self, chunk):
        gamma, eps, theta, t = chunk
        with pytest.raises(ParameterError) as caught:
            ChunkParams(gamma, eps, theta, t)
        assert str(caught.value).startswith(
            f"eps={eps}, gamma={gamma}, theta={theta:.6g}, t={t:.6g}: "
        )

    def test_gamma_parity(self):
        with pytest.raises(ParameterError, match="even"):
            ChunkParams(5, 0.1, 1.0, 10.0)

    def test_theta_range(self):
        with pytest.raises(ParameterError, match="theta"):
            ChunkParams(4, 0.1, 9.0, 10.0)

    def test_t_below_supremum(self):
        with pytest.raises(ParameterError, match="supremum"):
            ChunkParams(20, 0.1, 4.0, 1.0)

    def test_short_chunks_skip_ratio_floor(self, cold_plans):
        # R < 5 here, but the chunk is shorter than canonical depth, so the
        # paper plan keeps it.
        (params,) = C.chunk_plan(0.1, 20)
        assert params.gamma < C.default_gamma(0.1)
        assert C.round_accept_mass_low(params) < C.COST_RATIO_FLOOR * params.low_mass

    def test_plan_keeps_the_ratio_floor_at_canonical_depth(self, cold_plans, monkeypatch):
        # The floor is a cost rule of the paper plan's canonical chunks: with
        # it above every R, a canonical chunk still builds and a short span
        # still plans, but a canonical span's plan does not.
        monkeypatch.setattr(C, "COST_RATIO_FLOOR", math.inf)
        ChunkParams.for_advantage(0.1)
        assert plan_sizes(0.1, 50) == [50]
        with pytest.raises(
            ParameterError,
            match=r"^eps=0\.1, gamma=100, theta=20, t=\S+: "
            r"low-branch mass ratio R=\S+ < inf at canonical chunk depth$",
        ):
            C.chunk_plan(0.1, 100)

    def test_beta_at_most_quarter(self):
        # Chunk levels sit below beta, so their doubled advantage stays
        # below 1/2, where the low branch's proposal channel exists.
        assert C.DEFAULT_BETA <= 0.25


class TestChunkTables:
    @pytest.mark.parametrize("eps", [0.25, 0.3])
    def test_doubled_advantage_must_stay_below_half(self, eps):
        with pytest.raises(
            ParameterError,
            match=rf"^eps={eps}, gamma=20, theta=0, t=1: nested advantage 2\*eps={2 * eps} "
            r"outside \(0, 1/2\)$",
        ):
            C.chunk_tables(ChunkParams(20, eps, 0.0, 1.0))

    def test_build_failure_names_the_level(self):
        # Bin(1250, 1/2)'s float64 tails underflow at eps 0.02's canonical depth.
        with pytest.raises(
            InvariantViolation,
            match=r"^eps=0\.02, gamma=2500, theta=1100, t=\S+: conditioning emptied the support$",
        ) as caught:
            C.simulate_noiseless(constant_spec(2500), 0, 0, 0.02, RandomSource(0))
        assert isinstance(caught.value.__cause__, InvariantViolation)
        assert str(caught.value.__cause__) == "conditioning emptied the support"


class TestRoundMasses:
    @pytest.mark.parametrize("gamma,eps", [(20, 0.1), (8, 0.05)])
    def test_closed_forms_match_brute_force(self, gamma, eps):
        params = ChunkParams.for_advantage(eps, gamma=gamma)
        analysis = V.exact_branch_analysis(params)
        assert analysis.mass_low == pytest.approx(
            C.round_accept_mass_low(params), abs=1e-12
        )
        assert analysis.mass_high == pytest.approx(
            C.round_accept_mass_high(params), abs=1e-12
        )

    def test_low_mass_ratio_floor_at_canonical(self):
        # the per-round low-branch mass is at least 5p at canonical settings
        for eps in (0.05, 0.1, 0.12):
            params = ChunkParams.for_advantage(eps)
            assert C.round_accept_mass_low(params) >= 5 * params.low_mass

    def test_t_cap_default(self):
        assert C.DEFAULT_T_CAP == pytest.approx(math.e**6)


def branch_class_counts(kernel, params, spec, x, y, base_seed, trials):
    """Class counts of `trials` runs of one branch kernel, trial i at seed
    base_seed + i, each leaf replayed through the protocol tree."""
    counts = np.zeros((params.half + 1, params.half + 1), dtype=int)
    for i in range(trials):
        rng = RandomSource.for_trial(base_seed, i)
        pattern, _ = kernel(params, rng, CostLedger())
        leaf = apply_flip_pattern(spec, x, y, "", pattern)
        counts[count_errors(spec, "alice", x, leaf), count_errors(spec, "bob", y, leaf)] += 1
    return counts


class TestBranches:
    def test_high_branch_conditional_law(self):
        params = ChunkParams(6, 0.1, 6 * 0.2, C.minimal_t(6, 0.1, 1.2))
        spec = seeded_spec(6, seed=21)
        analysis = V.exact_branch_analysis(params)
        counts = branch_class_counts(C._branch_high_pattern, params, spec, 0, 1, 400, 4000)
        assert V.chi_square_gof(counts, analysis.high_law).passed
        # restricted renormalized product law on {m > theta}
        mask = np.add.outer(np.arange(4), np.arange(4)) > params.theta_int
        expected = V.class_law(3, 0.1) * mask
        expected /= expected.sum()
        np.testing.assert_allclose(analysis.high_law, expected, atol=1e-12)

    def test_low_branch_conditional_law(self):
        params = ChunkParams(6, 0.1, 6 * 0.2, C.minimal_t(6, 0.1, 1.2))
        spec = seeded_spec(6, seed=22)
        analysis = V.exact_branch_analysis(params)
        counts = branch_class_counts(C._branch_low_pattern, params, spec, 1, 0, 500, 4000)
        assert V.chi_square_gof(counts, analysis.low_law).passed
        mask = np.add.outer(np.arange(4), np.arange(4)) <= params.theta_int
        expected = V.class_law(3, 0.1) * mask
        expected /= expected.sum()
        np.testing.assert_allclose(analysis.low_law, expected, atol=1e-12)

    def test_low_branch_accept_bits_are_geometric(self):
        """Criterion 02's chunk, low branch forced: every proposal the
        threshold lets through charges 2 accept bits, so (accept bits / 2 - 1)
        counts the passed proposals the parties reject before one wins, a
        geometric law whose success probability `ChunkTables` gives."""
        params = ChunkParams.for_advantage(
            0.1, gamma=20, t=C.minimal_t(20, 0.1, C.default_theta(20, 0.1))
        )
        assert params.theta_int == 4 and C.chunk_plan(params.nested_epsilon, 20) == ()
        tables = C.chunk_tables(params)
        low = C.binomial_margin(params.half, 0.5 - params.nested_epsilon)
        passed = np.outer(low, low) * (tables.ans_low == 0)
        success = float((passed * tables.acc_low_x * tables.acc_low_y).sum() / passed.sum())
        counts = Counter()
        for i in range(20_000):
            ledger = CostLedger()
            _, (_, proposals, threshold_rounds) = C._branch_low_pattern(
                params, RandomSource.for_trial(5_000_000, i), ledger
            )
            # Each proposal's nested span is simulated directly: 20 bits.
            accept_bits = ledger.bits_sent - 20 * proposals - 4 * threshold_rounds
            assert accept_bits >= 2 and accept_bits % 2 == 0
            counts[accept_bits // 2 - 1] += 1
        tail = max(counts) + 1
        law = [success * (1.0 - success) ** k for k in range(tail)] + [(1.0 - success) ** tail]
        gof = V.chi_square_gof([counts[k] for k in range(tail + 1)], law)
        assert gof.passed, (success, sorted(counts.items()), gof)

    def test_chunk_mixture_law(self):
        params = ChunkParams(4, 0.1, 0.8, C.minimal_t(4, 0.1, 0.8))
        spec = seeded_spec(4, seed=23)
        expected = V.exact_chunk_distribution(params)
        counts = np.zeros((3, 3), dtype=int)
        for i in range(6000):
            rng = RandomSource.for_trial(600, i)
            leaf = C.simulate_chunk(spec, 0, 0, "", params, rng)
            counts[
                count_errors(spec, "alice", 0, leaf), count_errors(spec, "bob", 0, leaf)
            ] += 1
        assert V.chi_square_gof(counts, expected).passed


class TestSimulateNoiseless:
    def test_direct_path_bits_and_law(self):
        spec = seeded_spec(5, seed=31)
        noise = Noise.from_crossover(0.2)  # eps = 0.3 >= beta
        law = dict(enumerate_transcripts(replace(spec, crossover=noise), 0, 1))
        leaves = sorted(law)
        expected = np.array([law[t] for t in leaves])
        counts = np.zeros(len(leaves), dtype=int)
        for i in range(6000):
            rng = RandomSource.for_trial(700, i)
            tr, ledger = C.simulate_noiseless(spec, 0, 1, 0.3, rng)
            assert ledger.bits_sent == 5
            counts[leaves.index(tr)] += 1
        assert V.chi_square_gof(counts, expected).passed

    @pytest.mark.parametrize(
        "rounds,eps,base_seed",
        [(5, 0.3, 4_000_000), (7, 0.1, 4_100_000)],
        ids=["direct", "chunk-then-direct"],
    )
    def test_odd_length_law_and_bits(self, rounds, eps, base_seed):
        # Above beta every round is direct, 1 bit each.  Below it 7 rounds
        # at eps 0.1 are a 6-round chunk and one direct round, which reads
        # the public stream right after the chunk: the trial charges the
        # chunk's bits on the same seed plus 1.
        spec = seeded_spec(rounds, seed=45)
        plan = C.chunk_plan(eps, rounds)
        assert [p.gamma for p in plan] == ([] if eps >= C.DEFAULT_BETA else [rounds - 1])
        law = dict(enumerate_transcripts(replace(spec, crossover=Noise(eps)), 0, 1))
        counts = Counter()
        for i in range(6000):
            tr, ledger = C.simulate_noiseless(spec, 0, 1, eps, RandomSource.for_trial(base_seed, i))
            chunk_bits = CostLedger()
            for params in plan:
                C._chunk_pattern(params, RandomSource.for_trial(base_seed, i), chunk_bits)
            assert len(tr) == rounds
            assert ledger.bits_sent == chunk_bits.bits_sent + rounds - sum(p.gamma for p in plan)
            counts[tr] += 1
        leaves = sorted(law)
        gof = V.chi_square_gof([counts[leaf] for leaf in leaves], [law[leaf] for leaf in leaves])
        assert gof.passed, gof.p_value

    def test_chunked_leaf_law_on_real_tree(self):
        # Full transcript law over all 16 leaves of a 4-round tree at eps=0.1:
        # one short chunk well below canonical depth.
        spec = seeded_spec(4, seed=32)
        bsc = replace(spec, crossover=Noise(0.1))
        leaves = sorted(t for t, _ in enumerate_transcripts(bsc, 1, 1))
        expected = np.array([dict(enumerate_transcripts(bsc, 1, 1))[t] for t in leaves])
        counts = np.zeros(len(leaves), dtype=int)
        for i in range(8000):
            rng = RandomSource.for_trial(800, i)
            tr, _ = C.simulate_noiseless(spec, 1, 1, 0.1, rng)
            counts[leaves.index(tr)] += 1
        assert V.chi_square_gof(counts, expected).passed

    def test_rejects_stochastic_specs(self):
        with pytest.raises(SpecError):
            C.simulate_noiseless(xor_spec(2, noise=0.25), 0, 0, 0.1, RandomSource(0))

    def test_epsilon_range(self):
        with pytest.raises(ParameterError):
            C.simulate_noiseless(constant_spec(2), 0, 0, 0.0, RandomSource(0))
        with pytest.raises(ParameterError):
            C.simulate_noiseless(constant_spec(2), 0, 0, 0.7, RandomSource(0))

    def test_determinism(self):
        spec = seeded_spec(6, seed=33)
        a = C.simulate_noiseless(spec, 0, 1, 0.1, RandomSource(42))
        b = C.simulate_noiseless(spec, 0, 1, 0.1, RandomSource(42))
        assert a[0] == b[0] and a[1].bits_sent == b[1].bits_sent

    def test_iteration_cap_aborts_loudly(self, monkeypatch):
        spec = constant_spec(2)
        monkeypatch.setattr(C, "DEFAULT_MAX_ROUNDS", 0)
        with pytest.raises(
            IterationCapExceeded,
            match=r"-branch rejection loop exceeded 0 rounds: "
            r"eps=0\.1, gamma=2, theta=0\.4, t=",
        ):
            C.simulate_noiseless(spec, 0, 0, 0.1, RandomSource(1))

    @pytest.mark.parametrize("branch", ["low", "high"])
    def test_iteration_cap_names_parameters(self, branch, monkeypatch):
        params = ChunkParams(4, 0.1, 0.8, 5.0)
        kernel = C._branch_low_pattern if branch == "low" else C._branch_high_pattern
        monkeypatch.setattr(C, "DEFAULT_MAX_ROUNDS", 0)
        with pytest.raises(
            IterationCapExceeded,
            match=f"^{branch}-branch rejection loop exceeded 0 rounds: "
            r"eps=0\.1, gamma=4, theta=0\.8, t=5$",
        ):
            kernel(params, RandomSource(1), CostLedger())


@cache
def four_round_plan(eps, depth):
    """A test plan: 4-round chunks and a shorter remainder at every level
    below beta, each at the paper's theta and minimal t.  Cached like
    `chunk_plan`, so each chunk keeps its `low_mass`."""
    if eps >= C.DEFAULT_BETA:
        return ()
    return tuple(four_round_chunk(eps, min(4, depth - lo)) for lo in range(0, depth, 4))


@cache
def four_round_chunk(eps, gamma):
    theta = C.default_theta(gamma, eps)
    return ChunkParams(gamma, eps, theta, C.minimal_t(gamma, eps, theta))


class TestWholeTranscriptLaw:
    def test_leaf_law_across_chunks_and_levels(self, monkeypatch):
        # 10 rounds at eps 0.05 under 4-round chunks: chunks [4, 4, 2], whose
        # low branches propose nested eps 0.1 spans, whose low branches
        # propose direct eps 0.2 spans.  The sampler never reads the tree, so
        # a second input pair on these seeds would replay the same flip
        # patterns: one pair is checked, on seeds fixed before the first run.
        monkeypatch.setattr(C, "chunk_plan", four_round_plan)
        low_levels = Counter()
        branch_low = C._branch_low_pattern

        def counted_low(params, rng, ledger):
            low_levels[params.epsilon] += 1
            return branch_low(params, rng, ledger)

        monkeypatch.setattr(C, "_branch_low_pattern", counted_low)
        spec, x, y = seeded_spec(10, seed=44), 0, 1
        assert [p.gamma for p in four_round_plan(0.05, 10)] == [4, 4, 2]
        law = dict(enumerate_transcripts(replace(spec, crossover=Noise(0.05)), x, y))
        leaves = sorted(law)
        assert len(leaves) == 1024
        counts = Counter(
            C.simulate_noiseless(spec, x, y, 0.05, RandomSource.for_trial(2_000_000, i))[0]
            for i in range(30_000)
        )
        assert low_levels[0.05] > 0 and low_levels[0.1] > 0
        gof = V.chi_square_gof([counts[leaf] for leaf in leaves], [law[leaf] for leaf in leaves])
        assert gof.passed, gof.p_value


def _reference_fair_binomial(gen, n, size):
    """`_fair_binomial` before the flat-index kernel."""
    total = np.zeros(size, dtype=np.int64)
    remaining = n
    while remaining > 0:
        width = min(remaining, 64)
        words = gen.integers(0, 1 << width, size=size, dtype=np.uint64, endpoint=False)
        total += np.bitwise_count(words)
        remaining -= width
    return total


def reference_branch_high_pattern(params, rng, ledger, record):
    """The high-branch kernel before flat class indices, kept as an oracle:
    two-array indexing into the [m_x, m_y] tables."""
    tables = C.chunk_tables(params)
    half = params.half
    max_rounds = C.DEFAULT_MAX_ROUNDS
    if tables.mass_high <= 0.0:
        raise InvariantViolation("high branch entered with zero acceptance mass")
    batch = int(min(max(2.0 / tables.mass_high, 8), 1 << 16))
    done = 0
    while True:
        if done >= max_rounds:
            raise IterationCapExceeded(
                f"high-branch rejection loop exceeded {max_rounds} rounds"
            )
        k = int(min(batch, max_rounds - done))
        mx = _reference_fair_binomial(rng.public, half, k)
        my = _reference_fair_binomial(rng.public, half, k)
        ans = tables.ans_high[mx, my]
        eligible = np.flatnonzero(ans == 1)
        ua = rng.alice.random(eligible.size)
        ub = rng.bob.random(eligible.size)
        hits = (ua < tables.acc_high_x[mx[eligible], my[eligible]]) & (
            ub < tables.acc_high_y[mx[eligible], my[eligible]]
        )
        winners = np.flatnonzero(hits)
        # Proposals this batch spent: up to its first winner, else all k.
        spent = int(eligible[winners[0]]) + 1 if winners.size else k
        threshold_rounds = int(tables.rounds_high[mx[:spent], my[:spent]].sum())
        ledger.charge(
            0.0,
            C.BITS_PER_THRESHOLD_ROUND * threshold_rounds
            + 2 * int(np.count_nonzero(ans[:spent])),
        )
        if record is not None:
            if winners.size:
                record["branch"] = 1
                record["rounds"] = record.get("rounds", 0) + done + spent
            record["threshold_rounds"] = (
                record.get("threshold_rounds", 0) + threshold_rounds
            )
        if winners.size:
            return C._materialize_counts(half, int(mx[spent - 1]), int(my[spent - 1]), rng)
        done += k


@st.composite
def high_branch_params(draw):
    """Canonical or short even depth at eps 0.1, 0.08 or 0.06, the default
    theta, and minimal or default t."""
    eps = draw(st.sampled_from([0.1, 0.08, 0.06]))
    gamma = draw(st.one_of(st.just(C.default_gamma(eps)), st.integers(1, 15).map(lambda h: 2 * h)))
    theta = C.default_theta(gamma, eps)
    t = C.minimal_t(gamma, eps, theta) if draw(st.booleans()) else C.default_t(eps)
    return ChunkParams(gamma, eps, theta, t)


@st.composite
def high_kernel_cases(draw):
    """(params, max_rounds, seed): `high_branch_params` and a cap that is
    either out of reach or small enough to cut a batch short."""
    params = draw(high_branch_params())
    max_rounds = draw(st.one_of(st.just(C.DEFAULT_MAX_ROUNDS), st.integers(1, 300)))
    return params, max_rounds, draw(st.integers(0, 2**32 - 1))


def _fair_binomial(gen: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Vector of Binomial(n, 1/2) draws via popcounts of uniform words, in
    the smallest unsigned dtype that holds n."""
    total = np.zeros(size, dtype=np.min_scalar_type(n))
    remaining = n
    while remaining > 0:
        width = min(remaining, 64)
        words = gen.integers(0, 1 << width, size=size, dtype=np.uint64, endpoint=False)
        total += np.bitwise_count(words)
        remaining -= width
    return total


def per_proposal_branch_high_pattern(params, rng, ledger):
    """`compressor._branch_high_pattern` before the collapsed kernel, kept as
    the executable reference: it runs every proposal, in batches of flat
    class indices, and charges each one as it goes."""
    tables = C.chunk_tables(params)
    half = params.half
    if tables.mass_high <= 0.0:
        raise InvariantViolation("high branch entered with zero acceptance mass")
    # Flat views of the [m_x, m_y] tables: a proposal's class is one index
    # m_x * (half + 1) + m_y into each of them.
    ans_flat = tables.ans_high.reshape(-1)
    acc_x_flat = tables.acc_high_x.reshape(-1)
    acc_y_flat = tables.acc_high_y.reshape(-1)
    rounds_flat = tables.rounds_high.reshape(-1)
    batch = int(min(max(2.0 / tables.mass_high, 8), 1 << 16))
    done = 0
    threshold_rounds = 0
    while True:
        if done >= C.DEFAULT_MAX_ROUNDS:
            raise IterationCapExceeded(
                f"high-branch rejection loop exceeded {C.DEFAULT_MAX_ROUNDS} rounds: "
                f"{C._describe(params)}"
            )
        k = int(min(batch, C.DEFAULT_MAX_ROUNDS - done))
        idx = _fair_binomial(rng.public, half, k).astype(np.intp)
        idx *= half + 1
        idx += _fair_binomial(rng.public, half, k)
        eligible = np.flatnonzero(ans_flat.take(idx))
        cls = idx.take(eligible)
        hits = rng.alice.random(eligible.size) < acc_x_flat.take(cls)
        hits &= rng.bob.random(eligible.size) < acc_y_flat.take(cls)
        w = int(hits.argmax()) if hits.size else 0
        won = hits.size > 0 and bool(hits[w])
        # Proposals this batch spent: up to its first winner, else all k;
        # each eligible one among them cost its two accept bits.
        spent = int(eligible[w]) + 1 if won else k
        checked = w + 1 if won else eligible.size
        batch_rounds = int(rounds_flat.take(idx[:spent]).sum())
        threshold_rounds += batch_rounds
        ledger.charge(0.0, C.BITS_PER_THRESHOLD_ROUND * batch_rounds + 2 * checked)
        if won:
            m_x, m_y = divmod(int(cls[w]), half + 1)
            pattern = C._materialize_counts(half, m_x, m_y, rng)
            return pattern, (1, done + spent, threshold_rounds)
        done += k


def counting(kernel):
    """`kernel` behind the older reference kernel's signature: its returned
    counts are written into `record`."""

    def run(params, rng, ledger, record):
        pattern, (branch, rounds, threshold_rounds) = kernel(params, rng, ledger)
        record.update(branch=branch, rounds=rounds, threshold_rounds=threshold_rounds)
        return pattern

    return run


counting_high_kernel = counting(per_proposal_branch_high_pattern)


def run_high_kernel(kernel, params, max_rounds, seed):
    """Everything one kernel call under a cap of `max_rounds` leaves behind:
    pattern, ledger, the cap error if any, all four streams' states, and the
    record of a run that returned (None for one that hit the cap)."""
    rng = RandomSource(seed)
    ledger, record = CostLedger(), {}
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(C, "DEFAULT_MAX_ROUNDS", max_rounds)
            pattern = kernel(params, rng, ledger, record).tobytes()
        error = None
    except IterationCapExceeded as exc:
        pattern, error, record = None, str(exc), None
    return pattern, ledger.bits_sent, ledger.energy, record, stream_states(rng), error


class TestHighKernel:
    @settings(max_examples=80, deadline=None)
    @given(high_kernel_cases())
    def test_matches_reference_kernel(self, case):
        new = run_high_kernel(counting_high_kernel, *case)
        old = run_high_kernel(reference_branch_high_pattern, *case)
        assert new[:5] == old[:5]
        if old[5] is None:
            assert new[5] is None
        else:
            # Same point, and the old text stays the message's prefix.
            assert new[5].startswith(old[5] + ": eps=")

    def test_matches_reference_on_tiny_batches(self):
        # gamma 2, theta_int 0: a quarter of the proposals are ineligible, so
        # some one- and two-proposal batches have none to check at all.
        params = ChunkParams(2, 0.06, 0.64, C.minimal_t(2, 0.06, 0.64))
        capped = 0
        for max_rounds in (1, 2, 9):
            for seed in range(120):
                new = run_high_kernel(counting_high_kernel, params, max_rounds, seed)
                old = run_high_kernel(reference_branch_high_pattern, params, max_rounds, seed)
                assert new[:5] == old[:5]
                assert (new[5] is None) == (old[5] is None)
                capped += old[5] is not None
        assert 0 < capped < 360


def pinned_chunk_params(eps=0.1):
    """Gamma 20 with the minimal t; at eps 0.1 criterion 02's chunk."""
    t = C.minimal_t(20, eps, C.default_theta(20, eps))
    return ChunkParams.for_advantage(eps, gamma=20, t=t)


def rejected_category_law(params):
    """{(threshold rounds, answer): share of the rejected mass}, summed class
    by class over the class DP's uniform proposal law."""
    tables = C.chunk_tables(params)
    accept = tables.ans_high * tables.acc_high_x * tables.acc_high_y
    reject = V.class_law(params.half, 0.0) * (1.0 - accept)
    masses = {}
    for (m_x, m_y), mass in np.ndenumerate(reject):
        key = (int(tables.rounds_high[m_x, m_y]), int(tables.ans_high[m_x, m_y]))
        masses[key] = masses.get(key, 0.0) + mass
    total = sum(masses.values())
    return {key: mass / total for key, mass in masses.items()}


def high_branch_outcomes(kernel, params, base_seed, runs):
    """(flat class index, threshold rounds, bits) of `runs` high-branch runs,
    run i at seed base_seed + i."""
    out = np.zeros((runs, 3), dtype=np.int64)
    for i in range(runs):
        ledger = CostLedger()
        pattern, (_, _, threshold_rounds) = kernel(
            params, RandomSource.for_trial(base_seed, i), ledger
        )
        m_x, m_y = int(pattern[0::2].sum()), int(pattern[1::2].sum())
        out[i] = (m_x * (params.half + 1) + m_y, threshold_rounds, ledger.bits_sent)
    return out


def homogeneity_p_value(a, b):
    """Chi-square p-value that two samples of cell labels share one law.
    Cells are pooled, smallest first, until each holds at least 10 draws."""
    labels, cells = np.unique(np.concatenate([a, b]), return_inverse=True)
    counts = np.zeros((2, labels.size))
    np.add.at(counts[0], cells[: a.size], 1)
    np.add.at(counts[1], cells[a.size :], 1)
    groups, acc = [], np.zeros(2)
    for j in np.argsort(counts.sum(axis=0), kind="stable"):
        acc = acc + counts[:, j]
        if acc.sum() >= 10:
            groups.append(acc)
            acc = np.zeros(2)
    if acc.sum():
        groups[-1] = groups[-1] + acc
    return chi2_contingency(np.array(groups).T, correction=False).pvalue


class TestCollapsedHighKernel:
    @settings(max_examples=30, deadline=None)
    @given(high_branch_params())
    def test_winner_law_is_the_class_dp(self, params):
        increments = np.diff(C.chunk_tables(params).high_win_cdf, prepend=0.0)
        high_law = V.exact_branch_analysis(params).high_law.reshape(-1)
        np.testing.assert_allclose(increments, high_law, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(high_branch_params())
    def test_accept_mass_is_the_closed_form(self, params):
        mass = C.chunk_tables(params).mass_high
        assert mass == pytest.approx(C.round_accept_mass_high(params), rel=1e-12, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(high_branch_params())
    def test_reject_law_sums_the_rejected_classes(self, params):
        tables = C.chunk_tables(params)
        built = {
            (int(r), int(a)): q
            for r, a, q in zip(
                tables.high_cat_rounds, tables.high_cat_answer, tables.high_reject_law
            )
        }
        expected = rejected_category_law(params)
        assert built.keys() == expected.keys()
        for key, q in expected.items():
            assert built[key] == pytest.approx(q, rel=0, abs=1e-12)

    @pytest.mark.parametrize("eps,categories", [(0.1, 10), (0.08, 24), (0.06, 54)])
    def test_canonical_category_counts(self, eps, categories):
        tables = C.chunk_tables(ChunkParams.for_advantage(eps))
        assert tables.high_reject_law.size == categories

    def test_cap_is_the_winners_proposal_index(self):
        # The collapsed kernel stops at the cap exactly when the per-proposal
        # loop would: when the winner is proposal cap + 1 or later.
        params = pinned_chunk_params()
        kernel = counting(C._branch_high_pattern)
        for seed in range(30):
            free = run_high_kernel(kernel, params, C.DEFAULT_MAX_ROUNDS, seed)
            rounds = free[3]["rounds"]
            assert run_high_kernel(kernel, params, rounds, seed) == free
            capped = run_high_kernel(kernel, params, rounds - 1, seed)
            assert capped[5] == (
                f"high-branch rejection loop exceeded {rounds - 1} rounds: "
                f"{C._describe(params)}"
            )
            assert capped[1] == 0

    def test_charges_match_the_counts(self):
        # 4 bits per threshold round, and 2 accept bits for the winner and
        # for each rejected proposal the threshold let through.
        params = pinned_chunk_params()
        first_wins = 0
        for seed in range(200):
            ledger = CostLedger()
            _, (branch, rounds, threshold_rounds) = C._branch_high_pattern(
                params, RandomSource(seed), ledger
            )
            accept_bits = ledger.bits_sent - C.BITS_PER_THRESHOLD_ROUND * threshold_rounds
            assert branch == 1
            assert threshold_rounds >= rounds
            assert accept_bits % 2 == 0 and 2 <= accept_bits <= 2 * rounds
            if rounds == 1:
                first_wins += 1
                assert accept_bits == 2
        assert first_wins > 0

    def test_joint_law_matches_the_per_proposal_reference(self):
        # (class, threshold-rounds tercile, bits tercile) of 20,000 runs per
        # kernel at criterion 02's chunk, disjoint seed ranges.
        params = pinned_chunk_params()
        runs = 20_000
        new = high_branch_outcomes(C._branch_high_pattern, params, 150_000, runs)
        old = high_branch_outcomes(per_proposal_branch_high_pattern, params, 150_000 + runs, runs)
        both = np.concatenate([new, old])
        labels = both[:, 0] * 9
        for column, weight in ((1, 3), (2, 1)):
            edges = np.quantile(both[:, column], [1 / 3, 2 / 3])
            labels += weight * np.searchsorted(edges, both[:, column], side="right")
        assert homogeneity_p_value(labels[:runs], labels[runs:]) >= 0.001


class TestWaldOracle:
    @pytest.mark.parametrize(
        "params,bits",
        [
            (ChunkParams.for_advantage(0.1), 338_092),
            (ChunkParams.for_advantage(0.08), 409_743),
            (ChunkParams.for_advantage(0.06), 501_145),
        ],
        ids=["eps0.1", "eps0.08", "eps0.06"],
    )
    def test_canonical_values(self, params, bits):
        assert C.expected_high_bits(params) == pytest.approx(bits, abs=0.5)

    def test_minimal_t_value(self):
        assert C.expected_high_bits(pinned_chunk_params()) == pytest.approx(48.48, abs=0.005)

    @pytest.mark.parametrize(
        "kernel,params,runs,base_seed",
        [
            (C._branch_high_pattern, ChunkParams.for_advantage(0.1), 2000, 210_000),
            (per_proposal_branch_high_pattern, ChunkParams.for_advantage(0.1), 400, 220_000),
            (C._branch_high_pattern, pinned_chunk_params(), 5000, 230_000),
            (per_proposal_branch_high_pattern, pinned_chunk_params(), 5000, 240_000),
        ],
        ids=["collapsed-canonical", "reference-canonical", "collapsed-gamma20", "reference-gamma20"],
    )
    def test_sampled_mean_within_4_se(self, kernel, params, runs, base_seed):
        bits = high_branch_outcomes(kernel, params, base_seed, runs)[:, 2]
        expected = C.expected_high_bits(params)
        assert abs(bits.mean() - expected) <= 4 * bits.std(ddof=1) / math.sqrt(runs)
        # Criterion 03's loose per-chunk ceiling stays beside the exact mean.
        alpha = max(1.0 / C.DEFAULT_BETA**2, 50.0 * C.default_t(params.epsilon) ** 2 + 10.0)
        assert bits.mean() <= alpha


class TestChunkApi:
    def test_root_parity_checked(self):
        params = ChunkParams(2, 0.1, 0.4, 2.0)
        with pytest.raises(SpecError):
            C.simulate_chunk(constant_spec(4), 0, 0, "1", params, RandomSource(0))

    def test_chunk_must_fit_tree(self):
        params = ChunkParams(4, 0.1, 0.8, 2.0)
        with pytest.raises(SpecError):
            C.simulate_chunk(constant_spec(2), 0, 0, "", params, RandomSource(0))

    def test_validation_failure_before_sampling(self):
        with pytest.raises(ParameterError):
            bad = ChunkParams(4, 0.1, 9.0, 2.0)
            C.simulate_chunk(constant_spec(4), 0, 0, "", bad, RandomSource(0))

    def test_validation_error_names_parameters(self):
        with pytest.raises(
            ParameterError,
            match=r"^eps=0\.1, gamma=20, theta=4, t=1: "
            r"t=1 below the high-branch acceptance supremum 2\.75188$",
        ):
            bad = ChunkParams(20, 0.1, 4.0, 1.0)
            C.simulate_chunk(constant_spec(20), 0, 0, "", bad, RandomSource(0))


class TestChunkRecord:
    def test_trials_pinned(self):
        # 400 trials of the pinned chunk: 15 low-branch and 385 high-branch,
        # so both kernels' counts are covered.  A change to any random
        # stream moves these values; such a change re-pins them.  The go-low
        # coin is each trial's first public draw, so a change inside one
        # branch keeps the branch column.
        result = V.monte_carlo_chunk(pinned_chunk_params(), seeded_spec(20, 41), 0, 1, 400, 12345)
        trials = result.trials
        assert not result.failures and len(trials) == 400
        columns = np.array(trials, dtype=np.int64)
        # index, m_x, m_y, bits, branch, rounds, threshold_rounds
        assert columns.sum(axis=0).tolist() == [79800, 1600, 1622, 20376, 385, 3071, 3153]
        assert tuple(trials[1]) == (1, 5, 5, 34, 1, 5, 6)
        low = [tuple(t) for t in trials if t.branch == 0]
        assert len(low) == 15
        assert low[:2] == [(137, 1, 3, 376, 0, 15, 18), (169, 3, 1, 78, 0, 3, 4)]
        digest = hashlib.sha256(columns.astype("<i8").tobytes()).hexdigest()
        assert digest == "9ae5008bfeb4a8e3787e518326b1b1156df7628204fd632da2a2a0a9a43693ed"

    def test_nested_span_trials_pinned(self):
        # At eps 0.05 the low branch proposes a chunked span at eps 0.1, a
        # nested level the eps 0.1 pin never reaches: 39 of 200 trials.
        result = V.monte_carlo_chunk(
            pinned_chunk_params(0.05), seeded_spec(20, 41), 0, 1, 200, 12345
        )
        trials = result.trials
        assert not result.failures and len(trials) == 200
        columns = np.array(trials, dtype=np.int64)
        assert columns.sum(axis=0).tolist() == [19900, 896, 924, 8290, 161, 444, 554]
        assert sum(t.branch == 0 for t in trials) == 39
        assert tuple(trials[1]) == (1, 2, 3, 46, 0, 1, 1)
        digest = hashlib.sha256(columns.astype("<i8").tobytes()).hexdigest()
        assert digest == "d10ee1d630ecc6eb6addabc68499fbdd707e9c03500c97b9700c7dca2919e704"

    def test_record_accumulates_across_chunks(self):
        params, spec = pinned_chunk_params(), seeded_spec(20, 41)
        shared, singles = {}, []
        for i in (1, 137):
            single = {}
            C.simulate_chunk(spec, 0, 1, "", params, RandomSource.for_trial(12345, i), None, single)
            C.simulate_chunk(spec, 0, 1, "", params, RandomSource.for_trial(12345, i), None, shared)
            singles.append(single)
        assert [r["branch"] for r in singles] == [1, 0]
        assert shared == {
            "branch": 0,
            "rounds": sum(r["rounds"] for r in singles),
            "threshold_rounds": sum(r["threshold_rounds"] for r in singles),
        }

    def test_capped_chunk_leaves_record_untouched(self, monkeypatch):
        monkeypatch.setattr(C, "DEFAULT_MAX_ROUNDS", 0)
        record = {"rounds": 5}
        with pytest.raises(IterationCapExceeded):
            C.simulate_chunk(
                seeded_spec(20, 41), 0, 1, "", pinned_chunk_params(), RandomSource(3), None, record
            )
        assert record == {"rounds": 5}


def noiseless_draws_digest(spec, x, y, eps, base_seed, trials=200):
    """SHA-256 of `trials` seeded whole-protocol runs: each transcript and its
    bits, trial i at `RandomSource.for_trial(base_seed, i)`."""
    digest = hashlib.sha256()
    for i in range(trials):
        transcript, ledger = C.simulate_noiseless(
            spec, x, y, eps, RandomSource.for_trial(base_seed, i)
        )
        assert len(transcript) == spec.rounds
        digest.update(f"{transcript}:{ledger.bits_sent};".encode())
    return digest.hexdigest()


class TestEvenLengthDrawsPinned:
    # Seeded `simulate_noiseless` draws of even-length protocols, recorded on
    # numpy 2.4.6 (numpy promises no `Generator` stream across versions):
    # the `compress` bench's two-chunk constant protocols, a canonical chunk
    # then a shorter one, and the direct path above beta.  A change that
    # moves these draws moves the bench's, and must say so.
    @pytest.mark.parametrize(
        "spec,x,y,eps,base_seed,want",
        [
            (constant_spec(2 * C.default_gamma(0.1)), 0, 0, 0.1, 3_000_000,
             "6e834b168eab3a4c8e462fa991b23f266812aa15db91d48ba5d7c52e8b343b11"),
            (constant_spec(2 * C.default_gamma(0.08)), 0, 0, 0.08, 3_001_000,
             "b01a7b9e85767327d4fb0760c39b6854d20dfe2f36f0e24de695afa10e7760ec"),
            (constant_spec(2 * C.default_gamma(0.06)), 0, 0, 0.06, 3_002_000,
             "3fc5d1df2f36a8c6ae4f3dfc7408ffc6f3a954ee4b585868cb2a3856da2a5d57"),
            (seeded_spec(150, 41), 0, 1, 0.1, 3_003_000,
             "75c3e50a85a1bd4c3c63c0c85828497fbe29faa54b7c5c498feaba92c5be98cc"),
            (seeded_spec(6, 31), 0, 1, 0.3, 3_004_000,
             "91dddb33bb76d21c8e1523a96637a644c5d234f1c8c34f96e8effc751b116fd8"),
        ],
        ids=["bench-0.1", "bench-0.08", "bench-0.06", "chunks-100-50", "direct-0.3"],
    )
    def test_draws_pinned(self, spec, x, y, eps, base_seed, want):
        assert noiseless_draws_digest(spec, x, y, eps, base_seed) == want
