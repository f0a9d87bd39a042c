"""Reward kernels, subsidy machinery, and budget accounting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poolsim.config import parse_config
from poolsim.engine import run_simulation, window_sums
from poolsim.mechanisms import pps_reward, ppss_reward, subsidy_shape, subsidy_terms
from poolsim.model import DemandModel, PlatformParams


# frozen reference values, computed independently at 30-digit precision
K_AT_X_3_2 = 0.6454298932405316      # 1 - 3.2*e^(-2.2)
K_AT_X_8 = 0.9927049442755639        # 1 - 8*e^(-7)
K_AT_D90_A1_K100 = 0.006649716673898979   # x = 8/9
FACTOR_AT_D100 = 21.855254555685912       # 0.5 / K(x=0.8)
PPSS_SINGLE_D90 = 6857.2056129294915      # 90 * (1 + 0.5 / K(x=8/9))


def pps(d, M, params):
    d = np.asarray(d, dtype=float)
    return pps_reward(d, float(d.sum()), M, params)


def ppss(d, M, params, window_sum, window_len, caps=1.0, r=150.0):
    """One round of linear-cost miners: c~ = r."""
    d = np.asarray(d, dtype=float)
    unit, numerator = subsidy_terms(caps, r, params)
    return ppss_reward(d, float(d.sum()), M, window_sum, window_len, unit, numerator, params)


def _ppss_reference(d, total, M, window_sum, window_len, caps, c_tildes, params):
    """The PPSS kernel as first written, recomputing its per-miner constants
    and calling subsidy_shape on every call; the oracle for ppss_reward."""
    threshold = params.lam * caps * params.k * (window_len + 1)
    flags = (d > 0) & (window_sum + d >= threshold)
    numerator = np.maximum(c_tildes / params.k - params.b, 0.0)
    K = np.maximum(subsidy_shape(np.where(flags, d, 1.0), caps, params), params.eps_k)
    per_unit = params.b + np.where(flags, numerator / K, 0.0)
    share = np.divide(d, total, out=np.zeros_like(d, dtype=float), where=total > 0)
    return share * per_unit * np.minimum(total, M), flags


def one_miner_windows(outputs, N):
    """window_sums of a one-miner D column holding `outputs`: per row, the
    window sum and its length."""
    sums, lens = window_sums(np.array(outputs, dtype=float)[:, None], N)
    return sums[:, 0].tolist(), lens.tolist()


def one_miner_config(mechanism, a=1.0, p=1.0, b=1.0, k=100.0, M=300.0, rounds=50):
    return parse_config({
        "mechanism": mechanism,
        "platform": {"p": p, "b": b, "k": k, "lambda": 0.8, "N": 5},
        "miners": [{"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
                    "policy": {"kind": "static", "a": a}}],
        "demand": {"family": "constant", "M": M},
        "rounds": rounds, "seed": 4,
    })


class TestPpsReward:
    def test_no_output_no_reward(self):
        out = pps([0.0, 0.0], 10.0, PlatformParams(p=1.0, b=2.0, k=1.0))
        assert out.tolist() == [0.0, 0.0]

    def test_demand_dominant_round(self):
        out = pps([3.0, 7.0], 20.0, PlatformParams(p=1.0, b=2.0, k=1.0))
        assert out.tolist() == [6.0, 14.0]

    def test_supply_dominant_round_scales_down(self):
        out = pps([3.0, 7.0], 5.0, PlatformParams(p=1.0, b=2.0, k=1.0))
        assert out.tolist() == pytest.approx([3.0, 7.0], rel=1e-12)

    def test_delta_is_one_iff_supply_within_demand(self):
        cfg = parse_config({
            "mechanism": "pps",
            "platform": {"p": 1.0, "k": 1.0},
            "miners": [{"capacity_A": 2.0, "cost": {"family": "linear", "r": 1.0}},
                       {"capacity_A": 3.0, "cost": {"family": "linear", "r": 1.0}}],
            "demand": {"family": "uniform", "lo": 3.0, "hi": 7.0},
            "rounds": 500, "seed": 2,
        })
        ledger = run_simulation(cfg)
        within = ledger.D.sum(axis=1) <= ledger.M
        assert 0 < within.sum() < ledger.rounds
        assert np.all(ledger.delta[within] == 1.0)
        assert np.all(ledger.delta[~within] < 1.0)

    @given(
        d=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5),
        M=st.floats(0.1, 1e6),
        b=st.floats(0.01, 100.0),
        p=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_ratio_bound(self, d, M, b, p):
        params = PlatformParams(p=p, b=b, k=1.0)
        out = pps(d, M, params)
        total = sum(d)
        assert np.all(out >= 0.0)
        if total > 0:
            assert math.fsum(out.tolist()) == pytest.approx(b * min(total, M), rel=1e-12)
        assert 0.0 <= math.fsum(out.tolist()) / (M * p) <= (b / p) * (1 + 1e-12)


class TestBudgetRatio:
    def test_arithmetic(self):
        ledger = run_simulation(one_miner_config("ppss", p=2.0))
        assert ledger.flags.any()
        for row in range(ledger.rounds):
            expected = np.sum(ledger.rewards[row]) / (ledger.M[row] * 2.0)
            assert ledger.budget_ratio[row] == expected

    def test_zero_rewards(self):
        ledger = run_simulation(one_miner_config("ppss", a=0.0, rounds=3))
        assert ledger.rewards.tolist() == [[0.0]] * 3
        assert ledger.budget_ratio.tolist() == [0.0] * 3

    def test_saturates_at_b_over_p(self):
        # |D| >= M every round: PPS pays b*M, ratio = b/p
        ledger = run_simulation(one_miner_config("pps", p=2.0, b=2.0, M=0.5))
        assert np.all(ledger.D[:, 0] >= 0.5)
        assert ledger.budget_ratio.tolist() == pytest.approx([1.0] * 50, rel=1e-12)

    def test_nonpositive_denominator_rejected(self):
        # the ratio's denominator M * p is positive by construction
        with pytest.raises(ValueError):
            PlatformParams(p=0.0, b=1.0, k=1.0)
        with pytest.raises(ValueError):
            DemandModel(family="constant", M=0.0)


class TestRollingWindow:
    def test_evicts_oldest_beyond_capacity(self):
        # N = 3: the indicator reads the last N-1 = 2 completed rounds
        sums, lens = one_miner_windows([1.0, 2.0, 3.0, 4.0, 0.0], 3)
        assert sums[4] == 7.0 and lens[4] == 2
        # rows older than the window do not count
        assert one_miner_windows([1e9, 1e9, 3.0, 4.0, 0.0], 3)[0][4] == 7.0

    def test_tail_sum_and_len(self):
        outputs = [1.0, 2.0, 3.0, 0.0]
        assert one_miner_windows(outputs, 3) == ([0.0, 1.0, 3.0, 5.0], [0, 1, 2, 2])
        # cold start: fewer rows than N-1
        assert one_miner_windows(outputs, 11) == ([0.0, 1.0, 3.0, 6.0], [0, 1, 2, 3])
        # N = 1 reads no past round
        assert one_miner_windows(outputs, 1) == ([0.0] * 4, [0] * 4)

    def test_adds_oldest_first_like_a_row_cumsum(self):
        # outputs spread over 16 orders of magnitude, where the order of the
        # adds shows in the bits: the sums are a per-row cumsum's, bit for bit
        rng = np.random.default_rng(4)
        D = rng.gamma(0.3, 1e3, size=(60, 5)) * rng.choice([1e-8, 1.0, 1e8], size=(60, 5))
        for N in (1, 2, 7, 80):
            sums, lens = window_sums(D, N)
            for row in range(len(D)):
                lo = max(row - (N - 1), 0)
                assert lens[row] == row - lo
                want = D[lo:row].cumsum(axis=0)[-1] if row > lo else np.zeros(5)
                assert np.array_equal(sums[row], want)


class TestSubsidyIndicator:
    def test_single_round_boundary_inclusive(self):
        params = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8, window_N=1)
        assert ppss([80.0], 1e9, params, 0.0, 0)[1].tolist() == [True]
        assert ppss([79.999], 1e9, params, 0.0, 0)[1].tolist() == [False]

    def test_five_round_threshold(self):
        # N=5, A=1, k=100, lam=0.8: threshold 400 over 5 terms
        params = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8, window_N=5)
        history = 80.0 + 90.0 + 85.0 + 95.0  # 350 over the last 4 rounds
        assert ppss([60.0], 1e9, params, history, 4)[1].tolist() == [True]   # 410
        assert ppss([40.0], 1e9, params, history, 4)[1].tolist() == [False]  # 390

    def test_cold_start_prorated(self):
        params = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8, window_N=5)
        # empty window: one term, threshold 80
        assert ppss([80.0], 1e9, params, 0.0, 0)[1].tolist() == [True]
        assert ppss([79.0], 1e9, params, 0.0, 0)[1].tolist() == [False]

    def test_only_last_n_minus_1_prior_rounds_count(self):
        params = PlatformParams(p=1.0, b=1.0, k=1.0, lam=0.5, window_N=2)
        # round 1 falls out of view of round 3
        sums, lens = one_miner_windows([100.0, 0.0, 0.0], params.window_N)
        window_sum, window_len = sums[2], lens[2]
        # threshold 0.5*1*1*2 = 1.0 over last prior round (0.0) + current
        assert ppss([0.5], 1e9, params, window_sum, window_len, r=2.0)[1].tolist() == [False]
        assert ppss([1.0], 1e9, params, window_sum, window_len, r=2.0)[1].tolist() == [True]


class TestSubsidyShape:
    PARAMS = PlatformParams(p=1.0, b=1.0, k=2.0, lam=0.8)

    def test_example_curve_low_end(self):
        assert subsidy_shape(10.0, 20.0, self.PARAMS) == pytest.approx(K_AT_X_3_2, rel=1e-12)

    def test_example_curve_high_end(self):
        assert subsidy_shape(10.0, 50.0, self.PARAMS) == pytest.approx(K_AT_X_8, rel=1e-12)

    def test_zero_at_expected_threshold_output(self):
        assert subsidy_shape(0.8 * 20.0 * 2.0, 20.0, self.PARAMS) == pytest.approx(0.0, abs=1e-15)

    def test_domain_error_on_nonpositive(self):
        with pytest.raises(ValueError):
            subsidy_shape(0.0, 20.0, self.PARAMS)
        with pytest.raises(ValueError):
            subsidy_shape(-1.0, 20.0, self.PARAMS)

    def test_u_shaped_in_output(self):
        pivot = 0.8 * 20.0 * 2.0  # 32
        # below D ~ pivot/40 the exponential underflows and K sits at 1.0
        left = subsidy_shape(np.linspace(1.0, pivot * (1 - 1e-6), 1000), 20.0, self.PARAMS)
        right = subsidy_shape(np.linspace(pivot * (1 + 1e-6), 20 * pivot, 1000), 20.0, self.PARAMS)
        assert np.all(np.diff(left) < 0)
        assert np.all(np.diff(right) > 0)
        assert np.all(left >= 0) and np.all(left < 1)
        assert np.all(right >= 0) and np.all(right < 1)

    def test_limits_approach_one(self):
        assert subsidy_shape(1e-6, 20.0, self.PARAMS) == pytest.approx(1.0, abs=1e-9)
        assert subsidy_shape(1e9, 20.0, self.PARAMS) == pytest.approx(1.0, abs=1e-6)


class TestSubsidyFactor:
    """The per-unit subsidy (c~/k - b) / max(K(D), eps_k), read off a
    subsidised single-miner round: R = D * (b + factor) when M >= D."""

    PARAMS = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8)

    def factor(self, D, r=150.0):
        params = self.PARAMS
        rewards, flags = ppss([D], 1e12, params, 1e9, params.window_N - 1, r=r)
        assert flags.tolist() == [True]
        return rewards[0] / D - params.b

    def test_at_mean_output(self):
        assert self.factor(100.0) == pytest.approx(FACTOR_AT_D100, rel=1e-10)

    def test_zero_numerator(self):
        assert self.factor(90.0, r=100.0) == 0.0  # c~/k = 1 = b

    def test_floor_guard_caps_the_blowup(self):
        # at D = lam*A*k, K = 0 exactly, so the guard takes over: 0.5/1e-3
        assert self.factor(80.0) == pytest.approx(500.0, rel=1e-12)

    def test_negative_numerator_clamped_by_default(self):
        # c~/k = 0.5 < b: the subsidy is never a charge, so the rate is b
        assert self.factor(100.0, r=50.0) == 0.0


class TestPpssReward:
    PARAMS = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8, window_N=5)
    WARM = 400.0  # four completed rounds of 100

    def test_single_miner_subsidized_round(self):
        rewards, flags = ppss([90.0], 200.0, self.PARAMS, self.WARM, 4)
        assert flags.tolist() == [True]
        assert rewards[0] == pytest.approx(PPSS_SINGLE_D90, rel=1e-9)

    def test_no_output_no_reward(self):
        rewards, flags = ppss([0.0], 200.0, self.PARAMS, self.WARM, 4)
        assert rewards.tolist() == [0.0]
        assert flags.tolist() == [False]

    def test_reduces_to_pps_when_indicator_off(self):
        # history far below threshold; 30 < 0.8*100*5 prorated share
        rewards, flags = ppss([30.0], 200.0, self.PARAMS, 0.0, 4)
        assert flags.tolist() == [False]
        assert rewards.tolist() == pps([30.0], 200.0, self.PARAMS).tolist()

    def test_mixed_flags_two_miners(self):
        rewards, flags = ppss(
            [90.0, 30.0], 500.0, self.PARAMS, np.array([self.WARM, 0.0]), 4,
            caps=np.ones(2), r=np.full(2, 150.0),
        )
        assert flags.tolist() == [True, False]
        total = 120.0
        assert rewards[1] == pytest.approx(30.0 / total * 1.0 * total, rel=1e-12)
        assert rewards[0] > rewards[1]

    def test_zero_output_miner_earns_nothing(self):
        rewards, flags = ppss(
            [0.0, 90.0], 200.0, self.PARAMS, np.full(2, self.WARM), 4,
            caps=np.ones(2), r=np.full(2, 150.0),
        )
        assert rewards[0] == 0.0
        assert not flags[0]


@st.composite
def rounds_of_play(draw):
    """m rounds of n miners: outputs, demand, windows, capacities, c~."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    positive = st.floats(0.0, 1e4, allow_subnormal=False)
    d = draw(hnp.arrays(np.float64, (m, n), elements=positive))
    # some rows idle, some miners idle
    d[d < 1.0] = 0.0
    M = draw(hnp.arrays(np.float64, m, elements=st.floats(0.1, 1e5)))
    window_len = draw(st.integers(0, 9))
    window_sum = draw(hnp.arrays(np.float64, (m, n), elements=positive)) * window_len
    caps = draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 50.0)))
    c_tildes = draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 500.0)))
    params = PlatformParams(
        p=draw(st.floats(0.1, 10.0)), b=draw(st.floats(0.1, 10.0)),
        k=draw(st.floats(0.5, 100.0)), lam=draw(st.floats(0.05, 0.95)),
        window_N=window_len + 1, eps_k=draw(st.floats(1e-4, 0.5)),
    )
    return d, M, window_sum, window_len, caps, c_tildes, params


class TestKernelProperties:
    @given(rounds_of_play())
    @settings(max_examples=150, deadline=None)
    def test_column_and_row_calls_agree_bitwise(self, play):
        # the engine calls a round's (n,) row, the Monte Carlo one miner's
        # (m,) replica column; every element must come out the same
        d, M, wsum, wlen, caps, c_tildes, params = play
        totals = d.sum(axis=1)
        m, n = d.shape
        unit, numerator = subsidy_terms(caps, c_tildes, params)
        pps_rows = np.array([pps_reward(d[j], totals[j], M[j], params) for j in range(m)])
        ppss_rows = [
            ppss_reward(d[j], totals[j], M[j], wsum[j], wlen, unit, numerator, params)
            for j in range(m)
        ]
        for i in range(n):
            col = pps_reward(d[:, i], totals, M, params)
            assert np.array_equal(col, pps_rows[:, i])
            col, col_flags = ppss_reward(
                d[:, i], totals, M, wsum[:, i], wlen,
                *subsidy_terms(caps[i], c_tildes[i], params), params,
            )
            assert np.array_equal(col, [r[i] for r, _ in ppss_rows])
            assert np.array_equal(col_flags, [f[i] for _, f in ppss_rows])

    @given(rounds_of_play())
    @settings(max_examples=150, deadline=None)
    def test_kernel_equals_reference_bitwise(self, play):
        # engine rows and Monte Carlo columns, against the kernel that
        # recomputed lambda*A*k and c~/k - b and called subsidy_shape
        d, M, wsum, wlen, caps, c_tildes, params = play
        totals = d.sum(axis=1)
        unit, numerator = subsidy_terms(caps, c_tildes, params)
        calls = [
            ((d[j], totals[j], M[j], wsum[j], wlen), (unit, numerator), (caps, c_tildes))
            for j in range(d.shape[0])
        ] + [
            ((d[:, i], totals, M, wsum[:, i], wlen),
             subsidy_terms(caps[i], c_tildes[i], params), (caps[i], c_tildes[i]))
            for i in range(d.shape[1])
        ]
        for play_args, terms, economics in calls:
            rewards, flags = ppss_reward(*play_args, *terms, params)
            ref, ref_flags = _ppss_reference(*play_args, *economics, params)
            assert rewards.tobytes() == ref.tobytes()
            assert np.array_equal(flags, ref_flags)

    @given(rounds_of_play())
    @settings(max_examples=150, deadline=None)
    def test_clamped_rewards_nonnegative(self, play):
        d, M, wsum, wlen, caps, c_tildes, params = play
        totals = d.sum(axis=1)
        terms = subsidy_terms(caps, c_tildes, params)
        for j in range(d.shape[0]):
            rewards, _ = ppss_reward(d[j], totals[j], M[j], wsum[j], wlen, *terms, params)
            assert np.all(rewards >= 0.0)
            assert np.all(pps_reward(d[j], totals[j], M[j], params) >= 0.0)

    @given(rounds_of_play())
    @settings(max_examples=150, deadline=None)
    def test_ppss_equals_pps_where_no_flag(self, play):
        d, M, wsum, wlen, caps, c_tildes, params = play
        totals = d.sum(axis=1)
        terms = subsidy_terms(caps, c_tildes, params)
        for j in range(d.shape[0]):
            rewards, flags = ppss_reward(d[j], totals[j], M[j], wsum[j], wlen, *terms, params)
            base = pps_reward(d[j], totals[j], M[j], params)
            assert np.array_equal(rewards[~flags], base[~flags])

    @given(rounds_of_play())
    @settings(max_examples=150, deadline=None)
    def test_pps_pays_b_times_capped_supply(self, play):
        d, M, _, _, _, _, params = play
        totals = d.sum(axis=1)
        for j in range(d.shape[0]):
            paid = math.fsum(pps_reward(d[j], totals[j], M[j], params).tolist())
            assert paid == pytest.approx(params.b * min(totals[j], M[j]), rel=1e-12, abs=0)
