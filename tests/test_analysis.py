"""Payoff estimation, best responses, incentive checks, bounds, audits."""
import math
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from poolsim import analysis, cli
from poolsim.analysis import (
    bb_audit,
    best_response,
    docdic_check,
    expected_payoff_mc,
    floor_payoff,
    ocdic_check,
    payoff_curve,
)
from poolsim.config import parse_config
from poolsim.engine import run_simulation
from poolsim.mechanisms import subsidy_shape
from poolsim.montecarlo import payoff_samples
from poolsim.model import (
    MAX_GRID,
    CostFunction,
    DemandModel,
    MinerProfile,
    PlatformParams,
    c_tilde,
    cost_eval,
)

from conftest import money_scaled, small_configs
from oracle import br_dynamics, chernoff_tail_upper, g_function, subsidy_prob_lower

CHERNOFF_STD_100_80 = 0.09882989575150939  # exp(100*ln(0.8) + 20)
PROB_LOWER_AT_CAPACITY = 0.022877793471864133  # 1 - 0.8*e^0.2
G_AT_D90 = 6767.2056129294915  # 0.5*90 / K(x=8/9)
CONFIGS = os.path.join(os.path.dirname(__file__), "configs")


def linear_miner(A=1.0, r=1.0):
    return MinerProfile(capacity_A=A, cost=CostFunction(family="linear", r=r))


class TestClosedForm:
    """Limits of the exact pps expected payoff, payoff_curve's closed form."""

    PARAMS = PlatformParams(p=1.0, b=1.5, k=2.0)
    PROFS = [linear_miner(A=10.0, r=0.5), linear_miner(A=30.0, r=0.5)]

    def _reward(self, allocs, demand):
        payoff = payoff_curve("pps", 0, allocs, [allocs[0]], self.PARAMS, self.PROFS, demand)[0]
        return payoff + cost_eval(self.PROFS[0].cost, allocs[0])

    def test_demand_dominant_branch(self):
        # M far above |D| almost surely: min{|D|, M} = |D|, so E[R_0] = b*k*a_0
        for demand in (DemandModel(family="constant", M=1e6),
                       DemandModel(family="lognormal", mu=50.0, sigma=1.0)):
            assert self._reward([10.0, 30.0], demand) == pytest.approx(30.0, rel=1e-12)
        # a heavier lognormal whose upper quantiles overflow to inf cannot be built
        with pytest.raises(ValueError):
            DemandModel(family="lognormal", mu=695.0, sigma=5.0)

    def test_supply_dominant_branch(self):
        # M -> 0: min{|D|, M} = M, so E[R_0] = b * (s_0/s) * M
        for M in (1e-3, 1e-6, 1e-9):
            demand = DemandModel(family="constant", M=M)
            assert self._reward([10.0, 30.0], demand) == pytest.approx(1.5 * 0.25 * M, rel=1e-9)

    @given(st.floats(500.0, 1023.99), st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_expected_min_is_min_at_huge_shapes(self, log2_s, log2_ratio):
        # |D| ~ Gamma(s) has relative spread s**-0.5 <= 2**-250, so
        # E[min(|D|, M)] rounds to min(s, M), also where scipy's incomplete
        # gamma functions are NaN (from s of about 3e305)
        s = 2.0**log2_s
        M = s * 2.0**log2_ratio if log2_s + log2_ratio < 1024.0 else 1.0e308
        assert analysis._expected_min_gamma(np.array([s]), M)[0] == min(s, M)

    def test_no_allocation(self):
        for demand in (DemandModel(family="constant", M=100.0),
                       DemandModel(family="lognormal", mu=4.0, sigma=1.0)):
            for allocs in ([0.0, 30.0], [0.0, 0.0]):
                curve = payoff_curve("pps", 0, allocs, [0.0], self.PARAMS, self.PROFS, demand)
                assert curve[0] == 0.0

    def test_bad_arguments_rejected(self):
        demand = DemandModel(family="constant", M=100.0)
        for allocs in ([11.0, 30.0], [-1.0, 30.0], [10.0, 31.0], [10.0]):
            with pytest.raises(ValueError):
                payoff_curve("pps", 0, allocs, [allocs[0]], self.PARAMS, self.PROFS, demand)


class TestExpectedPayoffMc:
    @pytest.mark.parametrize("replicas", [0, -1])
    def test_replicas_below_one_rejected(self, replicas):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=10.0, r=1.0), linear_miner(A=10.0, r=1.0)]
        demand = DemandModel(family="constant", M=100.0)
        with pytest.raises(ValueError, match="replicas must be at least 1"):
            expected_payoff_mc("ppss", 0, [5.0, 10.0], params, profs, demand,
                               replicas=replicas, seed=0)
        with pytest.raises(ValueError, match="replicas must be at least 1"):
            payoff_samples("ppss", 0, np.array([5.0, 10.0]), params, profs, demand,
                           replicas=replicas, seed=0)

    def test_zero_strategy_is_exactly_zero(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=10.0, r=1.0)]
        demand = DemandModel(family="constant", M=100.0)
        est = expected_payoff_mc(
            "pps", 0, [0.0], params, profs, demand,
            replicas=2000, seed=1,
        )
        assert est.mean == 0.0
        assert est.ci_half_width == 0.0

    def test_single_miner_matches_linear_payoff(self):
        # E[payoff] = b*k*a - r*a = 20 - 10 = 10 in the demand-dominant regime
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=10.0, r=1.0)]
        demand = DemandModel(family="constant", M=1000.0)
        est = expected_payoff_mc(
            "pps", 0, [10.0], params, profs, demand,
            replicas=40_000, seed=2,
        )
        assert abs(est.mean - 10.0) <= 3 * est.ci_half_width

    def test_two_miner_reward_share(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=10.0, r=1.0), linear_miner(A=30.0, r=1.0)]
        demand = DemandModel(family="constant", M=1000.0)
        est = expected_payoff_mc(
            "pps", 0, [10.0, 30.0], params, profs, demand,
            replicas=40_000, seed=3,
        )
        reward_part = est.mean + cost_eval(profs[0].cost, 10.0)
        assert abs(reward_part - 20.0) <= max(3 * est.ci_half_width, 0.1)

    def test_matches_closed_form_on_random_configs(self):
        # constant demand M = 3*k*sum(A) against the exact pps payoff
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            k = float(rng.uniform(0.5, 4.0))
            b = float(rng.uniform(0.5, 2.0))
            caps = rng.uniform(1.0, 5.0, n)
            allocs = caps * rng.uniform(0.2, 1.0, n)
            params = PlatformParams(p=1.0, b=b, k=k)
            profs = [linear_miner(A=float(caps[i]), r=0.5) for i in range(n)]
            demand = DemandModel(family="constant", M=3.0 * k * float(caps.sum()))
            est = expected_payoff_mc(
                "pps", 0, allocs, params, profs, demand,
                replicas=20_000, seed=100 + trial,
            )
            reward_mc = est.mean + cost_eval(profs[0].cost, float(allocs[0]))
            reward_cf = payoff_curve("pps", 0, allocs, [allocs[0]], params, profs, demand)[0]
            reward_cf += cost_eval(profs[0].cost, float(allocs[0]))
            assert abs(reward_mc - reward_cf) <= max(3 * est.ci_half_width, 0.005 * reward_cf)

    @settings(max_examples=25, deadline=None)
    @given(data=small_configs(mechanisms=("pps",)), fractions=st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=3, max_size=3,
    ))
    def test_mc_agrees_with_exact_pps_payoff(self, data, fractions):
        cfg = parse_config(data)
        caps = np.array([p.capacity_A for p in cfg.profiles])
        allocs = caps * np.array(fractions[:len(caps)])
        exact = payoff_curve(
            "pps", 0, allocs, [allocs[0]], cfg.platform, cfg.profiles, cfg.demand)[0]
        est = expected_payoff_mc(
            "pps", 0, allocs, cfg.platform, cfg.profiles, cfg.demand,
            replicas=20_000, seed=cfg.seed,
        )
        # An event rarer than about 1/replicas is likely absent from every
        # replica (a single miner almost always above a constant M gives a
        # zero-width CI); it moves the mean by its probability times the reward.
        reward = exact + cost_eval(cfg.profiles[0].cost, float(allocs[0]))
        assert abs(est.mean - exact) <= 4 * est.ci_half_width + 2 / 20_000 * reward


def _partial_demand(demand, z):
    """E_M[min(1, M/z)] = P(M >= z) + E[M; M < z] / z, in closed form."""
    if demand.family == "constant":
        return min(1.0, demand.M / z)
    if demand.family == "uniform":
        lo, hi = demand.lo, demand.hi
        m = min(max(z, lo), hi)
        return (hi - m) / (hi - lo) + (m * m - lo * lo) / (2.0 * (hi - lo) * z)
    if demand.family == "gamma":
        shape, rate = demand.shape, demand.rate
        return (special.gammaincc(shape, rate * z)
                + shape / rate * special.gammainc(shape + 1.0, rate * z) / z)
    mu, sigma = demand.mu, demand.sigma
    return (special.ndtr((mu - math.log(z)) / sigma) + math.exp(mu + 0.5 * sigma**2)
            * special.ndtr((math.log(z) - mu - sigma**2) / sigma) / z)


def quad_ppss_reward(i, allocs, params, profiles, demand):
    """E[R_i] by adaptive quad: the outer integral over miner i's output x
    against x * Gamma(s_i) density, the inner one over the others' output."""
    allocs = np.asarray(allocs, dtype=float)
    k, prof = params.k, profiles[i]
    s, s_o = k * allocs[i], k * (allocs.sum() - allocs[i])
    unit = params.lam * prof.capacity_A * k
    numerator = max(c_tilde(prof) / k - params.b, 0.0)
    threshold, alpha = unit * params.window_N, (params.window_N - 1) * s
    kinks = []
    if demand.family == "constant":
        kinks = [demand.M]
    elif demand.family == "uniform":
        kinks = [demand.lo, demand.hi]
    log_gamma_o = special.gammaln(s_o) if s_o else 0.0

    def h(x):
        if s_o == 0:
            return _partial_demand(demand, x)

        def g(y):
            if y <= 0:
                return 0.0
            return math.exp((s_o - 1) * math.log(y) - y - log_gamma_o) * _partial_demand(demand, x + y)

        top = s_o + 40 * math.sqrt(s_o) + 60
        pts = sorted(c - x for c in kinks if 0 < c - x < top)
        body = integrate.quad(g, 0, top, points=pts or None, epsabs=0, epsrel=1e-12, limit=200)[0]
        return body + integrate.quad(g, top, np.inf, epsabs=0, epsrel=1e-12, limit=200)[0]

    log_gamma = special.gammaln(s)

    def f(x):
        if x <= 0:
            return 0.0
        z = unit / x
        K = max(1.0 - z * math.exp(1.0 - z), params.eps_k)
        if alpha > 0:
            fires = special.gammaincc(alpha, max(threshold - x, 0.0))
        else:
            fires = float(x >= threshold)
        rate = params.b + fires * numerator / K
        return math.exp(s * math.log(x) - x - log_gamma) * rate * h(x)

    z_pair = [-special.lambertw(-(1.0 - params.eps_k) / math.e, b).real for b in (0, -1)]
    top = s + 60 * math.sqrt(s + 1) + 60
    pts = sorted(p for p in [unit / z for z in z_pair] + [threshold] + kinks if 0 < p < top)
    body = integrate.quad(f, 0, top, points=pts, epsabs=0, epsrel=1e-11, limit=500)[0]
    return body + integrate.quad(f, top, np.inf, epsabs=0, epsrel=1e-11, limit=200)[0]


# verify-audit.yaml's economics: two miners, A = 1, linear cost 150, M = 600
AUDIT_PARAMS = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8, window_N=10, eps_k=1e-3)
AUDIT_PROFS = [linear_miner(A=1.0, r=150.0), linear_miner(A=1.0, r=150.0)]
AUDIT_DEMAND = DemandModel(family="constant", M=600.0)


class TestPpssExpectedPayoff:
    """payoff_curve's ppss quadrature against an adaptive-quad oracle, the
    pps closed form and the MC."""

    SMALL_S = PlatformParams(p=1.0, b=1.0, k=2.0, lam=0.5, window_N=4)

    def _reward(self, i, allocs, params, profs, demand):
        payoff = payoff_curve("ppss", i, allocs, [allocs[i]], params, profs, demand)[0]
        return payoff + cost_eval(profs[i].cost, float(allocs[i]))

    @pytest.mark.parametrize("allocs, params, profs, M", [
        # warm windows, M above and below the mean supply k * sum(a)
        ([0.85, 1.0], AUDIT_PARAMS, AUDIT_PROFS, 600.0),
        ([0.5, 1.0], AUDIT_PARAMS, AUDIT_PROFS, 100.0),
        # N = 1: the indicator x >= unit
        ([0.9, 0.6], replace(AUDIT_PARAMS, window_N=1), AUDIT_PROFS, 150.0),
        # N = 2: one round's window fires with probability P(W >= 2 unit - x)
        # between 0 and 1 over the outputs near the mean, M among the kinks
        ([0.85, 1.0], replace(AUDIT_PARAMS, window_N=2), AUDIT_PROFS, 150.0),
        # a single miner: h(x) = min(1, M/x)
        ([0.85], AUDIT_PARAMS, AUDIT_PROFS[:1], 60.0),
        ([1.0], AUDIT_PARAMS, AUDIT_PROFS[:1], 600.0),
        # s_i = 0.6 and s_others = 0.8, both below 1
        ([0.3, 0.4], SMALL_S, [linear_miner(A=1.0, r=6.0)] * 2, 0.9),
        ([0.3, 0.4], SMALL_S, [linear_miner(A=1.0, r=6.0)] * 2, 3.0),
        # a warm window fires with probability 1 - O((threshold - x)**alpha),
        # alpha = (N-1)*s_i = 0.18: one panel below the threshold is 1e-5 off
        ([0.03, 0.4], SMALL_S, [linear_miner(A=1.0, r=6.0)] * 2, 3.0),
        ([0.03, 0.4], SMALL_S, [linear_miner(A=1.0, r=6.0)] * 2, 300.0),
        ([0.03], SMALL_S, [linear_miner(A=1.0, r=6.0)], 3.0),
        # M far below supply: h(x) is 1 - O((M - x)**2.3) below x = M, and
        # one panel there is 3e-8 off
        ([0.065, 0.065], replace(SMALL_S, k=20.0, lam=0.8), [linear_miner(A=1.3, r=6.0)] * 2,
         1.0),
    ])
    def test_matches_quad_at_constant_demand(self, allocs, params, profs, M):
        demand = DemandModel(family="constant", M=M)
        exact = self._reward(0, allocs, params, profs, demand)
        oracle = quad_ppss_reward(0, allocs, params, profs, demand)
        assert exact == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("s", [1e-3, 0.06, 0.5, 1.5, 6.0, 100.0, 5000.0])
    def test_lone_miner_without_subsidy_is_pps(self, s):
        # c~/k <= b clamps the numerator to 0, and a lone miner's share is 1:
        # the outer rule alone then gives b * E[min(X, M)], the pps closed
        # form, near a = s + 1 = 1, where x(u)'s density is rough at x = 0,
        # and at a large shape
        params = PlatformParams(p=1.0, b=1.0, k=1.0, window_N=4)
        profs = [linear_miner(A=s, r=0.5)]
        for M in (0.5 * (s + 1.0), 2.0 * (s + 1.0)):
            demand = DemandModel(family="constant", M=M)
            pps = payoff_curve("pps", 0, [s], [s], params, profs, demand)[0]
            pps += cost_eval(profs[0].cost, s)
            assert self._reward(0, [s], params, profs, demand) == pytest.approx(pps, rel=1e-13)

    @pytest.mark.parametrize("e", [0, 4, 8, 12, 16, 24, 40, 100, 300])
    @pytest.mark.parametrize("miners, M_per_A", [(1, 1.1), (2, 2.2), (2, 1.8)],
                             ids=["lone", "two", "two-rationed"])
    def test_unsubsidised_is_pps_at_large_shapes(self, e, miners, M_per_A):
        # c~/k <= b clamps the numerator to 0, so ppss pays as pps, at
        # outputs k*a = 10**e: there the log of an outer node's weight is
        # the small difference of two terms of size sqrt(a) |u|, and written
        # as that difference it was 5e-9 off at 1e16 and inf from about 1e40
        A = 10.0**e
        params = PlatformParams(p=1.0, b=1.0, k=1.0)
        profs = [linear_miner(A=A, r=0.5)] * miners
        demand = DemandModel(family="constant", M=M_per_A * A)
        ppss, pps = (payoff_curve(mechanism, 0, [A] * miners, [A], params, profs, demand)[0]
                     for mechanism in ("ppss", "pps"))
        assert ppss == pytest.approx(pps, rel=1e-10)

    def test_demand_within_rounding_of_zero(self):
        # x = M = 1e-45 splits the outer rule within rounding of x = 0, where
        # a node could land at c <= 0 and take the log of 0 (a warning, which
        # fails the test)
        params = PlatformParams(p=1.0, b=1.0, k=1.0, window_N=1)
        demand, grid = DemandModel(family="constant", M=1e-45), [0.0, 0.01, 0.5, 1.0]
        for allocs in ([1.0], [0.01], [1.0, 0.5]):
            profs = [linear_miner(r=0.5)] * len(allocs)
            curve = payoff_curve("ppss", 0, allocs, grid, params, profs, demand)
            assert np.isfinite(curve).all()
            # the numerator clamps to 0, so ppss pays as pps
            pps = payoff_curve("pps", 0, allocs, grid, params, profs, demand)
            np.testing.assert_allclose(curve, pps, rtol=1e-12)

    @pytest.mark.parametrize("demand", [
        DemandModel(family="uniform", lo=100.0, hi=300.0),
        DemandModel(family="gamma", shape=4.0, rate=0.02),
        DemandModel(family="lognormal", mu=5.0, sigma=0.5),
    ])
    def test_matches_quad_at_random_demand(self, demand):
        allocs = [0.85, 1.0]
        exact = self._reward(0, allocs, AUDIT_PARAMS, AUDIT_PROFS, demand)
        oracle = quad_ppss_reward(0, allocs, AUDIT_PARAMS, AUDIT_PROFS, demand)
        assert exact == pytest.approx(oracle, rel=1e-4)

    def test_zero_allocation_is_minus_cost(self):
        for demand in (AUDIT_DEMAND, DemandModel(family="uniform", lo=1.0, hi=9.0)):
            curve = payoff_curve("ppss", 0, [0.0, 1.0], [0.0], AUDIT_PARAMS, AUDIT_PROFS, demand)
            assert curve[0] == 0.0
        power = [MinerProfile(capacity_A=1.0, cost=CostFunction(family="power", c=2.0, q=2.0))]
        assert payoff_curve("ppss", 0, [0.0], [0.0], AUDIT_PARAMS, power, AUDIT_DEMAND)[0] == 0.0

    def test_underflowing_shape_pays_nothing(self):
        # k * a = 1e-330 underflows to 0: no output, so no reward, as the
        # engine and pps pay
        params = PlatformParams(p=1.0, b=1.0, k=1e-30)
        profs = [linear_miner(1e-300, 1.5e-30), linear_miner(1.0, 1.5e-30)]
        for demand in (AUDIT_DEMAND, DemandModel(family="uniform", lo=1.0, hi=9.0)):
            for mechanism in ("pps", "ppss"):
                assert payoff_curve(mechanism, 0, [1e-300, 1.0], [1e-300], params, profs,
                                    demand)[0] == 0.0

    def test_bad_allocations_rejected(self):
        for allocs in ([1.5, 1.0], [-0.1, 1.0], [1.0, 2.0], [1.0]):
            with pytest.raises(ValueError):
                payoff_curve("ppss", 0, allocs, [allocs[0]], AUDIT_PARAMS, AUDIT_PROFS,
                             AUDIT_DEMAND)

    @pytest.mark.parametrize("others", [5e-324, 1e-310])
    def test_subnormal_others_count_as_no_other_miner(self, others):
        # scipy's gamma quantiles are NaN at a subnormal shape
        params = PlatformParams(p=1.0, b=1.0, k=1.0, window_N=1)
        profs, demand = [linear_miner()] * 3, DemandModel(family="constant", M=1.0)
        alone = payoff_curve("ppss", 0, [1.0, 0.0, 0.0], [1.0], params, profs, demand)[0]
        assert payoff_curve("ppss", 0, [1.0, 0.0, others], [1.0], params, profs, demand)[0] == (
            pytest.approx(alone, rel=1e-12))
        grid = [0.0, 0.5, 1.0]
        curve = payoff_curve("ppss", 0, [1.0, 0.0, others], grid, params, profs, demand)
        assert np.isfinite(curve).all()
        alone_curve = payoff_curve("ppss", 0, [1.0, 0.0, 0.0], grid, params, profs, demand)
        np.testing.assert_allclose(curve, alone_curve, rtol=1e-12)

    def test_raw_payoff_peaks_below_capacity(self):
        # The guarded subsidy pays most near D = lambda*A*k, where K is
        # smallest, so the raw payoff's argmax sits well below capacity.
        for a, reward in ((0.85, 17824.094669710), (1.0, 5392.3693436750)):
            got = self._reward(0, [a, 1.0], AUDIT_PARAMS, AUDIT_PROFS, AUDIT_DEMAND)
            assert got == pytest.approx(reward, rel=1e-6)
        br = best_response("ppss", 0, np.array([1.0, 1.0]), AUDIT_PARAMS, AUDIT_PROFS,
                           AUDIT_DEMAND, objective="payoff")
        assert br.argmax_a == pytest.approx(0.8494, abs=1e-3)
        assert br.method == "quadrature"

    # Derandomized: where the subsidy's peak rate numerator/eps_k sits on
    # outputs rarer than 1/replicas, the 20 000-replica CI misses it (about
    # 3 random configs in 1 000; the exact payoff matches quad there).
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=small_configs(mechanisms=("ppss",)), fractions=st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=3, max_size=3,
    ))
    def test_mc_agrees_with_exact_ppss_payoff(self, data, fractions):
        cfg = parse_config(data)
        caps = np.array([p.capacity_A for p in cfg.profiles])
        allocs = caps * np.array(fractions[:len(caps)])
        exact = payoff_curve(
            "ppss", 0, allocs, [allocs[0]], cfg.platform, cfg.profiles, cfg.demand)[0]
        est = expected_payoff_mc(
            "ppss", 0, allocs, cfg.platform, cfg.profiles, cfg.demand,
            replicas=20_000, seed=cfg.seed,
        )
        # as in the pps property: an event rarer than about 1/replicas moves
        # the mean by its probability times the reward
        reward = exact + cost_eval(cfg.profiles[0].cost, float(allocs[0]))
        assert abs(est.mean - exact) <= 4 * est.ci_half_width + 2 / 20_000 * reward


class TestFloorPayoff:
    def test_power_cost_example(self):
        cost = CostFunction(family="power", c=1.0, q=2.0)
        assert floor_payoff(5.0, 10.0, cost) == 25.0

    def test_zero_allocation(self):
        cost = CostFunction(family="power", c=1.0, q=2.0)
        assert floor_payoff(0.0, 10.0, cost) == 0.0

    def test_linear_cost_cancels(self):
        cost = CostFunction(family="linear", r=3.0)
        for a in np.linspace(0.0, 8.0, 9):
            assert floor_payoff(float(a), 3.0, cost) == 0.0

    def test_nondecreasing_up_to_capacity(self):
        cost = CostFunction(family="power", c=0.7, q=3.0)
        prof = MinerProfile(capacity_A=4.0, cost=cost)
        ct = 0.7 * 3.0 * 4.0**2
        vals = [floor_payoff(a, ct, cost) for a in np.linspace(0.0, 4.0, 200)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBestResponse:
    def test_pps_cheap_cost_full_capacity(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=10.0, r=0.5)]
        demand = DemandModel(family="constant", M=100.0)
        br = best_response(
            "pps", 0, np.array([10.0]), params, profs, demand,
            grid_points=64,
        )
        assert abs(br.argmax_a - 10.0) <= 2 * br.grid_resolution
        assert br.method == "closed_form"

    def test_pps_expensive_cost_zero(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=10.0, r=3.0)]
        demand = DemandModel(family="constant", M=100.0)
        br = best_response(
            "pps", 0, np.array([10.0]), params, profs, demand,
            grid_points=64,
        )
        assert abs(br.argmax_a) <= 2 * br.grid_resolution
        assert abs(br.value) <= 0.5

    def test_floor_objective_power_cost(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        cost = CostFunction(family="power", c=1.0, q=2.0)
        profs = [MinerProfile(capacity_A=5.0, cost=cost)]
        demand = DemandModel(family="constant", M=100.0)
        br = best_response(
            "ppss", 0, np.array([5.0]), params, profs, demand,
            grid_points=64, objective="floor",
        )
        assert br.argmax_a == pytest.approx(5.0, abs=1e-9)
        assert br.value == pytest.approx(25.0, rel=1e-9)
        assert br.method == "closed_form"

    def test_flat_objective_ties_toward_capacity(self):
        # linear cost with c~ = r makes the floor identically zero
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=3.0, r=1.0)]
        demand = DemandModel(family="constant", M=100.0)
        br = best_response(
            "ppss", 0, np.array([3.0]), params, profs, demand,
            grid_points=64, objective="floor",
        )
        assert br.argmax_a == pytest.approx(3.0, abs=1e-9)

    def test_curve_shape(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=2.0, r=0.5)]
        demand = DemandModel(family="constant", M=50.0)
        curve = best_response(
            "pps", 0, np.array([2.0]), params, profs, demand,
            grid_points=16,
        ).curve
        assert len(curve) == 16
        assert curve[0][0] == 0.0 and curve[-1][0] == 2.0
        assert all(len(pt) == 2 for pt in curve)

    def test_rejects_bad_arguments(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner()]
        demand = DemandModel(family="constant", M=10.0)
        with pytest.raises(ValueError):
            best_response("pps", 0, np.array([1.0]), params, profs, demand, grid_points=1)
        with pytest.raises(ValueError, match="grid_points"):
            best_response("pps", 0, np.array([1.0]), params, profs, demand,
                          grid_points=MAX_GRID + 1)
        with pytest.raises(ValueError):
            best_response(
                "pps", 0, np.array([1.0]), params, profs, demand, objective="nonsense"
            )


def best_response_reference(mechanism, i, allocations, params, profiles, demand,
                            grid_points, objective="payoff"):
    """best_response with its golden-section refinement evaluated one probe
    per pass, as the loop was written before it evaluated two steps a pass:
    (argmax_a, value, curve)."""
    prof = profiles[i]
    A = prof.capacity_A
    if objective == "floor":
        ct = c_tilde(prof)

        def f(a):
            return floor_payoff(a, ct, prof.cost)
    else:
        base = np.asarray(allocations, dtype=float).copy()
        base[i] = 0.0
        f = analysis._payoff_objective(mechanism, i, base, params, profiles, demand)
    grid = np.linspace(0.0, A, grid_points)
    values = f(grid).tolist()
    curve = tuple(zip(grid.tolist(), values))
    best_i = 0
    for k in range(1, grid_points):
        if values[k] >= values[best_i]:
            best_i = k
    best_a, best_v = curve[best_i]
    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, grid_points - 1)]
    resolution = A / (grid_points - 1)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(np.array([c, d])).tolist()
    for _ in range(16):
        if hi - lo < resolution / 16:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(np.array([c]))[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(np.array([d]))[0]
    for a_cand, v_cand in ((c, fc), (d, fd)):
        if v_cand > best_v or (v_cand == best_v and a_cand > best_a):
            best_a, best_v = a_cand, v_cand
    return float(best_a), float(best_v), curve


def assert_equals_reference(br, *args, **kwargs):
    argmax_a, value, curve = best_response_reference(*args, **kwargs)
    assert br.argmax_a.hex() == argmax_a.hex()
    assert br.value.hex() == value.hex()  # NaN included
    assert [(a.hex(), v.hex()) for a, v in br.curve] == [
        (a.hex(), v.hex()) for a, v in curve]


class TestGoldenSection:
    """best_response's refinement takes one golden-section step a loop, each
    pass evaluating a missing probe with both places the step can probe, and
    returns what one probe a pass returns, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        data=small_configs(), miner=st.integers(0, 2), grid_points=st.integers(2, 64),
        objective=st.sampled_from(["payoff", "floor"]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_equals_sequential_reference(self, data, miner, grid_points, objective,
                                         fractions):
        cfg = parse_config(data)
        params, profiles = cfg.platform, list(cfg.profiles)
        caps = np.array([p.capacity_A for p in profiles])
        i = miner % len(caps)
        allocs = caps * np.array(fractions[:len(caps)])
        args = (cfg.mechanism, i, allocs, params, profiles, cfg.demand)
        br = best_response(*args, grid_points=grid_points, objective=objective)
        assert_equals_reference(br, *args, grid_points=grid_points, objective=objective)

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    @pytest.mark.parametrize("M, end", [(50.0, -1), (0.01, 0)])
    @pytest.mark.parametrize("grid_points", [2, 3, 17, 64])
    def test_brackets_at_either_end(self, mechanism, M, end, grid_points):
        # the payoff peaks at capacity under ample demand and at zero when
        # the demand pays for almost nothing: the bracket is one grid cell
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=1.5, r=0.5), linear_miner(A=1.0, r=1.0)]
        args = (mechanism, 0, [1.5, 1.0], params, profs, DemandModel(family="constant", M=M))
        br = best_response(*args, grid_points=grid_points)
        values = [v for _, v in br.curve]
        assert values.index(max(values)) == range(grid_points)[end]
        assert_equals_reference(br, *args, grid_points=grid_points)

    @pytest.mark.parametrize("M, sizes", [(600.0, [32, 4, 3, 3, 3, 1]), (1.0, [32, 4, 3, 3, 1])])
    def test_passes_per_best_response(self, M, sizes):
        # myopic-game's economics at grid 32: the grid pass, then c and d
        # with both places of step 1's probe, then one probe and both places
        # of the next: 8 steps in 5 passes for an interior bracket (M = 600),
        # 6 in 4 for one at a = 0 (M = 1), where one probe a pass took 9
        # and 7 passes
        with open(os.path.join(CONFIGS, "myopic-game.yaml")) as fh:
            cfg = parse_config(yaml.safe_load(fh))
        calls = []
        call = analysis._PpssReward.__call__

        def counted(self, a):
            calls.append(len(a))
            return call(self, a)

        caps = [p.capacity_A for p in cfg.profiles]
        args = ("ppss", 0, caps, cfg.platform, list(cfg.profiles),
                DemandModel(family="constant", M=M))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis._PpssReward, "__call__", counted)
            br = best_response(*args, grid_points=32)
        assert calls == sizes
        assert_equals_reference(br, *args, grid_points=32)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        data=small_configs(), miner=st.integers(0, 2), grid_points=st.integers(2, 64),
        objective=st.sampled_from(["payoff", "floor"]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_pass_schedule_on_every_economics(self, data, miner, grid_points, objective,
                                              fractions):
        # after the grid, 4, 3, 3, 1 points for a bracket at a = 0 or a = A
        # (6 steps) and 4, 3, 3, 3, 1 for an interior one (8 steps), whatever
        # the mechanism, objective, demand or grid; no probe evaluated twice
        cfg = parse_config(data)
        caps = np.array([p.capacity_A for p in cfg.profiles])
        i = miner % len(caps)
        passes = []

        def counted(f):
            def g(a, *rest):
                passes.append(np.array(a, dtype=float).tolist())
                return f(a, *rest)
            return g

        objective_of = analysis._payoff_objective
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_payoff_objective", lambda *args: counted(objective_of(*args)))
            mp.setattr(analysis, "floor_payoff", counted(analysis.floor_payoff))
            best_response(cfg.mechanism, i, caps * np.array(fractions[:len(caps)]),
                          cfg.platform, list(cfg.profiles), cfg.demand,
                          grid_points=grid_points, objective=objective)
        assert len(passes[0]) == grid_points
        assert [len(p) for p in passes[1:]] in ([4, 3, 3, 1], [4, 3, 3, 3, 1])
        refined = [a for p in passes[1:] for a in p]
        assert len(set(refined)) == len(refined)


def pps_scalar_reference(i, allocations, params, profiles, demand):
    """The pps payoff b*(a_i/sum a)*E[min(|D|, M)] - C(a_i) for one
    allocation vector, in scalar arithmetic: the form the exact pps payoff
    had before the array path."""
    allocations = np.asarray(allocations, dtype=float)
    cost = cost_eval(profiles[i].cost, float(allocations[i]))
    total = float(allocations.sum())
    if allocations[i] == 0:
        return 0.0 - cost
    s = params.k * total

    def expected_min(M):
        return s * special.gammainc(s + 1.0, M) + M * special.gammaincc(s, M)

    if demand.family == "constant":
        em = expected_min(demand.M)
    else:
        x, w = np.polynomial.legendre.leggauss(64)
        em = (0.5 * w) @ expected_min(demand.ppf(0.5 * (x + 1.0)))
    return params.b * (float(allocations[i]) / total) * float(em) - cost


class TestPayoffCurve:
    """payoff_curve, the one array pass behind best_response, gives each
    allocation of a grid the value a grid of that allocation alone gives,
    bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        data=small_configs(), miner=st.integers(0, 2), grid_points=st.integers(2, 5),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_grid_equals_one_allocation_calls(self, data, miner, grid_points, fractions):
        cfg = parse_config(data)
        params, profiles, demand = cfg.platform, list(cfg.profiles), cfg.demand
        caps = np.array([p.capacity_A for p in profiles])
        i = miner % len(caps)
        allocs = caps * np.array(fractions[:len(caps)])
        grid = np.linspace(0.0, caps[i], grid_points)  # a = 0 and a = A included
        curve = payoff_curve(cfg.mechanism, i, allocs, grid, params, profiles, demand)
        same = np.testing.assert_array_equal  # exact
        for a, value in zip(grid, curve):
            point = allocs.copy()
            point[i] = a
            same(value, payoff_curve(cfg.mechanism, i, point, [a], params, profiles, demand)[0])
            if cfg.mechanism == "pps":
                same(value, pps_scalar_reference(i, point, params, profiles, demand))
        br = best_response(cfg.mechanism, i, allocs, params, profiles, demand,
                           grid_points=grid_points)
        same([v for _, v in br.curve], curve)

    @settings(max_examples=20, deadline=None)
    @given(
        data=small_configs(), miner=st.integers(0, 2), j=st.integers(-8, 8),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_money_scaling_scales_every_value(self, data, miner, j, fractions):
        # The payoff is homogeneous in its money units: b and every cost
        # coefficient times 2**j scale every value by exactly 2**j (a power
        # of two multiplies without rounding), so no absolute epsilon enters,
        # and best_response's argmax stays where it was.
        factor = 2.0**j
        cfg, cfg_scaled = parse_config(data), parse_config(money_scaled(data, factor))
        caps = np.array([p.capacity_A for p in cfg.profiles])
        i = miner % len(caps)
        allocs = caps * np.array(fractions[:len(caps)])
        br, br_scaled = (
            best_response(c.mechanism, i, allocs, c.platform, list(c.profiles), c.demand,
                          grid_points=4)
            for c in (cfg, cfg_scaled)
        )
        np.testing.assert_array_equal([v for _, v in br_scaled.curve],
                                      [v * factor for _, v in br.curve])
        assert br_scaled.argmax_a == br.argmax_a
        assert br_scaled.value == br.value * factor

    def test_grid_outside_capacity_rejected(self):
        for grid in ([0.5, 1.5], [-0.1, 0.5]):
            for mechanism in ("pps", "ppss"):
                with pytest.raises(ValueError):
                    payoff_curve(mechanism, 0, [1.0, 1.0], grid,
                                 AUDIT_PARAMS, AUDIT_PROFS, AUDIT_DEMAND)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            payoff_curve("pplns", 0, [1.0, 1.0], [0.5], AUDIT_PARAMS, AUDIT_PROFS, AUDIT_DEMAND)


def _unscreened(mp):
    """Turn the exact ppss payoff's screens off on the MonkeyPatch `mp`: the
    others' range screens to (0, inf), so every kink's score is computed, and
    the window tail screen's bound to -inf, so every window probability is."""
    others_init, reward_init = analysis._OthersRule.__init__, analysis._PpssReward.__init__

    def others(self, shape):
        others_init(self, shape)
        self.c_lo, self.c_hi = 0.0, math.inf

    def reward(self, *args):
        reward_init(self, *args)
        self.log_cap = math.inf  # no exponent exceeds it

    mp.setattr(analysis._OthersRule, "__init__", others)
    mp.setattr(analysis._PpssReward, "__init__", reward)


def _kink_sides(mp):
    """Count, on the MonkeyPatch `mp`, the outer nodes whose kink c = M - x
    lies below, between and above the others' range screens."""
    sides = {"below": 0, "between": 0, "above": 0}
    h = analysis._OthersRule.h

    def counted(self, x, M, bounds):
        c = M - x
        sides["below"] += int(((c > 0) & (c < self.c_lo)).sum())
        sides["above"] += int((c > self.c_hi).sum())
        sides["between"] += int(((c > 0) & (c >= self.c_lo) & (c <= self.c_hi)).sum())
        return h(self, x, M, bounds)

    mp.setattr(analysis._OthersRule, "h", counted)
    return sides


def _screened_and_not(i, allocs, grid, params, profiles, demand):
    """payoff_curve with the screens, and with them off."""
    curve = payoff_curve("ppss", i, allocs, grid, params, profiles, demand)
    with pytest.MonkeyPatch.context() as mp:
        _unscreened(mp)
        plain = payoff_curve("ppss", i, allocs, grid, params, profiles, demand)
    return curve, plain


class TestPpssScreens:
    """The exact ppss payoff skips the kink's score outside the others'
    range and the window probability where the rate rounds to b; neither
    may change a bit of any value."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=small_configs(("ppss",)), miner=st.integers(0, 2),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_screens_leave_every_bit(self, data, miner, fractions):
        cfg = parse_config(data)
        params, profiles = cfg.platform, list(cfg.profiles)
        caps = np.array([p.capacity_A for p in profiles])
        i = miner % len(caps)
        allocs = caps * np.array(fractions[:len(caps)])
        grid = np.linspace(0.0, caps[i], 5)
        curve, plain = _screened_and_not(i, allocs, grid, params, profiles, cfg.demand)
        np.testing.assert_array_equal(curve, plain)

    @pytest.mark.parametrize("M, side", [(250.0, "above"), (350.0, "above"),
                                         (140.0, "below"), (150.0, "below")])
    def test_kinks_straddling_an_end_of_the_range(self, M, side):
        # the others' Gamma(100) range runs from about 40 to 202 (scores -8
        # and 8), and miner 0's outputs over the curve from near 0 to about
        # 200: at M = 250 and 350 the kinks cross the top of the range, at
        # M = 140 and 150 its bottom. (At M = 250, moving the top screen in
        # by 0.1% changes a value.)
        grid = np.linspace(0.0, 1.0, 17)
        demand = DemandModel(family="constant", M=M)
        with pytest.MonkeyPatch.context() as mp:
            sides = _kink_sides(mp)
            curve, plain = _screened_and_not(0, [1.0, 1.0], grid, AUDIT_PARAMS, AUDIT_PROFS,
                                             demand)
        assert sides[side] > 0 and sides["between"] > 0
        np.testing.assert_array_equal(curve, plain)

    @pytest.mark.parametrize("allocs, params, M", [
        # SMALL_S: shapes below 1 on both sides
        ([0.3, 0.4], TestPpssExpectedPayoff.SMALL_S, 0.9),
        ([0.03, 0.4], TestPpssExpectedPayoff.SMALL_S, 3.0),
        ([0.03, 0.4], TestPpssExpectedPayoff.SMALL_S, 300.0),
        # M far below supply: every kink lies below the others' range or at c <= 0
        ([0.065, 0.065], replace(TestPpssExpectedPayoff.SMALL_S, k=20.0, lam=0.8), 1.0),
    ])
    def test_small_shapes_and_low_demand(self, allocs, params, M):
        profs = [linear_miner(A=1.3, r=6.0)] * 2
        for demand in (DemandModel(family="constant", M=M),
                       DemandModel(family="uniform", lo=M, hi=2.0 * M)):
            curve, plain = _screened_and_not(0, allocs, np.linspace(0.0, 1.3, 6), params,
                                             profs, demand)
            np.testing.assert_array_equal(curve, plain)

    def test_others_shape_just_above_tiny(self):
        # the others' quantile at score 8 underflows to 0, so the upper
        # screen takes every kink c > 0
        shape = 2.0 * np.finfo(float).tiny
        rule = analysis._OthersRule(shape)
        assert rule.c_hi == 0.0
        params = PlatformParams(p=1.0, b=1.0, k=1.0, window_N=1)
        profs, grid = [linear_miner()] * 2, [0.0, 0.25, 0.5, 1.0]
        for M in (1e-3, 1.0, 50.0):
            demand = DemandModel(family="constant", M=M)
            curve, plain = _screened_and_not(0, [1.0, shape], grid, params, profs, demand)
            np.testing.assert_array_equal(curve, plain)

    def test_window_tail_screen_is_exact(self):
        # verify-audit's economics at s = 30: the warm window W ~ Gamma(270)
        # must reach 800 - x, and its Chernoff exponent at x <= 100 is
        # above 190, so the window probability is skipped, and the rate,
        # computed or not, is exactly b
        reward = analysis._PpssReward(0, 1.0, AUDIT_PARAMS, AUDIT_PROFS, AUDIT_DEMAND)
        x = np.linspace(1.0, 100.0, 400)
        s = np.full_like(x, 30.0)
        alpha, w = 9.0 * s, 800.0 - x
        assert (alpha * (w / alpha - 1.0 - np.log(w / alpha)) > reward.log_cap).all()
        screened = reward._rate(x, s)
        reward.log_cap = math.inf
        plain = reward._rate(x, s)
        np.testing.assert_array_equal(screened, plain)
        assert (plain == AUDIT_PARAMS.b).all()

    @pytest.mark.parametrize("command, workload", [
        ("simulate", "myopic-game"), ("verify", "verify-audit"),
    ])
    def test_workloads_compute_no_kink_score(self, command, workload, tmp_path):
        # every kink of these workloads lies above the others' range: the
        # only scores computed are each rule's two screen edges, and the
        # inner rule is never built
        sizes, builds, rules = [], [], []
        score, build, init = (analysis._gamma_score, analysis._OthersRule._build,
                              analysis._OthersRule.__init__)

        def counted_score(shape, x):
            sizes.append(len(x))
            return score(shape, x)

        def counted_init(self, shape):
            rules.append(shape)
            init(self, shape)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_gamma_score", counted_score)
            mp.setattr(analysis._OthersRule, "_build", lambda self: builds.append(self) or build(self))
            mp.setattr(analysis._OthersRule, "__init__", counted_init)
            config = os.path.join(CONFIGS, f"{workload}.yaml")
            assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 0
        assert rules
        assert sizes == [2] * len(rules)
        assert builds == []


def _general_call(self, a):
    """_PpssReward.__call__ without the one-demand-node exit: every pass
    tiles the demand nodes and sums each allocation's terms with fsum."""
    out = np.zeros(len(a))
    live = np.flatnonzero(a)
    if not len(live):
        return out
    nodes = len(self.demand_M)
    s = np.repeat(self.params.k * a[live], nodes)
    M = np.tile(self.demand_M, len(live))
    terms = (s * self._means(s, M)).reshape(len(live), nodes) * self.demand_w
    out[live] = [math.fsum(row) for row in terms.tolist()]
    return out


def _exit_off(mp, name):
    """Turn one fast exit of the exact ppss pass off on the MonkeyPatch `mp`.
    Each way leaves the values to compute the same, so the result may not
    change a bit."""
    if name == "h all above the range":
        # one more output, at c = M - x = 0, lies below the top screen; it
        # sits past the last segment's bound, so no segment sums it
        h = analysis._OthersRule.h
        mp.setattr(analysis._OthersRule, "h", lambda self, x, M, bounds: h(
            self, np.append(x, M[0]), np.append(M, M[0]), bounds)[:-1])
    elif name == "one block":
        mp.setattr(analysis, "_BLOCK_NODES", 1)  # every segment a block of its own
    elif name == "one demand node":
        mp.setattr(analysis._PpssReward, "__call__", _general_call)
    else:
        raise ValueError(name)


FAST_EXITS = ("h all above the range", "one block", "one demand node")


def _curve_hex(i, allocs, grid, params, profiles, demand):
    return [v.hex() for v in payoff_curve(
        "ppss", i, allocs, grid, params, profiles, demand).tolist()]


def _exits_leave_every_bit(i, allocs, grid, params, profiles, demand):
    """payoff_curve on `grid` is the same with each fast exit off, and with
    one more allocation of shape below 1.5 in the pass: that one grades the
    x = 0 end and the threshold, and takes gammaln, in every pass."""
    curve = _curve_hex(i, allocs, grid, params, profiles, demand)
    for name in FAST_EXITS:
        with pytest.MonkeyPatch.context() as mp:
            _exit_off(mp, name)
            assert _curve_hex(i, allocs, grid, params, profiles, demand) == curve, name
    small = min(profiles[i].capacity_A, 0.5 / params.k)
    wider = _curve_hex(i, allocs, np.append(grid, small), params, profiles, demand)
    assert wider[:-1] == curve


class TestPpssFastExits:
    """An exact ppss pass skips work whose result is fixed by its own
    inputs: h's kink test when every kink lies above the others' range, the
    block search when the pass fits in one block, the demand-node tiling and
    fsum at a constant demand, and the graded ends whose power is high at
    every segment. None may change a bit."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        data=small_configs(("ppss",)), miner=st.integers(0, 2),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_exits_leave_every_bit(self, data, miner, fractions):
        cfg = parse_config(data)
        params, profiles = cfg.platform, list(cfg.profiles)
        caps = np.array([p.capacity_A for p in profiles])
        i = miner % len(caps)
        allocs = caps * np.array(fractions[:len(caps)])
        grid = np.linspace(0.0, caps[i], 4)
        _exits_leave_every_bit(i, allocs, grid, params, profiles, cfg.demand)

    @pytest.mark.parametrize("demand", [
        DemandModel(family="constant", M=600.0),
        DemandModel(family="constant", M=150.0),
        DemandModel(family="uniform", lo=300.0, hi=900.0),
        DemandModel(family="gamma", shape=4.0, rate=0.02),
    ], ids=["constant", "constant-in-range", "uniform", "gamma"])
    @pytest.mark.parametrize("N, r", [(10, 150.0), (1, 150.0), (10, 50.0)],
                             ids=["warm", "N=1", "warm-unclamped"])
    def test_workload_economics(self, demand, N, r):
        # verify-audit's economics; at linear r = 50, c~/k is below b, so
        # the numerator c~/k - b, negative before its clamp, is 0
        params = replace(AUDIT_PARAMS, window_N=N)
        profs = [linear_miner(A=1.0, r=r)] * 2
        grid = np.linspace(0.0, 1.0, 5 if demand.family == "constant" else 2)
        _exits_leave_every_bit(0, [1.0, 1.0], grid, params, profs, demand)

    def test_single_miner(self):
        # no others' rule: h = min(1, M/x), and at a zero numerator the rate
        # is b, so the rate times h is formed per node
        params = replace(AUDIT_PARAMS, b=2.0)
        for M in (50.0, 600.0):
            demand = DemandModel(family="constant", M=M)
            _exits_leave_every_bit(0, [1.0], np.linspace(0.0, 1.0, 5), params,
                                   [linear_miner(A=1.0, r=150.0)], demand)

    def test_one_demand_node_keeps_fsums_sign(self):
        # math.fsum([-0.0]) is 0.0, and so is a constant demand's one term
        reward = analysis._PpssReward(0, 1.0, AUDIT_PARAMS, AUDIT_PROFS, AUDIT_DEMAND)
        reward._means = lambda s, M: np.array([-0.0, 0.5, -2.0])
        a = np.array([0.25, 0.5, 1.0])
        out = reward(a).tolist()
        assert [v.hex() for v in out] == [v.hex() for v in _general_call(reward, a).tolist()]
        assert math.copysign(1.0, out[0]) == 1.0

    def test_window_rates_do_not_depend_on_screened_outputs(self):
        # verify-audit's economics: near the mean at s = 85 every window
        # probability is needed; at s = 30 and x <= 100 it is screened
        # (test_window_tail_screen_is_exact). Adding a screened output to the
        # pass must leave every other rate as it was.
        reward = analysis._PpssReward(0, 1.0, AUDIT_PARAMS, AUDIT_PROFS, AUDIT_DEMAND)
        x = np.linspace(60.0, 110.0, 200)
        s = np.full_like(x, 85.0)
        needed = reward._rate(x, s)
        wider = reward._rate(np.append(x, 50.0), np.append(s, 30.0))
        assert wider[-1] == AUDIT_PARAMS.b
        assert [v.hex() for v in wider[:-1].tolist()] == [v.hex() for v in needed.tolist()]

    @pytest.mark.parametrize("M, every", [(600.0, True), (150.0, False)])
    def test_myopic_game_passes_take_the_h_exit(self, M, every):
        # myopic-game's economics at grid 32: at M = 600 every kink of every
        # pass lies above the others' range, so h returns the float 1.0 each
        # pass; at M = 150 some kinks fall inside it
        with open(os.path.join(CONFIGS, "myopic-game.yaml")) as fh:
            cfg = parse_config(yaml.safe_load(fh))
        exits = []
        h = analysis._OthersRule.h

        def counted(self, x, M, bounds):
            out = h(self, x, M, bounds)
            exits.append(np.ndim(out) == 0)
            return out

        caps = [p.capacity_A for p in cfg.profiles]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis._OthersRule, "h", counted)
            best_response("ppss", 0, caps, cfg.platform, list(cfg.profiles),
                          DemandModel(family="constant", M=M), grid_points=32)
        assert len(exits) == 6
        assert all(exits) if every else not all(exits)


class TestOcdicCheck:
    PARAMS = PlatformParams(p=1.0, b=1.0, k=2.0)
    DEMAND = DemandModel(family="constant", M=100.0)

    def test_pps_cheap_cost_passes(self):
        profs = [linear_miner(A=5.0, r=0.5), linear_miner(A=5.0, r=0.5)]
        verdicts = ocdic_check("pps", self.PARAMS, profs, self.DEMAND)
        assert all(v["passed"] for v in verdicts)

    def test_power_cost_boundary_flip(self):
        # C'(A) = 2cA crosses b*k = 2 at c = 1/A = 1
        for c, expect_pass in ((0.8, True), (1.2, False)):
            cost = CostFunction(family="power", c=c, q=2.0)
            profs = [MinerProfile(capacity_A=1.0, cost=cost)]
            verdicts = ocdic_check("pps", self.PARAMS, profs, self.DEMAND)
            assert verdicts[0]["passed"] is expect_pass
            if not expect_pass:
                # marginal-cost crossing b*k at a = bk/(2c) = 0.833
                assert 0.6 <= verdicts[0]["argmax"] <= 0.95

    def test_ppss_uses_floor_objective_by_default(self):
        profs = [linear_miner(A=1.0, r=150.0)]
        params = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8)
        demand = DemandModel(family="constant", M=300.0)
        verdicts = ocdic_check("ppss", params, profs, demand)
        assert verdicts[0]["objective"] == "floor"
        assert verdicts[0]["passed"]


class TestDocdicCheck:
    def test_pps_shortfall_counterexample(self):
        # two miners, A=1, k=10, b=1, r=1, realized M=2: interior optimum
        params = PlatformParams(p=1.0, b=1.0, k=10.0)
        profs = [linear_miner(), linear_miner()]
        verdicts = docdic_check("pps", params, profs, realized_M=2.0)
        for v in verdicts:
            assert not v["passed"]
            assert 0.35 <= v["argmax"] <= 0.50

    def test_pps_demand_dominant_round_passes(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=2.0, r=0.5), linear_miner(A=2.0, r=0.5)]
        verdicts = docdic_check("pps", params, profs, realized_M=50.0)
        assert all(v["passed"] for v in verdicts)

    def test_ppss_verdict_takes_the_floor_and_passes(self):
        params = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8, window_N=5)
        profs = [linear_miner(A=1.0, r=150.0)]
        verdicts = docdic_check("ppss", params, profs, realized_M=300.0)
        assert verdicts[0]["passed"]
        assert verdicts[0]["objective"] == "floor"

    def test_rejects_nonpositive_demand(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        with pytest.raises(ValueError):
            docdic_check("pps", params, [linear_miner()], realized_M=0.0)


class TestChernoff:
    def test_reference_point(self):
        std, paper = chernoff_tail_upper(100.0, 80.0)
        assert std == pytest.approx(CHERNOFF_STD_100_80, rel=1e-12)
        assert paper == pytest.approx(0.8 * math.exp(0.2), rel=1e-12)

    def test_bounds_exact_tail_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = float(rng.uniform(1.0, 500.0))
            t = float(rng.uniform(0.05, 0.98)) * s
            std, paper = chernoff_tail_upper(s, t)
            exact = float(special.gammainc(s, t))
            assert exact <= std + 1e-12
            assert exact <= paper + 1e-12

    def test_bounds_monte_carlo_tail(self):
        rng = np.random.default_rng(6)
        draws = rng.standard_gamma(100.0, size=1_000_000)
        emp = np.mean(draws <= 80.0)
        std, paper = chernoff_tail_upper(100.0, 80.0)
        assert emp <= std and emp <= paper

    def test_vacuous_limit(self):
        std, _ = chernoff_tail_upper(100.0, 99.999)
        assert std > 0.999

    def test_domain_error(self):
        with pytest.raises(ValueError):
            chernoff_tail_upper(10.0, 10.0)
        with pytest.raises(ValueError):
            chernoff_tail_upper(10.0, 12.0)
        with pytest.raises(ValueError):
            chernoff_tail_upper(10.0, 0.0)


class TestSubsidyProbLower:
    def test_at_capacity(self):
        assert subsidy_prob_lower(1.0, 1.0, 0.8) == pytest.approx(
            PROB_LOWER_AT_CAPACITY, rel=1e-12
        )

    def test_zero_at_threshold_allocation(self):
        assert subsidy_prob_lower(0.8, 1.0, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_below_threshold(self):
        # u*e^(1-u) <= 1 for all u, so the bound stays in [0, 1)
        u = 0.8 / 0.3
        expected = 1.0 - u * math.exp(1.0 - u)
        assert subsidy_prob_lower(0.3, 1.0, 0.8) == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= subsidy_prob_lower(0.3, 1.0, 0.8) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            subsidy_prob_lower(0.0, 1.0, 0.8)
        with pytest.raises(ValueError):
            subsidy_prob_lower(1.5, 1.0, 0.8)

    def test_identity_with_shape_at_mean_output(self):
        # the bound equals the shape function at D = a*k, for any k
        rng = np.random.default_rng(9)
        for _ in range(100):
            A = float(rng.uniform(0.5, 20.0))
            a = float(rng.uniform(0.1, 1.0)) * A
            lam = float(rng.uniform(0.05, 0.95))
            k = float(rng.uniform(0.5, 200.0))
            params = PlatformParams(p=1.0, b=1.0, k=k, lam=lam)
            prof = linear_miner(A=A, r=1.0)
            lhs = subsidy_prob_lower(a, A, lam)
            rhs = max(0.0, float(subsidy_shape(a * k, prof.capacity_A, params)))
            assert abs(lhs - rhs) <= 1e-12


class TestGFunction:
    PARAMS = PlatformParams(p=1.0, b=1.0, k=100.0, lam=0.8)
    PROF = linear_miner(A=1.0, r=150.0)

    def test_zero_numerator(self):
        prof = linear_miner(A=1.0, r=150.0)
        out = g_function(np.array([50.0, 90.0, 500.0]), 100.0, self.PARAMS, prof)
        assert np.all(out == 0.0)

    def test_chain_value(self):
        assert g_function(90.0, 150.0, self.PARAMS, self.PROF) == pytest.approx(
            G_AT_D90, rel=1e-10
        )

    def test_convex_on_supercritical_domain(self):
        # lam*A*k = 80; scan [84, 500]
        D = np.linspace(1.05 * 80.0, 5 * 100.0, 400)
        g = g_function(D, 150.0, self.PARAMS, self.PROF)
        assert np.all(np.diff(g, 2) >= -1e-9)


class TestBudgetAudit:
    def _pps_ledger(self, rounds=500, a=None):
        cfg = parse_config({
            "mechanism": "pps",
            "platform": {"p": 1.0, "k": 2.0},
            "miners": [{
                "capacity_A": 3.0,
                "cost": {"family": "linear", "r": 0.5},
                "policy": {"kind": "static", "a": 3.0 if a is None else a},
            }],
            "demand": {"family": "constant", "M": 20.0},
            "rounds": rounds, "seed": 17,
        })
        return run_simulation(cfg)

    def test_pps_ledger_within_theorem_bounds(self):
        ledger = self._pps_ledger()
        report = bb_audit(ledger, 1.0)
        assert set(report) == {"mean_ratio", "ci_half_width", "long_term_pass"}
        assert report["long_term_pass"]
        assert 0.0 <= report["mean_ratio"] <= 1.0 and report["ci_half_width"] >= 0.0
        assert 0.0 <= ledger.budget_ratio.min() <= ledger.budget_ratio.max() <= 1.0

    def test_mean_above_the_bound_fails(self):
        ledger = self._pps_ledger()
        mean = bb_audit(ledger, 1.0)["mean_ratio"]
        assert bb_audit(ledger, mean)["long_term_pass"]
        assert not bb_audit(ledger, np.nextafter(mean, 0.0))["long_term_pass"]

    def test_idle_ledger_mean_zero(self):
        report = bb_audit(self._pps_ledger(rounds=50, a=0.0), 1.0)
        assert report["mean_ratio"] == 0.0
        assert report["long_term_pass"]

    def test_empty_ledger_rejected(self):
        from poolsim.engine import SimulationLedger

        with pytest.raises(ValueError):
            empty = SimulationLedger(
                M=np.zeros(0), a=np.zeros((0, 1)), D=np.zeros((0, 1)), delta=np.zeros(0),
                rewards=np.zeros((0, 1)), flags=np.zeros((0, 1), dtype=bool),
                budget_ratio=np.zeros(0),
            )
            bb_audit(empty, 1.0)


class TestBrDynamics:
    def test_cheap_cost_converges_to_capacity_immediately(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=3.0, r=0.5), linear_miner(A=2.0, r=0.5)]
        demand = DemandModel(family="constant", M=50.0)
        out = br_dynamics("pps", params, profs, demand)
        assert out["converged"]
        assert np.allclose(out["trajectory"][1], [3.0, 2.0], atol=0.1)
        assert np.allclose(out["fixed_point"], [3.0, 2.0], atol=0.1)

    def test_expensive_cost_converges_to_zero(self):
        params = PlatformParams(p=1.0, b=1.0, k=2.0)
        profs = [linear_miner(A=3.0, r=3.0), linear_miner(A=2.0, r=3.0)]
        demand = DemandModel(family="constant", M=50.0)
        out = br_dynamics("pps", params, profs, demand, start=[3.0, 2.0])
        assert out["converged"]
        assert np.allclose(out["fixed_point"], [0.0, 0.0], atol=0.1)

    def test_shortfall_interior_fixed_point(self):
        # symmetric first-order condition M*a_other/(a + a_other)^2 = r
        # at M=2, r=1 gives a = M/(4r) = 0.5 for each miner
        params = PlatformParams(p=1.0, b=1.0, k=10.0)
        profs = [linear_miner(), linear_miner()]
        demand = DemandModel(family="constant", M=2.0)
        out = br_dynamics("pps", params, profs, demand, start=[1.0, 1.0])
        assert out["converged"]
        assert np.allclose(out["fixed_point"], [0.5, 0.5], atol=0.05)

    def test_fixed_point_is_mutual_best_response(self):
        params = PlatformParams(p=1.0, b=1.0, k=10.0)
        profs = [linear_miner(), linear_miner()]
        demand = DemandModel(family="constant", M=2.0)
        out = br_dynamics("pps", params, profs, demand, start=[1.0, 1.0])
        fp = out["fixed_point"]
        for i in range(2):
            br = best_response(
                "pps", i, fp, params, profs, demand,
                grid_points=64,
            )
            assert abs(br.argmax_a - fp[i]) <= 2 * br.grid_resolution

    def test_non_convergence_reported(self):
        params = PlatformParams(p=1.0, b=1.0, k=10.0)
        profs = [linear_miner(), linear_miner()]
        demand = DemandModel(family="constant", M=2.0)
        out = br_dynamics("pps", params, profs, demand, max_iters=1, start=[1.0, 1.0])
        assert not out["converged"]
        assert out["fixed_point"] is None
        assert len(out["trajectory"]) == 2

    def test_rejects_bad_iteration_count(self):
        params = PlatformParams(p=1.0, b=1.0, k=1.0)
        with pytest.raises(ValueError):
            br_dynamics("pps", params, [linear_miner()],
                        DemandModel(family="constant", M=5.0), max_iters=0)
