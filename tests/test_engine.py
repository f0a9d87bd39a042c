"""Round loop, miner policies, window upkeep, and ledger accounting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings

from poolsim import analysis
from poolsim.engine import (
    MinerPolicy,
    delta_adaptive_policy,
    init_state,
    run_simulation,
    step_round,
)
from poolsim.mechanisms import pps_reward, ppss_reward
from poolsim.model import CostFunction, DemandModel, MinerProfile, c_tilde

from conftest import quiet_parse, small_configs


def base_config(**overrides):
    data = {
        "mechanism": "pps",
        "platform": {"p": 1.0, "k": 2.0},
        "miners": [
            {"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}},
            {"capacity_A": 6.0, "cost": {"family": "linear", "r": 1.0}},
        ],
        "demand": {"family": "constant", "M": 40.0},
        "rounds": 100,
        "seed": 3,
    }
    data.update(overrides)
    return quiet_parse(data)


class TestPolicies:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MinerPolicy(kind="greedy")
        with pytest.raises(ValueError):
            MinerPolicy(kind="delta_adaptive", step=1.5)
        with pytest.raises(ValueError):
            MinerPolicy(kind="delta_adaptive", floor=-0.1)
        with pytest.raises(ValueError):
            MinerPolicy(kind="static", a=-1.0)
        with pytest.raises(ValueError):
            MinerPolicy(kind="myopic_br", grid=1)
        with pytest.raises(ValueError):
            MinerPolicy(kind="myopic_br", replicas=0)

    def test_delta_adaptive_returns_to_capacity_without_shortfall(self):
        prof = MinerProfile(id=0, capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
        policy = MinerPolicy(kind="delta_adaptive", step=0.5, floor=0.0)
        assert delta_adaptive_policy(1.0, 2.0, prof, policy) == 2.0
        assert delta_adaptive_policy(1.0, 0.5, prof, policy) == 1.0

    def test_delta_adaptive_halves_on_shortfall(self):
        prof = MinerProfile(id=0, capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
        policy = MinerPolicy(kind="delta_adaptive", step=0.5, floor=0.0)
        assert delta_adaptive_policy(0.5, 1.0, prof, policy) == 0.5

    def test_delta_adaptive_respects_floor(self):
        prof = MinerProfile(id=0, capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
        policy = MinerPolicy(kind="delta_adaptive", step=0.5, floor=0.4)
        assert delta_adaptive_policy(0.3, 0.5, prof, policy) == 0.4

    def test_delta_adaptive_needs_history(self):
        # with no closed round to read, the first allocation is capacity;
        # from round 2 on it follows the previous row
        cfg = base_config(miners=[{
            "capacity_A": 2.0,
            "cost": {"family": "linear", "r": 1.0},
            "policy": {"kind": "delta_adaptive", "step": 0.5},
        }], demand={"family": "constant", "M": 1e-3}, rounds=3)
        ledger = run_simulation(cfg)
        assert ledger.a[:, 0].tolist() == [2.0, 1.0, 0.5]

    def test_static_allocation_clipped_to_capacity(self):
        cfg = base_config(miners=[{
            "capacity_A": 1.0,
            "cost": {"family": "linear", "r": 1.0},
            "policy": {"kind": "static", "a": 5.0},
        }], rounds=3)
        ledger = run_simulation(cfg)
        assert np.all(ledger.a[:, 0] == 1.0)

    def test_myopic_br_runs_at_capacity_when_cheap(self):
        cfg = base_config(miners=[{
            "capacity_A": 2.0,
            "cost": {"family": "linear", "r": 0.5},
            "policy": {"kind": "myopic_br", "grid": 9, "replicas": 1024},
        }], demand={"family": "constant", "M": 50.0}, rounds=3)
        ledger = run_simulation(cfg)
        assert np.all(ledger.a[:, 0] >= 2.0 - 2 * (2.0 / 8))


class TestMyopicMemo:
    def _config(self, demand):
        myopic = {"kind": "myopic_br", "grid": 5, "replicas": 256}
        return quiet_parse({
            "mechanism": "ppss",
            "platform": {"p": 1.0, "k": 100.0, "lambda": 0.8, "N": 4},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 40.0},
                 "policy": myopic},
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
                 "policy": {"kind": "static", "a": 1.0}},
                {"capacity_A": 2.0, "cost": {"family": "linear", "r": 20.0},
                 "policy": myopic},
            ],
            "demand": demand,
            "rounds": 4, "seed": 9,
        })

    def _count_best_responses(self, monkeypatch, cfg):
        calls = []
        real = analysis.best_response

        def counting(*args, **kwargs):
            calls.append(args[5].M)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "best_response", counting)
        return run_simulation(cfg), calls

    def test_constant_demand_solves_once_per_myopic_miner(self, monkeypatch):
        cfg = self._config({"family": "constant", "M": 900.0})
        _, calls = self._count_best_responses(monkeypatch, cfg)
        assert calls == [900.0, 900.0]

    def test_varying_demand_solves_every_round(self, monkeypatch):
        cfg = self._config({"family": "uniform", "lo": 20.0, "hi": 400.0})
        ledger, calls = self._count_best_responses(monkeypatch, cfg)
        announced = [cfg.demand.mu_F] + ledger.M[:-1].tolist()
        assert calls == [M for M in announced for _ in range(2)]

    @pytest.mark.parametrize("demand", [
        {"family": "constant", "M": 900.0},
        {"family": "uniform", "lo": 20.0, "hi": 400.0},
    ])
    def test_allocations_equal_direct_best_responses(self, demand):
        cfg = self._config(demand)
        ledger = run_simulation(cfg)
        profiles = cfg.profiles
        capacities = np.array([p.capacity_A for p in profiles])
        announced = [cfg.demand.mu_F] + ledger.M[:-1].tolist()
        for row, M in enumerate(announced):
            for i in (0, 2):
                br = analysis.best_response(
                    "ppss", i, capacities, cfg.platform, profiles,
                    DemandModel(family="constant", M=M),
                    grid_points=5, replicas=256, seed=cfg.seed,
                )
                assert ledger.a[row, i] == br.argmax_a


class TestStepRound:
    def test_single_idle_round(self):
        cfg = base_config(miners=[{
            "capacity_A": 1.0,
            "cost": {"family": "linear", "r": 1.0},
            "policy": {"kind": "static", "a": 0.0},
        }], rounds=1)
        ledger = run_simulation(cfg)
        assert ledger.D.tolist() == [[0.0]]
        assert ledger.rewards.tolist() == [[0.0]]
        assert ledger.budget_ratio.tolist() == [0.0]
        assert ledger.delta.tolist() == [1.0]

    def test_windows_grow_then_evict(self):
        cfg = base_config(rounds=1)
        N = cfg.platform.window_N
        state = init_state(
            params=cfg.platform, profiles=cfg.profiles, policies=cfg.policies,
            demand=cfg.demand, mechanism="pps", seed=0, rounds=N + 7,
        )
        led = state.ledger
        for expected_len in (1, 2, 3):
            step_round(state)
            assert led.window(state.next_round - 1, N)[1] == expected_len
        for _ in range(N + 3):
            step_round(state)
        rows = state.next_round - 1
        window_sum, window_len = led.window(rows, N)
        assert window_len == N - 1
        assert window_sum.tolist() == [sum(led.D[rows - N + 1:rows, i].tolist()) for i in range(2)]
        step_round(state)
        assert led.window(state.next_round - 1, N)[1] == N - 1

    def test_delta_matches_definition(self):
        cfg = base_config(demand={"family": "constant", "M": 10.0}, rounds=50)
        ledger = run_simulation(cfg)
        for row in range(ledger.rounds):
            total = ledger.D[row].sum()
            if total > 0:
                assert ledger.delta[row] == pytest.approx(min(total, ledger.M[row]) / total, rel=1e-12)

    def test_round_indices_strictly_increasing(self):
        # row j-1 holds round j, and step_round fills the rows in order
        cfg = base_config(rounds=20)
        state = init_state(
            params=cfg.platform, profiles=cfg.profiles, policies=cfg.policies,
            demand=cfg.demand, mechanism="pps", seed=cfg.seed, rounds=20,
        )
        for j in range(1, 21):
            assert state.next_round == j
            step_round(state)
            assert np.all(state.ledger.M[j:] == 0.0) and state.ledger.M[j - 1] > 0.0
        assert np.array_equal(state.ledger.D, run_simulation(cfg).D)

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_engine_rewards_equal_kernel_rewards(self, mechanism):
        cfg = quiet_parse({
            "mechanism": mechanism,
            "platform": {"p": 1.0, "b": 1.3, "k": 100.0, "lambda": 0.8, "N": 4},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}},
                {"capacity_A": 2.0, "cost": {"family": "power", "c": 60.0, "q": 2.0}},
                {"capacity_A": 1.5, "cost": {"family": "linear", "r": 120.0},
                 "policy": {"kind": "delta_adaptive", "step": 0.5, "floor": 0.1}},
            ],
            "demand": {"family": "uniform", "lo": 200.0, "hi": 600.0},
            "rounds": 300, "seed": 8,
        })
        led = run_simulation(cfg)
        profiles = cfg.profiles
        caps = np.array([p.capacity_A for p in profiles])
        c_tildes = np.array([c_tilde(p) for p in profiles])
        for row in range(led.rounds):
            d, M = led.D[row], led.M[row]
            if mechanism == "pps":
                expected = pps_reward(d, float(d.sum()), M, cfg.platform)
                assert np.array_equal(led.rewards[row], expected)
            else:
                wsum, wlen = led.window(row, cfg.platform.window_N)
                expected, flags = ppss_reward(
                    d, float(d.sum()), M, wsum, wlen, caps, c_tildes, cfg.platform,
                )
                assert np.array_equal(led.rewards[row], expected)
                assert np.array_equal(led.flags[row], flags)
        if mechanism == "ppss":
            assert led.flags.any() and not led.flags.all()


class TestLedgerAccounting:
    def test_outflow_matches_per_round_sums(self):
        ledger = run_simulation(base_config(rounds=2000))
        expected = math.fsum(math.fsum(row) for row in ledger.rewards.tolist())
        assert ledger.cumulative_outflow == pytest.approx(expected, rel=1e-10)

    def test_intake_matches_per_round_definition(self):
        ledger = run_simulation(base_config(rounds=2000))
        expected = math.fsum(
            min(sum(d), M) for d, M in zip(ledger.D.tolist(), ledger.M.tolist())
        )  # p = 1
        assert ledger.cumulative_intake == pytest.approx(expected, rel=1e-10)

    def test_pps_ratio_never_exceeds_payout_rate(self):
        cfg = base_config(demand={"family": "uniform", "lo": 5.0, "hi": 60.0}, rounds=5000)
        ledger = run_simulation(cfg)
        assert np.all((0.0 <= ledger.budget_ratio) & (ledger.budget_ratio <= 1.0))  # b/p = 1


class TestSimulationStatistics:
    def test_mean_budget_ratio_tracks_supply_demand_ratio(self):
        # constant M = 2*k*sum(A), b = p: mean ratio = k*sum(A)/M = 0.5
        ledger = run_simulation(base_config(rounds=10_000))
        mean = math.fsum(ledger.budget_ratio.tolist()) / 10_000
        assert abs(mean - 0.5) <= 0.005

    def test_mean_output_tracks_allocation(self):
        ledger = run_simulation(base_config(rounds=10_000))
        d = ledger.D
        for i, target in enumerate((8.0, 12.0)):
            se = d[:, i].std(ddof=1) / math.sqrt(len(d))
            assert abs(d[:, i].mean() - target) <= 5 * se

    def test_subsidy_frequency_dominates_lower_bound(self):
        from poolsim.analysis import subsidy_prob_lower

        cfg = quiet_parse({
            "mechanism": "ppss",
            "platform": {"p": 1.0, "k": 100.0, "lambda": 0.8},
            "miners": [{"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}}],
            "demand": {"family": "constant", "M": 300.0},
            "rounds": 10_000, "seed": 5,
        })
        ledger = run_simulation(cfg)
        freq = np.mean(ledger.flags[:, 0])
        assert freq >= subsidy_prob_lower(1.0, 1.0, 0.8)


class TestReproducibility:
    def test_replay_is_identical(self):
        a = run_simulation(base_config(rounds=200))
        b = run_simulation(base_config(rounds=200))
        for col in ("M", "a", "D", "rewards", "flags", "delta", "budget_ratio"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert a.cumulative_intake == b.cumulative_intake
        assert a.cumulative_outflow == b.cumulative_outflow

    def test_seed_changes_the_run(self):
        a = run_simulation(base_config(rounds=10))
        b = run_simulation(base_config(rounds=10, seed=4))
        assert not np.array_equal(a.D, b.D)

    def test_seed_override_argument(self):
        cfg = base_config(rounds=10)
        a = run_simulation(cfg, seed=99)
        b = run_simulation(cfg, seed=99)
        c = run_simulation(cfg)
        assert np.array_equal(a.D, b.D) and np.array_equal(a.rewards, b.rewards)
        assert not np.array_equal(a.D, c.D)


class TestAdaptiveExploitation:
    def _mean_payoff(self, policy0, seed):
        cfg = quiet_parse({
            "mechanism": "pps",
            "platform": {"p": 1.0, "k": 10.0},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0},
                 "policy": policy0},
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0}},
            ],
            "demand": {"family": "constant", "M": 2.0},
            "rounds": 200, "seed": seed,
        })
        ledger = run_simulation(cfg)
        return math.fsum((ledger.rewards[:, 0] - ledger.a[:, 0]).tolist()) / 200

    def test_shortfall_exploitation_beats_full_capacity(self):
        # same seeds, miner 0 adaptive vs miner 0 static at capacity
        adaptive = {"kind": "delta_adaptive", "step": 0.5, "floor": 0.05}
        static = {"kind": "static", "a": 1.0}
        for seed in range(3):
            assert self._mean_payoff(adaptive, seed) >= self._mean_payoff(static, seed)


class TestBudgetRatioProperty:
    @given(small_configs(mechanisms=("pps",)))
    @settings(max_examples=60, deadline=None)
    def test_pps_ratio_within_zero_and_b_over_p(self, data):
        cfg = quiet_parse(data)
        ratios = run_simulation(cfg).budget_ratio
        assert ratios.min() >= 0.0
        assert ratios.max() <= cfg.platform.b / cfg.platform.p
