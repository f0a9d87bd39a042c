"""Round loop, miner policies, settling a played game, and ledger accounting."""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poolsim import analysis, engine
from poolsim.analysis import payoff_curve
from poolsim.config import parse_config
from poolsim.csvio import ROW_BLOCK
from poolsim.engine import (
    delta_adaptive_policy,
    init_state,
    play,
    run_simulation,
    settle,
    step_round,
    window_sums,
)
from poolsim.mechanisms import pps_reward, ppss_reward, subsidy_terms
from poolsim.model import (
    MAX_GRID,
    CostFunction,
    DemandModel,
    MinerPolicy,
    MinerProfile,
    c_tilde,
    cost_eval,
    sample_demand,
    sample_transcript,
    substream,
)

from conftest import in_money_range, money_scaled, small_configs

CONFIGS = Path(__file__).parent / "configs"


def row_at_a_time(cfg):
    """The reference for settle: play's game paid one round at a time, with
    each row's window summed by a cumsum over the rows before it, one kernel
    call on the row and the row's own sums. Returns (game, rewards, flags,
    budget_ratio, delta)."""
    game, params = play(cfg), cfg.platform
    rounds, n = game.D.shape
    unit, numerator = subsidy_terms(
        np.array([p.capacity_A for p in cfg.profiles]),
        np.array([c_tilde(p) for p in cfg.profiles]), params,
    )
    rewards, flags = np.zeros((rounds, n)), np.zeros((rounds, n), dtype=bool)
    ratio, delta = np.zeros(rounds), np.zeros(rounds)
    for row in range(rounds):
        d = game.D[row].copy()
        total, M = float(d.sum()), float(game.M[row])
        delta[row] = min(total, M) / total if total else 1.0
        if cfg.mechanism == "pps":
            rewards[row] = pps_reward(d, total, M, params)
            ratio[row] = (params.b / params.p) * (min(total, M) / M) if total else 0.0
        else:
            lo = max(row - (params.window_N - 1), 0)
            wsum = game.D[lo:row].cumsum(axis=0)[-1] if row > lo else np.zeros(n)
            r, flags[row] = ppss_reward(d, total, M, wsum, row - lo, unit, numerator, params)
            rewards[row], ratio[row] = r, r.sum() / (M * params.p)
    return game, rewards, flags, ratio, delta


def assert_ledger_equals_reference(led, cfg):
    game, rewards, flags, ratio, delta = row_at_a_time(cfg)
    for col in ("M", "a", "D", "delta"):
        assert getattr(led, col).tobytes() == getattr(game, col).tobytes()
    assert led.delta.tobytes() == delta.tobytes()
    assert led.rewards.tobytes() == rewards.tobytes()
    assert np.array_equal(led.flags, flags)
    assert led.budget_ratio.tobytes() == ratio.tobytes()


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
    return parse_config(data)


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
            MinerPolicy(kind="myopic_br", grid=MAX_GRID + 1)

    def test_delta_adaptive_returns_to_capacity_without_shortfall(self):
        prof = MinerProfile(capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
        policy = MinerPolicy(kind="delta_adaptive", step=0.5, floor=0.0)
        assert delta_adaptive_policy(1.0, 2.0, prof, policy) == 2.0
        assert delta_adaptive_policy(1.0, 0.5, prof, policy) == 1.0

    def test_delta_adaptive_stays_at_zero(self):
        # with floor 0, halving underflows an allocation of 2 to 0 after
        # 1076 shortfalls, and dividing by the step cannot raise it again
        prof = MinerProfile(capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
        policy = MinerPolicy(kind="delta_adaptive", step=0.5, floor=0.0)
        a = 2.0
        for _ in range(1100):
            a = delta_adaptive_policy(0.5, a, prof, policy)
        assert a == 0.0
        assert delta_adaptive_policy(1.0, a, prof, policy) == 0.0

    def test_delta_adaptive_halves_on_shortfall(self):
        prof = MinerProfile(capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
        policy = MinerPolicy(kind="delta_adaptive", step=0.5, floor=0.0)
        assert delta_adaptive_policy(0.5, 1.0, prof, policy) == 0.5

    def test_delta_adaptive_respects_floor(self):
        prof = MinerProfile(capacity_A=2.0, cost=CostFunction(family="linear", r=1.0))
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

    @pytest.mark.parametrize("bad", ["above", -0.5, math.nan])
    def test_moving_miner_outside_capacity_rejected(self, monkeypatch, bad):
        # the guard covers every allocation a policy computes, naming the miner
        cfg = base_config(miners=[
            {"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0},
             "policy": {"kind": "static", "a": 2.0}},
            {"capacity_A": 6.0, "cost": {"family": "linear", "r": 1.0},
             "policy": {"kind": "delta_adaptive", "step": 0.5}},
        ], rounds=2)
        value = 6.0 + 1 if bad == "above" else bad
        monkeypatch.setattr(engine, "_policy_allocation", lambda state, i: value)
        with pytest.raises(ValueError, match="miner 1"):
            run_simulation(cfg)

    def test_static_miner_above_capacity_runs_at_capacity(self, monkeypatch):
        # a static allocation is clipped once, in init_state, and never asked
        # of _policy_allocation
        cfg = base_config(miners=[{
            "capacity_A": 1.5,
            "cost": {"family": "linear", "r": 1.0},
            "policy": {"kind": "static", "a": 9.0},
        }], rounds=4)
        monkeypatch.setattr(engine, "_policy_allocation", None)
        assert run_simulation(cfg).a[:, 0].tolist() == [1.5] * 4

    def test_myopic_br_runs_at_capacity_when_cheap(self):
        cfg = base_config(miners=[{
            "capacity_A": 2.0,
            "cost": {"family": "linear", "r": 0.5},
            "policy": {"kind": "myopic_br", "grid": 9},
        }], demand={"family": "constant", "M": 50.0}, rounds=3)
        ledger = run_simulation(cfg)
        assert np.all(ledger.a[:, 0] >= 2.0 - 2 * (2.0 / 8))


class TestMyopicMemo:
    def _config(self, demand):
        myopic = {"kind": "myopic_br", "grid": 5}
        return parse_config({
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

        # the engine's own binding, the one _policy_allocation calls
        monkeypatch.setattr(engine, "best_response", counting)
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
                    grid_points=5,
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
        D = play(replace(cfg, mechanism="pps", seed=0, rounds=N + 7)).D
        sums, lens = window_sums(D, N)
        assert lens.tolist() == list(range(N)) + [N - 1] * 7
        for row in range(N - 1, N + 7):
            assert sums[row].tolist() == [sum(D[row - N + 1:row, i].tolist()) for i in range(2)]

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
        state = init_state(cfg)
        for j in range(1, 21):
            assert state.next_round == j
            step_round(state)
            assert np.all(state.game.M[j:] == 0.0) and state.game.M[j - 1] > 0.0
        assert np.array_equal(state.game.D, run_simulation(cfg).D)

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_engine_rewards_equal_kernel_rewards(self, mechanism):
        cfg = parse_config({
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
        assert_ledger_equals_reference(led, cfg)
        if mechanism == "ppss":
            assert led.flags.any() and not led.flags.all()


class TestTwoPhase:
    @pytest.mark.parametrize("miners", [(1, 3), (9, 12)])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_row_at_a_time_reference(self, miners, data):
        # numpy sums a row of more than 8 elements in another order, so the
        # whole-column sums are checked on 9-12 miners as well
        cfg = parse_config(data.draw(small_configs(miners=miners)))
        for N in {cfg.platform.window_N, 1}:
            for mechanism in ("pps", "ppss"):
                run = replace(cfg, mechanism=mechanism,
                              platform=replace(cfg.platform, window_N=N))
                assert_ledger_equals_reference(run_simulation(run), run)

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_equals_reference_on_idle_rows_and_long_games(self, mechanism):
        # outputs of shape 3e-4 are mostly exactly 0, so many rows have
        # |D| = 0 and some a subnormal |D|; b and p are not 1, and the game
        # is longer than one ROW_BLOCK
        cfg = parse_config({
            "mechanism": mechanism,
            "platform": {"p": 0.9, "b": 1.7, "k": 1.0, "N": 3},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0},
                 "policy": {"kind": "static", "a": a}}
                for a in (3e-4, 0.0, 2e-3)
            ],
            "demand": {"family": "uniform", "lo": 1e-300, "hi": 1.0},
            "rounds": 2 * ROW_BLOCK + 3, "seed": 4,
        })
        led = run_simulation(cfg)
        assert_ledger_equals_reference(led, cfg)
        totals = led.D.sum(axis=1)
        assert (totals == 0).any() and (totals > 0).any()

    @given(small_configs())
    @settings(max_examples=30, deadline=None)
    def test_game_does_not_depend_on_mechanism(self, data):
        # no static or delta_adaptive miner reads the mechanism
        cfg = parse_config(data)
        pps, ppss = (play(replace(cfg, mechanism=m)) for m in ("pps", "ppss"))
        for col in ("M", "a", "D", "delta"):
            assert getattr(pps, col).tobytes() == getattr(ppss, col).tobytes()

    @given(data=small_configs(), field=st.sampled_from(["lambda", "eps_k", "b", "p"]),
           j=st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_game_does_not_depend_on_the_economics(self, data, field, j):
        # without a myopic_br miner, play reads none of lambda, eps_k, b and
        # p: scaling one by 2**j leaves every played column's bits alone,
        # under either mechanism (lambda and eps_k must stay below 1)
        default = {"lambda": 0.8, "eps_k": 1e-3}
        factor = 2.0 ** (-abs(j) if field == "lambda" else j)
        platform = data["platform"]
        scaled = {**data, "platform": {**platform,
                                       field: platform.get(field, default.get(field)) * factor}}
        for mechanism in ("pps", "ppss"):
            base, moved = (play(replace(parse_config(d), mechanism=mechanism))
                           for d in (data, scaled))
            for col in ("M", "a", "D", "delta"):
                assert getattr(moved, col).tobytes() == getattr(base, col).tobytes()

    def test_clamped_ppss_pays_as_pps(self):
        # At b = 5 every simulate-ledger miner's c~/k (1.2 to 2.4) is at or
        # below b, so every ppss numerator clamps to 0 and its rate is b:
        # the rewards equal pps's bit for bit, although ppss still sets flags
        # (in about 79% of cells here). budget_ratio is close but not equal:
        # ppss sums its rewards, while pps writes the analytic
        # (b/p) * min{|D|, M}/M; they differ by up to 3 ulps.
        with open(CONFIGS / "simulate-ledger.yaml") as fh:
            data = yaml.safe_load(fh)
        data["platform"]["b"], data["rounds"] = 5.0, 3000
        cfg = parse_config(data)
        _, numerator = subsidy_terms(
            np.array([p.capacity_A for p in cfg.profiles]),
            np.array([c_tilde(p) for p in cfg.profiles]), cfg.platform,
        )
        assert (numerator == 0).all()
        game = play(cfg)
        ppss = engine.settle(game, cfg)
        pps = engine.settle(game, replace(cfg, mechanism="pps"))
        np.testing.assert_array_equal(ppss.rewards, pps.rewards)
        assert ppss.flags.mean() > 0.5
        gap = np.abs(ppss.budget_ratio - pps.budget_ratio)
        assert (gap <= 4 * np.spacing(pps.budget_ratio)).all()

    def test_partly_played_game_rejected(self):
        cfg = base_config(rounds=5)
        state = init_state(cfg)
        step_round(state)
        step_round(state)
        for mechanism in ("pps", "ppss"):
            with pytest.raises(ValueError, match="3 unplayed round"):
                engine.settle(state.game, replace(cfg, mechanism=mechanism))

    def test_ledger_shares_the_played_columns(self):
        cfg = base_config(rounds=5)
        game = play(cfg)
        led = engine.settle(game, replace(cfg, mechanism="ppss"))
        for col in ("M", "a", "D", "delta"):
            assert getattr(led, col) is getattr(game, col)


class TestLedgerAccounting:
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

        cfg = parse_config({
            "mechanism": "ppss",
            "platform": {"p": 1.0, "k": 100.0, "lambda": 0.8},
            "miners": [{"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}}],
            "demand": {"family": "constant", "M": 300.0},
            "rounds": 10_000, "seed": 5,
        })
        ledger = run_simulation(cfg)
        freq = np.mean(ledger.flags[:, 0])
        assert freq >= subsidy_prob_lower(1.0, 1.0, 0.8)


# simulate-ledger.yaml's first two miners, both static: miner 0 at its
# capacity 1, miner 1 (power cost) at 1.5 of its capacity 2
TWO_STATIC_MINERS = {
    "mechanism": "ppss",
    "platform": {"p": 1.0, "b": 1.0, "k": 100.0, "lambda": 0.8, "N": 10, "eps_k": 1.0e-3},
    "miners": [
        {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
         "policy": {"kind": "static", "a": 1.0}},
        {"capacity_A": 2.0, "cost": {"family": "power", "c": 60.0, "q": 2.0},
         "policy": {"kind": "static", "a": 1.5}},
    ],
    "rounds": 4009,  # N - 1 = 9 rounds of filling windows, then 20 batches of 200
}


class TestMeanRewardMatchesExactPayoff:
    """Each static miner's mean reward over rounds N..R, whose windows are
    warm, against payoff_curve's exact expected reward at its allocation
    (its payoff plus its cost). The tolerance is z batch-means standard
    errors (Schmeiser, "Batch Size Effects in the Analysis of Simulation
    Output", Operations Research 30(3), 1982): 20 batches of 200 rounds,
    each far longer than the N = 10 rounds a window correlates. z = 4 was
    fixed before the first run.

    Of three engine faults, tried one at a time: window_sums summing N
    rounds instead of N - 1 fails (miner 1's window sum then usually clears
    its threshold); min{|D|, M} taken as |D| fails under the uniform demand,
    which rations, and not at M = 600, which never does. window_sums
    reading lags 2..N instead of 1..N-1, and the indicator's >= as >, pass:
    static outputs are i.i.d., so the lagged sum has the same law, and a
    continuous output equals its threshold with probability 0; no mean can
    tell either apart."""

    Z, BATCHES = 4.0, 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("demand", [
        {"family": "constant", "M": 600.0},
        {"family": "uniform", "lo": 150.0, "hi": 450.0},
    ], ids=["constant-600", "uniform-150-450"])
    def test_mean_reward_within_z_standard_errors(self, demand, seed):
        cfg = parse_config({**TWO_STATIC_MINERS, "demand": demand, "seed": seed})
        game = play(cfg)  # no policy reads the mechanism: one game serves both
        alloc = game.a[0]
        for mechanism in ("pps", "ppss"):
            paid = replace(cfg, mechanism=mechanism)
            rewards = settle(game, paid).rewards[cfg.platform.window_N - 1:]
            for i, prof in enumerate(cfg.profiles):
                a = float(alloc[i])
                exact = payoff_curve(mechanism, i, alloc, [a], cfg.platform,
                                     list(cfg.profiles), cfg.demand)[0] + cost_eval(prof.cost, a)
                batches = rewards[:, i].reshape(self.BATCHES, -1).mean(axis=1)
                se = batches.std(ddof=1) / math.sqrt(self.BATCHES)
                assert abs(batches.mean() - exact) <= self.Z * se, (mechanism, i, exact)


class TestReproducibility:
    def test_replay_is_identical(self):
        a = run_simulation(base_config(rounds=200))
        b = run_simulation(base_config(rounds=200))
        for col in ("M", "a", "D", "rewards", "flags", "delta", "budget_ratio"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_seed_changes_the_run(self):
        a = run_simulation(base_config(rounds=10))
        b = run_simulation(base_config(rounds=10, seed=4))
        assert not np.array_equal(a.D, b.D)

    def test_seed_override_argument(self):
        cfg = base_config(rounds=10)
        a = run_simulation(replace(cfg, seed=99))
        b = run_simulation(replace(cfg, seed=99))
        c = run_simulation(cfg)
        assert np.array_equal(a.D, b.D) and np.array_equal(a.rewards, b.rewards)
        assert not np.array_equal(a.D, c.D)

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_round_stream_layout(self, mechanism):
        # Round j draws from substream(seed, TAG_ROUND, j): demand first,
        # then Gamma(k * a_i) for each miner with a_i > 0, in miner order.
        cfg = parse_config({
            "mechanism": mechanism,
            "platform": {"p": 1.0, "b": 1.0, "k": 50.0, "lambda": 0.8, "N": 3},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 90.0},
                 "policy": {"kind": "static", "a": 0.7}},
                {"capacity_A": 2.0, "cost": {"family": "linear", "r": 60.0},
                 "policy": {"kind": "static", "a": 0.0}},
                {"capacity_A": 1.5, "cost": {"family": "power", "c": 40.0, "q": 2.0},
                 "policy": {"kind": "delta_adaptive", "step": 0.5, "floor": 0.0}},
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 120.0},
                 "policy": {"kind": "myopic_br", "grid": 3}},
            ],
            "demand": {"family": "gamma", "shape": 4.0, "rate": 0.04},
            "rounds": 40, "seed": 12,
        })
        led = run_simulation(cfg)
        assert (led.a[:, 1] == 0.0).all() and (led.D[:, 0] > 0.0).all()
        for row in range(led.rounds):
            rng = substream(cfg.seed, engine.TAG_ROUND, row + 1)
            M = sample_demand(cfg.demand, rng)
            d = np.zeros(len(cfg.profiles))
            for i, a in enumerate(led.a[row]):
                if cfg.platform.k * a > 0:
                    d[i] = rng.gamma(cfg.platform.k * a)
            assert led.M[row] == M
            assert np.array_equal(led.D[row], d)

    @given(small_configs())
    @settings(max_examples=40, deadline=None)
    def test_demand_is_ppf_of_the_rounds_first_uniform(self, data):
        # for every family M_j = ppf(u), u the first uniform of round j's
        # stream; a constant demand draws nothing, so the outputs start the
        # stream
        cfg = parse_config(data)
        led = run_simulation(cfg)
        for row in range(led.rounds):
            rng = substream(cfg.seed, engine.TAG_ROUND, row + 1)
            if cfg.demand.family == "constant":
                assert led.M[row] == cfg.demand.M
            else:
                assert led.M[row] == cfg.demand.ppf(rng.random())
            assert led.D[row].tolist() == sample_transcript(cfg.platform, led.a[row].tolist(), rng)


class TestAdaptiveExploitation:
    def _mean_payoff(self, policy0, seed):
        cfg = parse_config({
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
        cfg = parse_config(data)
        ratios = run_simulation(cfg).budget_ratio
        assert ratios.min() >= 0.0
        assert ratios.max() <= cfg.platform.b / cfg.platform.p

    @given(small_configs(mechanisms=("ppss",)))
    @settings(max_examples=60, deadline=None)
    def test_ppss_never_charges(self, data):
        # the subsidy numerator c~/k - b is clamped at 0, so every rate is
        # at least b
        led = run_simulation(parse_config(data))
        assert led.rewards.min() >= 0.0
        assert led.budget_ratio.min() >= 0.0

    @given(small_configs(), st.integers(-8, 8))
    @settings(max_examples=30, deadline=None)
    def test_price_scaling_scales_every_ratio(self, data, j):
        # p -> 2**j * p leaves the game and its rewards alone and divides
        # every budget_ratio by exactly 2**j (p = 2p halves it), under both
        # mechanisms: the ratio has no absolute epsilon
        factor = 2.0**j
        scaled = {**data, "platform": {**data["platform"], "p": data["platform"]["p"] * factor}}
        base, led = run_simulation(parse_config(data)), run_simulation(parse_config(scaled))
        np.testing.assert_array_equal(led.rewards, base.rewards)
        np.testing.assert_array_equal(led.budget_ratio * factor, base.budget_ratio)


class TestMoneyScaling:
    @given(data=small_configs(myopic=True), j=st.integers(-8, 8))
    @settings(max_examples=30, deadline=None)
    def test_scales_every_reward(self, data, j):
        # b and every cost coefficient times 2**j are the same economics in
        # other money units: every reward and budget_ratio is multiplied by
        # exactly 2**j, and the game stays bit for bit, also with myopic_br
        # miners, whose payoff curves scale exactly and keep their argmax
        data = {**data, "rounds": min(data["rounds"], 4)}
        factor = 2.0**j
        base, led = (run_simulation(parse_config(d)) for d in (data, money_scaled(data, factor)))
        for col in ("M", "a", "D", "delta", "flags"):
            assert getattr(led, col).tobytes() == getattr(base, col).tobytes()
        assume(in_money_range(base.rewards, led.rewards, base.budget_ratio, led.budget_ratio))
        np.testing.assert_array_equal(led.rewards, base.rewards * factor)
        np.testing.assert_array_equal(led.budget_ratio, base.budget_ratio * factor)
