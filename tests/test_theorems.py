"""Audit harness: verdict semantics and report rows."""
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poolsim import engine, theorems
from poolsim.analysis import floor_payoff, payoff_curve
from poolsim.config import ConfigError, parse_config
from poolsim.model import c_tilde, cost_eval
from poolsim.theorems import ALL_THEOREMS, T5_FLOOR_TOL, audit_t1, audit_t6, run_audits

from conftest import in_money_range, money_scaled, small_configs

VERIFY_AUDIT_YAML = Path(__file__).parent / "configs" / "verify-audit.yaml"


def pps_config(**overrides):
    data = {
        "mechanism": "pps",
        "platform": {"p": 1.0, "k": 2.0},
        "miners": [{"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}}],
        "demand": {"family": "constant", "M": 40.0},
        "rounds": 400,
        "seed": 1,
    }
    data.update(overrides)
    return parse_config(data)


def scaled_audit(k):
    """verify-audit.yaml at output scale k: platform k, and every linear
    cost r = 1.5 * k, as in the file."""
    data = yaml.safe_load(VERIFY_AUDIT_YAML.read_text())
    data["platform"]["k"] = k
    data["miners"] = [{**m, "cost": {**m["cost"], "r": 1.5 * k}} for m in data["miners"]]
    return parse_config(data)


def ppss_config(**overrides):
    data = {
        "mechanism": "ppss",
        "platform": {"p": 1.0, "k": 100.0, "lambda": 0.8, "N": 10},
        "miners": [{"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}}],
        "demand": {"family": "constant", "M": 300.0},
        "rounds": 1000,
        "seed": 1,
    }
    data.update(overrides)
    return parse_config(data)


class TestHarness:
    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            run_audits(pps_config(), ["T9"])

    @pytest.mark.parametrize("theorems", [["T1", "T1"], ["T6", "T2", "T6"]],
                             ids=["T1,T1", "T6,T2,T6"])
    def test_repeated_theorem_rejected(self, theorems):
        # one row per audit: a repeat would run and report its audit twice
        with pytest.raises(ValueError, match="named more than once"):
            run_audits(pps_config(), theorems)

    def test_empty_selection_runs_no_audit(self):
        # only None means "all of T1-T7"
        assert run_audits(pps_config(), []) == []

    def test_row_schema(self):
        rows = run_audits(pps_config(), ["T1"])
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == {
            "theorem", "claim", "config_digest", "verdict", "metric", "bound", "ci",
        }
        assert row["config_digest"] == pps_config().digest()

    def test_default_runs_all(self):
        rows = run_audits(ppss_config(rounds=200))
        assert [r["theorem"] for r in rows] == list(ALL_THEOREMS)

    def test_deterministic_given_seed(self):
        a = run_audits(ppss_config(), ["T6"])
        b = run_audits(ppss_config(), ["T6"])
        assert a == b

    @pytest.mark.parametrize("make_config", [pps_config, ppss_config])
    def test_verdicts_do_not_depend_on_seed_or_replicas(self, make_config):
        # T2, T3, T4, T5 and T7 draw no random numbers, and the retired
        # replicas key is dropped unread; only the digest of the seed differs
        theorems = ["T2", "T3", "T4", "T5", "T7"]
        a = run_audits(make_config(seed=0, replicas=16), theorems)
        b = run_audits(make_config(seed=7, replicas=9000), theorems)
        for row_a, row_b in zip(a, b, strict=True):
            assert row_a.pop("config_digest") != row_b.pop("config_digest")
            assert row_a == row_b


class TestVerdicts:
    def test_t1_passes_on_pps(self):
        row = run_audits(pps_config(), ["T1"])[0]
        assert row["verdict"] == "PASS"
        assert row["metric"] <= row["bound"]

    @pytest.mark.parametrize("platform, demand", [
        ({"p": 1.0, "b": 1e-318, "k": 2.0}, {"family": "constant", "M": 40.0}),
        ({"p": 0.9, "b": 1.7, "k": 2.0}, {"family": "constant", "M": 1e-310}),
    ])
    def test_t1_passes_on_subnormal_rewards(self, platform, demand):
        # a subnormal b makes the paid ratios round far from the analytic
        # ones in units of b/p; a subnormal M makes 1/M overflow
        row = audit_t1(pps_config(platform=platform, demand=demand, rounds=50))
        assert row["verdict"] == "PASS"

    def test_t2_branch_flip(self):
        row = run_audits(pps_config(), ["T2"])[0]
        assert row["verdict"] == "PASS"

    def test_t3_threshold_flip(self):
        row = run_audits(pps_config(), ["T3"])[0]
        assert row["verdict"] == "PASS"
        assert abs(row["metric"] - 1.0) <= 0.05

    def test_t3_at_capacities_whose_square_overflows(self):
        # T3's power costs c * a**2 at a = 1e200: a**2 overflows, c * a**2
        # (about 1e202) does not
        data = yaml.safe_load(VERIFY_AUDIT_YAML.read_text())
        data["miners"] = [{**m, "capacity_A": 1.0e200} for m in data["miners"]]
        row = run_audits(parse_config(data), ["T3"])[0]
        assert row["verdict"] == "PASS"
        assert abs(row["metric"] - 1.0) <= 0.05

    @pytest.mark.parametrize("theorem", ["T2", "T3"])
    def test_overflowing_scenario_demand_rejected(self, theorem):
        # each bound 9 * N * k * A = 9e307 and the supply k * sum(A) = 8e307
        # are finite, the scenario's 3 * k * sum(A) is not: parse_config
        # rejects the config; at 7e304 the scenario demand, 1.68e308, is
        # finite and the audit passes warning-free (T3's costs c * a**2 there
        # are finite where a**2 is not)
        data = yaml.safe_load(VERIFY_AUDIT_YAML.read_text())
        data["platform"]["N"] = 1
        data["miners"] = [{**data["miners"][0], "capacity_A": 1.0e305} for _ in range(8)]
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field == "platform.k"
        assert "3 * k * sum(capacity_A)" in str(e.value)
        data["miners"] = [{**m, "capacity_A": 7.0e304} for m in data["miners"]]
        row = run_audits(parse_config(data), [theorem])[0]
        assert row["verdict"] == "PASS"

    def test_t4_interior_argmax(self):
        # low_M = 0.2*k*sum(A) = 2: interior optimum M/(4r) = 0.5 < capacity
        cfg = pps_config(
            platform={"p": 1.0, "k": 5.0},
            miners=[
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0}},
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0}},
            ],
        )
        row = run_audits(cfg, ["T4"])[0]
        assert row["verdict"] == "PASS"
        assert row["metric"] < 1.0  # interior argmax exists

    def test_t5_floor_and_bounds(self):
        row = run_audits(ppss_config(), ["T5"])[0]
        assert row["verdict"] == "PASS"
        assert row["metric"] >= 0.0

    def test_t5_grid_leaves_out_lambda_a(self):
        # verify-audit.yaml with every capacity 10**e and M 600 * 10**e: from
        # output shapes of about 2**106, whether the indicator fires at
        # a = lam*A is a matter of how lam*A*k*N rounds (at 1e35 the floor's
        # margin there was -4e36); T5's grid is (lam*A, A]
        data = yaml.safe_load(VERIFY_AUDIT_YAML.read_text())
        failed = []
        for e in range(10, 150):
            scale = float(f"1e{e}")
            data["miners"] = [{**m, "capacity_A": scale} for m in data["miners"]]
            data["demand"] = {"family": "constant", "M": 600.0 * scale}
            row = run_audits(parse_config(data), ["T5"])[0]
            if row["verdict"] != "PASS":
                failed.append((e, row["metric"]))
        assert failed == []

    @pytest.mark.parametrize("k", [1e-50, 1e-100, 1e-200, 1e-320])
    def test_t5_passes_where_its_margin_is_below_rounding(self, k):
        # the true margin shrinks like k**2 and its terms like k: its
        # computed value is rounding, here a few ulps of a*c~ below 0
        row = run_audits(scaled_audit(k), ["T5"])[0]
        assert row["verdict"] == "PASS"
        assert row["metric"] < 0.0

    @pytest.mark.parametrize("k", [100.0, 1e-50])
    def test_t5_fails_a_margin_below_its_tolerance(self, k, monkeypatch):
        # a payoff 1000 tolerances below the floor at every grid point
        def below_floor(mechanism, i, allocations, grid, params, profiles, demand):
            prof = profiles[i]
            floor = floor_payoff(grid, c_tilde(prof), prof.cost)
            terms = grid * c_tilde(prof) + cost_eval(prof.cost, grid)
            return floor - 1000 * (T5_FLOOR_TOL * terms + 3 * math.ulp(0.0))

        monkeypatch.setattr(theorems, "payoff_curve", below_floor)
        row = run_audits(scaled_audit(k), ["T5"])[0]
        assert row["verdict"] == "FAIL"

    @pytest.mark.parametrize("k, verdicts, t3_metric", [
        (1.0, ("PASS", "PASS"), 1.04),
        (0.3, ("PASS", "FAIL"), 0.92),
        (0.01, ("FAIL", "FAIL"), math.nan),
    ])
    def test_pps_claims_need_output_shapes_where_m_rarely_binds(self, k, verdicts, t3_metric):
        # T2 and T3 take M = 3 * k * sum(A) as not binding. At small output
        # shapes min(|D|, M) often binds: E[min(|D|, M)] / (k * sum(A)) is
        # 0.99 at k = 1, 0.89 at k = 0.3 and 0.19 at k = 0.01, so the pps
        # revenue per unit falls below b * k and the verdicts move
        t2, t3 = run_audits(scaled_audit(k), ["T2", "T3"])
        assert (t2["verdict"], t3["verdict"]) == verdicts
        assert t3["metric"] == pytest.approx(t3_metric, nan_ok=True)

    def test_t6_known_discrepancy_on_high_productivity(self):
        row = run_audits(ppss_config(rounds=2000), ["T6"])[0]
        assert row["verdict"] == "KNOWN_DISCREPANCY"
        assert row["metric"] > row["bound"]
        assert row["ci"] > 0.0

    def test_t6_pass_is_exact_when_its_bound_overflows(self):
        # sum(c~ * A) / (mu_F * p) = 300 / 1e-310 = 3e312 exceeds every float
        # and reads inf, while the mean of finite payout ratios is finite:
        # the PASS is the verdict against the true bound, not a vacuous one
        data = yaml.safe_load(VERIFY_AUDIT_YAML.read_text())
        data.update(mechanism="pps", demand={"family": "constant", "M": 1.0e-310})
        cfg = parse_config(data)
        row = run_audits(cfg, ["T6"])[0]
        assert (row["verdict"], row["bound"]) == ("PASS", math.inf)
        assert row["metric"] == pytest.approx(55.2075, abs=5e-5)
        assert math.isfinite(row["metric"] + row["ci"])
        true_bound = Fraction(300) / (Fraction(cfg.demand.M) * Fraction(cfg.platform.p))
        assert true_bound > Fraction(sys.float_info.max)

    def test_t7_round_level_commitment(self):
        row = run_audits(ppss_config(), ["T7"])[0]
        assert row["verdict"] == "PASS"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_t6_mean_ratio_matches_exact_payoffs(self, seed):
        # Every miner at capacity with warm windows: the long-term ratio is
        # sum_i E[R_i] / (M * p), about 17.97 here. The run's first N-1
        # rounds have cold windows, which 2000 rounds dilute.
        cfg = parse_config(yaml.safe_load(VERIFY_AUDIT_YAML.read_text()))
        caps = np.array([p.capacity_A for p in cfg.profiles])
        rewards = [
            payoff_curve("ppss", i, caps, [caps[i]], cfg.platform, cfg.profiles, cfg.demand)[0]
            + cost_eval(prof.cost, prof.capacity_A)
            for i, prof in enumerate(cfg.profiles)
        ]
        exact = math.fsum(rewards) / (cfg.demand.M * cfg.platform.p)
        row = run_audits(replace(cfg, seed=seed), ["T6"])[0]
        assert abs(row["metric"] - exact) <= row["ci"]


class TestSharedGame:
    MYOPIC = {"kind": "myopic_br", "grid": 5}

    @pytest.fixture
    def played_rounds(self, monkeypatch):
        """The rounds engine.step_round plays, in call order."""
        rounds, real = [], engine.step_round

        def counting(state):
            rounds.append(state.next_round)
            real(state)

        # play looks step_round up in the engine module on every call
        monkeypatch.setattr(engine, "step_round", counting)
        return rounds

    def test_t1_and_t6_settle_one_played_game(self, played_rounds):
        cfg = ppss_config(rounds=40)
        run_audits(cfg, ["T1", "T6"])
        assert played_rounds == list(range(1, 41))

    def test_no_game_survives_the_call(self, played_rounds):
        cfg = ppss_config(rounds=40)
        run_audits(cfg, ["T1", "T6"])
        run_audits(cfg, ["T6"])
        assert len(played_rounds) == 80

    def test_myopic_miner_plays_a_game_per_mechanism(self, played_rounds):
        # a myopic_br miner best-responds under the audit's own mechanism
        cfg = ppss_config(
            miners=[
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
                 "policy": self.MYOPIC},
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}},
            ],
            rounds=4,
        )
        run_audits(cfg, ["T1", "T6"])
        assert played_rounds == list(range(1, 5)) * 2

    @pytest.mark.parametrize("policy", [None, MYOPIC])
    def test_rows_equal_the_audits_run_alone(self, policy):
        miner = {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}}
        cfg = ppss_config(miners=[dict(miner, policy=policy) if policy else miner, miner],
                          rounds=30 if policy else 300)
        alone = [audit_t1(cfg), audit_t6(cfg)]
        assert run_audits(cfg, ["T1", "T6"]) == alone
        assert run_audits(cfg, ["T6", "T1"]) == alone[::-1]
        assert run_audits(cfg, ["T6"]) == alone[1:]


class TestMoneyScaling:
    @given(data=small_configs(), j=st.integers(-8, 8))
    @settings(max_examples=15, deadline=None)
    def test_scales_money_rows_and_keeps_verdicts(self, data, j):
        # b and every cost coefficient times 2**j: the T1, T5 and T6
        # metrics, bounds and CIs, which are money or money per unit of
        # demand, move by exactly 2**j; every other number and every verdict
        # stays
        factor = 2.0**j
        cfgs = parse_config(data), parse_config(money_scaled(data, factor))
        for cfg in cfgs:
            game = engine.play(cfg)
            for mechanism in ("pps", "ppss"):
                led = engine.settle(game, replace(cfg, mechanism=mechanism))
                assume(in_money_range(led.rewards, led.budget_ratio))
        base, moved = (run_audits(cfg) for cfg in cfgs)
        for row, scaled in zip(base, moved):
            assert scaled["verdict"] == row["verdict"]
            times = factor if row["theorem"] in ("T1", "T5", "T6") else 1.0
            for key in ("metric", "bound", "ci"):
                assert scaled[key].hex() == (row[key] * times).hex(), (row["theorem"], key)
