"""Command line surface: subcommands, schemas, exit codes, determinism."""
import csv
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poolsim import cli, engine, theorems
from poolsim.cli import main
from poolsim.config import parse_config
from poolsim.csvio import fmt
from poolsim.engine import run_simulation
from poolsim.mechanisms import pps_reward

from conftest import small_configs

BASE_CONFIG = {
    "mechanism": "pps",
    "platform": {"p": 1.0, "k": 2.0},
    "miners": [
        {"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}},
        {"capacity_A": 6.0, "cost": {"family": "linear", "r": 1.0}},
    ],
    "demand": {"family": "constant", "M": 40.0},
    "rounds": 50,
    "seed": 3,
}

# two identical ppss miners at constant demand above supply
PPSS_CONFIG = {
    "mechanism": "ppss",
    "platform": {"p": 1.0, "k": 100.0, "lambda": 0.8, "N": 10},
    "miners": [
        {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}},
        {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0}},
    ],
    "demand": {"family": "constant", "M": 600.0},
    "rounds": 50,
    "seed": 0,
}

CONFIGS = os.path.join(os.path.dirname(__file__), "configs")
VERIFY_AUDIT = os.path.join(CONFIGS, "verify-audit.yaml")


@pytest.fixture
def config_path(tmp_path):
    def write(data=None, name="exp.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(data if data is not None else BASE_CONFIG))
        return str(path)

    return write


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFmt:
    def test_float_round_trip_exact(self):
        for v in (0.1, 1.0 / 3.0, 1e-17, 12345.678901234567, -2.5e300):
            assert float(fmt(v)) == v

    def test_ints_and_bools(self):
        assert fmt(3) == "3"
        assert fmt(True) == "1"
        assert fmt(False) == "0"


class TestSimulate:
    def test_outputs_and_schema(self, config_path, tmp_out):
        assert main(["simulate", "--config", config_path(), "--out", tmp_out]) == 0
        header, rows = read_csv(os.path.join(tmp_out, "ledger.csv"))
        assert header == [
            "round", "M",
            "a_1", "D_1", "reward_1", "subsidy_flag_1",
            "a_2", "D_2", "reward_2", "subsidy_flag_2",
            "delta", "budget_ratio",
        ]
        assert len(rows) == 50
        sheader, srows = read_csv(os.path.join(tmp_out, "summary.csv"))
        assert sheader == [
            "miner", "mean_reward", "mean_payoff", "subsidy_frequency",
            "mean_budget_ratio",
        ]
        assert len(srows) == 2

    def test_rerun_is_byte_identical(self, config_path, tmp_out, tmp_path):
        cfg = config_path()
        out2 = tmp_path / "out2"
        out2.mkdir()
        main(["simulate", "--config", cfg, "--out", tmp_out])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        for name in ("ledger.csv", "summary.csv"):
            a = read_bytes(os.path.join(tmp_out, name))
            b = read_bytes(os.path.join(out2, name))
            assert a == b

    def test_missing_config_exits_2(self, tmp_out):
        assert main(["simulate", "--config", "/nonexistent.yaml", "--out", tmp_out]) == 2

    def test_invalid_config_exits_2(self, config_path, tmp_out, capsys):
        bad = dict(BASE_CONFIG, mechanism="pplns")
        assert main(["simulate", "--config", config_path(bad), "--out", tmp_out]) == 2
        assert "mechanism" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_config_number_exits_2(self, value, config_path, tmp_out, capsys):
        bad = dict(BASE_CONFIG, rounds=value)
        assert main(["simulate", "--config", config_path(bad), "--out", tmp_out]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"demand": {"family": "uniform", "lo": 5.0, "hi": 1.0}},
        {"demand": {"family": "gamma", "shape": -1.0}},
        {"demand": {"family": "constant", "M": 0}},
        {"demand": {"family": "lognormal", "mu": -800.0, "sigma": 0.0}},
        {"demand": {"family": "lognormal", "mu": 800.0, "sigma": 0.0}},
        {"demand": {"family": "gamma", "shape": 1.0, "rate": 1.0e-320}},
        {"rounds": 2.7},
        {"rounds": 10**20},
        # the mean exp(-740 + 12.5) is a positive subnormal, but about one
        # quantile in five underflows to M = 0
        {"demand": {"family": "lognormal", "mu": -740.0, "sigma": 5.0}},
        {"rounds": 2**62},  # fits in int64, but not the ledger size limit
        # the mean exp(709.705) is finite, but about one quantile in five
        # overflows to M = inf
        {"demand": {"family": "lognormal", "mu": 709.7, "sigma": 0.1}},
        # a myopic_br grid over MAX_GRID points
        {"miners": [{"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0},
                     "policy": {"kind": "myopic_br", "grid": 10**12}}]},
    ])
    def test_bad_config_value_exits_2(self, change, config_path, tmp_out, capsys):
        bad = dict(BASE_CONFIG, **change)
        assert main(["simulate", "--config", config_path(bad), "--out", tmp_out]) == 2
        assert next(iter(change)) in capsys.readouterr().err
        assert not os.path.exists(os.path.join(tmp_out, "ledger.csv"))

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("content", [b"mechanism: [unclosed\n", b"\xff\xfe\x00bad"])
    def test_malformed_yaml_exits_2(self, command, content, tmp_path, tmp_out, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        argv = [command, "--config", str(path), "--out", tmp_out]
        if command == "sweep":
            argv += ["--axis", "platform.k=1:2:2"]
        assert main(argv) == 2
        assert "malformed YAML" in capsys.readouterr().err

    def test_supply_shortfall_warns_but_succeeds(self, config_path, tmp_out, capsys):
        data = dict(BASE_CONFIG, demand={"family": "constant", "M": 5.0})
        assert main(["simulate", "--config", config_path(data), "--out", tmp_out]) == 0
        assert "mu_F" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_arg, yaml_seed", [("-1", 3), (None, -3)])
    def test_negative_seed_exits_2(self, seed_arg, yaml_seed, config_path, tmp_out, capsys):
        argv = ["simulate", "--config", config_path(dict(BASE_CONFIG, seed=yaml_seed)),
                "--out", tmp_out]
        if seed_arg is not None:
            argv += ["--seed", seed_arg]
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err

    @given(small_configs())
    @settings(max_examples=25, deadline=None)
    def test_ledger_csv_round_trips(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(data, fh)
            assert main(["simulate", "--config", path, "--out", tmp]) == 0
            header, rows = read_csv(os.path.join(tmp, "ledger.csv"))
        ledger = run_simulation(parse_config(data))
        n = ledger.a.shape[1]
        table = np.array([[float(cell) for cell in row] for row in rows])
        assert table.shape == (ledger.rounds, len(header))
        assert np.array_equal(table[:, 0], np.arange(1, ledger.rounds + 1))
        assert np.array_equal(table[:, 1], ledger.M)
        for i in range(n):
            a, d, reward, flag = table[:, 2 + 4 * i: 6 + 4 * i].T
            assert np.array_equal(a, ledger.a[:, i])
            assert np.array_equal(d, ledger.D[:, i])
            assert np.array_equal(reward, ledger.rewards[:, i])
            assert {r[5 + 4 * i] for r in rows} <= {"0", "1"}
            assert np.array_equal(flag, ledger.flags[:, i])
        assert np.array_equal(table[:, -2], ledger.delta)
        assert np.array_equal(table[:, -1], ledger.budget_ratio)

    def test_seed_override_changes_output(self, config_path, tmp_out, tmp_path):
        cfg = config_path()
        out2 = tmp_path / "out2"
        out2.mkdir()
        main(["simulate", "--config", cfg, "--out", tmp_out])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "77"])
        a = read_bytes(os.path.join(tmp_out, "ledger.csv"))
        b = read_bytes(os.path.join(out2, "ledger.csv"))
        assert a != b


@given(small_configs())
@settings(max_examples=30, deadline=None)
def test_commands_exit_0_2_or_3(data):
    """On any small config, each command returns an exit code (0 ok, 2 config
    error, 3 FAIL verdict) and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(data, fh)  # json.dump writes 1e-05, which YAML reads as a string
        for command, *extra in (
            ["simulate"], ["verify"],
            ["best-response", "--miner", "0", "--grid", "4", "--objective", "payoff"],
        ):
            argv = [command, "--config", path, "--out", tmp, *extra]
            assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("value", [False, "off"])
@pytest.mark.parametrize("command, extra", [
    ("simulate", ()), ("verify", ()), ("best-response", ("--miner", "0", "--grid", "4")),
    ("sweep", ("--axis", "platform.lambda=0.7:0.9:3")),
], ids=["simulate", "verify", "best-response", "sweep"])
def test_unclamped_subsidy_exits_2(command, extra, value, config_path, tmp_out, capsys):
    # the subsidy numerator is always clamped at 0: a config that turns the
    # clamp off, or sets its retired key to a non-boolean, is refused
    data = {**PPSS_CONFIG, "platform": {**PPSS_CONFIG["platform"], "subsidy_clamp_nonneg": value}}
    assert main([command, "--config", config_path(data), "--out", tmp_out, *extra]) == 2
    err = capsys.readouterr().err
    assert "'platform.subsidy_clamp_nonneg'" in err and "removed" in err


def _test_copy(name, mechanism=None, demand=None, capacity_A=None, r=None, **platform):
    """tests/configs/<name>.yaml as a dict, with the given fields changed;
    capacity_A and the cost's r change in every miner."""
    with open(os.path.join(CONFIGS, f"{name}.yaml")) as fh:
        data = yaml.safe_load(fh)
    if mechanism is not None:
        data["mechanism"] = mechanism
    if demand is not None:
        data["demand"] = demand
    data["platform"].update(platform)
    for miner in data["miners"]:
        if capacity_A is not None:
            miner["capacity_A"] = capacity_A
        if r is not None:
            miner["cost"]["r"] = r
    return data


UNIFORM = {"family": "uniform", "lo": 300.0, "hi": 900.0}

# the configs EXIT_CODES runs, by name
EXIT_CODE_CONFIGS = {
    **{c: _test_copy(c) for c in ("simulate-ledger", "myopic-game", "verify-audit")},
    **{f"pps-{c}": _test_copy(c, mechanism="pps")
       for c in ("simulate-ledger", "myopic-game", "verify-audit")},
    # payout ratios near the top of the float range: their sum (1e-306) or
    # their squared deviations (1e-300) overflow, and at 3e-307 a subsidised
    # round's ratio itself does (rejected in settle)
    **{f"p{p!r}": _test_copy("verify-audit", p=p) for p in (1e-300, 1e-306, 3e-307)},
    # M * p = 1e-310 * 1e-20 underflows to 0: rejected when parsed
    "underflow": _test_copy("verify-audit", p=1e-20,
                            demand={"family": "constant", "M": 1e-310}),
    # b / p = 1e300 / 1e-20 overflows: rejected when parsed
    "overflow": _test_copy("verify-audit", mechanism="pps", p=1e-20, b=1e300),
    # capacities near the float range: 9 * N * k * A, which bounds the exact
    # ppss payoff's shapes, overflows and is rejected when parsed, at N = 10
    # (where the window threshold lambda * A * k * N overflows too) and at
    # N = 1 (where only the output's 9 * (k * A + 1) does)
    "huge-supply": _test_copy("verify-audit", capacity_A=5e305),
    "huge-supply-n1": _test_copy("verify-audit", capacity_A=5e305, N=1),
    # output shapes of 1e302 stay within that bound: the exact ppss payoff
    # must stay finite there
    "huge-shape": _test_copy("verify-audit", capacity_A=1e300),
    # at a small lambda the window threshold lambda * A * k * N = 1e306 is
    # finite, but the warm window's shape (N - 1) * k * A is not: rejected
    # when parsed
    "small-lambda": {
        "mechanism": "ppss",
        "platform": {"p": 1.0, "b": 1.0, "k": 1.0, "lambda": 0.001, "N": 1000},
        "miners": [{"capacity_A": 1e306, "cost": {"family": "linear", "r": 1.5}}],
        "demand": {"family": "constant", "M": 6e306},
        "rounds": 10,
    },
    # pps configs whose cost overflows, rejected when parsed since verify
    # runs the ppss audits and summary.csv reads C(a): c~/k = 1e307 / 0.001,
    # and C(4) = 4**600
    "pps-subsidy-numerator": _test_copy("verify-audit", mechanism="pps", k=0.001, r=1e307),
    "pps-cost-at-capacity": {
        "mechanism": "pps",
        "platform": {"p": 1.0, "b": 1.0, "k": 2.0},
        "miners": [{"capacity_A": 4.0, "cost": {"family": "power", "c": 1.0, "q": 600.0}}],
        "demand": {"family": "constant", "M": 20.0},
        "rounds": 10,
    },
    # a pps total shape of 1e306, where scipy's incomplete gamma functions
    # are NaN: the payoff takes min(s, M) there
    "pps-huge-shape": {
        "mechanism": "pps",
        "platform": {"p": 1.0, "b": 1.0, "k": 1.0, "N": 1},
        "miners": [{"capacity_A": 1e306, "cost": {"family": "linear", "r": 0.5}}],
        "demand": {"family": "constant", "M": 5e305},
        "rounds": 10,
    },
    # T3's power costs c * a**2 at a = 1e200, finite where a**2 is not
    "huge-t3": _test_copy("verify-audit", capacity_A=1e200),
    # output shapes of 1e37, where whether the subsidy fires at a = lambda * A
    # is a matter of rounding: T5's grid leaves it out
    "huge-t5": _test_copy("verify-audit", capacity_A=1e35,
                          demand={"family": "constant", "M": 6e37}),
    # a power cost's marginal c * q * a**(q - 1) = 3e20 at capacity, finite
    # where a**(q - 1) is not
    "huge-marginal": {
        "mechanism": "pps",
        "platform": {"p": 1.0, "b": 1.0, "k": 1.0},
        "miners": [{"capacity_A": 1e160, "cost": {"family": "power", "c": 1e-300, "q": 3.0}}],
        "demand": {"family": "constant", "M": 1e200},
        "rounds": 10,
    },
    # the subsidy numerator is always clamped; turning it off is refused
    "unclamped": _test_copy("verify-audit", subsidy_clamp_nonneg=False),
    # the ppss payoff under a random demand: one outer rule per demand node
    "uniform-verify-audit": _test_copy("verify-audit", demand=UNIFORM),
    # a myopic_br miner under a moving demand re-solves its best response
    # every round
    "uniform-myopic-game": _test_copy("myopic-game", demand=UNIFORM),
}

# exit code, command, config and the command's other arguments: each run
# exits with the code README documents for it
EXIT_CODES = """
0 simulate simulate-ledger
0 simulate myopic-game
0 verify verify-audit
0 simulate pps-simulate-ledger
0 simulate pps-myopic-game
0 simulate uniform-myopic-game
0 verify pps-verify-audit
0 simulate p1e-300
0 verify p1e-300
0 simulate p1e-306
0 verify p1e-306
0 best-response verify-audit --miner 0 --grid 16 --objective payoff
0 best-response pps-verify-audit --miner 0 --grid 16 --objective payoff
0 best-response uniform-verify-audit --miner 0 --grid 16 --objective payoff
0 best-response huge-shape --miner 0 --grid 16 --objective payoff
0 sweep verify-audit --axis platform.lambda=0.7:0.9:3
2 sweep verify-audit --axis miners.\u00b2.capacity_A=1:2:2
2 verify underflow
2 simulate underflow
2 simulate overflow
2 verify overflow
2 simulate p3e-307
2 verify p3e-307
2 sweep verify-audit --axis platform.k=100:100:1 --axis platform.k=1:1:1
2 sweep verify-audit --axis seed=1:2:2 --seed 5
2 sweep verify-audit --axis platform.lambda=inf:0.9:2
2 sweep verify-audit --axis platform.lambda=1e308:-1e308:3
2 simulate huge-supply
2 verify huge-supply
2 verify huge-supply-n1
2 best-response small-lambda --miner 0 --grid 16 --objective payoff
2 simulate pps-subsidy-numerator
2 verify pps-subsidy-numerator
2 simulate pps-cost-at-capacity
2 verify pps-cost-at-capacity
0 best-response pps-huge-shape --miner 0 --grid 4 --objective payoff
0 verify huge-t3 --theorems T3
0 verify huge-t5 --theorems T5
0 simulate huge-marginal
0 verify huge-marginal
2 simulate unclamped
""".strip().splitlines()


@pytest.mark.parametrize("row", EXIT_CODES, ids=[row.replace(" ", "_") for row in EXIT_CODES])
def test_documented_exit_code(row, tmp_path):
    want, command, config, *extra = row.split()
    path = tmp_path / f"{config}.yaml"
    path.write_text(yaml.safe_dump(EXIT_CODE_CONFIGS[config]))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *extra]) == int(want)
    if config == "pps-huge-shape":
        assert "nan" not in (out / "br_curve.csv").read_text().lower()


class TestVerify:
    def test_report_schema_and_exit(self, config_path, tmp_out):
        code = main([
            "verify", "--config", config_path(), "--out", tmp_out,
            "--theorems", "T1",
        ])
        assert code == 0
        header, rows = read_csv(os.path.join(tmp_out, "theorem_report.csv"))
        assert header == ["theorem", "claim", "config_digest", "verdict", "metric",
                          "bound", "ci"]
        assert len(rows) == 1
        assert rows[0][0] == "T1"
        assert rows[0][3] == "PASS"

    def test_retired_replicas_line_leaves_report_unchanged(self, tmp_path):
        # configs that differ only in the retired key share a digest
        config = VERIFY_AUDIT
        with open(config) as fh:
            text = fh.read()
        assert "\nreplicas: 512\n" in text
        without = tmp_path / "without.yaml"
        without.write_text(text.replace("\nreplicas: 512\n", "\n"))
        reports = []
        for path in (config, str(without)):
            out = tmp_path / f"out-{len(reports)}"
            assert main(["verify", "--config", path, "--out", str(out)]) == 0
            reports.append((out / "theorem_report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_fail_verdict_exits_3(self, config_path, tmp_out, monkeypatch):
        row = {"theorem": "T1", "claim": "c", "config_digest": "d", "verdict": "FAIL",
               "metric": 2.0, "bound": 1.0, "ci": 0.0}
        monkeypatch.setattr(cli, "run_audits", lambda cfg, theorems: [row])
        code = main(["verify", "--config", config_path(), "--out", tmp_out, "--theorems", "T1"])
        assert code == cli.EXIT_AUDIT_FAIL == 3
        _, rows = read_csv(os.path.join(tmp_out, "theorem_report.csv"))
        assert rows[0][3] == "FAIL"

    def test_t3_without_a_flip_writes_nan_and_exits_3(self, tmp_out, capsys, monkeypatch):
        # T3's metric is the cost scale where the verdict flips: with no
        # flip it has none
        monkeypatch.setattr(theorems, "incentive_verdict", lambda *args: {"passed": True})
        argv = ["verify", "--config", VERIFY_AUDIT, "--out", tmp_out, "--theorems", "T3"]
        assert main(argv) == cli.EXIT_AUDIT_FAIL
        assert "T3: FAIL (metric=nan, bound=1)" in capsys.readouterr().out
        _, rows = read_csv(os.path.join(tmp_out, "theorem_report.csv"))
        assert (rows[0][0], rows[0][3], rows[0][4]) == ("T3", "FAIL", "nan")

    @pytest.mark.parametrize("names", [",", " , ", ""])
    def test_theorems_naming_none_exits_2(self, config_path, tmp_out, capsys, names):
        assert main([
            "verify", "--config", config_path(), "--out", tmp_out, "--theorems", names,
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(tmp_out, "theorem_report.csv"))

    @pytest.mark.parametrize("names", ["T1,T1", "t6,T6"])
    def test_theorem_named_twice_exits_2(self, config_path, tmp_out, capsys, names):
        # one row per audit: a repeat would play and report its audit twice
        assert main([
            "verify", "--config", config_path(), "--out", tmp_out, "--theorems", names,
        ]) == 2
        assert "named more than once" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []

    def test_t1_and_t6_rows_do_not_depend_on_the_selection(self, tmp_path):
        # the full report shares one played game between T1 and T6; each
        # alone plays its own
        config = VERIFY_AUDIT
        reports = {}
        for selection in (None, "T1", "T6"):
            out = tmp_path / str(selection)
            argv = ["verify", "--config", config, "--out", str(out), "--seed", "1"]
            assert main(argv + (["--theorems", selection] if selection else [])) == 0
            reports[selection] = read_csv(str(out / "theorem_report.csv"))
        header, full = reports[None]
        for t in ("T1", "T6"):
            assert reports[t] == (header, [row for row in full if row[0] == t])

    def test_t1_fails_when_pps_overpays(self, tmp_path, monkeypatch):
        # T1's metric is the analytic ratio, which no payment can move; its
        # verdict also reads what pps_reward paid
        def overpaying(*args):
            return 1.001 * pps_reward(*args)

        rows = {}
        for label in ("exact", "overpaying"):
            if label == "overpaying":
                monkeypatch.setattr(engine, "pps_reward", overpaying)
            out = tmp_path / label
            argv = ["verify", "--config", VERIFY_AUDIT, "--out", str(out), "--theorems", "T1"]
            assert main(argv) == (0 if label == "exact" else cli.EXIT_AUDIT_FAIL)
            rows[label] = read_csv(str(out / "theorem_report.csv"))[1][0]
        assert [rows[label][3] for label in rows] == ["PASS", "FAIL"]
        assert rows["exact"][4] == rows["overpaying"][4]

    def test_unknown_theorem_exits_2(self, config_path, tmp_out):
        assert main([
            "verify", "--config", config_path(), "--out", tmp_out, "--theorems", "T9",
        ]) == 2


class TestTinyPrice:
    """A price p near the bottom of the float range makes the per-round
    payout ratios, about 17.4/p on verify-audit.yaml, finite but huge: at
    p = 1e-306 their sum overflows, and at p = 1e-300 their squared
    deviations do. Means and CIs stay finite and scale as 1/p."""

    def _run(self, command, p, tmp_path, *extra):
        with open(VERIFY_AUDIT) as fh:
            data = yaml.safe_load(fh)
        data["platform"]["p"] = p
        path = tmp_path / f"p{p}.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / f"{command}-{p}"
        return main([command, "--config", str(path), "--out", str(out), *extra]), out

    @pytest.mark.parametrize("p", [1e-300, 1e-306])
    def test_simulate_mean_ratio(self, p, tmp_path):
        code, out = self._run("simulate", p, tmp_path)
        assert code == 0
        _, rows = read_csv(str(out / "summary.csv"))
        _, ref = read_csv(str(self._run("simulate", 1.0, tmp_path)[1] / "summary.csv"))
        assert float(rows[0][4]) == pytest.approx(float(ref[0][4]) / p, rel=1e-12)

    @pytest.mark.parametrize("p", [1e-300, 1e-306])
    def test_verify_t6_mean_and_ci(self, p, tmp_path):
        code, out = self._run("verify", p, tmp_path, "--theorems", "T1,T6")
        assert code == 0
        _, rows = read_csv(str(out / "theorem_report.csv"))
        _, ref = read_csv(str(self._run("verify", 1.0, tmp_path, "--theorems", "T6")[1]
                              / "theorem_report.csv"))
        assert [r[3] for r in rows] == ["PASS", "KNOWN_DISCREPANCY"]
        for col in (4, 6):  # metric, ci
            assert float(rows[1][col]) == pytest.approx(float(ref[0][col]) / p, rel=1e-12)

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_payout_ratio_denominator_underflow_exits_2(self, command, tmp_path, capsys):
        # M * p = 1e-310 * 1e-20 underflows to 0, so every payout ratio and
        # T6's bound would divide by zero
        with open(VERIFY_AUDIT) as fh:
            data = yaml.safe_load(fh)
        data["platform"]["p"] = 1.0e-20
        data["demand"]["M"] = 1.0e-310
        path = tmp_path / "underflow.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "platform.p" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_payout_ratio_overflow_exits_2(self, command, tmp_path, capsys):
        # b / p = 1e300 / 1e-20 exceeds every float, so every pps payout
        # ratio and T1's bound would read inf
        with open(VERIFY_AUDIT) as fh:
            data = yaml.safe_load(fh)
        data["mechanism"] = "pps"
        data["platform"].update(p=1.0e-20, b=1.0e300)
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "platform.b" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_subsidised_ratio_overflow_exits_2(self, command, tmp_path, capsys):
        # b / p = 3.3e306 is finite, but a subsidised round pays up to
        # numerator/eps_k per unit: its ratio, about 17.4/p on average,
        # overflows, where at p = 1e-306 it does not
        code, out = self._run(command, 3.0e-307, tmp_path)
        assert code == 2
        assert "platform.p" in capsys.readouterr().err
        assert not out.exists()


class TestHugeSupply:
    """Capacities and costs near the float range exit 2, warning-free,
    naming the capacity where 9 * N * k * A, which bounds the exact ppss
    payoff's shapes, overflows, k where an audit's scenario demand does and
    the cost where c~/k or C(A) does, under either mechanism; below those
    bounds, the exact payoffs stay finite."""

    @staticmethod
    def _run(tmp_path, data, command, *extra):
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        out.mkdir()
        code = main([command, "--config", str(path), "--out", str(out), *extra])
        return code, sorted(os.listdir(out))

    @staticmethod
    def _audit(capacity, miners=2, **platform):
        """verify-audit.yaml with `miners` copies of its first miner at
        `capacity`."""
        with open(VERIFY_AUDIT) as fh:
            data = yaml.safe_load(fh)
        data["platform"].update(platform)
        data["miners"] = [{**data["miners"][0], "capacity_A": capacity} for _ in range(miners)]
        return data

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("capacity", [5.0e305, 1.0e308])
    def test_overflowing_window_threshold_exits_2(self, command, capacity, tmp_path, capsys):
        # 9 * N * k * A = 9 * 10 * 100 * 5e305 = 4.5e309; at 1e308, k * A
        # alone overflows
        assert self._run(tmp_path, self._audit(capacity), command) == (2, [])
        assert "'miners[0].capacity_A'" in capsys.readouterr().err

    def test_overflowing_scenario_demand_exits_2(self, tmp_path, capsys):
        # at N = 1 each bound 9 * N * k * A, 9e307, and the supply, 8e307,
        # are finite, but T2's constant demand 3 * k * sum(A) is not
        data = self._audit(1.0e305, miners=8, N=1)
        assert self._run(tmp_path, data, "verify") == (2, [])
        assert "'platform.k': 3 * k * sum(capacity_A)" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ()), ("verify", ()), ("verify", ("--theorems", "T5")),
    ], ids=["simulate", "verify", "verify-T5"])
    @pytest.mark.parametrize("k, miners", [
        # c~/k = 1e307 / 0.001 overflows, C(A) = 1e307 * 1 does not
        (0.001, [{"capacity_A": 1.0, "cost": {"family": "linear", "r": 1.0e307}}] * 2),
        # C(4) = 4**600 overflows, and so does C'(4)
        (2.0, [{"capacity_A": 4.0, "cost": {"family": "power", "c": 1.0, "q": 600.0}}]),
    ], ids=["subsidy-numerator", "cost-at-capacity"])
    def test_pps_overflowing_cost_exits_2(self, command, extra, k, miners, tmp_path, capsys):
        # verify runs the ppss audits on a pps config too, and simulate's
        # summary reads C(a)
        data = {**self._audit(1.0, k=k), "mechanism": "pps", "miners": miners}
        assert self._run(tmp_path, data, command, *extra) == (2, [])
        assert "'miners[0].cost'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_marginal_cost_finite_where_a_power_overflows(self, command, mechanism, tmp_path):
        # c~ = 3 * 1e-300 * (1e160)**2 = 3e20 and C(A) = 1e180 are finite,
        # (1e160)**2 is not
        data = {
            "mechanism": mechanism,
            "platform": {"p": 1.0, "b": 1.0, "k": 1.0},
            "miners": [{"capacity_A": 1.0e160,
                        "cost": {"family": "power", "c": 1.0e-300, "q": 3.0}}],
            "demand": {"family": "constant", "M": 1.0e200},
            "rounds": 10,
        }
        assert self._run(tmp_path, data, command)[0] == 0

    def test_pps_payoff_is_finite_at_huge_shapes(self, tmp_path, capsys):
        # total shapes k * sum(a) from about 3e305 make scipy's incomplete
        # gamma functions NaN; E[min(|D|, M)] is min(s, M) there
        data = {
            "mechanism": "pps",
            "platform": {"p": 1.0, "b": 1.0, "k": 1.0, "N": 1},
            "miners": [{"capacity_A": 1.0e306, "cost": {"family": "linear", "r": 0.5}}],
            "demand": {"family": "constant", "M": 5.0e305},
            "rounds": 10,
        }
        extra = ("--miner", "0", "--grid", "4", "--objective", "payoff")
        assert self._run(tmp_path, data, "best-response", *extra) == (0, ["br_curve.csv"])
        assert "nan" not in (tmp_path / "out" / "br_curve.csv").read_text().lower()
        assert "nan" not in capsys.readouterr().out
        shutil.rmtree(tmp_path / "out")
        assert self._run(tmp_path, data, "verify", "--theorems", "T2") == (0, ["theorem_report.csv"])
        assert "T2: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra", [
        ("best-response", ("--miner", "0", "--grid", "16", "--objective", "payoff")),
        ("verify", ("--theorems", "T5")),
    ], ids=["best-response", "verify-T5"])
    def test_overflowing_warm_window_shape_exits_2(self, command, extra, tmp_path, capsys):
        # at lambda = 0.001 the window threshold lambda * A * k * N = 1e306
        # is finite, but the warm window's shape (N - 1) * k * A is not
        data = {
            "mechanism": "ppss",
            "platform": {"p": 1.0, "b": 1.0, "k": 1.0, "lambda": 0.001, "N": 1000},
            "miners": [{"capacity_A": 1.0e306, "cost": {"family": "linear", "r": 1.5}}],
            "demand": {"family": "constant", "M": 6.0e306},
            "rounds": 10,
        }
        assert self._run(tmp_path, data, command, *extra) == (2, [])
        assert "'miners[0].capacity_A'" in capsys.readouterr().err

    def test_exact_payoff_is_finite_at_huge_shapes(self, tmp_path, capsys):
        # output shapes k * a + 1 up to 1e302: the quadrature weight keeps
        # its accuracy (it overflowed to inf from about 1e40)
        data = self._audit(1.0e300)
        extra = ("--miner", "0", "--grid", "16", "--objective", "payoff")
        assert self._run(tmp_path, data, "best-response", *extra) == (0, ["br_curve.csv"])
        header, rows = read_csv(str(tmp_path / "out" / "br_curve.csv"))
        assert len(rows) == 16
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert "value=inf" not in capsys.readouterr().out


class TestBestResponse:
    def test_curve_and_argmax(self, config_path, tmp_out, capsys):
        data = dict(BASE_CONFIG)
        data["miners"] = [{"capacity_A": 4.0, "cost": {"family": "linear", "r": 3.0}}]
        code = main([
            "best-response", "--config", config_path(data), "--out", tmp_out,
            "--miner", "0", "--grid", "17",
        ])
        assert code == 0
        header, rows = read_csv(os.path.join(tmp_out, "br_curve.csv"))
        assert header == ["a", "payoff_mean"]
        assert len(rows) == 17
        out = capsys.readouterr().out
        assert "argmax" in out
        # r=3 > b*k=2: staying out is optimal
        argmax = float(out.split("a=")[1].split()[0])
        assert argmax <= 2 * (4.0 / 16)

    def test_pps_curve_is_exact(self, config_path, tmp_path, capsys):
        # the pps payoff is exact: the seed does not enter
        curves = []
        for seed in ("0", "5"):
            out = tmp_path / f"out-{seed}"
            out.mkdir()
            assert main([
                "best-response", "--config", config_path(), "--out", str(out),
                "--miner", "0", "--grid", "9", "--seed", seed,
            ]) == 0
            assert "method=closed_form" in capsys.readouterr().out
            curves.append((out / "br_curve.csv").read_bytes())
        assert curves[0] == curves[1]
        header, rows = read_csv(str(tmp_path / "out-0" / "br_curve.csv"))
        assert header == ["a", "payoff_mean"] and {len(row) for row in rows} == {2}

    def test_ppss_payoff_curve_is_exact(self, config_path, tmp_path, capsys):
        # the ppss payoff is exact too: the seed does not enter
        curves = []
        for seed in ("0", "5"):
            out = tmp_path / f"out-{seed}"
            out.mkdir()
            assert main([
                "best-response", "--config", config_path(PPSS_CONFIG), "--out", str(out),
                "--miner", "0", "--grid", "9", "--seed", seed, "--objective", "payoff",
            ]) == 0
            assert "method=quadrature" in capsys.readouterr().out
            curves.append((out / "br_curve.csv").read_bytes())
        assert curves[0] == curves[1]
        header, rows = read_csv(str(tmp_path / "out-0" / "br_curve.csv"))
        assert header == ["a", "payoff_mean"] and {len(row) for row in rows} == {2}

    def test_overflowing_demand_quantile_exits_2(self, config_path, tmp_out, capsys):
        # the mean exp(695 + 12.5) is finite, but about 0.15% of the demand
        # quantiles overflow, so every command rejects the config before it
        # draws anything
        data = dict(PPSS_CONFIG, demand={"family": "lognormal", "mu": 695.0, "sigma": 5.0},
                    rounds=3000)
        path = config_path(data)
        for argv in (
            ["simulate"], ["verify"],
            ["best-response", "--miner", "0", "--grid", "2", "--objective", "payoff"],
        ):
            assert main([*argv, "--config", path, "--out", tmp_out]) == 2
            assert "demand" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []

    def test_grid_below_two_exits_2(self, config_path, tmp_out, capsys):
        assert main([
            "best-response", "--config", config_path(), "--out", tmp_out,
            "--miner", "0", "--grid", "1",
        ]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_huge_grid_exits_2(self, config_path, tmp_out, capsys):
        assert main([
            "best-response", "--config", config_path(), "--out", tmp_out,
            "--miner", "0", "--grid", str(10**12),
        ]) == 2
        assert "--grid" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []

    def test_miner_index_out_of_range_exits_2(self, config_path, tmp_out):
        assert main([
            "best-response", "--config", config_path(), "--out", tmp_out,
            "--miner", "5",
        ]) == 2


class TestSweep:
    def test_empty_axis_exits_2(self, config_path, tmp_out):
        assert main(["sweep", "--config", config_path(), "--out", tmp_out]) == 2

    def test_unknown_axis_field_exits_2(self, config_path, tmp_out):
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", "platform.fee=0:1:3",
        ]) == 2

    @pytest.mark.parametrize("index", ["\u00b2", "\u0660"], ids=["superscript-2", "arabic-indic-0"])
    def test_non_ascii_decimal_list_index_exits_2(self, index, config_path, tmp_out, capsys):
        # str.isdigit accepts both; int() raises on the first and reads the
        # second as 0
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", f"miners.{index}.capacity_A=1:2:2",
        ]) == 2
        assert "unknown axis field" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []

    def test_bad_override_exits_2(self, config_path, tmp_out):
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", "platform.k=1:2:2", "--seed", "-1",
        ]) == 2

    @pytest.mark.parametrize("command", [
        ["simulate"], ["sweep", "--axis", "platform.k=1:2:2"], ["verify"],
        ["best-response", "--miner", "0"],
    ], ids=["simulate", "sweep", "verify", "best-response"])
    def test_replicas_flag_is_a_usage_error(self, command, config_path, tmp_out, capsys):
        # no command reads replicas, so none takes the flag
        with pytest.raises(SystemExit) as e:
            main([*command, "--config", config_path(), "--out", tmp_out, "--replicas", "1"])
        assert e.value.code == 2
        assert "unrecognized arguments: --replicas 1" in capsys.readouterr().err

    def test_malformed_axis_exits_2(self, config_path, tmp_out):
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", "platform.k=bad",
        ]) == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_axis_count_below_one_exits_2(self, count, config_path, tmp_out, capsys):
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", f"miners.0.cost.r=1:3:{count}",
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(tmp_out, "sweep.csv"))

    def test_huge_axis_count_exits_2(self, config_path, tmp_out, capsys):
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", f"platform.k=1:2:{10**12}",
        ]) == 2
        assert "axis count" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []

    @pytest.mark.parametrize("axis", [
        "platform.lambda=inf:0.9:2",
        "platform.lambda=0.7:nan:2",
        "platform.lambda=1e308:-1e308:3",  # hi - lo overflows
    ])
    def test_non_finite_axis_exits_2(self, axis, tmp_out, capsys):
        code = main(["sweep", "--config", VERIFY_AUDIT, "--out", tmp_out, "--axis", axis])
        assert code == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and repr(axis) in err
        assert os.listdir(tmp_out) == []

    def test_axis_spanning_the_float_range_is_warning_free(self, tmp_out, capsys):
        # hi - lo is finite, but linspace's last step can round past it
        # before that point is set to hi; the first cell's lambda = 0 exits 2
        axis = f"platform.lambda=0:{sys.float_info.max!r}:4"
        code = main(["sweep", "--config", VERIFY_AUDIT, "--out", tmp_out, "--axis", axis])
        assert code == 2
        assert "lambda must lie in (0, 1)" in capsys.readouterr().err

    def test_supply_shortfall_warns_once(self, config_path, tmp_out, capsys):
        # every cell's mu_F = 150 lies below the full supply 200, with the
        # same warning
        with open(VERIFY_AUDIT) as fh:
            data = dict(yaml.safe_load(fh), rounds=20, demand={"family": "constant", "M": 150.0})
        assert main([
            "sweep", "--config", config_path(data), "--out", tmp_out,
            "--axis", "platform.lambda=0.7:0.9:3",
        ]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "mu_F=150 is below full supply k*sum(A)=200" in err

    def test_single_axis_sweep(self, config_path, tmp_out):
        data = dict(BASE_CONFIG, rounds=20)
        code = main([
            "sweep", "--config", config_path(data), "--out", tmp_out,
            "--axis", "platform.k=1:3:3",
        ])
        assert code == 0
        header, rows = read_csv(os.path.join(tmp_out, "sweep.csv"))
        assert header == [
            "platform.k",
            "ocdic_pass_1", "argmax_1", "ocdic_pass_2", "argmax_2",
            "mean_budget_ratio",
        ]
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_sweep_does_not_depend_on_replicas(self, mechanism, config_path, tmp_path):
        # the retired key is dropped unread, whatever its value
        sweeps = []
        for replicas in (None, 1, 9000):
            data = dict(PPSS_CONFIG, mechanism=mechanism)
            if replicas is not None:
                data["replicas"] = replicas
            path = config_path(data, name=f"exp-{replicas}.yaml")
            out = tmp_path / f"out-{replicas}"
            out.mkdir()
            assert main([
                "sweep", "--config", path, "--out", str(out),
                "--axis", "platform.lambda=0.7:0.9:3",
            ]) == 0
            sweeps.append((out / "sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1] == sweeps[2]

    @pytest.mark.parametrize("data, field, grid", [
        (PPSS_CONFIG, "lambda", "0.7:0.9:3"), (BASE_CONFIG, "k", "1:3:3"),
    ], ids=["ppss", "pps"])
    def test_cell_ratio_equals_simulate(self, data, field, grid, config_path, tmp_path):
        # each cell's mean_budget_ratio is the text simulate writes into
        # summary.csv for that cell's config, at the same seed
        sweep_out = tmp_path / "sweep"
        sweep_out.mkdir()
        assert main([
            "sweep", "--config", config_path(data), "--out", str(sweep_out),
            "--axis", f"platform.{field}={grid}",
        ]) == 0
        _, rows = read_csv(sweep_out / "sweep.csv")
        assert len(rows) == 3
        for n, row in enumerate(rows):
            cell = {**data, "platform": {**data["platform"], field: float(row[0])}}
            out = tmp_path / f"cell-{n}"
            out.mkdir()
            assert main(["simulate", "--config", config_path(cell, name=f"cell-{n}.yaml"),
                         "--out", str(out)]) == 0
            _, summary = read_csv(out / "summary.csv")
            assert {r[-1] for r in summary} == {row[-1]}

    @pytest.mark.parametrize("first, second", [
        ("platform.k=100:100:1", "platform.k=1:1:1"),
        # one list index, written two ways
        ("miners.0.cost.r=1:1:1", "miners.00.cost.r=2:2:1"),
        # a field inside an earlier axis's field, and the other way round
        ("miners.0=1:1:1", "miners.0.cost.r=2:2:1"),
        ("miners.0.cost.r=1:1:1", "miners.0.cost=2:2:1"),
    ])
    def test_overlapping_axis_fields_exit_2(self, first, second, config_path, tmp_out, capsys):
        # the later axis would overwrite the earlier one's values in every
        # cell, so sweep.csv would report values that never ran
        assert main([
            "sweep", "--config", config_path(), "--out", tmp_out,
            "--axis", first, "--axis", second,
        ]) == 2
        assert f"overlapping axis field {second.split('=')[0]!r}" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []

    def test_seed_axis_under_seed_flag_exits_2(self, config_path, tmp_out, capsys):
        # --seed sets every cell's seed, so the rows would carry axis values
        # that never ran
        argv = ["sweep", "--config", config_path(), "--out", tmp_out, "--axis", "seed=1:2:2"]
        assert main([*argv, "--seed", "5"]) == 2
        assert "overlapping axis field 'seed'" in capsys.readouterr().err
        assert os.listdir(tmp_out) == []
        assert main(argv) == 0
        _, rows = read_csv(os.path.join(tmp_out, "sweep.csv"))
        assert [row[0] for row in rows] == ["1", "2"]

    def test_miner_axis_path(self, config_path, tmp_out):
        data = dict(BASE_CONFIG, rounds=20)
        data["miners"] = [{"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}}]
        code = main([
            "sweep", "--config", config_path(data), "--out", tmp_out,
            "--axis", "miners.0.cost.r=1:3:2",
        ])
        assert code == 0
        _, rows = read_csv(os.path.join(tmp_out, "sweep.csv"))
        assert len(rows) == 2


class TestParser:
    """main parses a named command with that command's parser alone; every
    namespace it dispatches, and every help and usage error, with its exit
    code, is the whole parser's."""

    COMMANDS = {
        "simulate": ["--config", "--out", "--seed"],
        "verify": ["--config", "--out", "--seed", "--theorems"],
        "best-response": ["--config", "--out", "--seed", "--miner", "--grid", "--objective"],
        "sweep": ["--config", "--out", "--seed", "--axis"],
        "fig1": ["--out"],
    }
    # the required arguments of each command: argv that parses
    VALID = {
        "simulate": ["--config", "c.yaml", "--out", "o"],
        "verify": ["--config", "c.yaml", "--out", "o"],
        "best-response": ["--config", "c.yaml", "--out", "o", "--miner", "0"],
        "sweep": ["--config", "c.yaml", "--out", "o"],
        "fig1": ["--out", "o"],
    }

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.fixture(autouse=True)
    def dispatch_namespace(self, monkeypatch):
        """Each command runs as vars, so main returns the namespace it
        dispatches instead of running the command."""
        for name, (help_text, add_arguments, _) in cli.COMMANDS.items():
            monkeypatch.setitem(cli.COMMANDS, name, (help_text, add_arguments, vars))

    @staticmethod
    def outcome(call, capsys):
        """(what call returns, or its exit code, stdout, stderr)."""
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
        return (result, *capsys.readouterr())

    def same_as_whole_parser(self, argv, capsys):
        ours = self.outcome(lambda: main(argv), capsys)
        assert ours == self.outcome(lambda: vars(cli.build_parser().parse_args(argv)), capsys)
        return ours

    @pytest.mark.parametrize("command", list(VALID))
    @pytest.mark.parametrize("case", [
        "valid", "abbreviated", "seed=5", "seed abc", "help after unknown",
        "leftover", "dashes then token", "trailing dashes", "negative seed",
    ])
    def test_same_outcome_as_whole_parser(self, command, case, capsys):
        valid = self.VALID[command]
        argv = [command, *{
            "valid": valid,
            # --config -> --conf, --out -> --o (ambiguous in best-response)
            "abbreviated": [w[:-2] if w.startswith("--") else w for w in valid],
            "seed=5": [*valid, "--seed=5"],
            "seed abc": [*valid, "--seed", "abc"],
            "help after unknown": ["--bogus", "-h"],
            "leftover": [*valid, "extra"],
            "dashes then token": [*valid, "--", "extra"],
            "trailing dashes": [*valid, "--"],
            "negative seed": [*valid, "--seed", "-5"],
        }[case]]
        result, _, err = self.same_as_whole_parser(argv, capsys)
        if case == "valid":
            assert result["command"] == command and err == ""

    WORDS = ["--config", "--conf", "--out", "--o", "--seed", "--seed=5", "-5", "abc", "c.yaml",
             "--", "-h", "--miner", "0", "--grid", "--objective", "payoff", "--axis",
             "k=1:2:2", "--theorems", "T1", "--bogus", "-x", "simulate", "fig1"]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from([*VALID, "bogus"]),
           words=st.lists(st.sampled_from(WORDS), max_size=8))
    def test_any_words_same_outcome_as_whole_parser(self, command, words, capsys):
        self.same_as_whole_parser([command, *words], capsys)

    @pytest.mark.parametrize("command", list(VALID))
    def test_valid_argv_never_builds_the_whole_parser(self, command, monkeypatch):
        def whole_parser():
            raise AssertionError("main built the whole parser")

        monkeypatch.setattr(cli, "build_parser", whole_parser)
        args = main([command, *self.VALID[command]])
        assert (args["command"], args["out"]) == (command, "o")

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = self.same_as_whole_parser(["--help"], capsys)
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
        assert listed == list(self.COMMANDS) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_lists_its_options(self, command, capsys):
        code, out, _ = self.same_as_whole_parser([command, "--help"], capsys)
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  -")]
        assert listed == ["-h,", *self.COMMANDS[command]]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_missing_out_exits_2(self, command, capsys):
        argv = [command] if command == "fig1" else [command, "--config", "exp.yaml"]
        code, _, err = self.same_as_whole_parser(argv, capsys)
        assert code == 2
        assert "the following arguments are required: --out" in err

    @pytest.mark.parametrize("argv, missing", [
        (["verify", "--out", "o"], "--config"),
        (["best-response", "--config", "c.yaml", "--out", "o"], "--miner"),
    ], ids=["verify", "best-response"])
    def test_missing_required_argument_exits_2(self, argv, missing, capsys):
        code, _, err = self.same_as_whole_parser(argv, capsys)
        assert code == 2
        assert f"the following arguments are required: {missing}" in err

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--out", "x"], ["simulate", "verify"]])
    def test_usage_errors(self, argv, capsys):
        code, _, err = self.same_as_whole_parser(argv, capsys)
        assert code == 2 and err.startswith("usage: poolsim")


class TestFig1:
    def test_curve_endpoints_and_monotonicity(self, tmp_out):
        assert main(["fig1", "--out", tmp_out]) == 0
        header, rows = read_csv(os.path.join(tmp_out, "fig1.csv"))
        assert header == ["A", "K"]
        assert len(rows) == 301
        ks = [float(r[1]) for r in rows]
        assert abs(float(rows[0][0]) - 20.0) <= 1e-12
        assert abs(float(rows[-1][0]) - 50.0) <= 1e-12
        assert abs(ks[0] - 0.64543) <= 1e-5
        assert abs(ks[0] - 0.6454298932405316) <= 1e-6
        assert abs(ks[-1] - 0.9927049442755639) <= 1e-6
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_svg_emitted(self, tmp_out):
        main(["fig1", "--out", tmp_out])
        svg = read_bytes(os.path.join(tmp_out, "fig1.svg")).decode()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert svg.rstrip().endswith("</svg>")


def _run_python(*args):
    """Run python with args in a fresh interpreter that imports poolsim from
    src, warnings as errors."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True)


def test_module_entry_point():
    # python -m poolsim.cli exits with main's code
    run = _run_python("-m", "poolsim.cli", "--help")
    assert run.returncode == 0, run.stderr
    run = _run_python("-m", "poolsim.cli", "simulate", "--config", "exp.yaml")
    assert run.returncode == 2
    assert "the following arguments are required: --out" in run.stderr


def test_simulate_runs_without_scipy(config_path, tmp_out):
    # scipy.special is imported only by the functions that call it; a
    # static ppss run under uniform demand calls none of them
    cfg = dict(BASE_CONFIG, mechanism="ppss",
               demand={"family": "uniform", "lo": 10.0, "hi": 30.0}, rounds=50)
    script = (
        "import sys\n"
        "from poolsim.cli import main\n"
        f"assert main(['simulate', '--config', {config_path(cfg)!r}, '--out', {tmp_out!r}]) == 0\n"
        "sys.exit('scipy.special' in sys.modules)\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr
    assert os.path.exists(os.path.join(tmp_out, "ledger.csv"))


def test_import_leaves_numpy_random_unloaded():
    # substream loads numpy.random on the first stream; importing the CLI
    # draws none, so it must not pay for that import
    script = "import sys\nimport poolsim.cli\nsys.exit('numpy.random' in sys.modules)\n"
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr or "import poolsim.cli loaded numpy.random"
