"""Command line surface: subcommands, schemas, exit codes, determinism."""
import csv
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from poolsim import cli, engine
from poolsim.cli import main
from poolsim.csvio import fmt
from poolsim.engine import run_simulation
from poolsim.mechanisms import pps_reward

from conftest import quiet_parse, small_configs

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

VERIFY_AUDIT = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "workloads", "verify-audit.yaml")


@pytest.fixture
def config_path(tmp_path):
    def write(data=None, name="exp.yaml"):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(data if data is not None else BASE_CONFIG))
        return str(path)

    return write


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
            a = open(os.path.join(tmp_out, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
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
        ledger = run_simulation(quiet_parse(data))
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
        a = open(os.path.join(tmp_out, "ledger.csv"), "rb").read()
        b = open(os.path.join(out2, "ledger.csv"), "rb").read()
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

    @pytest.mark.parametrize("names", [",", " , ", ""])
    def test_theorems_naming_none_exits_2(self, config_path, tmp_out, capsys, names):
        assert main([
            "verify", "--config", config_path(), "--out", tmp_out, "--theorems", names,
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(tmp_out, "theorem_report.csv"))

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(path), "--out", str(out), *extra])
        return code, out

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
        svg = open(os.path.join(tmp_out, "fig1.svg")).read()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert svg.rstrip().endswith("</svg>")


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
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert os.path.exists(os.path.join(tmp_out, "ledger.csv"))
