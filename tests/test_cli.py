"""Command line surface: subcommands, schemas, exit codes, determinism."""
import csv
import os
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from poolsim import cli
from poolsim.cli import main
from poolsim.csvio import fmt
from poolsim.engine import run_simulation

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
    "replicas": 2000,
    "seed": 3,
}


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


class TestVerify:
    def test_report_schema_and_exit(self, config_path, tmp_out):
        code = main([
            "verify", "--config", config_path(), "--out", tmp_out,
            "--theorems", "T1", "--replicas", "2000",
        ])
        assert code == 0
        header, rows = read_csv(os.path.join(tmp_out, "theorem_report.csv"))
        assert header == ["theorem", "claim", "config_digest", "verdict", "metric",
                          "bound", "ci"]
        assert len(rows) == 1
        assert rows[0][0] == "T1"
        assert rows[0][3] == "PASS"

    def test_zero_replicas_override_exits_2(self, config_path, tmp_out, capsys):
        assert main([
            "verify", "--config", config_path(), "--out", tmp_out,
            "--theorems", "T2", "--replicas", "0",
        ]) == 2
        assert "replicas" in capsys.readouterr().err

    def test_fail_verdict_exits_3(self, config_path, tmp_out, monkeypatch):
        row = {"theorem": "T1", "claim": "c", "config_digest": "d", "verdict": "FAIL",
               "metric": 2.0, "bound": 1.0, "ci": 0.0}
        monkeypatch.setattr(cli, "run_audits", lambda cfg, theorems: [row])
        code = main(["verify", "--config", config_path(), "--out", tmp_out, "--theorems", "T1"])
        assert code == cli.EXIT_AUDIT_FAIL == 3
        _, rows = read_csv(os.path.join(tmp_out, "theorem_report.csv"))
        assert rows[0][3] == "FAIL"

    def test_unknown_theorem_exits_2(self, config_path, tmp_out):
        assert main([
            "verify", "--config", config_path(), "--out", tmp_out, "--theorems", "T9",
        ]) == 2


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
        assert header == ["a", "payoff_mean", "ci"]
        assert len(rows) == 17
        out = capsys.readouterr().out
        assert "argmax" in out
        # r=3 > b*k=2: staying out is optimal
        argmax = float(out.split("a=")[1].split()[0])
        assert argmax <= 2 * (4.0 / 16)

    def test_grid_below_two_exits_2(self, config_path, tmp_out, capsys):
        assert main([
            "best-response", "--config", config_path(), "--out", tmp_out,
            "--miner", "0", "--grid", "1",
        ]) == 2
        assert "--grid" in capsys.readouterr().err

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
            "--axis", "platform.k=1:2:2", "--replicas", "0",
        ]) == 2

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

    def test_single_axis_sweep(self, config_path, tmp_out):
        data = dict(BASE_CONFIG, rounds=20, replicas=1000)
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

    def test_miner_axis_path(self, config_path, tmp_out):
        data = dict(BASE_CONFIG, rounds=20, replicas=1000)
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
