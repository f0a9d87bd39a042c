"""Config ingestion: strict validation, defaults, round-trip, warnings."""
import argparse
import os

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim import cli
from poolsim.config import (
    MAX_LEDGER_BYTES,
    ConfigError,
    dump_config,
    load_config,
    parse_config,
    read_yaml,
)
from poolsim.model import MAX_GRID, CostFunction

from conftest import small_configs

CONFIGS = os.path.join(os.path.dirname(__file__), "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def minimal(**overrides):
    data = {
        "mechanism": "pps",
        "platform": {"p": 1.0, "k": 2.0},
        "miners": [{"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}}],
        "demand": {"family": "constant", "M": 20.0},
    }
    data.update(overrides)
    return data


class TestDefaults:
    def test_platform_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.platform.b == cfg.platform.p  # b = p unless set
        assert cfg.platform.lam == 0.8
        assert cfg.platform.window_N == 10
        assert cfg.platform.eps_k == 1e-3

    def test_run_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.rounds == 10_000
        assert cfg.seed == 0

    def test_default_policy_is_static_at_capacity(self):
        cfg = parse_config(minimal())
        pol = cfg.policies[0]
        assert pol.kind == "static"
        assert pol.a == 4.0

    def test_profiles_enumerate_miners(self):
        data = minimal(miners=[
            {"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}},
            {"capacity_A": 2.0, "cost": {"family": "power", "c": 1.0, "q": 2.0}},
        ])
        profs = parse_config(data).profiles
        assert [p.capacity_A for p in profs] == [4.0, 2.0]
        assert profs[1].cost.family == "power"


    def test_power_cost_q_default_is_the_yaml_default(self):
        data = minimal()
        data["miners"][0]["cost"] = {"family": "power", "c": 1.0}
        parsed = parse_config(data).profiles[0].cost
        assert parsed == CostFunction(family="power", c=1.0)
        assert parsed.q == 2.0


class TestValidation:
    def test_unknown_root_field(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(bogus=1))
        assert "bogus" in str(e.value)

    def test_unknown_platform_field(self):
        data = minimal()
        data["platform"]["fee"] = 0.1
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "platform.fee" in str(e.value)

    def test_unknown_miner_field(self):
        data = minimal()
        data["miners"][0]["hashrate"] = 5
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "miners[0].hashrate" in str(e.value)

    def test_unknown_demand_field(self):
        data = minimal(demand={"family": "constant", "M": 20.0, "sigma": 1.0})
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "demand.sigma" in str(e.value)

    def test_unknown_audit_field(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(audit={"delta": 0.1}))
        assert e.value.field == "audit"

    def test_audit_bounds_ordered(self):
        # Former audit bounds are rejected with the whole block, not parsed.
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(audit={"theta": 2.0, "gamma": 1.0}))
        assert e.value.field == "audit"

    def test_audit_block_removed(self):
        for audit in ({}, {"theta": 0.0, "gamma": 1.0}, {"theta": 2.0, "gamma": 1.0},
                      {"delta": 0.1}, None):
            with pytest.raises(ConfigError) as e:
                parse_config(minimal(audit=audit))
            assert e.value.field == "audit"
            assert "removed" in str(e.value)

    def test_missing_required_field_named(self):
        data = minimal()
        del data["platform"]["k"]
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "platform.k" in str(e.value)

    def test_bad_mechanism(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(mechanism="pplns"))
        assert e.value.field == "mechanism"

    def test_empty_miners(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(miners=[]))

    def test_nonpositive_capacity(self):
        data = minimal()
        data["miners"][0]["capacity_A"] = 0.0
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "capacity_A" in str(e.value)

    def test_invalid_cost_parameter(self):
        data = minimal()
        data["miners"][0]["cost"] = {"family": "linear", "r": -1.0}
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_unknown_cost_and_policy_families(self):
        data = minimal()
        data["miners"][0]["cost"] = {"family": "cubic"}
        with pytest.raises(ConfigError):
            parse_config(data)
        data = minimal()
        data["miners"][0]["policy"] = {"kind": "random"}
        with pytest.raises(ConfigError):
            parse_config(data)
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(demand={"family": ["constant"], "M": 20.0}))
        assert "unknown demand family" in str(e.value)

    def test_bad_rounds_and_replicas(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(rounds=0))
        # replicas is retired: a value once rejected is now dropped unread
        assert parse_config(minimal(replicas=0)) == parse_config(minimal())

    def test_negative_seed(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(seed=-3))
        assert "seed" in str(e.value)

    @pytest.mark.parametrize("policy, field", [
        ({"kind": "myopic_br", "grid": 1}, "grid"),
        # the retired key is accepted only where it was a field
        ({"kind": "static", "replicas": 5}, "replicas"),
        ({"kind": "static", "a": -1.0}, "nonnegative"),
        ({"kind": "delta_adaptive", "floor": -0.5}, "floor"),
        ({"kind": "delta_adaptive", "floor": 5.0}, "floor"),
    ])
    def test_bad_policy_values(self, policy, field):
        data = minimal()
        data["miners"][0]["policy"] = policy
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "policy" in str(e.value) and field in str(e.value)

    def test_number_type_checked(self):
        data = minimal()
        data["platform"]["p"] = "one"
        with pytest.raises(ConfigError):
            parse_config(data)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("path", [
        ("rounds",), ("miners", 0, "capacity_A"), ("demand", "M"), ("platform", "k"),
    ])
    def test_non_finite_number_rejected(self, path, value):
        data = minimal()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert "finite" in str(e.value)

    @pytest.mark.parametrize("p, demand", [
        (1.0e-20, {"family": "constant", "M": 1.0e-310}),
        (1.0e-30, {"family": "uniform", "lo": 1.0e-300, "hi": 1.0e-290}),
        # p times the mean 1.7e-286 is positive, p times the smallest draw
        # 3.2e-304 is not
        (1.0e-30, {"family": "lognormal", "mu": -666.0, "sigma": 4.0}),
    ])
    def test_payout_ratio_denominator_underflow_rejected(self, p, demand):
        # every payout ratio divides by M * p: at the smallest demand draw,
        # ppf(U_MIN), it would be 0
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(platform={"p": p, "k": 2.0}, demand=demand))
        assert e.value.field == "platform.p"

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    @pytest.mark.parametrize("p, b", [(1.0e-20, 1.0e300), (1.0e-309, 1.0)])
    def test_payout_ratio_overflow_rejected(self, mechanism, p, b):
        # b / p bounds every pps payout ratio; beyond the float range the
        # ratios and T1's bound read inf
        data = minimal(mechanism=mechanism, platform={"p": p, "b": b, "k": 2.0},
                       demand={"family": "constant", "M": 1.0e300})
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field == "platform.b"
        parse_config(minimal(mechanism=mechanism, platform={"p": 1.0e-20, "b": 1.0e287, "k": 2.0},
                            demand={"family": "constant", "M": 1.0e300}))

    @pytest.mark.parametrize("path, field", [
        (("platform", "b"), "platform.b"),
        (("miners", 0, "capacity_A"), "miners[0].capacity_A"),
        (("demand", "M"), "demand.M"),
    ])
    def test_int_beyond_float_range_rejected(self, path, field):
        data = minimal()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field == field

    @pytest.mark.parametrize("platform, cost", [
        ({"p": 1.0, "k": 2.0}, {"family": "power", "c": 1.0, "q": 600.0}),  # C'(4) = inf
        ({"p": 1.0, "k": 1.0e-10}, {"family": "linear", "r": 1.0e300}),  # r/k = inf
    ])
    def test_ppss_overflowing_subsidy_numerator_rejected(self, platform, cost):
        # ppss multiplies c~/k - b by its 0/1 indicator, and 0 * inf is NaN;
        # rejected under pps too, since T5-T7 run ppss on any config
        for mechanism in ("pps", "ppss"):
            data = minimal(mechanism=mechanism, platform=platform)
            data["miners"][0]["cost"] = cost
            with pytest.raises(ConfigError) as e:
                parse_config(data)
            assert e.value.field == "miners[0].cost"

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_overflowing_cost_at_capacity_rejected(self, mechanism):
        # c~/k = 1e300 / 1e10 is finite, C(A) = 1e300 * 1e10 is not; every
        # summary.csv reads C(a), and a <= A
        data = minimal(mechanism=mechanism, platform={"p": 1.0, "k": 1.0e10},
                       demand={"family": "constant", "M": 1.0e25})
        data["miners"][0] = {"capacity_A": 1.0e10, "cost": {"family": "linear", "r": 1.0e300}}
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field == "miners[0].cost"
        assert "C(A)" in str(e.value)
        data["miners"][0]["cost"]["r"] = 1.0e298
        parse_config(data)

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    def test_overflowing_window_threshold_rejected(self, mechanism):
        # lambda * A * k * N = 0.8 * 5e305 * 100 * 10 exceeds every float, and
        # so does 9 * N * k * A, the bound checked; checked under pps too,
        # since T5 and T6 run ppss on any config
        platform = {"p": 1.0, "k": 100.0, "lambda": 0.8, "N": 10}
        miners = [{"capacity_A": 5.0e305, "cost": {"family": "linear", "r": 150.0}}]
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(mechanism=mechanism, platform=platform, miners=miners))
        assert e.value.field == "miners[0].capacity_A"
        # at N = 1 and A = 1e305 the bound is 9e307
        miners = [{**miners[0], "capacity_A": 1.0e305}]
        parse_config(minimal(mechanism=mechanism, platform={**platform, "N": 1}, miners=miners))

    @pytest.mark.parametrize("mechanism", ["pps", "ppss"])
    @pytest.mark.parametrize("platform, capacity", [
        # the window threshold, 1e306, is finite; the warm window's shape
        # (N - 1) * k * A, 1e309, is not
        ({"p": 1.0, "k": 1.0, "lambda": 0.001, "N": 1000}, 1.0e306),
        # at N = 1 the threshold, 4e307, is finite; the exact payoff's
        # 9 * (k * A + 1), 4.5e308, is not
        ({"p": 1.0, "k": 100.0, "lambda": 0.8, "N": 1}, 5.0e305),
    ], ids=["warm-window", "output"])
    def test_overflowing_payoff_shape_rejected(self, mechanism, platform, capacity):
        miners = [{"capacity_A": capacity, "cost": {"family": "linear", "r": 1.5}}]
        demand = {"family": "constant", "M": 6.0e306}
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(mechanism=mechanism, platform=platform, miners=miners,
                                demand=demand))
        assert e.value.field == "miners[0].capacity_A"

    def test_overflowing_supply_rejected(self):
        # at N = 1 each bound 9 * N * k * A, 1.71e308, is finite;
        # k * sum(A) = 2.28e308 is not, and at 8 miners k * sum(A) = 1.52e308
        # is but T2's and T3's demand 3 * k * sum(A) is not; 2 miners pass
        platform = {"p": 1.0, "k": 100.0, "N": 1}
        miners = [{"capacity_A": 1.9e305, "cost": {"family": "linear", "r": 150.0}}] * 12
        for count in (12, 8):
            with pytest.raises(ConfigError) as e:
                parse_config(minimal(platform=platform, miners=miners[:count]))
            assert e.value.field == "platform.k"
        parse_config(minimal(platform=platform, miners=miners[:2]))

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    @pytest.mark.parametrize("demand", [
        {"family": "uniform", "lo": 5.0, "hi": 1.0},
        {"family": "gamma", "shape": -1.0},
        {"family": "constant", "M": 0},
        # means that underflow to 0 or overflow to inf
        {"family": "lognormal", "mu": -800.0, "sigma": 0.0},
        {"family": "lognormal", "mu": 800.0, "sigma": 0.0},
        {"family": "lognormal", "mu": 0.0, "sigma": 1.0e200},
        {"family": "gamma", "shape": 1.0, "rate": 1.0e-320},
    ])
    def test_bad_demand_parameter(self, demand):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(demand=demand))
        assert e.value.field == "demand"

    @pytest.mark.parametrize("path, value", [
        (("rounds",), 2.7),
        (("rounds",), 10**20),
        (("seed",), 1.0e30),
        (("seed",), 2**63),
        (("seed",), 0.5),
        (("platform", "N"), 2.5),
        (("miners", 0, "policy", "grid"), 3.5),
        (("miners", 0, "policy", "grid"), 10**19),
    ])
    def test_integer_field_must_be_integral_int64(self, path, value):
        data = minimal()
        data["miners"][0]["policy"] = {"kind": "myopic_br"}
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field.endswith(path[-1])

    def test_integral_float_reads_as_integer(self):
        # YAML 1.1 needs the exponent's sign: 1.0e4 would load as a string
        data = yaml.safe_load(yaml.safe_dump(minimal()) + "rounds: 1.0e+4\nseed: 7.0\n")
        cfg = parse_config(data)
        assert cfg.rounds == 10_000 and isinstance(cfg.rounds, int)
        assert parse_config(minimal(rounds=1.0e4)).rounds == 10_000
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert parse_config(minimal(seed=2**63 - 1)).seed == 2**63 - 1

    def test_ledger_size_limit(self):
        # one miner: a round is 3 + 4*1 float64 columns, 56 bytes
        most = MAX_LEDGER_BYTES // 56
        assert parse_config(minimal(rounds=most)).rounds == most
        for rounds in (most + 1, 2**62):
            with pytest.raises(ConfigError) as e:
                parse_config(minimal(rounds=rounds))
            assert e.value.field == "rounds"

    def test_policy_grid_limit(self):
        data = minimal()
        data["miners"][0]["policy"] = {"kind": "myopic_br", "grid": MAX_GRID}
        assert parse_config(data).policies[0].grid == MAX_GRID
        data["miners"][0]["policy"]["grid"] = MAX_GRID + 1
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field == "miners[0].policy" and "grid" in str(e.value)


class TestRetiredKey:
    """`replicas` is read by nothing; configs may still carry it at the root
    and in a myopic_br policy, where it is dropped unread. So is
    `platform.subsidy_clamp_nonneg: true`; any other value of that key is
    rejected."""

    @given(small_configs(myopic=True),
           st.one_of(st.integers(), st.floats(), st.text(), st.none()))
    @settings(max_examples=50, deadline=None)
    def test_dropped_unread(self, data, replicas):
        cfg = parse_config(data)
        old = dict(data, replicas=replicas, miners=[
            dict(m, policy=dict(m["policy"], replicas=replicas))
            if m["policy"]["kind"] == "myopic_br" else m
            for m in data["miners"]
        ])
        again = parse_config(old)
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert dump_config(again) == dump_config(cfg)
        assert "replicas" not in dump_config(again)

    @given(small_configs(myopic=True))
    @settings(max_examples=50, deadline=None)
    def test_clamp_true_dropped_unread(self, data):
        # the subsidy numerator is always clamped: `true` says so, unread
        cfg = parse_config(data)
        old = dict(data, platform=dict(data["platform"], subsidy_clamp_nonneg=True))
        again = parse_config(old)
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert dump_config(again) == dump_config(cfg)

    @pytest.mark.parametrize("value", [False, 1, "true", None])
    def test_clamp_off_or_not_a_boolean_rejected(self, value):
        data = minimal()
        data["platform"]["subsidy_clamp_nonneg"] = value
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field == "platform.subsidy_clamp_nonneg"
        assert "removed" in str(e.value)

    @pytest.mark.parametrize("path", [
        ("platform",), ("demand",), ("miners", 0), ("miners", 0, "cost"),
        ("miners", 0, "policy"),
    ])
    def test_rejected_where_it_was_no_field(self, path):
        data = minimal()
        data["miners"][0]["policy"] = {"kind": "delta_adaptive"}
        node = data
        for key in path:
            node = node[key]
        node["replicas"] = 1000
        with pytest.raises(ConfigError) as e:
            parse_config(data)
        assert e.value.field.endswith(".replicas") and "unknown field" in str(e.value)


class TestSupplyWarning:
    """parse_config prints nothing; the CLI warns where mean demand falls
    below the full supply."""

    def test_warns_when_demand_below_supply(self, capsys):
        data = minimal(demand={"family": "constant", "M": 5.0})  # k*sum(A) = 8
        cfg = parse_config(data)
        assert cfg.demand.mu_F < cfg.supply == 8.0
        assert capsys.readouterr() == ("", "")
        cli._parse(data, argparse.Namespace(seed=None))
        out, err = capsys.readouterr()
        assert out == "" and "mu_F=5 is below full supply k*sum(A)=8" in err

    def test_silent_when_demand_dominant(self, capsys):
        cli._parse(minimal(), argparse.Namespace(seed=None))
        assert capsys.readouterr() == ("", "")


class TestRoundTrip:
    def full_config(self):
        return {
            "mechanism": "ppss",
            "platform": {"p": 1.0, "b": 1.5, "k": 100.0, "lambda": 0.7, "N": 5,
                         "eps_k": 1e-3},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
                 "policy": {"kind": "static", "a": 0.9}},
                {"capacity_A": 2.0, "cost": {"family": "power", "c": 2.0, "q": 3.0},
                 "policy": {"kind": "delta_adaptive", "step": 0.5, "floor": 0.1}},
                {"capacity_A": 1.5, "cost": {"family": "linear", "r": 200.0},
                 "policy": {"kind": "myopic_br", "grid": 32}},
            ],
            "demand": {"family": "lognormal", "mu": 6.3, "sigma": 0.4},
            "rounds": 123,
            "seed": 9,
        }

    def test_parse_dump_parse_identity(self):
        cfg = parse_config(self.full_config())
        again = parse_config(yaml.safe_load(dump_config(cfg)))
        assert again == cfg

    def test_integral_numbers_stored_as_floats(self):
        # `k: 100` and `k: 100.0` are the same config, with one digest and
        # one dump; N, rounds, seed and grid stay ints
        def one_miner(p, b, k, A):
            return {"mechanism": "ppss", "platform": {"p": p, "b": b, "k": k},
                    "miners": [{"capacity_A": A, "cost": {"family": "linear", "r": 150.0},
                                "policy": {"kind": "myopic_br", "grid": 8}}],
                    "demand": {"family": "constant", "M": 600.0}, "rounds": 10}

        ints = parse_config(one_miner(1, 1, 100, 1))
        floats = parse_config(one_miner(1.0, 1.0, 100.0, 1.0))
        assert ints == floats
        assert ints.digest() == floats.digest()
        assert dump_config(ints) == dump_config(floats)
        assert type(ints.platform.k) is type(ints.profiles[0].capacity_A) is float
        assert type(ints.rounds) is type(ints.platform.window_N) is type(ints.policies[0].grid) is int

    def test_digest_stable_and_sensitive(self):
        cfg = parse_config(self.full_config())
        assert cfg.digest() == parse_config(self.full_config()).digest()
        assert len(cfg.digest()) == 12
        other = self.full_config()
        other["seed"] = 10
        assert parse_config(other).digest() != cfg.digest()

    @given(small_configs(myopic=True))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, data):
        cfg = parse_config(data)
        again = parse_config(yaml.safe_load(dump_config(cfg)))
        assert again == cfg
        assert again.digest() == cfg.digest()

    @pytest.mark.parametrize("name, digest", [
        ("simulate-ledger", "d539140bd16b"),
        ("verify-audit", "975cf7a96059"),
        ("myopic-game", "a358d32e10b2"),
    ])
    def test_workload_digests_pinned(self, name, digest):
        cfg = load_config(os.path.join(CONFIGS, f"{name}.yaml"))
        assert cfg.digest() == digest

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(self.full_config()))
        cfg = load_config(str(path))
        assert cfg == parse_config(self.full_config())


class TestReadYaml:
    """read_yaml uses libyaml's loader where PyYAML has it; it must read the
    same documents as PyYAML's pure-Python SafeLoader."""

    @pytest.mark.parametrize(
        "name", sorted(n for n in os.listdir(CONFIGS) if n.endswith(".yaml")),
    )
    def test_workload_same_document(self, name):
        path = os.path.join(CONFIGS, name)
        with open(path) as fh:
            assert read_yaml(path) == yaml.load(fh, Loader=yaml.SafeLoader)

    def test_readme_example_same_document(self, tmp_path):
        with open(README) as fh:
            example = fh.read().split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.yaml"
        path.write_text(example)
        doc = read_yaml(str(path))
        assert doc == yaml.load(example, Loader=yaml.SafeLoader)
        assert doc["mechanism"] in ("pps", "ppss")
