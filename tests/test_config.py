"""Config ingestion: strict validation, defaults, round-trip, warnings."""
import io
import os

import pytest
import yaml
from hypothesis import given, settings

from poolsim.config import ConfigError, dump_config, load_config, parse_config

from conftest import quiet_parse, small_configs

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads")


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
        cfg = quiet_parse(minimal())
        assert cfg.platform.b == cfg.platform.p  # b = p unless set
        assert cfg.platform.lam == 0.8
        assert cfg.platform.window_N == 10
        assert cfg.platform.eps_k == 1e-3
        assert cfg.platform.subsidy_clamp_nonneg is True

    def test_run_defaults(self):
        cfg = quiet_parse(minimal())
        assert cfg.rounds == 10_000
        assert cfg.replicas == 10_000
        assert cfg.seed == 0
        assert cfg.audit_theta == 0.0
        assert cfg.audit_gamma == cfg.platform.b / cfg.platform.p

    def test_default_policy_is_static_at_capacity(self):
        cfg = quiet_parse(minimal())
        pol = cfg.policies[0]
        assert pol.kind == "static"
        assert pol.a == 4.0

    def test_profiles_enumerate_miners(self):
        data = minimal(miners=[
            {"capacity_A": 4.0, "cost": {"family": "linear", "r": 1.0}},
            {"capacity_A": 2.0, "cost": {"family": "power", "c": 1.0, "q": 2.0}},
        ])
        profs = quiet_parse(data).profiles
        assert [p.id for p in profs] == [0, 1]
        assert profs[1].cost.family == "power"


class TestValidation:
    def test_unknown_root_field(self):
        with pytest.raises(ConfigError) as e:
            quiet_parse(minimal(bogus=1))
        assert "bogus" in str(e.value)

    def test_unknown_platform_field(self):
        data = minimal()
        data["platform"]["fee"] = 0.1
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert "platform.fee" in str(e.value)

    def test_unknown_miner_field(self):
        data = minimal()
        data["miners"][0]["hashrate"] = 5
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert "miners[0].hashrate" in str(e.value)

    def test_unknown_demand_field(self):
        data = minimal(demand={"family": "constant", "M": 20.0, "sigma": 1.0})
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert "demand.sigma" in str(e.value)

    def test_unknown_audit_field(self):
        with pytest.raises(ConfigError) as e:
            quiet_parse(minimal(audit={"delta": 0.1}))
        assert "audit.delta" in str(e.value)

    def test_missing_required_field_named(self):
        data = minimal()
        del data["platform"]["k"]
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert "platform.k" in str(e.value)

    def test_bad_mechanism(self):
        with pytest.raises(ConfigError) as e:
            quiet_parse(minimal(mechanism="pplns"))
        assert e.value.field == "mechanism"

    def test_empty_miners(self):
        with pytest.raises(ConfigError):
            quiet_parse(minimal(miners=[]))

    def test_nonpositive_capacity(self):
        data = minimal()
        data["miners"][0]["capacity_A"] = 0.0
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert "capacity_A" in str(e.value)

    def test_invalid_cost_parameter(self):
        data = minimal()
        data["miners"][0]["cost"] = {"family": "linear", "r": -1.0}
        with pytest.raises(ConfigError):
            quiet_parse(data)

    def test_unknown_cost_and_policy_families(self):
        data = minimal()
        data["miners"][0]["cost"] = {"family": "cubic"}
        with pytest.raises(ConfigError):
            quiet_parse(data)
        data = minimal()
        data["miners"][0]["policy"] = {"kind": "random"}
        with pytest.raises(ConfigError):
            quiet_parse(data)
        with pytest.raises(ConfigError) as e:
            quiet_parse(minimal(demand={"family": ["constant"], "M": 20.0}))
        assert "unknown demand family" in str(e.value)

    def test_bad_rounds_and_replicas(self):
        with pytest.raises(ConfigError):
            quiet_parse(minimal(rounds=0))
        with pytest.raises(ConfigError):
            quiet_parse(minimal(replicas=0))

    def test_negative_seed(self):
        with pytest.raises(ConfigError) as e:
            quiet_parse(minimal(seed=-3))
        assert "seed" in str(e.value)

    @pytest.mark.parametrize("policy, field", [
        ({"kind": "myopic_br", "grid": 1}, "grid"),
        ({"kind": "myopic_br", "replicas": 0}, "replicas"),
        ({"kind": "static", "a": -1.0}, "nonnegative"),
        ({"kind": "delta_adaptive", "floor": -0.5}, "floor"),
        ({"kind": "delta_adaptive", "floor": 5.0}, "floor"),
    ])
    def test_bad_policy_values(self, policy, field):
        data = minimal()
        data["miners"][0]["policy"] = policy
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert "policy" in str(e.value) and field in str(e.value)

    def test_audit_bounds_ordered(self):
        with pytest.raises(ConfigError):
            quiet_parse(minimal(audit={"theta": 2.0, "gamma": 1.0}))

    def test_number_type_checked(self):
        data = minimal()
        data["platform"]["p"] = "one"
        with pytest.raises(ConfigError):
            quiet_parse(data)

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
            quiet_parse(data)
        assert "finite" in str(e.value)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            quiet_parse([1, 2, 3])

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
            quiet_parse(minimal(demand=demand))
        assert e.value.field == "demand"

    @pytest.mark.parametrize("path, value", [
        (("rounds",), 2.7),
        (("rounds",), 10**20),
        (("replicas",), 1.0e30),
        (("seed",), 2**63),
        (("seed",), 0.5),
        (("platform", "N"), 2.5),
        (("miners", 0, "policy", "grid"), 3.5),
        (("miners", 0, "policy", "replicas"), 10**19),
    ])
    def test_integer_field_must_be_integral_int64(self, path, value):
        data = minimal()
        data["miners"][0]["policy"] = {"kind": "myopic_br"}
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as e:
            quiet_parse(data)
        assert e.value.field.endswith(path[-1])

    def test_integral_float_reads_as_integer(self):
        # YAML 1.1 needs the exponent's sign: 1.0e4 would load as a string
        data = yaml.safe_load(yaml.safe_dump(minimal()) + "rounds: 1.0e+4\nseed: 7.0\n")
        cfg = quiet_parse(data)
        assert cfg.rounds == 10_000 and isinstance(cfg.rounds, int)
        assert quiet_parse(minimal(rounds=1.0e4)).rounds == 10_000
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert quiet_parse(minimal(seed=2**63 - 1)).seed == 2**63 - 1


class TestSupplyWarning:
    def test_warns_when_demand_below_supply(self):
        stream = io.StringIO()
        data = minimal(demand={"family": "constant", "M": 5.0})  # k*sum(A) = 8
        parse_config(data, warn_stream=stream)
        assert "mu_F" in stream.getvalue()

    def test_silent_when_demand_dominant(self):
        stream = io.StringIO()
        parse_config(minimal(), warn_stream=stream)
        assert stream.getvalue() == ""


class TestRoundTrip:
    def full_config(self):
        return {
            "mechanism": "ppss",
            "platform": {"p": 1.0, "b": 1.5, "k": 100.0, "lambda": 0.7, "N": 5,
                         "eps_k": 1e-3, "subsidy_clamp_nonneg": False},
            "miners": [
                {"capacity_A": 1.0, "cost": {"family": "linear", "r": 150.0},
                 "policy": {"kind": "static", "a": 0.9}},
                {"capacity_A": 2.0, "cost": {"family": "power", "c": 2.0, "q": 3.0},
                 "policy": {"kind": "delta_adaptive", "step": 0.5, "floor": 0.1}},
                {"capacity_A": 1.5, "cost": {"family": "linear", "r": 200.0},
                 "policy": {"kind": "myopic_br", "grid": 32, "replicas": 500}},
            ],
            "demand": {"family": "lognormal", "mu": 6.3, "sigma": 0.4},
            "rounds": 123,
            "replicas": 456,
            "seed": 9,
            "audit": {"theta": 0.0, "gamma": 2.0},
        }

    def test_parse_dump_parse_identity(self):
        cfg = quiet_parse(self.full_config())
        again = quiet_parse(yaml.safe_load(dump_config(cfg)))
        assert again == cfg

    def test_digest_stable_and_sensitive(self):
        cfg = quiet_parse(self.full_config())
        assert cfg.digest() == quiet_parse(self.full_config()).digest()
        assert len(cfg.digest()) == 12
        other = self.full_config()
        other["seed"] = 10
        assert quiet_parse(other).digest() != cfg.digest()

    @given(small_configs(myopic=True))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, data):
        cfg = quiet_parse(data)
        again = quiet_parse(yaml.safe_load(dump_config(cfg)))
        assert again == cfg
        assert again.digest() == cfg.digest()

    @pytest.mark.parametrize("name, digest", [
        ("simulate-ledger", "ea488cfd635a"),
        ("verify-audit", "3fa6eb82b193"),
        ("myopic-game", "98325ce7121c"),
    ])
    def test_workload_digests_pinned(self, name, digest):
        cfg = load_config(os.path.join(WORKLOADS, f"{name}.yaml"), warn_stream=io.StringIO())
        assert cfg.digest() == digest

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(self.full_config()))
        cfg = load_config(str(path), warn_stream=io.StringIO())
        assert cfg == quiet_parse(self.full_config())
