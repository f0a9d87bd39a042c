"""Experiment configuration: YAML ingestion, strict validation, round-trip
serialization."""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass

import yaml

from .engine import MinerPolicy
from .model import CostFunction, DemandModel, MinerProfile, PlatformParams

_INT64 = 2**63


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _require_mapping(node, field_name: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(field_name, "expected a mapping")
    return node

def _reject_unknown(node: dict, allowed: set[str], field_name: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(
            f"{field_name}.{sorted(unknown)[0]}", "unknown field"
        )


def _number(node: dict, key: str, field_name: str, default=None):
    if key not in node:
        if default is None:
            raise ConfigError(f"{field_name}.{key}", "missing required field")
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{field_name}.{key}", "expected a number")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{field_name}.{key}", f"must be finite, got {v}")
    return v


def _integer(node: dict, key: str, field_name: str, default=None) -> int:
    """An integral number that fits in int64; 1.0e4 reads as 10000."""
    v = _number(node, key, field_name, default)
    if isinstance(v, float):
        if not v.is_integer():
            raise ConfigError(f"{field_name}.{key}", f"must be an integer, got {v}")
        v = int(v)
    if not -_INT64 <= v < _INT64:
        raise ConfigError(f"{field_name}.{key}", f"{v} does not fit in a 64-bit integer")
    return v


@dataclass(frozen=True)
class _Variants:
    """A YAML block whose `tag_key` field picks one variant of `build`.

    `fields` maps each tag to that variant's YAML fields in dump order, each
    with its default; None marks a required field, and an int default reads
    the field as an integer.
    """

    tag_key: str
    noun: str
    build: type
    fields: dict


DEMAND = _Variants("family", "demand family", DemandModel, {
    "constant": {"M": None},
    "uniform": {"lo": None, "hi": None},
    "gamma": {"shape": None, "rate": 1.0},
    "lognormal": {"mu": None, "sigma": None},
})
COST = _Variants("family", "cost family", CostFunction, {
    "linear": {"r": None},
    "power": {"c": None, "q": 2.0},
})
# a static policy's `a` defaults to the miner's capacity_A, passed in by
# parse_config; a missing or null policy is static at capacity
POLICY = _Variants("kind", "policy kind", MinerPolicy, {
    "static": {"a": None},
    "myopic_br": {"grid": 64, "replicas": 2000},
    "delta_adaptive": {"step": 0.5, "floor": 0.0},
})


def _parse_variant(node, variants: _Variants, field_name: str, defaults=None):
    """The `variants.build` instance that `node` describes; `defaults`
    overrides the table's defaults."""
    node = _require_mapping(node, field_name)
    tag = node.get(variants.tag_key)
    if not isinstance(tag, str) or tag not in variants.fields:
        raise ConfigError(f"{field_name}.{variants.tag_key}", f"unknown {variants.noun} {tag!r}")
    fields = variants.fields[tag]
    _reject_unknown(node, {variants.tag_key, *fields}, field_name)
    values = {}
    for key, default in fields.items():
        read = _integer if isinstance(default, int) else _number
        values[key] = read(node, key, field_name, (defaults or {}).get(key, default))
    try:
        return variants.build(**{variants.tag_key: tag}, **values)
    except ValueError as e:
        raise ConfigError(field_name, str(e)) from e


def _variant_dict(obj, variants: _Variants) -> dict:
    tag = getattr(obj, variants.tag_key)
    return {variants.tag_key: tag, **{k: getattr(obj, k) for k in variants.fields[tag]}}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment; `profiles[i]` (id i) and `policies[i]`
    describe miner i."""

    mechanism: str
    platform: PlatformParams
    profiles: tuple[MinerProfile, ...]
    policies: tuple[MinerPolicy, ...]
    demand: DemandModel
    rounds: int
    replicas: int
    seed: int
    audit_theta: float
    audit_gamma: float

    def to_dict(self) -> dict:
        p = self.platform
        return {
            "mechanism": self.mechanism,
            "platform": {
                "p": p.p,
                "b": p.b,
                "k": p.k,
                "lambda": p.lam,
                "N": p.window_N,
                "eps_k": p.eps_k,
                "subsidy_clamp_nonneg": p.subsidy_clamp_nonneg,
            },
            "miners": [
                {"capacity_A": prof.capacity_A, "cost": _variant_dict(prof.cost, COST),
                 "policy": _variant_dict(pol, POLICY)}
                for prof, pol in zip(self.profiles, self.policies)
            ],
            "demand": _variant_dict(self.demand, DEMAND),
            "rounds": self.rounds,
            "replicas": self.replicas,
            "seed": self.seed,
            "audit": {"theta": self.audit_theta, "gamma": self.audit_gamma},
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def parse_config(data: dict, warn_stream=None) -> ExperimentConfig:
    data = _require_mapping(data, "<root>")
    _reject_unknown(
        data,
        {"mechanism", "platform", "miners", "demand", "rounds", "replicas", "seed", "audit"},
        "<root>",
    )
    mechanism = data.get("mechanism")
    if mechanism not in ("pps", "ppss"):
        raise ConfigError("mechanism", f"must be 'pps' or 'ppss', got {mechanism!r}")

    pnode = _require_mapping(data.get("platform", {}), "platform")
    _reject_unknown(
        pnode,
        {"p", "b", "k", "lambda", "N", "eps_k", "subsidy_clamp_nonneg"},
        "platform",
    )
    p = _number(pnode, "p", "platform")
    b = _number(pnode, "b", "platform", default=p)  # b = p by default
    clamp = pnode.get("subsidy_clamp_nonneg", True)
    if not isinstance(clamp, bool):
        raise ConfigError("platform.subsidy_clamp_nonneg", "expected a boolean")
    try:
        platform = PlatformParams(
            p=p,
            b=b,
            k=_number(pnode, "k", "platform"),
            lam=_number(pnode, "lambda", "platform", default=0.8),
            window_N=_integer(pnode, "N", "platform", default=10),
            eps_k=_number(pnode, "eps_k", "platform", default=1e-3),
            subsidy_clamp_nonneg=clamp,
        )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError("platform", str(e)) from e

    miners_node = data.get("miners")
    if not isinstance(miners_node, list) or not miners_node:
        raise ConfigError("miners", "expected a non-empty list")
    profiles, policies = [], []
    for idx, mnode in enumerate(miners_node):
        fname = f"miners[{idx}]"
        mnode = _require_mapping(mnode, fname)
        _reject_unknown(mnode, {"capacity_A", "cost", "policy"}, fname)
        cap = _number(mnode, "capacity_A", fname)
        if not cap > 0:
            raise ConfigError(f"{fname}.capacity_A", "must be positive")
        cost = _parse_variant(mnode.get("cost"), COST, f"{fname}.cost")
        pnode = mnode.get("policy")
        policy = _parse_variant(
            {"kind": "static"} if pnode is None else pnode, POLICY, f"{fname}.policy",
            defaults={"a": cap},
        )
        if policy.kind == "delta_adaptive" and policy.floor > cap:
            raise ConfigError(f"{fname}.policy.floor", "must not exceed capacity_A")
        profiles.append(MinerProfile(id=idx, capacity_A=cap, cost=cost))
        policies.append(policy)

    demand = _parse_variant(data.get("demand"), DEMAND, "demand")

    rounds = _integer(data, "rounds", "<root>", default=10_000)
    if rounds < 1:
        raise ConfigError("rounds", "must be at least 1")
    replicas = _integer(data, "replicas", "<root>", default=10_000)
    if replicas < 1:
        raise ConfigError("replicas", "must be at least 1")
    seed = _integer(data, "seed", "<root>", default=0)
    if seed < 0:
        raise ConfigError("seed", "must be nonnegative")

    anode = _require_mapping(data.get("audit", {}), "audit")
    _reject_unknown(anode, {"theta", "gamma"}, "audit")
    theta = _number(anode, "theta", "audit", default=0.0)
    gamma = _number(anode, "gamma", "audit", default=platform.b / platform.p)
    if theta > gamma:
        raise ConfigError("audit.theta", "must not exceed audit.gamma")

    cfg = ExperimentConfig(
        mechanism=mechanism,
        platform=platform,
        profiles=tuple(profiles),
        policies=tuple(policies),
        demand=demand,
        rounds=rounds,
        replicas=replicas,
        seed=seed,
        audit_theta=theta,
        audit_gamma=gamma,
    )

    supply = platform.k * sum(prof.capacity_A for prof in profiles)
    if demand.mu_F < supply:
        stream = warn_stream if warn_stream is not None else sys.stderr
        print(
            f"warning: mean demand mu_F={demand.mu_F:g} is below full supply "
            f"k*sum(A)={supply:g}; the demand-dominant assumption of the "
            "incentive results does not hold",
            file=stream,
        )
    return cfg


def read_yaml(path: str):
    """The YAML document at `path`; malformed or undecodable YAML raises
    ConfigError."""
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ConfigError(path, f"malformed YAML: {e}") from e


def load_config(path: str, warn_stream=None) -> ExperimentConfig:
    return parse_config(read_yaml(path), warn_stream=warn_stream)


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)
