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


@dataclass(frozen=True)
class MinerSpec:
    capacity_A: float
    cost: CostFunction
    policy: MinerPolicy


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: str
    platform: PlatformParams
    miners: tuple
    demand: DemandModel
    rounds: int
    replicas: int
    seed: int
    audit_theta: float
    audit_gamma: float

    def profiles(self) -> list[MinerProfile]:
        return [
            MinerProfile(id=i, capacity_A=m.capacity_A, cost=m.cost)
            for i, m in enumerate(self.miners)
        ]

    def policies(self) -> list[MinerPolicy]:
        return [m.policy for m in self.miners]

    def to_dict(self) -> dict:
        p = self.platform
        out = {
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
            "miners": [],
            "demand": _demand_dict(self.demand),
            "rounds": self.rounds,
            "replicas": self.replicas,
            "seed": self.seed,
            "audit": {"theta": self.audit_theta, "gamma": self.audit_gamma},
        }
        for m in self.miners:
            cost = {"family": m.cost.family}
            if m.cost.family == "linear":
                cost["r"] = m.cost.r
            else:
                cost["c"] = m.cost.c
                cost["q"] = m.cost.q
            pol = {"kind": m.policy.kind}
            if m.policy.kind == "static":
                pol["a"] = m.policy.a
            elif m.policy.kind == "myopic_br":
                pol["grid"] = m.policy.grid
                pol["replicas"] = m.policy.replicas
            else:
                pol["step"] = m.policy.step
                pol["floor"] = m.policy.floor
            out["miners"].append({"capacity_A": m.capacity_A, "cost": cost, "policy": pol})
        return out

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _demand_dict(d: DemandModel) -> dict:
    if d.family == "constant":
        return {"family": "constant", "M": d.M}
    if d.family == "uniform":
        return {"family": "uniform", "lo": d.lo, "hi": d.hi}
    if d.family == "gamma":
        return {"family": "gamma", "shape": d.shape, "rate": d.rate}
    return {"family": "lognormal", "mu": d.mu, "sigma": d.sigma}


def _parse_demand(node, field_name: str) -> DemandModel:
    node = _require_mapping(node, field_name)
    family = node.get("family")
    if family == "constant":
        _reject_unknown(node, {"family", "M"}, field_name)
        return DemandModel(family="constant", M=_number(node, "M", field_name))
    if family == "uniform":
        _reject_unknown(node, {"family", "lo", "hi"}, field_name)
        return DemandModel(
            family="uniform",
            lo=_number(node, "lo", field_name),
            hi=_number(node, "hi", field_name),
        )
    if family == "gamma":
        _reject_unknown(node, {"family", "shape", "rate"}, field_name)
        return DemandModel(
            family="gamma",
            shape=_number(node, "shape", field_name),
            rate=_number(node, "rate", field_name, default=1.0),
        )
    if family == "lognormal":
        _reject_unknown(node, {"family", "mu", "sigma"}, field_name)
        return DemandModel(
            family="lognormal",
            mu=_number(node, "mu", field_name),
            sigma=_number(node, "sigma", field_name),
        )
    raise ConfigError(f"{field_name}.family", f"unknown demand family {family!r}")


def _parse_cost(node, field_name: str) -> CostFunction:
    node = _require_mapping(node, field_name)
    family = node.get("family")
    try:
        if family == "linear":
            _reject_unknown(node, {"family", "r"}, field_name)
            return CostFunction(family="linear", r=_number(node, "r", field_name))
        if family == "power":
            _reject_unknown(node, {"family", "c", "q"}, field_name)
            return CostFunction(
                family="power",
                c=_number(node, "c", field_name),
                q=_number(node, "q", field_name, default=2.0),
            )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(field_name, str(e)) from e
    raise ConfigError(f"{field_name}.family", f"unknown cost family {family!r}")


def _parse_policy(node, capacity: float, field_name: str) -> MinerPolicy:
    if node is None:
        return MinerPolicy(kind="static", a=capacity)
    node = _require_mapping(node, field_name)
    kind = node.get("kind")
    try:
        if kind == "static":
            _reject_unknown(node, {"kind", "a"}, field_name)
            return MinerPolicy(kind="static", a=_number(node, "a", field_name, default=capacity))
        if kind == "myopic_br":
            _reject_unknown(node, {"kind", "grid", "replicas"}, field_name)
            return MinerPolicy(
                kind="myopic_br",
                grid=int(_number(node, "grid", field_name, default=64)),
                replicas=int(_number(node, "replicas", field_name, default=2000)),
            )
        if kind == "delta_adaptive":
            _reject_unknown(node, {"kind", "step", "floor"}, field_name)
            floor = _number(node, "floor", field_name, default=0.0)
            if floor > capacity:
                raise ConfigError(f"{field_name}.floor", "must not exceed capacity_A")
            return MinerPolicy(
                kind="delta_adaptive",
                step=_number(node, "step", field_name, default=0.5),
                floor=floor,
            )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(field_name, str(e)) from e
    raise ConfigError(f"{field_name}.kind", f"unknown policy kind {kind!r}")


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
            window_N=int(_number(pnode, "N", "platform", default=10)),
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
    miners = []
    for idx, mnode in enumerate(miners_node):
        fname = f"miners[{idx}]"
        mnode = _require_mapping(mnode, fname)
        _reject_unknown(mnode, {"capacity_A", "cost", "policy"}, fname)
        cap = _number(mnode, "capacity_A", fname)
        if not cap > 0:
            raise ConfigError(f"{fname}.capacity_A", "must be positive")
        cost = _parse_cost(mnode.get("cost"), f"{fname}.cost")
        policy = _parse_policy(mnode.get("policy"), cap, f"{fname}.policy")
        miners.append(MinerSpec(capacity_A=cap, cost=cost, policy=policy))

    demand = _parse_demand(data.get("demand"), "demand")

    rounds = int(_number(data, "rounds", "<root>", default=10_000))
    if rounds < 1:
        raise ConfigError("rounds", "must be at least 1")
    replicas = int(_number(data, "replicas", "<root>", default=10_000))
    if replicas < 1:
        raise ConfigError("replicas", "must be at least 1")
    seed = int(_number(data, "seed", "<root>", default=0))
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
        miners=tuple(miners),
        demand=demand,
        rounds=rounds,
        replicas=replicas,
        seed=seed,
        audit_theta=theta,
        audit_gamma=gamma,
    )

    supply = platform.k * sum(m.capacity_A for m in miners)
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
