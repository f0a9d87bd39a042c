"""Experiment configuration: YAML ingestion, strict validation, round-trip
serialization."""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .model import (
    U_MIN, CostFunction, DemandModel, MinerPolicy, MinerProfile, PlatformParams, c_tilde, cost_eval,
)

_INT64 = 2**63
# Largest simulation ledger a config may ask for: rounds * (3 + 4n) float64s
MAX_LEDGER_BYTES = 2**32


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


# Keys that nothing reads any more. Configs may still carry them where they
# were fields (the root and a myopic_br policy); they are dropped there
# unread, so they are neither validated nor stored, dumped or digested.
_RETIRED = frozenset({"replicas"})


def _without_retired(node: dict) -> dict:
    return {k: v for k, v in node.items() if k not in _RETIRED}


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


def _number(node: dict, key: str, field_name: str, default=None) -> float:
    """A finite number, stored as a float however YAML wrote it, so that
    `k: 100` and `k: 100.0` make equal configs with one digest."""
    if key not in node:
        if default is None:
            raise ConfigError(f"{field_name}.{key}", "missing required field")
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{field_name}.{key}", "expected a number")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{field_name}.{key}", f"must be finite, got {v}")
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        raise ConfigError(f"{field_name}.{key}", "must be finite, got an int beyond the float range")
    return float(v)


def _integer(node: dict, key: str, field_name: str, default=None) -> int:
    """An integral number that fits in int64; 1.0e4 reads as 10000."""
    v = node.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        v = _number(node, key, field_name, default)
        if not v.is_integer():
            raise ConfigError(f"{field_name}.{key}", f"must be an integer, got {v}")
        v = int(v)
    if not -_INT64 <= v < _INT64:
        raise ConfigError(f"{field_name}.{key}", f"{v} does not fit in a 64-bit integer")
    return v


def _optional(node: dict, key: str, field_name: str, cls: type, name: str):
    """`node[key]`, or the default of `cls`'s field `name` where it is
    absent: the model states every optional field's default, and an int
    default reads the field as an integer."""
    default = next(f.default for f in fields(cls) if f.name == name)
    return (_integer if isinstance(default, int) else _number)(node, key, field_name, default)


@dataclass(frozen=True)
class _Variants:
    """A YAML block whose `tag_key` field picks one variant of `build`.

    `fields` maps each tag to that variant's YAML fields in dump order; the
    ones in `optional` take their defaults from `build`, and the others are
    required.
    """

    tag_key: str
    noun: str
    build: type
    fields: dict
    optional: frozenset


DEMAND = _Variants("family", "demand family", DemandModel, {
    "constant": ("M",),
    "uniform": ("lo", "hi"),
    "gamma": ("shape", "rate"),
    "lognormal": ("mu", "sigma"),
}, frozenset({"rate"}))
COST = _Variants("family", "cost family", CostFunction, {
    "linear": ("r",),
    "power": ("c", "q"),
}, frozenset({"q"}))
# a static policy's `a` defaults to the miner's capacity_A, passed in by
# parse_config; a missing or null policy is static at capacity
POLICY = _Variants("kind", "policy kind", MinerPolicy, {
    "static": ("a",),
    "myopic_br": ("grid",),
    "delta_adaptive": ("step", "floor"),
}, frozenset({"grid", "step", "floor"}))


def _parse_variant(node, variants: _Variants, field_name: str, defaults=None):
    """The `variants.build` instance that `node` describes; `defaults`
    gives required fields a default."""
    node = _require_mapping(node, field_name)
    tag = node.get(variants.tag_key)
    if not isinstance(tag, str) or tag not in variants.fields:
        raise ConfigError(f"{field_name}.{variants.tag_key}", f"unknown {variants.noun} {tag!r}")
    keys = variants.fields[tag]
    _reject_unknown(node, {variants.tag_key, *keys}, field_name)
    values = {
        key: _optional(node, key, field_name, variants.build, key) if key in variants.optional
        else _number(node, key, field_name, (defaults or {}).get(key))
        for key in keys
    }
    return _build(variants.build, field_name, **{variants.tag_key: tag}, **values)


def _build(cls: type, field_name: str, **values):
    """`cls(**values)`, its ValueError raised as a ConfigError naming `field_name`."""
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(field_name, str(e)) from e


def _variant_dict(obj, variants: _Variants) -> dict:
    tag = getattr(obj, variants.tag_key)
    return {variants.tag_key: tag, **{k: getattr(obj, k) for k in variants.fields[tag]}}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment, however it is built (parse_config, replace or
    the constructor): a bad field raises ConfigError. `profiles[i]` and
    `policies[i]` describe miner i."""

    mechanism: str
    platform: PlatformParams
    profiles: tuple[MinerProfile, ...]
    policies: tuple[MinerPolicy, ...]
    demand: DemandModel
    rounds: int
    seed: int

    def __post_init__(self):
        if self.mechanism not in ("pps", "ppss"):
            raise ConfigError("mechanism", f"must be 'pps' or 'ppss', got {self.mechanism!r}")
        if not self.profiles or len(self.policies) != len(self.profiles):
            raise ConfigError("miners", f"expected a non-empty list, one policy per miner; got "
                              f"{len(self.profiles)} profiles and {len(self.policies)} policies")
        for i, (prof, pol) in enumerate(zip(self.profiles, self.policies)):
            if pol.kind == "delta_adaptive" and pol.floor > prof.capacity_A:
                raise ConfigError(f"miners[{i}].policy.floor", "must not exceed capacity_A")
        if self.rounds < 1:
            raise ConfigError("rounds", "must be at least 1")
        ledger_bytes = self.rounds * (3 + 4 * len(self.profiles)) * 8
        if ledger_bytes > MAX_LEDGER_BYTES:
            raise ConfigError("rounds", f"the ledger of {self.rounds} rounds needs {ledger_bytes} "
                              f"bytes, over the {MAX_LEDGER_BYTES}-byte limit")
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        _check_bounds(self)

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
            },
            "miners": [
                {"capacity_A": prof.capacity_A, "cost": _variant_dict(prof.cost, COST),
                 "policy": _variant_dict(pol, POLICY)}
                for prof, pol in zip(self.profiles, self.policies)
            ],
            "demand": _variant_dict(self.demand, DEMAND),
            "rounds": self.rounds,
            "seed": self.seed,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @property
    def supply(self) -> float:
        """k * sum(A), the full supply: about a round's total output |D|."""
        return self.platform.k * sum(prof.capacity_A for prof in self.profiles)


def _check_bounds(cfg: ExperimentConfig) -> None:
    """A ConfigError naming the field where a value commands compute from
    `cfg` overflows, or p * M or T4's demand underflows. verify runs the pps
    audits and the ppss ones on any config, so no bound depends on the
    mechanism. The ppss payout ratio depends on the outputs, so
    engine.settle bounds it: a config at p = 1e-306 whose played ratios are
    finite runs."""
    plat = cfg.platform
    with np.errstate(over="ignore"):
        # b / p bounds every pps payout ratio and is the one T1 checks against
        bounds = [("platform.b", plat.b / plat.p, f"b / p = {plat.b} / {plat.p}")]
        for i, prof in enumerate(cfg.profiles):
            bounds += [
                # bounds the exact ppss payoff's window threshold
                # lambda * A * k * N, warm window shape (N - 1) * k * A and
                # output 9 * (k * A + 1); every factor after k * A is >= 1
                (f"miners[{i}].capacity_A", prof.capacity_A * plat.k * plat.window_N * 9.0,
                 "9 * N * k * A, a bound on the ppss payoff's shapes,"),
                # ppss pays c~/k - b times its indicator, and 0 * inf is NaN
                (f"miners[{i}].cost", c_tilde(prof) / plat.k,
                 "c~/k, the marginal cost at capacity over k,"),
                # C is increasing: C(A) bounds the cost of every allocation
                (f"miners[{i}].cost", cost_eval(prof.cost, prof.capacity_A),
                 "C(A), the cost at capacity,"),
            ]
    # T2's and T3's constant demand; it bounds the full supply and T4's
    # demand 0.2 * k * sum(A)
    bounds.append(("platform.k", 3.0 * cfg.supply,
                   "3 * k * sum(capacity_A), the demand of T2's and T3's scenarios,"))
    for field_name, value, what in bounds:
        if not math.isfinite(value):
            raise ConfigError(field_name, f"{what} overflows")
    # T4's constant demand, the smallest a scenario sets, must be positive
    if not 0.2 * cfg.supply > 0:
        raise ConfigError("platform.k", "0.2 * k * sum(capacity_A), the demand of T4's "
                          "scenario, underflows to 0")
    # every payout ratio divides by M * p, and T6's bound by mu_F * p; ppf is
    # monotone, so ppf(U_MIN) is the smallest draw, and mu_F is no smaller
    if not plat.p * cfg.demand.ppf(U_MIN) > 0:
        raise ConfigError("platform.p", "p * M underflows to 0 at the smallest demand draw")


def parse_config(data: dict) -> ExperimentConfig:
    """The config `data` describes; prints nothing. Checks what YAML gets wrong
    (mappings, keys, number types) and fills in defaults; ExperimentConfig checks the rest."""
    data = _without_retired(_require_mapping(data, "<root>"))
    if "audit" in data:
        raise ConfigError("audit", "the audit block was removed; T6 sets its own bounds")
    _reject_unknown(data, {"mechanism", "platform", "miners", "demand", "rounds", "seed"}, "<root>")

    pnode = dict(_require_mapping(data.get("platform", {}), "platform"))
    # the subsidy numerator is always clamped at 0: the retired key's one
    # value that still holds, `true`, is dropped unread, as `replicas` is
    if pnode.pop("subsidy_clamp_nonneg", True) is not True:
        raise ConfigError("platform.subsidy_clamp_nonneg",
                          "was removed; the subsidy numerator c~/k - b is always clamped at 0")
    _reject_unknown(pnode, {"p", "b", "k", "lambda", "N", "eps_k"}, "platform")
    p = _number(pnode, "p", "platform")
    platform = _build(
        PlatformParams, "platform",
        p=p,
        b=_number(pnode, "b", "platform", default=p),  # b = p by default
        k=_number(pnode, "k", "platform"),
        lam=_optional(pnode, "lambda", "platform", PlatformParams, "lam"),
        window_N=_optional(pnode, "N", "platform", PlatformParams, "window_N"),
        eps_k=_optional(pnode, "eps_k", "platform", PlatformParams, "eps_k"),
    )

    miners_node = data.get("miners")
    if not isinstance(miners_node, list):
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
        if isinstance(pnode, dict) and pnode.get("kind") == "myopic_br":
            pnode = _without_retired(pnode)
        policies.append(_parse_variant(
            {"kind": "static"} if pnode is None else pnode, POLICY, f"{fname}.policy",
            defaults={"a": cap},
        ))
        profiles.append(MinerProfile(capacity_A=cap, cost=cost))

    return ExperimentConfig(
        mechanism=data.get("mechanism"),
        platform=platform,
        profiles=tuple(profiles),
        policies=tuple(policies),
        demand=_parse_variant(data.get("demand"), DEMAND, "demand"),
        rounds=_integer(data, "rounds", "<root>", default=10_000),
        seed=_integer(data, "seed", "<root>", default=0),
    )


# libyaml's parser where PyYAML was built with it: the same documents, read
# several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path: str):
    """The YAML document at `path`; malformed or undecodable YAML raises
    ConfigError."""
    with open(path) as fh:
        try:
            return yaml.load(fh, Loader=_YAML_LOADER)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ConfigError(path, f"malformed YAML: {e}") from e


def load_config(path: str) -> ExperimentConfig:
    return parse_config(read_yaml(path))


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)
