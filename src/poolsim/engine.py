"""The repeated game: round loop, miner policies, columnar ledger."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import best_response
from .config import ExperimentConfig
from .mechanisms import pps_reward, ppss_reward, subsidy_terms
from .model import (
    DemandModel,
    MinerPolicy,
    MinerProfile,
    c_tilde,
    sample_demand,
    sample_transcript,
    substream,
)
from .montecarlo import exact_sum

TAG_ROUND = 7


def delta_adaptive_policy(
    last_delta: float, last_a: float, profile: MinerProfile, policy: MinerPolicy
) -> float:
    """Exploit observed demand shortfalls, from the miner's previous round.

    A past delta < 1 means supply exceeded demand and the reward was scaled
    down, so the allocation shrinks multiplicatively toward the floor;
    delta = 1 pushes it back up toward capacity.
    """
    if last_delta < 1.0:
        return max(policy.floor, last_a * policy.step)
    return min(profile.capacity_A, last_a / policy.step)


def _policy_allocation(state: SimulationState, i: int) -> float:
    """Non-static miner i's allocation for the next round (a static miner's,
    min(a, A), is fixed in init_state). A miner sees only the closed rounds'
    announced demand and delta and its own row, never the other miners'
    allocations. A myopic_br miner maximises the raw payoff at the last
    announced M, on purpose: that payoff is what it earns (MinerPolicy).
    """
    cfg = state.cfg
    policy, profile = cfg.policies[i], cfg.profiles[i]
    led, prev = state.ledger, state.next_round - 2  # last closed round's row
    if policy.kind == "delta_adaptive":
        if prev < 0:
            return profile.capacity_A
        return delta_adaptive_policy(led.delta[prev], led.a[prev, i], profile, policy)
    # Myopic best response to the last announced demand, assuming the
    # other miners run at capacity. Within a run the argmax is a pure
    # function of (miner, M), so it is reused while M repeats.
    last_M = float(led.M[prev]) if prev >= 0 else cfg.demand.mu_F
    memo = state.br_memo[i]
    if memo is not None and memo[0] == last_M:
        return memo[1]
    br = best_response(
        cfg.mechanism, i, state.caps, cfg.platform, cfg.profiles,
        DemandModel(family="constant", M=last_M),
        grid_points=policy.grid,
    )
    state.br_memo[i] = (last_M, br.argmax_a)
    return br.argmax_a


@dataclass
class SimulationLedger:
    """Columnar record of a run: row j-1 holds round j.

    M, delta and budget_ratio have shape (rounds,); a, D, rewards and flags
    have shape (rounds, n). Columns are preallocated, and rows past the last
    stepped round stay zero. delta = min{|D|, M}/|D| (1 when |D| = 0) and
    budget_ratio = sum(R)/(M * p). Platform intake is p * min{|D|, M}
    (payment for completed work up to demand).
    """

    M: np.ndarray
    a: np.ndarray
    D: np.ndarray
    rewards: np.ndarray
    flags: np.ndarray
    delta: np.ndarray
    budget_ratio: np.ndarray
    p: float

    @classmethod
    def empty(cls, rounds: int, n: int, p: float) -> SimulationLedger:
        return cls(
            M=np.zeros(rounds), a=np.zeros((rounds, n)), D=np.zeros((rounds, n)),
            rewards=np.zeros((rounds, n)), flags=np.zeros((rounds, n), dtype=bool),
            delta=np.zeros(rounds), budget_ratio=np.zeros(rounds), p=p,
        )

    @property
    def rounds(self) -> int:
        return len(self.M)

    def window(self, row: int, N: int) -> tuple[np.ndarray, int]:
        """Per-miner output sum over the last min(row, N-1) rows before `row`,
        and that row count: the completed rounds the PPSS indicator reads."""
        lo = max(row - (N - 1), 0)
        if lo == row:
            return np.zeros(self.D.shape[1]), 0
        # cumsum adds the rows oldest first, one at a time; sum(axis=0) may
        # pair them up and round differently
        return self.D[lo:row].cumsum(axis=0)[-1], row - lo

    @property
    def cumulative_intake(self) -> float:
        return exact_sum(self.p * np.minimum(self.D.sum(axis=1), self.M))

    @property
    def cumulative_outflow(self) -> float:
        return exact_sum(self.rewards)


@dataclass
class SimulationState:
    cfg: ExperimentConfig
    ledger: SimulationLedger
    caps: np.ndarray
    # Per-run constants: each static miner's allocation (None for the other
    # policies) and ppss_reward's subsidy_terms.
    static_a: list[float | None]
    unit: np.ndarray
    numerator: np.ndarray
    # Per miner, (announced M, argmax) of its last myopic best response.
    br_memo: list[tuple[float, float] | None]
    next_round: int = 1


def init_state(cfg: ExperimentConfig) -> SimulationState:
    """A state before round 1 whose ledger has room for cfg.rounds rounds."""
    profiles, params = cfg.profiles, cfg.platform
    n = len(profiles)
    caps = np.array([p.capacity_A for p in profiles], dtype=float)
    unit, numerator = subsidy_terms(caps, np.array([c_tilde(p) for p in profiles]), params)
    return SimulationState(
        cfg=cfg,
        ledger=SimulationLedger.empty(cfg.rounds, n, params.p),
        caps=caps,
        static_a=[
            min(pol.a, prof.capacity_A) if pol.kind == "static" else None
            for pol, prof in zip(cfg.policies, profiles)
        ],
        unit=unit,
        numerator=numerator,
        br_memo=[None] * n,
    )


def step_round(state: SimulationState) -> None:
    """Resolve exactly one round and write its ledger row.

    All policies decide synchronously from rounds < j, then demand and the
    outputs are drawn from the round's substream.
    """
    j, cfg = state.next_round, state.cfg
    row, params, led = j - 1, cfg.platform, state.ledger
    rng = substream(cfg.seed, TAG_ROUND, j)
    M = sample_demand(cfg.demand, rng)
    # a static miner's min(a, A) is fixed in init_state (MinerPolicy rejects a
    # negative or NaN a), so only the allocations policies compute are checked
    alloc = []
    for i, s in enumerate(state.static_a):
        if s is None:
            s = _policy_allocation(state, i)
            cap = cfg.profiles[i].capacity_A
            if not 0 <= s <= cap:
                raise ValueError(f"allocation {s} outside [0, {cap}] for miner {i}")
        alloc.append(s)
    a = np.array(alloc)
    d = sample_transcript(params, a, rng)
    total = float(d.sum())

    if cfg.mechanism == "pps":
        rewards = pps_reward(d, total, M, params)
        # analytic ratio (b/p) * (min{|D|, M} / M): equals the summed form in
        # real arithmetic but cannot exceed b/p by a rounding ulp
        ratio = (params.b / params.p) * (min(total, M) / M) if total else 0.0
    else:
        window_sum, window_len = led.window(row, params.window_N)
        rewards, led.flags[row] = ppss_reward(
            d, total, M, window_sum, window_len, state.unit, state.numerator, params,
        )
        ratio = rewards.sum() / (M * params.p)

    led.M[row] = M
    led.a[row] = a
    led.D[row] = d
    led.rewards[row] = rewards
    led.delta[row] = min(total, M) / total if total else 1.0
    led.budget_ratio[row] = ratio
    state.next_round += 1


def run_simulation(config: ExperimentConfig) -> SimulationLedger:
    """Run the repeated game for config.rounds rounds.

    Bit-reproducible for a given config (its seed included; run another seed
    with dataclasses.replace(config, seed=...)); the loop is strictly
    sequential because each round's policies and windows read earlier rows.
    """
    if config.rounds < 1:
        raise ValueError("rounds must be at least 1")
    state = init_state(config)
    for _ in range(config.rounds):
        step_round(state)
    return state.ledger
