"""The repeated game: round loop, miner policies, columnar ledger."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import pps_reward, ppss_reward
from .model import (
    DemandModel,
    MinerProfile,
    PlatformParams,
    c_tilde,
    sample_demand,
    sample_transcript,
    substream,
)

TAG_ROUND = 7


@dataclass(frozen=True)
class MinerPolicy:
    """Policy kinds: static(a), myopic_br(grid, replicas), delta_adaptive(step, floor).

    myopic_br maximises the raw Monte Carlo payoff under both mechanisms, not
    the floor objective that ppss incentive verdicts use: the raw payoff is
    what a myopic miner actually earns in the round it plays.
    """

    kind: str
    a: float = 0.0
    grid: int = 64
    replicas: int = 2000
    step: float = 0.5
    floor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "myopic_br", "delta_adaptive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "static" and not self.a >= 0:
            raise ValueError("static allocation a must be nonnegative")
        if self.kind == "myopic_br" and self.grid < 2:
            raise ValueError("myopic_br grid must be at least 2")
        if self.kind == "myopic_br" and self.replicas < 1:
            raise ValueError("myopic_br replicas must be at least 1")
        if self.kind == "delta_adaptive" and not 0 < self.step < 1:
            raise ValueError("delta_adaptive step must lie in (0, 1)")
        if self.kind == "delta_adaptive" and not self.floor >= 0:
            raise ValueError("delta_adaptive floor must be nonnegative")


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
    """Miner i's allocation for the next round. A miner sees only the closed
    rounds' announced demand and delta and its own row, never the other
    miners' allocations. A myopic_br miner maximises the raw MC payoff at the
    last announced M, on purpose: that payoff is what it earns (MinerPolicy).
    """
    policy, profile = state.policies[i], state.profiles[i]
    if policy.kind == "static":
        return min(policy.a, profile.capacity_A)
    led, prev = state.ledger, state.next_round - 2  # last closed round's row
    if policy.kind == "delta_adaptive":
        if prev < 0:
            return profile.capacity_A
        return delta_adaptive_policy(led.delta[prev], led.a[prev, i], profile, policy)
    # Myopic best response to the last announced demand, assuming the
    # other miners run at capacity. Within a run the argmax is a pure
    # function of (miner, M), so it is reused while M repeats.
    last_M = float(led.M[prev]) if prev >= 0 else state.demand.mu_F
    memo = state.br_memo[i]
    if memo is not None and memo[0] == last_M:
        return memo[1]
    from .analysis import best_response

    br = best_response(
        state.mechanism, profile.id, state.caps, state.params, state.profiles,
        DemandModel(family="constant", M=last_M),
        grid_points=policy.grid, replicas=policy.replicas, seed=state.seed,
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
        return math.fsum((self.p * np.minimum(self.D.sum(axis=1), self.M)).tolist())

    @property
    def cumulative_outflow(self) -> float:
        return math.fsum(self.rewards.ravel().tolist())


@dataclass
class SimulationState:
    params: PlatformParams
    profiles: list[MinerProfile]
    policies: list[MinerPolicy]
    demand: DemandModel
    mechanism: str
    seed: int
    ledger: SimulationLedger
    caps: np.ndarray
    c_tildes: np.ndarray
    # Per miner, (announced M, argmax) of its last myopic best response.
    br_memo: list[tuple[float, float] | None]
    next_round: int = 1


def init_state(
    params: PlatformParams,
    profiles: list[MinerProfile],
    policies: list[MinerPolicy],
    demand: DemandModel,
    mechanism: str,
    seed: int,
    rounds: int,
) -> SimulationState:
    """A state whose ledger has room for `rounds` rounds."""
    n = len(profiles)
    return SimulationState(
        params=params,
        profiles=profiles,
        policies=policies,
        demand=demand,
        mechanism=mechanism,
        seed=seed,
        ledger=SimulationLedger.empty(rounds, n, params.p),
        caps=np.array([p.capacity_A for p in profiles], dtype=float),
        c_tildes=np.array([c_tilde(p) for p in profiles]),
        br_memo=[None] * n,
    )


def step_round(state: SimulationState) -> None:
    """Resolve exactly one round and write its ledger row.

    All policies decide synchronously from rounds < j, then demand and the
    outputs are drawn from the round's substream.
    """
    j = state.next_round
    row, params, led = j - 1, state.params, state.ledger
    rng = substream(state.seed, TAG_ROUND, j)
    M = sample_demand(state.demand, rng)
    a = np.array([_policy_allocation(state, i) for i in range(len(state.profiles))])
    if not np.all((0 <= a) & (a <= state.caps)):
        raise ValueError(f"allocations {a.tolist()} outside [0, {state.caps.tolist()}]")
    d = sample_transcript(params, a, rng)
    total = float(d.sum())

    if state.mechanism == "pps":
        rewards = pps_reward(d, total, M, params)
        # analytic ratio (b/p) * (min{|D|, M} / M): equals the summed form in
        # real arithmetic but cannot exceed b/p by a rounding ulp
        ratio = (params.b / params.p) * (min(total, M) / M) if total else 0.0
    else:
        window_sum, window_len = led.window(row, params.window_N)
        rewards, led.flags[row] = ppss_reward(
            d, total, M, window_sum, window_len, state.caps, state.c_tildes, params,
        )
        ratio = np.sum(rewards) / (M * params.p)

    led.M[row] = M
    led.a[row] = a
    led.D[row] = d
    led.rewards[row] = rewards
    led.delta[row] = min(total, M) / total if total else 1.0
    led.budget_ratio[row] = ratio
    state.next_round += 1


def run_simulation(config, seed: int | None = None) -> SimulationLedger:
    """Run the repeated game for config.rounds rounds.

    Bit-reproducible for a given (config, seed); the loop is strictly
    sequential because each round's policies and windows read earlier rows.
    """
    if config.rounds < 1:
        raise ValueError("rounds must be at least 1")
    state = init_state(
        params=config.platform,
        profiles=config.profiles,
        policies=config.policies,
        demand=config.demand,
        mechanism=config.mechanism,
        seed=config.seed if seed is None else seed,
        rounds=config.rounds,
    )
    for _ in range(config.rounds):
        step_round(state)
    return state.ledger
