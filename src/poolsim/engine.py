"""The repeated game: round loop, miner policies, window upkeep, ledger."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mechanisms import RollingWindow, pps_reward, ppss_reward
from .model import (
    DemandModel,
    MinerProfile,
    PlatformParams,
    StrategyProfile,
    sample_demand,
    sample_transcript,
    substream,
)

TAG_ROUND = 7


@dataclass(frozen=True)
class Observation:
    """What one miner sees after a round closes: the announced demand, her
    own action, output, reward, and the inferred scale factor delta.
    Other miners' allocations are never observable."""

    round_index: int
    M: float
    own_a: float
    own_D: float
    own_reward: float
    delta: float


@dataclass(frozen=True)
class MinerPolicy:
    """Policy kinds: static(a), myopic_br(grid, replicas), delta_adaptive(step, floor)."""

    kind: str
    a: float = 0.0
    grid: int = 64
    replicas: int = 2000
    step: float = 0.5
    floor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "myopic_br", "delta_adaptive"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "delta_adaptive" and not 0 < self.step < 1:
            raise ValueError("delta_adaptive step must lie in (0, 1)")


def delta_adaptive_policy(
    observations: list[Observation], profile: MinerProfile, policy: MinerPolicy
) -> float:
    """Exploit observed demand shortfalls.

    A past delta < 1 means supply exceeded demand and the reward was scaled
    down, so the allocation shrinks multiplicatively toward the floor;
    delta = 1 pushes it back up toward capacity.
    """
    if not observations:
        raise ValueError("delta_adaptive_policy needs at least one past round")
    last = observations[-1]
    if last.delta < 1.0:
        return max(policy.floor, last.own_a * policy.step)
    return min(profile.capacity_A, last.own_a / policy.step)


def _policy_allocation(state: SimulationState, i: int) -> float:
    policy, profile = state.policies[i], state.profiles[i]
    observations = state.observations[i]
    if policy.kind == "static":
        return min(policy.a, profile.capacity_A)
    if policy.kind == "delta_adaptive":
        if not observations:
            return profile.capacity_A
        return delta_adaptive_policy(observations, profile, policy)
    # Myopic best response to the last announced demand, assuming the
    # other miners run at capacity. Within a run the argmax is a pure
    # function of (miner, M), so it is reused while M repeats.
    last_M = observations[-1].M if observations else state.demand.mu_F
    memo = state.br_memo[i]
    if memo is not None and memo[0] == last_M:
        return memo[1]
    from .analysis import best_response

    capacities = np.array([p.capacity_A for p in state.profiles])
    br = best_response(
        state.mechanism, profile.id, capacities, state.params, state.profiles,
        DemandModel(family="constant", M=last_M),
        grid_points=policy.grid, replicas=policy.replicas, seed=state.seed,
        fixed_M=last_M,
    )
    state.br_memo[i] = (last_M, br.argmax_a)
    return br.argmax_a


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    M: float
    allocations: tuple
    difficulties: tuple
    rewards: tuple
    subsidy_flags: tuple
    delta: float
    budget_ratio: float


@dataclass
class SimulationLedger:
    """Ordered round records plus cumulative platform cash flows.

    Intake is recorded as p * min{|D|, M} (payment for completed work up to
    demand); the budget-ratio denominator stays M * p.
    """

    records: list[RoundRecord] = field(default_factory=list)
    cumulative_intake: float = 0.0
    cumulative_outflow: float = 0.0

    def append(self, rec: RoundRecord, intake: float) -> None:
        if self.records and rec.round_index <= self.records[-1].round_index:
            raise ValueError("round indices must be strictly increasing")
        self.records.append(rec)
        self.cumulative_intake += intake
        self.cumulative_outflow += sum(rec.rewards)


@dataclass
class SimulationState:
    params: PlatformParams
    profiles: list[MinerProfile]
    policies: list[MinerPolicy]
    demand: DemandModel
    mechanism: str
    seed: int
    windows: list[RollingWindow]
    observations: list[list[Observation]]
    ledger: SimulationLedger
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
) -> SimulationState:
    n = len(profiles)
    return SimulationState(
        params=params,
        profiles=profiles,
        policies=policies,
        demand=demand,
        mechanism=mechanism,
        seed=seed,
        windows=[RollingWindow(params.window_N) for _ in range(n)],
        observations=[[] for _ in range(n)],
        ledger=SimulationLedger(),
        br_memo=[None] * n,
    )


def step_round(state: SimulationState) -> RoundRecord:
    """Resolve exactly one round and append it to the ledger.

    All policies decide synchronously from rounds < j, then demand and the
    transcript are drawn from the round's substream.
    """
    j = state.next_round
    rng = substream(state.seed, TAG_ROUND, j)
    M = sample_demand(state.demand, rng)
    allocs = [_policy_allocation(state, i) for i in range(len(state.profiles))]
    strategy = StrategyProfile.of(allocs)
    strategy.validate(state.profiles)
    transcript = sample_transcript(state.params, strategy, M, j, rng)

    if state.mechanism == "pps":
        outcome = pps_reward(transcript, state.params)
    else:
        outcome = ppss_reward(transcript, state.params, state.profiles, state.windows)

    rec = RoundRecord(
        round_index=j,
        M=M,
        allocations=strategy.allocations,
        difficulties=transcript.difficulties,
        rewards=outcome.rewards,
        subsidy_flags=outcome.subsidy_flags,
        delta=outcome.scale_delta,
        budget_ratio=outcome.budget_ratio,
    )
    intake = state.params.p * min(transcript.total_D, M)
    state.ledger.append(rec, intake)

    for i in range(len(state.profiles)):
        state.windows[i].push(transcript.difficulties[i])
        state.observations[i].append(Observation(
            round_index=j,
            M=M,
            own_a=strategy.allocations[i],
            own_D=transcript.difficulties[i],
            own_reward=outcome.rewards[i],
            delta=outcome.scale_delta,
        ))
    state.next_round += 1
    return rec


def run_simulation(config, seed: int | None = None) -> SimulationLedger:
    """Run the repeated game for config.rounds rounds.

    Bit-reproducible for a given (config, seed); the loop is strictly
    sequential because the rolling windows are stateful.
    """
    if config.rounds < 1:
        raise ValueError("rounds must be at least 1")
    state = init_state(
        params=config.platform,
        profiles=config.profiles(),
        policies=config.policies(),
        demand=config.demand,
        mechanism=config.mechanism,
        seed=config.seed if seed is None else seed,
    )
    for _ in range(config.rounds):
        step_round(state)
    return state.ledger
