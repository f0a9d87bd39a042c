"""The repeated game in two phases: play, then settle.

play runs the round loop (demand, miner policies, output draws, delta) into
a PlayedGame; settle pays a played game under one mechanism into a
SimulationLedger. No policy reads a payment, so one played game can be
settled under each mechanism when no policy reads the mechanism either
(reads_mechanism).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import best_response
from .config import ConfigError, ExperimentConfig
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

TAG_ROUND = 7


def delta_adaptive_policy(
    last_delta: float, last_a: float, profile: MinerProfile, policy: MinerPolicy
) -> float:
    """Exploit observed demand shortfalls, from the miner's previous round.

    A past delta < 1 means supply exceeded demand and the reward was scaled
    down, so the allocation shrinks multiplicatively toward the floor;
    delta = 1 pushes it back up toward capacity, multiplicatively too. So an
    allocation of exactly 0 stays there: with floor 0, a long enough run of
    shortfalls underflows it to 0, and the miner sits out the rest of the
    game whatever delta it sees.
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
    led, prev = state.game, state.next_round - 2  # last closed round's row
    if policy.kind == "delta_adaptive":
        if prev < 0:
            return profile.capacity_A
        return delta_adaptive_policy(led.delta.item(prev), led.a.item(prev, i), profile, policy)
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
class PlayedGame:
    """Columnar record of a played run, before it is paid: row j-1 holds
    round j.

    M and delta have shape (rounds,); a and D have shape (rounds, n).
    Columns are preallocated, and rows past the last stepped round stay
    zero. delta = min{|D|, M}/|D| (1 when |D| = 0).
    """

    M: np.ndarray
    a: np.ndarray
    D: np.ndarray
    delta: np.ndarray

    @property
    def rounds(self) -> int:
        return len(self.M)


@dataclass
class SimulationLedger(PlayedGame):
    """A played game and its payments under one mechanism.

    rewards and flags have shape (rounds, n), budget_ratio shape (rounds,).
    budget_ratio = sum(R)/(M * p).
    """

    rewards: np.ndarray
    flags: np.ndarray
    budget_ratio: np.ndarray


@dataclass
class SimulationState:
    cfg: ExperimentConfig
    game: PlayedGame
    caps: np.ndarray
    # Each static miner's allocation, fixed for the run (None for the other
    # policies).
    static_a: list[float | None]
    # Per miner, (announced M, argmax) of its last myopic best response.
    br_memo: list[tuple[float, float] | None]
    next_round: int = 1


def init_state(cfg: ExperimentConfig) -> SimulationState:
    """A state before round 1 whose game has room for cfg.rounds rounds."""
    profiles, rounds = cfg.profiles, cfg.rounds
    n = len(profiles)
    return SimulationState(
        cfg=cfg,
        game=PlayedGame(
            M=np.zeros(rounds), a=np.zeros((rounds, n)), D=np.zeros((rounds, n)),
            delta=np.zeros(rounds),
        ),
        caps=np.array([p.capacity_A for p in profiles], dtype=float),
        static_a=[
            min(pol.a, prof.capacity_A) if pol.kind == "static" else None
            for pol, prof in zip(cfg.policies, profiles)
        ],
        br_memo=[None] * n,
    )


def step_round(state: SimulationState) -> None:
    """Play exactly one round and write its row of the game: M, a, D and
    delta. Nobody is paid here; settle pays the whole game.

    All policies decide synchronously from rounds < j, then demand and the
    outputs are drawn from the round's substream.
    """
    j, cfg, game = state.next_round, state.cfg, state.game
    row = j - 1
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
    # the row stays in Python floats until it is written into the game
    game.a[row] = alloc
    d = game.D[row]
    d[:] = sample_transcript(cfg.platform, alloc, rng)
    # numpy's sum of the written row: a left-to-right sum of 9 or more
    # outputs would round differently from numpy's pairwise one
    total = float(d.sum())
    game.M[row] = M
    game.delta[row] = min(total, M) / total if total else 1.0
    state.next_round += 1


def reads_mechanism(cfg: ExperimentConfig) -> bool:
    """Whether play(cfg) depends on cfg.mechanism. Only a myopic_br miner
    reads it; without one, the game played under pps and under ppss is the
    same, and only settle tells the mechanisms apart."""
    return any(pol.kind == "myopic_br" for pol in cfg.policies)


def play(cfg: ExperimentConfig) -> PlayedGame:
    """Phase 1: play cfg.rounds rounds, one step_round each.

    Bit-reproducible for a given config (its seed included; play another
    seed with dataclasses.replace(config, seed=...)); the loop is strictly
    sequential because each round's policies read earlier rows.
    """
    state = init_state(cfg)
    for _ in range(cfg.rounds):
        step_round(state)
    return state.game


def window_sums(D: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of D, each miner's output sum over the last min(row, N-1) rows
    before it, and that row count: the completed rounds the PPSS indicator
    reads.

    The window is added oldest first, one lagged copy of D at a time, onto
    0.0 (which adds exactly): the order a per-row cumsum adds it in. A
    pairwise sum could round differently.
    """
    rounds = len(D)
    sums = np.zeros_like(D)
    for lag in range(min(N - 1, rounds - 1), 0, -1):
        sums[lag:] += D[:-lag]
    return sums, np.minimum(np.arange(rounds), N - 1)


def settle(played: PlayedGame, cfg: ExperimentConfig) -> SimulationLedger:
    """Phase 2: pay a fully played game under cfg.mechanism.

    The ledger shares played's M, a, D and delta columns. Under pps the
    rewards come from one pps_reward call on the whole (rounds, n) game,
    with totals and demands as (rounds, 1) columns: the shape convention of
    a Monte Carlo block, computing each element as a row's call would.
    Under ppss they come from one ppss_reward call per round row, because
    the benchmark's self-test (perfbench/selftest.py) pins ppss_reward's
    call count at one per round; a whole-game ppss call waits for that
    count to be restated; the loop indexes each row, and hands its total,
    demand and window length over as Python scalars (.item()). The totals
    |D|, the window sums and budget_ratio are computed over whole columns,
    and each row of them has the bits the row's own sum would. A policy
    never reads a payment, so paying after the last round gives the ledger
    that paying each round in turn would. A ppss round whose budget_ratio
    overflows raises ConfigError naming platform.p.
    """
    params, M, D = cfg.platform, played.M, played.D
    # every drawn demand is positive, so M = 0 marks a row never played,
    # whose budget_ratio would divide by zero
    if not M.all():
        raise ValueError(f"game has {M.size - np.count_nonzero(M)} unplayed round(s)")
    total = D.sum(axis=1)
    flags = np.zeros(D.shape, dtype=bool)
    if cfg.mechanism == "pps":
        # one call on the whole game, shaped as a Monte Carlo block
        rewards = pps_reward(D, total[:, None], M[:, None], params)
        # analytic ratio (b/p) * (min{|D|, M} / M): equals the summed form in
        # real arithmetic but cannot exceed b/p by a rounding ulp
        ratio = np.where(total > 0, (params.b / params.p) * (np.minimum(total, M) / M), 0.0)
    else:
        profiles = cfg.profiles
        unit, numerator = subsidy_terms(
            np.array([p.capacity_A for p in profiles], dtype=float),
            np.array([c_tilde(p) for p in profiles]), params,
        )
        sums, lens = window_sums(D, params.window_N)
        rewards = np.zeros_like(D)
        for row in range(len(D)):
            rewards[row], flags[row] = ppss_reward(
                D[row], total.item(row), M.item(row), sums[row], lens.item(row),
                unit, numerator, params,
            )
        # ExperimentConfig checks b/p, but a subsidised round pays up to
        # numerator/eps_k per unit, so its ratio can overflow at a p that
        # passes that check
        with np.errstate(over="ignore"):
            ratio = rewards.sum(axis=1) / (M * params.p)
        if not np.isfinite(ratio).all():
            raise ConfigError(
                "platform.p",
                f"a round's payout ratio sum(R) / (M * p) overflows at p = {params.p}",
            )
    return SimulationLedger(
        M=M, a=played.a, D=D, delta=played.delta,
        rewards=rewards, flags=flags, budget_ratio=ratio,
    )


def run_simulation(config: ExperimentConfig) -> SimulationLedger:
    """Run the repeated game for config.rounds rounds: settle(play(config))."""
    return settle(play(config), config)
