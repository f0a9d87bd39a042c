"""poolsim: simulator and audit harness for pay-per-share reward mechanisms
with opportunity-cost subsidies."""

from .analysis import (
    BestResponseResult,
    PayoffEstimate,
    bb_audit,
    best_response,
    docdic_check,
    expected_payoff_mc,
    floor_payoff,
    incentive_verdict,
    ocdic_check,
    payoff_curve,
)
from .config import ConfigError, ExperimentConfig, dump_config, load_config, parse_config
from .engine import (
    PlayedGame,
    SimulationLedger,
    delta_adaptive_policy,
    init_state,
    play,
    run_simulation,
    settle,
    step_round,
)
from .mechanisms import pps_reward, ppss_reward, subsidy_shape, subsidy_terms
from .model import (
    CostFunction,
    DemandModel,
    MinerPolicy,
    MinerProfile,
    PlatformParams,
    c_tilde,
    cost_eval,
    cost_marginal,
    sample_demand,
    sample_transcript,
    substream,
)

__version__ = "0.1.0"
