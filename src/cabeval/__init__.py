"""Offline replay evaluation for continuous-armed bandit policies."""

from .config import ExperimentConfig, PolicySpec, make_policy, parse_config
from .harness import derive_rng, run_experiment, simulate_online
from .metrics import (
    RankTable,
    RunAggregate,
    aggregate_runs,
    cumulative_regret,
    cumulative_reward,
    rank_at,
)
from .policies import (
    ConstantPolicy,
    EpsilonFirstPolicy,
    LockInFeedbackPolicy,
    Policy,
    ThompsonQuadraticPolicy,
    UniformRandomPolicy,
    argmax_quadratic,
    least_squares_quadratic,
)
from .replay import (
    LoggedStream,
    ReplayConfig,
    Trace,
    acceptance_probability,
    generate_logged_stream,
    load_stream,
    replay_cab,
    replay_discrete,
    required_log_length,
    save_stream,
)
from .rewards import (
    ActionRange,
    BimodalQuarticModel,
    ParabolaModel,
    make_bimodal,
    make_model,
    make_parabola,
)

__version__ = "0.1.0"
