"""Distance-prioritized backoff for vehicular safety beaconing: simulator and model."""

from .geometry import (
    Category,
    CategoryThresholds,
    DropMode,
    RegionSpec,
    SpatialScenario,
    build_adjacency,
    categorize,
    category_mix,
    drop_nodes,
    save_scenario,
)
from .policy import BackoffPolicy, BackoffRange, PolicyKind, backoff_range
from .analytic import (
    AnalyticalResult,
    ContentionConfig,
    ConvergenceError,
    MacParameters,
    TauSolution,
    average_latency,
    backoff_time,
    evaluate,
    expected_backoff_slots,
    expiration_time,
    normalized_throughput,
    solve_tau,
    success_time,
)
from .sim import Outcome, SimConfig, SimOutcome, classify_collision, run_simulation, run_simulations
from .metrics import (
    ComparisonReport,
    EmpiricalEstimates,
    build_estimates,
    compare,
    estimate_irt,
)
from .config import ExperimentConfig, canonical_text, derive_seed, parse_config

__version__ = "0.1.0"
