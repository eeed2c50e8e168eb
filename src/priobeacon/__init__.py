"""Distance-prioritized backoff for vehicular safety beaconing: simulator and model."""

from .geometry import (
    Category,
    CategoryThresholds,
    DropMode,
    Point2D,
    RegionSpec,
    SpatialScenario,
    VehicleNode,
    build_adjacency,
    categorize,
    category_mix,
    distance_to_danger,
    drop_nodes,
    load_scenario,
    save_scenario,
)
from .policy import BackoffPolicy, BackoffRange, PolicyKind, backoff_range, draw_backoff
from .analytic import (
    AnalyticalResult,
    ContentionConfig,
    ConvergenceError,
    IrtDistribution,
    MacParameters,
    TauSolution,
    average_latency,
    backoff_time,
    evaluate,
    expected_backoff_slots,
    expiration_time,
    irt_distribution,
    normalized_throughput,
    solve_tau,
    success_time,
)
from .sim import Outcome, SimConfig, SimOutcome, classify_collision, empirical_pcol, run_simulation, run_simulations
from .metrics import (
    ComparisonReport,
    EmpiricalEstimates,
    GridKey,
    build_estimates,
    compare,
    estimate_irt,
    estimate_tau,
)
from .config import ExperimentConfig, canonical_text, derive_seed, parse_config

__version__ = "0.1.0"
