"""Analytical performance model for per-beacon broadcast contention.

The model works per beacon period of `slots_per_beacon` slots.  A tagged
station draws a backoff B from its policy range and must observe B idle
slots within the period to transmit; otherwise the packet expires at the
period end.  Every other station renders a given slot busy independently,
so a slot is sensed busy with probability

    p_busy = 1 - (1 - tau_other / slots_per_beacon) ** (n_sta - 1)

where tau_other is the contenders' mix-average per-beacon transmission
probability.  The elapsed slot count needed to collect B idle slots is then
negative-binomial, and

    tau = P[elapsed <= slots_per_beacon]

averaged over B (and over the category mix for the proposed policy).  The
fixed point tau = F(tau) is solved by damped iteration from tau0 = 1.

Derived quantities follow the per-beacon latency decomposition:

    E[T_exp] = T_ibi * (1 - tau) / tau          (consecutive wasted periods)
    E[T_bo]  = T_slot * E[N_bo]                 (N_bo conditioned on completion)
    T_suc    = Hdr + Pld + SIFS + T_prop
    E[T]     = (1 - tau) * E[T_exp] + tau * (E[T_bo] + T_suc)
    R        = tau * T_suc / E[T]

and the inter-reception time (in beacon periods) is Geometric(tau).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.special import _ufuncs

from .geometry import Category
from .policy import BackoffPolicy, BackoffRange, backoff_range

__all__ = [
    "MacParameters",
    "ContentionConfig",
    "TauSolution",
    "AnalyticalResult",
    "ConvergenceError",
    "solve_tau",
    "expected_backoff_slots",
    "expiration_time",
    "backoff_time",
    "success_time",
    "average_latency",
    "normalized_throughput",
    "evaluate",
    "ANALYTIC_CSV_HEADER",
    "analytic_csv_row",
    "read_analytic_rows",
]


@dataclass(frozen=True)
class MacParameters:
    """MAC timing constants; defaults follow the 10 MHz single-channel setup."""

    t_ibi: float = 100e-3
    t_slot: float = 50e-6
    difs: float = 128e-6
    sifs: float = 28e-6
    header_airtime: float = 40e-6
    payload_bytes: int = 40
    data_rate: float = 6e6
    t_prop: float = 1e-6

    def __post_init__(self):
        for name in ("t_ibi", "t_slot", "difs", "sifs", "header_airtime", "data_rate", "t_prop"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("t_ibi", "t_slot", "data_rate"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.t_ibi / self.t_slot):
            raise ValueError("t_ibi / t_slot must be finite")
        if self.slots_per_beacon < 1:
            raise ValueError("t_ibi must be at least one t_slot long")
        # header/payload may degenerate to zero; the other times just can't be negative
        for name in ("difs", "sifs", "header_airtime", "t_prop"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if self.tx_occupancy_slots < 1:
            raise ValueError(
                "a transmission must occupy at least one slot; "
                "difs, sifs, header_airtime, payload_bytes and t_prop are all zero"
            )
        # The simulator keeps start slots in int32.  The closed form starts the k-th distinct
        # draw u <= slots of a period at u + k * occupancy, with k <= u, so a start is at most
        # slots * (occupancy + 1), which the limit keeps at or below 2^31 - 2.
        limit = (2**31 - 2) // (self.tx_occupancy_slots + 1)
        if self.slots_per_beacon > limit:
            raise ValueError(
                f"t_ibi must be at most {limit} slots at {self.tx_occupancy_slots} slots per transmission, "
                f"not {self.slots_per_beacon}: the simulator's int32 start slots reach "
                "slots_per_beacon * (tx_occupancy_slots + 1)"
            )

    @property
    def slots_per_beacon(self) -> int:
        q = self.t_ibi / self.t_slot
        nearest = round(q)
        # floor, but absorb floating-point dust around an exact multiple
        if abs(q - nearest) <= 1e-9 * max(q, 1.0):
            return int(nearest)
        return math.floor(q)

    @property
    def payload_airtime(self) -> float:
        return 8.0 * self.payload_bytes / self.data_rate

    @property
    def tx_airtime(self) -> float:
        """Medium-busy duration of one transmission (DIFS + successful-delivery time)."""
        return self.difs + success_time(self)

    @property
    def tx_occupancy_slots(self) -> int:
        """Whole slots one transmission keeps the medium busy."""
        return math.ceil(self.tx_airtime / self.t_slot)


@dataclass(frozen=True)
class ContentionConfig:
    """One evaluated point: tagged category against n_sta contenders sharing a policy.

    category_mix gives the contenders' category proportions (the scenario's
    empirical mix).  The category and the mix are required when the policy
    gives the categories different ranges and ignored when they share one
    (`BackoffPolicy.shared_range`).  Each category's weight contends with
    the range `backoff_range` gives it.
    """

    n_sta: int
    policy: BackoffPolicy
    category: Category | None = None
    params: MacParameters = field(default_factory=MacParameters)
    category_mix: Mapping[Category, float] | None = None

    def __post_init__(self):
        if self.n_sta < 1:
            raise ValueError("n_sta must be at least 1")
        if self.policy.shared_range() is None:
            if self.category is None:
                raise ValueError(f"{self.policy.kind.value} policy needs a tagged category")
            if self.category_mix is None:
                raise ValueError(f"{self.policy.kind.value} policy needs the scenario category mix")

    def tagged_range(self) -> BackoffRange:
        cat = self.category if self.category is not None else Category.CAT1
        return backoff_range(self.policy, cat)

    def contender_classes(self) -> list[tuple[BackoffRange, float]]:
        """Distinct backoff ranges of the contender population with their weights."""
        shared = self.policy.shared_range()
        if shared is not None:
            return [(shared, 1.0)]
        mix = dict(self.category_mix)  # type: ignore[arg-type]
        total = sum(mix.values())
        if total <= 0:
            raise ValueError("category mix must have positive total weight")
        weights: dict[BackoffRange, float] = {}
        for cat in Category:
            rng_ = backoff_range(self.policy, cat)
            weights[rng_] = weights.get(rng_, 0.0) + mix.get(cat, 0.0)
        return [(rng_, w / total) for rng_, w in weights.items() if w > 0]


@dataclass(frozen=True)
class TauSolution:
    """Fixed-point output: tagged-category tau plus solver diagnostics."""

    tau: float
    tau_mix: float
    p_busy: float
    iterations: int
    residual: float


class ConvergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"tau fixed point did not converge after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


def _nbinom_pmf(k, n, p):
    """Negative-binomial pmf of k failures before the n-th success: the clipped
    ufunc call that scipy's `nbinom.pmf` makes, without its argument checks."""
    return np.clip(_ufuncs._nbinom_pmf(k, n, p), 0, 1)


def _nbinom_cdf(k, n, p):
    """Negative-binomial cdf at integer k, as scipy's `nbinom.cdf` computes it."""
    return np.clip(_ufuncs._nbinom_cdf(k, n, p), 0, 1)


# Both caches key on p_busy, which at default timing depends only on n_sta,
# so the grid's categories and contention windows share most entries.
@functools.lru_cache(maxsize=4096)
def _tau_for_range(rng_: BackoffRange, p_busy: float, slots: int) -> float:
    """P[elapsed slots to collect B idle slots <= slots], B uniform on the range."""
    b = np.arange(rng_.lo, rng_.hi + 1, dtype=np.int64)
    probs = np.zeros(b.shape[0], dtype=float)
    feasible = b <= slots
    zero = b == 0
    probs[zero] = 1.0
    pos = feasible & ~zero
    if pos.any():
        probs[pos] = _nbinom_cdf(slots - b[pos], b[pos], 1.0 - p_busy)
    return float(probs.mean())


# e**-800 ~ 4e-348 lies ~1e24 below half the smallest subnormal (~2.5e-324).
_LOG_PMF_CUT = -800.0


def _pmf_underflow_start(b: int, p: float, n: int) -> int:
    """First k past the mode of nbinom(b, p) from which the log-pmf stays
    below _LOG_PMF_CUT up to k = n, or n + 1 when the log-pmf at n is not
    below it.

    For b >= 1 the pmf is log-concave: pmf(k + 1) / pmf(k) = (b + k) q / (k + 1)
    with q = 1 - p falls in k and is <= 1 from the mode floor((b - 1) q / p)
    on.  Past the mode the log-pmf therefore only falls, and bisection over
    math.lgamma finds where it crosses the cut.  The search starts one past
    the computed mode so that its rounding cannot land left of the true one.
    """
    q = 1.0 - p  # the failure probability the ufunc works with
    log_q = math.log(q)
    head = b * math.log(p) - math.lgamma(b)

    def log_pmf(k: int) -> float:
        return head + math.lgamma(b + k) - math.lgamma(k + 1) + k * log_q

    if log_pmf(n) >= _LOG_PMF_CUT:
        return n + 1
    lo, hi = min(math.floor((b - 1) * q / p) + 1, n), n
    while lo < hi:
        mid = (lo + hi) // 2
        if log_pmf(mid) < _LOG_PMF_CUT:
            hi = mid
        else:
            lo = mid + 1
    return hi


@functools.lru_cache(maxsize=16384)
def _completion_sums(b: int, p_busy: float, slots: int) -> tuple[float, float]:
    """(sum of (b + k) * pmf, sum of pmf) over k = 0..slots-b failures: the
    elapsed-slot mass and probability of draw b completing within the period.

    The pmf ufunc runs only up to `_pmf_underflow_start`; the rest of the
    row is filled with 0.0.  There the exact pmf is below e**-800, so the
    ufunc would return 0.0 unless its relative error were near 1e24.  The
    filled row thus equals the whole-row result element for element, and
    numpy reduces the same array in the same pairwise order: both sums are
    bit-identical.  Where the bound is undefined (the success probability
    1 - p_busy or its complement rounds to 0) or the row's last entry is
    not below the cut, the cut is n + 1 and the ufunc covers the whole row.
    """
    n = slots - b
    k = np.arange(0, n + 1, dtype=np.int64)
    p = 1.0 - p_busy
    end = _pmf_underflow_start(b, p, n) if 0.0 < p < 1.0 else n + 1
    pmf = np.zeros(n + 1)
    pmf[:end] = _nbinom_pmf(k[:end], b, p)
    return float(((b + k) * pmf).sum()), float(pmf.sum())


def _p_busy(tau_other: float, n_sta: int, slots: int) -> float:
    return 1.0 - (1.0 - tau_other / slots) ** (n_sta - 1)


def solve_tau(config: ContentionConfig, tol: float = 1e-10, max_iter: int = 200) -> TauSolution:
    """Solve the per-beacon transmission-probability fixed point.

    Iterates tau <- 0.5 * F(tau) + 0.5 * tau from tau0 = 1 until the model
    residual |F(tau) - tau| drops below tol; raises ConvergenceError (with
    the last residual) instead of returning a stale value.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    slots = config.params.slots_per_beacon
    classes = config.contender_classes()
    tau_mix = 1.0
    residual = math.inf
    for it in range(1, max_iter + 1):
        p_busy = _p_busy(tau_mix, config.n_sta, slots)
        tau_new = sum(w * _tau_for_range(r, p_busy, slots) for r, w in classes)
        residual = abs(tau_new - tau_mix)
        if residual <= tol:
            tau_mix = tau_new
            p_busy = _p_busy(tau_mix, config.n_sta, slots)
            tau_tagged = _tau_for_range(config.tagged_range(), p_busy, slots)
            return TauSolution(tau=tau_tagged, tau_mix=tau_mix, p_busy=p_busy, iterations=it, residual=residual)
        tau_mix = 0.5 * tau_new + 0.5 * tau_mix
    raise ConvergenceError(max_iter, residual)


def expected_backoff_slots(config: ContentionConfig, solution: TauSolution) -> float:
    """E[N_bo]: expected elapsed slots of the backoff process, conditioned on the
    packet completing backoff before the period ends (the same busy-slot model
    as solve_tau)."""
    slots = config.params.slots_per_beacon
    p_busy = solution.p_busy
    rng_ = config.tagged_range()
    b = np.arange(rng_.lo, rng_.hi + 1, dtype=np.int64)
    num = 0.0
    den = 0.0
    for b_i in b:
        if b_i > slots:
            continue
        if b_i == 0:
            den += 1.0
            continue
        mass, prob = _completion_sums(int(b_i), p_busy, slots)
        num += mass
        den += prob
    if den <= 0.0:
        raise ValueError("completion probability is zero; E[N_bo] undefined")
    return num / den


def expiration_time(tau: float, params: MacParameters) -> float:
    """E[T_exp] = T_ibi * (1 - tau) / tau."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]; tau = 0 means the station never transmits")
    return params.t_ibi * (1.0 - tau) / tau


def backoff_time(e_nbo: float, params: MacParameters) -> float:
    """E[T_bo] = T_slot * E[N_bo]."""
    if e_nbo < 0:
        raise ValueError("E[N_bo] must be non-negative")
    return params.t_slot * e_nbo


def success_time(params: MacParameters) -> float:
    """T_suc = Hdr + Pld + SIFS + T_prop (payload airtime from bytes and rate)."""
    return params.header_airtime + params.payload_airtime + params.sifs + params.t_prop


def average_latency(tau: float, e_texp: float, e_tbo: float, t_suc: float) -> float:
    """E[T] = (1 - tau) * E[T_exp] + tau * (E[T_bo] + T_suc)."""
    return (1.0 - tau) * e_texp + tau * (e_tbo + t_suc)


def normalized_throughput(tau: float, t_suc: float, e_t: float) -> float:
    """R = tau * T_suc / E[T]."""
    if not (e_t > 0):
        raise ValueError("E[T] must be positive")
    r = tau * t_suc / e_t
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"normalized throughput {r} outside [0, 1]")
    return r


@dataclass(frozen=True)
class AnalyticalResult:
    """All model outputs for one (n_sta, policy, category, cw) point."""

    tau: float
    e_nbo: float
    e_texp: float
    e_tbo: float
    t_suc: float
    e_t: float
    r: float


def evaluate(config: ContentionConfig) -> AnalyticalResult:
    """Run the full model for one configuration."""
    sol = solve_tau(config)
    e_nbo = expected_backoff_slots(config, sol)
    e_texp = expiration_time(sol.tau, config.params)
    e_tbo = backoff_time(e_nbo, config.params)
    t_suc = success_time(config.params)
    e_t = average_latency(sol.tau, e_texp, e_tbo, t_suc)
    r = normalized_throughput(sol.tau, t_suc, e_t)
    return AnalyticalResult(tau=sol.tau, e_nbo=e_nbo, e_texp=e_texp, e_tbo=e_tbo, t_suc=t_suc, e_t=e_t, r=r)


ANALYTIC_CSV_HEADER = "policy,category,cw,n_sta,tau,e_nbo,e_texp_s,e_tbo_s,t_suc_s,e_t_s,r"


def analytic_csv_row(key: tuple[str, str, int, int], result: AnalyticalResult) -> str:
    """One analytic CSV row: the grid key (policy, category token, cw, n_sta),
    then the result's values at full round-trip precision."""
    values = (result.tau, result.e_nbo, result.e_texp, result.e_tbo, result.t_suc, result.e_t, result.r)
    return ",".join([*map(str, key), *(repr(float(v)) for v in values)])


def read_analytic_rows(path: Path) -> tuple[dict[tuple, AnalyticalResult | str], list[str]]:
    """analytic.csv's rows by grid key, and the reasons for the lines that name no key.

    A row whose key reads but whose values do not (a wrong field count, a
    non-numeric value, a key already seen) maps its key to the reason, so
    `report` fails that point alone and judges every other.
    """
    rows: dict[tuple, AnalyticalResult | str] = {}
    unkeyed = []
    n_fields = len(ANALYTIC_CSV_HEADER.split(","))
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ANALYTIC_CSV_HEADER:
            raise ValueError(f"unexpected analytic CSV header in {path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name} line {lineno}"
            parts = line.split(",")
            try:
                key = (parts[0], parts[1], int(parts[2]), int(parts[3]))
            except (IndexError, ValueError):
                unkeyed.append(f"{where}: no grid key in {line!r}")
                continue
            if key in rows:
                rows[key] = f"{where} repeats the key"
            elif len(parts) != n_fields:
                rows[key] = f"{where} has {len(parts)} fields, not {n_fields}"
            else:
                try:
                    rows[key] = AnalyticalResult(*map(float, parts[4:]))
                except ValueError:
                    rows[key] = f"{where} has a non-numeric value"
    return rows, unkeyed
