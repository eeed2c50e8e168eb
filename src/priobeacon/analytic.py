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

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy import stats

from .geometry import Category
from .policy import BackoffPolicy, BackoffRange, PolicyKind, backoff_range

__all__ = [
    "MacParameters",
    "ContentionConfig",
    "TauSolution",
    "AnalyticalResult",
    "IrtDistribution",
    "ConvergenceError",
    "solve_tau",
    "expected_backoff_slots",
    "expiration_time",
    "backoff_time",
    "success_time",
    "average_latency",
    "normalized_throughput",
    "irt_distribution",
    "evaluate",
    "ANALYTIC_CSV_HEADER",
    "analytic_csv_row",
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
        for name in ("t_ibi", "t_slot", "data_rate"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
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
    empirical mix); it is required for the proposed policy and ignored for
    the traditional one.  Uncategorized weight contends with CAT3's range.
    """

    n_sta: int
    policy: BackoffPolicy
    category: Category | None = None
    params: MacParameters = field(default_factory=MacParameters)
    category_mix: Mapping[Category, float] | None = None

    def __post_init__(self):
        if self.n_sta < 1:
            raise ValueError("n_sta must be at least 1")
        if self.policy.kind is PolicyKind.PROPOSED:
            if self.category is None:
                raise ValueError("proposed policy needs a tagged category")
            if self.category_mix is None:
                raise ValueError("proposed policy needs the scenario category mix")

    def tagged_range(self) -> BackoffRange:
        cat = self.category if self.category is not None else Category.CAT1
        return backoff_range(self.policy, cat)

    def contender_classes(self) -> list[tuple[BackoffRange, float]]:
        """Distinct backoff ranges of the contender population with their weights."""
        if self.policy.kind is PolicyKind.TRADITIONAL:
            return [(backoff_range(self.policy, Category.CAT1), 1.0)]
        mix = dict(self.category_mix)  # type: ignore[arg-type]
        total = sum(mix.values())
        if total <= 0:
            raise ValueError("category mix must have positive total weight")
        w1 = mix.get(Category.CAT1, 0.0) / total
        w2 = mix.get(Category.CAT2, 0.0) / total
        w3 = (mix.get(Category.CAT3, 0.0) + mix.get(Category.UNCATEGORIZED, 0.0)) / total
        classes = []
        for cat, w in ((Category.CAT1, w1), (Category.CAT2, w2), (Category.CAT3, w3)):
            if w > 0:
                classes.append((backoff_range(self.policy, cat), w))
        return classes


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


def _tau_for_range(rng_: BackoffRange, p_busy: float, slots: int) -> float:
    """P[elapsed slots to collect B idle slots <= slots], B uniform on the range."""
    b = np.arange(rng_.lo, rng_.hi + 1, dtype=np.int64)
    probs = np.zeros(b.shape[0], dtype=float)
    feasible = b <= slots
    if p_busy <= 0.0:
        probs[feasible] = 1.0
        return float(probs.mean())
    zero = b == 0
    probs[zero] = 1.0
    pos = feasible & ~zero
    if pos.any():
        probs[pos] = stats.nbinom.cdf(slots - b[pos], b[pos], 1.0 - p_busy)
    return float(probs.mean())


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
    if p_busy <= 0.0:
        feasible = b <= slots
        if not feasible.any():
            raise ValueError("no backoff value can complete within the beacon period")
        return float(b[feasible].mean())
    num = 0.0
    den = 0.0
    for b_i in b:
        if b_i > slots:
            continue
        if b_i == 0:
            den += 1.0
            continue
        k = np.arange(0, slots - b_i + 1, dtype=np.int64)
        pmf = stats.nbinom.pmf(k, int(b_i), 1.0 - p_busy)
        num += float(((b_i + k) * pmf).sum())
        den += float(pmf.sum())
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
class IrtDistribution:
    """Geometric inter-reception-time law over beacon-period counts >= 1,
    truncated at n_max with the residual tail mass recorded."""

    tau: float
    pmf: dict[int, float]
    truncation_mass: float

    @property
    def n_max(self) -> int:
        return max(self.pmf)

    def cdf(self) -> dict[int, float]:
        out = {}
        acc = 0.0
        for n in sorted(self.pmf):
            acc += self.pmf[n]
            out[n] = acc
        return out

    def mean(self) -> float:
        return 1.0 / self.tau

    def truncated_mean_with_tail(self) -> float:
        """Mean reassembled from the truncated pmf plus the geometric tail
        E[N | N > n_max] = n_max + 1/tau."""
        head = sum(n * p for n, p in self.pmf.items())
        return head + self.truncation_mass * (self.n_max + 1.0 / self.tau)


def irt_distribution(tau: float, n_max: int) -> IrtDistribution:
    """PMF (1 - tau)^(n-1) * tau over n = 1..n_max, with the tail mass recorded."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    q = 1.0 - tau
    pmf = {n: (q ** (n - 1)) * tau for n in range(1, n_max + 1)}
    return IrtDistribution(tau=tau, pmf=pmf, truncation_mass=q ** n_max)


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
    p_col_assumed: float = 0.0


def evaluate(config: ContentionConfig, tol: float = 1e-10, max_iter: int = 200) -> AnalyticalResult:
    """Run the full model for one configuration."""
    sol = solve_tau(config, tol=tol, max_iter=max_iter)
    e_nbo = expected_backoff_slots(config, sol)
    e_texp = expiration_time(sol.tau, config.params)
    e_tbo = backoff_time(e_nbo, config.params)
    t_suc = success_time(config.params)
    e_t = average_latency(sol.tau, e_texp, e_tbo, t_suc)
    r = normalized_throughput(sol.tau, t_suc, e_t)
    return AnalyticalResult(tau=sol.tau, e_nbo=e_nbo, e_texp=e_texp, e_tbo=e_tbo, t_suc=t_suc, e_t=e_t, r=r)


ANALYTIC_CSV_HEADER = "policy,category,cw,n_sta,tau,e_nbo,e_texp_s,e_tbo_s,t_suc_s,e_t_s,r"


def analytic_csv_row(config: ContentionConfig, result: AnalyticalResult) -> str:
    category = config.category.token if config.category is not None else "all"
    values = (result.tau, result.e_nbo, result.e_texp, result.e_tbo, result.t_suc, result.e_t, result.r)
    return ",".join(
        [config.policy.kind.value, category, str(config.policy.cw), str(config.n_sta)]
        + [repr(float(v)) for v in values]
    )
