"""Empirical estimators over simulation outcomes and analytic-vs-empirical comparison.

tau_hat is the per-beacon transmission fraction (delivered + collided over
periods).  The inter-reception time is estimated from per-period
transmission bit sequences as gaps between consecutive '1's, so consecutive
transmissions give a gap of 1; the zero-based display convention (first-try
success = 0) is a presentation shift handled by the caller.

Both the IRT and the delay's wasted periods follow from each row's maximal
runs of k '0's.  A run with a '1' on both sides is one gap of k + 1 (every
other gap is an adjacent '1' pair, a gap of 1).  Every run, including the one
before a row's first '1' and the censored tail, waits k + (k - 1) + ... + 1 =
k(k + 1)/2 periods, since each '0' waits until the next '1' or the row's end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analytic import AnalyticalResult, MacParameters, success_time

__all__ = [
    "TauEstimate",
    "IrtEstimate",
    "EmpiricalEstimates",
    "ComparisonReport",
    "estimate_irt",
    "total_wait_periods",
    "build_estimates",
    "compare",
    "proportion_ci",
    "MIN_PERIODS",
]

Z95 = 1.959963984540054

# Fewest beacon periods the tau and IRT estimators accept.
MIN_PERIODS = 100


@dataclass(frozen=True)
class TauEstimate:
    value: float
    half_width: float
    lo: float
    hi: float


def proportion_ci(successes: int, trials: int, z: float = Z95) -> TauEstimate:
    """Normal-approximation proportion CI with Wilson bounds at p in {0, 1}."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    if 0.0 < p < 1.0:
        hw = z * math.sqrt(p * (1.0 - p) / trials)
        return TauEstimate(p, hw, max(0.0, p - hw), min(1.0, p + hw))
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    hw = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if p == 0.0 else max(0.0, center - hw)
    hi = 1.0 if p == 1.0 else min(1.0, center + hw)
    return TauEstimate(p, hw, lo, hi)


@dataclass(frozen=True)
class IrtEstimate:
    pmf: dict[int, float]  # keyed in increasing gap order
    gap_count: int
    sequences_without_gaps: int

    def cdf(self) -> dict[int, float]:
        return dict(zip(self.pmf, np.cumsum(list(self.pmf.values())).tolist()))


def _zero_runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of '0's in a (n, periods) bool matrix, in row-major order:
    its row, its length k and whether a '1' lies on both sides of it."""
    periods = bits.shape[1]
    padded = np.pad(bits, ((0, 0), (1, 1)), constant_values=True)
    rows, cols = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), periods + 1)
    starts, ends = cols[0::2], cols[1::2]  # a row's changes alternate: a run starts, then ends
    return rows[0::2], ends - starts, (starts > 0) & (ends < periods)


def estimate_irt(bit_sequences: np.ndarray) -> IrtEstimate:
    """Empirical inter-reception-time PMF from per-period bit sequences.

    bit_sequences: (n_sequences, n_periods) boolean array; gaps are index
    differences between consecutive '1's (consecutive successes -> gap 1).
    Sequences with fewer than two '1's contribute no gaps and are counted
    in the diagnostics.
    """
    bits = np.asarray(bit_sequences, dtype=bool)
    if bits.ndim != 2:
        raise ValueError("bit_sequences must be a 2-d array")
    if bits.shape[1] < MIN_PERIODS:
        raise ValueError(f"IRT estimation needs sequences of at least {MIN_PERIODS} periods")
    rows, k, bounded = _zero_runs(bits)
    counts = np.bincount(k[bounded] + 1, minlength=2)
    counts[1] = np.count_nonzero(bits[:, 1:] & bits[:, :-1])
    gaps = np.flatnonzero(counts)
    total = int(counts.sum())
    ones = bits.shape[1] - np.bincount(rows, weights=k, minlength=bits.shape[0])
    without = int(np.count_nonzero(ones < 2))
    return IrtEstimate(dict(zip(gaps.tolist(), (counts[gaps] / total).tolist())), total, without)


def total_wait_periods(bits: np.ndarray) -> np.ndarray:
    """Summed wasted periods per row of a (n, periods) transmission-bit matrix (int64).

    Each non-transmitting period waits until the node's next transmission
    (one period if the very next period transmits), censored at the end of
    the sequence.
    """
    bits = np.asarray(bits, dtype=bool)
    rows, k, _bounded = _zero_runs(bits)
    waits = np.zeros(bits.shape[0], dtype=np.int64)
    np.add.at(waits, rows, k * (k + 1) // 2)
    return waits


@dataclass(frozen=True)
class EmpiricalEstimates:
    n_nodes: int
    n_periods: int
    tau: TauEstimate
    e_nbo_hat: float | None
    delay_hat: float
    r_hat: float | None
    irt: IrtEstimate


def build_estimates(bits: np.ndarray, elapsed_sums: np.ndarray, params: MacParameters) -> EmpiricalEstimates | None:
    """All empirical estimates for one tagged node set (None if it is empty).

    bits: (n, periods) bool, True where the node transmitted (delivered or
    collided) in that period; elapsed_sums: (n,) summed elapsed backoff
    slots over each node's transmitted periods.  The caller picks the rows
    of the tagged nodes: `SimOutcome` gives both arrays (`transmitted_bits`,
    `elapsed_sums`, indexed by `category_nodes`), and so do the exported
    `bits_*`/`stats_*` files.  `compare` takes the grid key.

    tau_hat is the transmitted fraction of node-periods, with its CI from
    `proportion_ci`.  E[N_bo] is the mean elapsed backoff per transmitted
    packet.  The delay charges each transmitted packet elapsed * T_slot +
    T_suc, and each expired one T_ibi per wasted period until the node's
    next transmission (censored at the end of the run).
    """
    n, periods = bits.shape
    if n == 0:
        return None
    tx_total = int(bits.sum())
    elapsed_total = float(elapsed_sums.sum())
    tau = proportion_ci(tx_total, n * periods)
    t_suc = success_time(params)
    total_delay = elapsed_total * params.t_slot + tx_total * t_suc
    for wait in total_wait_periods(bits).tolist():
        total_delay += wait * params.t_ibi
    delay = total_delay / (n * periods)
    return EmpiricalEstimates(
        n_nodes=n,
        n_periods=periods,
        tau=tau,
        e_nbo_hat=elapsed_total / tx_total if tx_total else None,
        delay_hat=delay,
        r_hat=tau.value * t_suc / delay if delay > 0 else None,
        irt=estimate_irt(bits),
    )


@dataclass(frozen=True)
class ComparisonReport:
    key: tuple[str, str, int, int]  # (policy, category token, cw, n_sta), as analytic.csv rows are keyed
    rows: dict[str, tuple[float, float, float, float | None, bool | None]]
    # metric -> (analytic, empirical, abs_deviation, tolerance, passed)

    @property
    def passed(self) -> bool:
        return all(p for (_, _, _, tol, p) in self.rows.values() if tol is not None)

    def to_text(self) -> str:
        policy, category, cw, n_sta = self.key
        lines = [f"point policy={policy} category={category} cw={cw} n_sta={n_sta}"]
        for metric, (a, e, dev, tol, p) in self.rows.items():
            status = "-" if tol is None else ("ok" if p else "FAIL")
            tol_s = "" if tol is None else f" tol={tol:g}"
            lines.append(f"  {metric}: analytic={a:.9g} empirical={e:.9g} |dev|={dev:.3g}{tol_s} [{status}]")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def compare(
    key: tuple[str, str, int, int],
    analytic: AnalyticalResult,
    empirical: EmpiricalEstimates,
    tolerances: Mapping[str, float],
) -> ComparisonReport:
    """Deterministic per-point comparison.

    tolerances maps metric names to bounds: 'tau' is an absolute bound on
    |tau_analytic - tau_hat|; 'e_nbo', 'delay' and 'r' are relative bounds.
    Metrics without a configured tolerance are reported but not judged.
    """
    rows: dict[str, tuple[float, float, float, float | None, bool | None]] = {}

    def add(name: str, a: float, e: float | None, relative: bool):
        if e is None:
            return
        dev = abs(a - e)
        tol = tolerances.get(name)
        if tol is None:
            rows[name] = (a, e, dev, None, None)
            return
        bound = tol * abs(a) if relative else tol
        rows[name] = (a, e, dev, tol, dev <= bound)

    add("tau", analytic.tau, empirical.tau.value, relative=False)
    add("e_nbo", analytic.e_nbo, empirical.e_nbo_hat, relative=True)
    add("delay", analytic.e_t, empirical.delay_hat, relative=True)
    add("r", analytic.r, empirical.r_hat, relative=True)
    return ComparisonReport(key=key, rows=rows)

