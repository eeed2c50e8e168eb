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
    "BitSums",
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


class BitSums:
    """What every estimate takes from a node set's (n, periods) transmission bits: the
    transmitted node-periods, each row's total wait (in row order), the count of each gap
    between consecutive '1's and the number of rows with fewer than two '1's.

    Each is a sum over rows, so the sums are added up one block of rows at a time, and a
    block needs nothing from the rows before it; `report` reads a bits file that way.
    """

    def __init__(self, periods: int):
        self.n_periods = periods
        self.tx = 0
        self.waits: list[int] = []
        self.gap_counts = np.zeros(2, dtype=np.int64)  # gap_counts[g]: gaps of g periods
        self.without = 0

    @classmethod
    def of(cls, bits: np.ndarray) -> BitSums:
        """The sums of a whole (n, periods) bool matrix."""
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("bit_sequences must be a 2-d array")
        sums = cls(bits.shape[1])
        sums.add(bits)
        return sums

    @property
    def n_nodes(self) -> int:
        return len(self.waits)

    def add(self, bits: np.ndarray) -> None:
        """Add the (rows, periods) bool block `bits`, the rows that follow those added so far."""
        rows, k, bounded = _zero_runs(bits)
        gaps = np.bincount(k[bounded] + 1, minlength=2)
        gaps[1] = np.count_nonzero(bits[:, 1:] & bits[:, :-1])
        if gaps.size > self.gap_counts.size:
            self.gap_counts = np.pad(self.gap_counts, (0, gaps.size - self.gap_counts.size))
        self.gap_counts[:gaps.size] += gaps
        ones = np.count_nonzero(bits, axis=1)
        self.tx += int(ones.sum())
        self.without += int(np.count_nonzero(ones < 2))
        waits = np.zeros(bits.shape[0], dtype=np.int64)
        np.add.at(waits, rows, k * (k + 1) // 2)
        self.waits += waits.tolist()

    def irt(self) -> IrtEstimate:
        """The inter-reception-time estimate of the rows added so far (see `estimate_irt`)."""
        if self.n_periods < MIN_PERIODS:
            raise ValueError(f"IRT estimation needs sequences of at least {MIN_PERIODS} periods")
        gaps = np.flatnonzero(self.gap_counts)
        total = int(self.gap_counts.sum())
        return IrtEstimate(dict(zip(gaps.tolist(), (self.gap_counts[gaps] / total).tolist())), total, self.without)


def estimate_irt(bit_sequences: np.ndarray) -> IrtEstimate:
    """Empirical inter-reception-time PMF from per-period bit sequences.

    bit_sequences: (n_sequences, n_periods) boolean array; gaps are index
    differences between consecutive '1's (consecutive successes -> gap 1).
    Sequences with fewer than two '1's contribute no gaps and are counted
    in the diagnostics.
    """
    return BitSums.of(bit_sequences).irt()


def total_wait_periods(bits: np.ndarray) -> np.ndarray:
    """Summed wasted periods per row of a (n, periods) transmission-bit matrix (int64).

    Each non-transmitting period waits until the node's next transmission
    (one period if the very next period transmits), censored at the end of
    the sequence.
    """
    return np.array(BitSums.of(bits).waits, dtype=np.int64)


@dataclass(frozen=True)
class EmpiricalEstimates:
    n_nodes: int
    n_periods: int
    tau: TauEstimate
    e_nbo_hat: float | None
    delay_hat: float
    r_hat: float | None
    irt: IrtEstimate


def build_estimates(sums: BitSums, elapsed_sums: np.ndarray, params: MacParameters) -> EmpiricalEstimates | None:
    """All empirical estimates for one tagged node set (None if it is empty).

    sums: the `BitSums` of the nodes' (n, periods) transmission bits, True
    where the node transmitted (delivered or collided) in that period;
    elapsed_sums: (n,) summed elapsed backoff slots over each node's
    transmitted periods.  The caller picks the rows of the tagged nodes:
    `BitSums.of` takes them from a `SimOutcome` (`transmitted_bits` and
    `elapsed_sums`, indexed by `category_nodes`), and `sim.read_point` gives
    both from the exported `bits_*`/`stats_*` files.  `compare` takes the
    grid key.

    tau_hat is the transmitted fraction of node-periods, with its CI from
    `proportion_ci`.  E[N_bo] is the mean elapsed backoff per transmitted
    packet.  The delay charges each transmitted packet elapsed * T_slot +
    T_suc, and each expired one T_ibi per wasted period until the node's
    next transmission (censored at the end of the run).
    """
    n, periods = sums.n_nodes, sums.n_periods
    if n == 0:
        return None
    tx_total = sums.tx
    elapsed_total = float(elapsed_sums.sum())
    tau = proportion_ci(tx_total, n * periods)
    t_suc = success_time(params)
    total_delay = elapsed_total * params.t_slot + tx_total * t_suc
    for wait in sums.waits:  # node by node, so the float sum does not depend on how the rows were read
        total_delay += wait * params.t_ibi
    delay = total_delay / (n * periods)
    return EmpiricalEstimates(
        n_nodes=n,
        n_periods=periods,
        tau=tau,
        e_nbo_hat=elapsed_total / tx_total if tx_total else None,
        delay_hat=delay,
        r_hat=tau.value * t_suc / delay if delay > 0 else None,
        irt=sums.irt(),
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

