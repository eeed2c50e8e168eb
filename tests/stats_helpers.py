"""Statistics only the tests compute (the library's one estimator path is `metrics.build_estimates`):
the chi-square fit of IRT gaps to the geometric law, the per-packet E[N_bo] mean with its CI half-width,
per-row reference versions of the zero-run estimators `metrics.estimate_irt` and `total_wait_periods`,
and a field-by-field comparison of two `metrics.BitSums`."""

import math

import numpy as np
from scipy.special import chdtrc

from priobeacon.metrics import Z95, BitSums, IrtEstimate
from priobeacon.sim import Outcome


def chi_square_geometric(gap_counts, tau, min_expected=5.0):
    """Chi-square goodness of fit of observed gap counts against Geometric(tau).

    Bins over gaps 1..K plus an open tail; adjacent bins are pooled from the
    tail end until every expected count reaches min_expected.  Returns
    (statistic, dof, p_value); a fully concentrated matching distribution
    yields statistic 0 and p-value 1.
    """
    k_max = max(gap_counts)
    observed = np.array([gap_counts.get(g, 0) for g in range(1, k_max + 1)] + [0], dtype=float)
    q = 1.0 - tau  # expected counts of gaps 1..k_max under Geometric(tau), then of the tail past k_max
    expected = np.array([(q ** (n - 1)) * tau for n in range(1, k_max + 1)] + [q ** k_max]) * sum(gap_counts.values())
    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed[::-1], expected[::-1]):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if obs_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    obs_arr = np.array(obs_bins[::-1])
    exp_arr = np.array(exp_bins[::-1])
    keep = exp_arr > 0
    stat = float((((obs_arr - exp_arr) ** 2)[keep] / exp_arr[keep]).sum())
    dof = max(int(keep.sum()) - 2, 1)
    if keep.sum() <= 1:
        return stat, 0, 1.0 if stat == 0.0 else 0.0
    return stat, dof, float(chdtrc(dof, stat))


def backoff_slot_mean(outcome, category=None):
    """Mean and CI half-width of elapsed backoff slots over the transmitted
    packets of a category's nodes (of every node when category is None)."""
    nodes = np.arange(outcome.n_nodes) if category is None else outcome.category_nodes(category)
    elapsed = outcome.elapsed[:, nodes][outcome.outcomes[:, nodes] != int(Outcome.EXPIRED)]
    return float(elapsed.mean()), Z95 * float(elapsed.std(ddof=1)) / math.sqrt(elapsed.size)


def reference_estimate_irt(bits):
    """IRT estimate of a (n, periods) bool matrix row by row, from the differences of each row's '1' indices."""
    gaps = []
    without = 0
    for row in bits:
        ones = np.flatnonzero(row)
        if ones.size < 2:
            without += 1
            continue
        gaps.append(np.diff(ones))
    if not gaps:
        return IrtEstimate(pmf={}, gap_count=0, sequences_without_gaps=without)
    all_gaps = np.concatenate(gaps)
    values, counts = np.unique(all_gaps, return_counts=True)
    total = int(all_gaps.size)
    pmf = {int(v): int(c) / total for v, c in zip(values, counts)}
    return IrtEstimate(pmf=pmf, gap_count=total, sequences_without_gaps=without)


def reference_total_wait_periods(row):
    """Summed wasted periods of one node's bits: each '0' waits until the next '1', or until the row's end."""
    row = np.asarray(row, dtype=bool)
    n = row.shape[0]
    ones = np.flatnonzero(row)
    zeros = np.flatnonzero(~row)
    if zeros.size == 0:
        return 0
    if ones.size == 0:
        return int((n - zeros).sum())
    pos = np.searchsorted(ones, zeros, side="left")
    waits = np.where(pos < ones.size, ones[np.minimum(pos, ones.size - 1)] - zeros, n - zeros)
    return int(waits.sum())


def assert_same_sums(got: BitSums, want: BitSums):
    """Two BitSums hold the same sums; a gap histogram may end in zeros where the other does not."""
    assert (got.n_periods, got.tx, got.waits, got.without) == (want.n_periods, want.tx, want.waits, want.without)
    assert np.array_equal(np.trim_zeros(got.gap_counts, "b"), np.trim_zeros(want.gap_counts, "b"))
