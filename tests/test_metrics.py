import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from priobeacon.analytic import ContentionConfig, MacParameters, evaluate, solve_tau, success_time
from priobeacon.geometry import Category, CategoryThresholds, RegionSpec, drop_nodes
from priobeacon.metrics import (
    MIN_PERIODS,
    compare,
    build_estimates,
    estimate_irt,
    proportion_ci,
    total_wait_periods,
)
from priobeacon.policy import BackoffPolicy
from priobeacon.sim import Outcome, SimConfig, run_simulation
from stats_helpers import (
    backoff_slot_mean,
    chi_square_geometric,
    reference_estimate_irt,
    reference_total_wait_periods,
)

REGION = RegionSpec()
TH = CategoryThresholds()
PARAMS = MacParameters()


def bits(s: str) -> np.ndarray:
    return np.array([[c == "1" for c in s]], dtype=bool)


def run_single_node(policy, periods=1000, seed=5, params=PARAMS):
    sc = drop_nodes(REGION, TH, 1 / REGION.area, seed=0)
    return run_simulation(SimConfig(scenario=sc, policy=policy, params=params, n_periods=periods, seed=seed))


def estimates(out, category=None):
    """The estimates `report` computes, over a category's nodes (every node for None); None if absent."""
    nodes = np.arange(out.n_nodes) if category is None else out.category_nodes(category)
    return build_estimates(out.transmitted_bits()[nodes], out.elapsed_sums()[nodes], out.config.params)


class TestProportionCi:
    def test_interior_normal(self):
        est = proportion_ci(500, 1000)
        assert est.value == 0.5
        assert est.half_width == pytest.approx(1.96 * math.sqrt(0.25 / 1000), rel=1e-3)

    def test_boundary_wilson(self):
        top = proportion_ci(1000, 1000)
        assert top.value == 1.0
        assert top.hi == 1.0 and top.lo < 1.0
        bottom = proportion_ci(0, 1000)
        assert bottom.value == 0.0
        assert bottom.lo == 0.0 and bottom.hi > 0.0


class TestEstimateTau:
    def test_single_node_exact_one(self):
        out = run_single_node(BackoffPolicy.traditional(127))
        est = estimates(out).tau
        assert est.value == 1.0

    def test_never_transmitting_zero_with_ci(self):
        params = MacParameters(t_ibi=200e-6)  # 4 slots; draws from [7,9] never fit
        sc = drop_nodes(REGION, TH, 1 / REGION.area, seed=1)
        with pytest.warns(UserWarning):
            out = run_simulation(
                SimConfig(scenario=sc, policy=BackoffPolicy.proposed(10), params=params, n_periods=200, seed=2)
            )
        est = estimates(out).tau
        assert est.value == 0.0
        assert est.hi > 0.0

    def test_absent_category_is_none(self):
        out = run_single_node(BackoffPolicy.traditional(127))
        present = Category(int(out.config.scenario.categories[0]))
        absent = Category.CAT1 if present is not Category.CAT1 else Category.CAT2
        assert estimates(out, absent) is None

    def test_requires_enough_periods(self):
        out = run_single_node(BackoffPolicy.traditional(127), periods=50)
        with pytest.raises(ValueError):
            estimates(out)


class TestEstimateIrt:
    def test_all_ones(self):
        est = estimate_irt(bits("1" * 120))
        assert est.pmf == {1: 1.0}

    def test_single_gap_of_three(self):
        est = estimate_irt(bits("1001" + "0" * 120))
        assert est.pmf == {3: 1.0}
        assert est.gap_count == 1

    def test_too_few_successes_counted(self):
        est = estimate_irt(bits("1" + "0" * 120))
        assert est.gap_count == 0
        assert est.sequences_without_gaps == 1

    def test_mixed_sequences(self):
        seqs = np.vstack([bits("11011" + "0" * 115), bits("10101" + "0" * 115)])
        est = estimate_irt(seqs)
        # gaps: 1,2,1 from the first row, 2,2 from the second
        assert est.gap_count == 5
        assert est.pmf[1] == pytest.approx(0.4)
        assert est.pmf[2] == pytest.approx(0.6)

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            estimate_irt(bits("1111"))


class TestWaitPeriods:
    def test_gap_then_success(self):
        assert total_wait_periods(np.array([[True, False, False, True]])).tolist() == [3]

    def test_censored_tail(self):
        assert total_wait_periods(np.array([[True, False, False]])).tolist() == [3]

    def test_no_transmissions(self):
        assert total_wait_periods(np.array([[False] * 4])).tolist() == [4 + 3 + 2 + 1]

    def test_all_transmitted(self):
        assert total_wait_periods(np.ones((1, 5), dtype=bool)).tolist() == [0]


ROW_KINDS = ("random", "zeros", "ones", "single one", "zero-padded")


def shape_rows(bits, kinds, rng):
    """Overwrite each row of a random bit matrix by its kind (a 'random' row stays as drawn)."""
    periods = bits.shape[1]
    for row, kind in zip(bits, kinds):
        if kind == "zeros":
            row[:] = False
        elif kind == "ones":
            row[:] = True
        elif kind == "single one":
            row[:] = False
            row[rng.integers(periods)] = True
        elif kind == "zero-padded":  # leading and trailing zeros around random bits
            lead, tail = rng.integers(1, periods // 3, size=2)
            row[:lead] = False
            row[-tail:] = False
    return bits


@st.composite
def bit_matrices(draw):
    """(n, periods) bool matrices mixing random rows with all-'0', all-'1', single-'1' and zero-padded rows."""
    periods = draw(st.integers(MIN_PERIODS, MIN_PERIODS + 50))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), max_size=8))
    density = draw(st.sampled_from((0.02, 0.3, 0.7, 0.98)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return shape_rows(rng.random((len(kinds), periods)) < density, kinds, rng)


EVERY_KIND = shape_rows(np.random.default_rng(3).random((10, MIN_PERIODS)) < 0.5, ROW_KINDS * 2, np.random.default_rng(4))


class TestZeroRunEstimators:
    @settings(max_examples=300, deadline=None)
    @given(bit_matrices())
    @example(EVERY_KIND)
    def test_match_the_per_row_reference(self, bits):
        got, want = estimate_irt(bits), reference_estimate_irt(bits)
        assert got.pmf == want.pmf and list(got.pmf) == list(want.pmf)
        assert got.gap_count == want.gap_count
        assert got.sequences_without_gaps == want.sequences_without_gaps
        waits = total_wait_periods(bits)
        assert waits.dtype == np.int64
        assert waits.tolist() == [reference_total_wait_periods(row) for row in bits]

    def test_cdf_is_the_sequential_running_sum_in_gap_order(self):
        est = estimate_irt(np.random.default_rng(5).random((30, 400)) < 0.2)
        expect, acc = {}, 0.0
        for gap in sorted(est.pmf):
            acc += est.pmf[gap]
            expect[gap] = acc
        cdf = est.cdf()
        assert list(cdf) == sorted(est.pmf)
        assert [v.hex() for v in cdf.values()] == [v.hex() for v in expect.values()]
        assert len(cdf) > 10  # enough terms for the summation order to matter


class TestEstimateDelay:
    def test_idle_single_node_matches_closed_form(self):
        out = run_single_node(BackoffPolicy.traditional(127), periods=2000)
        got = estimates(out).delay_hat
        expect = 63 * PARAMS.t_slot + success_time(PARAMS)
        # CI of the mean backoff: uniform std 127/sqrt(12) over 2000 samples
        half = 1.96 * (126 / math.sqrt(12)) / math.sqrt(2000) * PARAMS.t_slot
        assert abs(got - expect) <= half

    def test_all_expired_structure(self):
        params = MacParameters(t_ibi=200e-6)
        sc = drop_nodes(REGION, TH, 1 / REGION.area, seed=1)
        with pytest.warns(UserWarning):
            out = run_simulation(
                SimConfig(scenario=sc, policy=BackoffPolicy.proposed(10), params=params, n_periods=100, seed=2)
            )
        got = estimates(out).delay_hat
        # every period waits until the censored end: mean run length (P+1)/2
        assert got == pytest.approx(params.t_ibi * 101 / 2, rel=1e-12)

    def test_transmitted_only_decomposition(self):
        out = run_single_node(BackoffPolicy.proposed(127), periods=2000, seed=9)
        transmitted = out.elapsed[out.elapsed >= 0]
        mean_delay_tx = float(transmitted.mean()) * PARAMS.t_slot + success_time(PARAMS)
        got = estimates(out).delay_hat
        assert got == pytest.approx(mean_delay_tx, rel=1e-12)  # no expirations here


class TestBackoffSlotMean:
    def test_mean_matches_shared_estimator_with_expiries(self):
        # per-packet E[N_bo] from the outcome equals the stats-based estimate,
        # over all nodes and per category, where packets expire and are skipped
        sc = drop_nodes(REGION, TH, 80 / REGION.area, seed=3)
        out = run_simulation(
            SimConfig(  # 200-slot periods
                scenario=sc, policy=BackoffPolicy.proposed(127), params=MacParameters(t_ibi=10e-3),
                n_periods=200, seed=8, random_phase_offsets=True,
            )
        )
        assert (out.outcomes == int(Outcome.EXPIRED)).any()
        for category in (None, Category.CAT1, Category.CAT2, Category.CAT3):
            mean, half_width = backoff_slot_mean(out, category)
            assert mean == pytest.approx(estimates(out, category).e_nbo_hat, rel=1e-12), category
            assert 0 < half_width < math.inf


class TestChiSquareGeometric:
    def test_exact_geometric_sample_not_rejected(self):
        rng = np.random.default_rng(0)
        gaps = rng.geometric(0.35, size=20_000)
        counts = {int(v): int(c) for v, c in zip(*np.unique(gaps, return_counts=True))}
        stat, dof, pvalue = chi_square_geometric(counts, 0.35)
        assert pvalue > 0.01

    def test_degenerate_tau_one(self):
        stat, dof, pvalue = chi_square_geometric({1: 5000}, 1.0)
        assert stat == 0.0
        assert pvalue == 1.0

    def test_wrong_law_rejected(self):
        # uniform gaps over 1..10 are far from geometric(0.5)
        counts = {g: 1000 for g in range(1, 11)}
        stat, dof, pvalue = chi_square_geometric(counts, 0.5)
        assert pvalue < 0.01


class TestCompare:
    KEY = ("traditional", "all", 127, 40)

    def make_pair(self, tau_emp):
        sc = drop_nodes(REGION, TH, 40 / REGION.area, seed=3)
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=150, seed=4, sense_range=math.inf)
        )
        emp = estimates(out)
        cfga = ContentionConfig(n_sta=40, policy=BackoffPolicy.traditional(127), params=PARAMS)
        ana = evaluate(cfga)
        if tau_emp is not None:
            from dataclasses import replace

            emp = replace(emp, tau=replace(emp.tau, value=tau_emp))
        return ana, emp

    def test_identical_inputs_pass(self):
        ana, emp = self.make_pair(None)
        rep = compare(self.KEY, ana, emp, {"tau": 0.05})
        assert rep.passed
        assert rep.rows["tau"][2] == abs(ana.tau - emp.tau.value)

    def test_excess_deviation_fails_with_named_metric(self):
        ana, emp = self.make_pair(ana_tau_shift := 0.93)
        rep = compare(self.KEY, ana, emp, {"tau": 0.05})
        assert not rep.passed
        assert rep.rows["tau"][4] is False
        assert "tau" in rep.to_text() and "[FAIL]" in rep.to_text()


class TestStatisticalInvariants:
    def test_irt_geometric_fit_in_expiring_regime(self):
        # 40-slot periods genuinely expire packets; transmission indicators are
        # i.i.d. per period, so gaps must pass the geometric GoF at 1%
        params = MacParameters(t_ibi=2e-3)
        sc = drop_nodes(REGION, TH, 10 / REGION.area, seed=2)
        out = run_simulation(
            SimConfig(
                scenario=sc, policy=BackoffPolicy.traditional(32), params=params,
                n_periods=4000, seed=6, sense_range=math.inf,
            )
        )
        est = estimates(out)
        tau_hat = est.tau.value
        assert 0.05 < tau_hat < 0.999
        counts = {g: int(round(p * est.irt.gap_count)) for g, p in est.irt.pmf.items()}
        stat, dof, pvalue = chi_square_geometric(counts, tau_hat)
        assert pvalue > 0.01

    def test_tau_ci_covers_analytic_on_acceptance_point(self):
        # 20 independent seeds at one acceptance grid point
        sc = drop_nodes(REGION, TH, 2e-5, seed=1)
        cfg_a = ContentionConfig(n_sta=80, policy=BackoffPolicy.traditional(127), params=PARAMS)
        tau_analytic = solve_tau(cfg_a).tau
        covered = 0
        for seed in range(20):
            out = run_simulation(
                SimConfig(
                    scenario=sc, policy=BackoffPolicy.traditional(127), params=PARAMS,
                    n_periods=1000, seed=seed, sense_range=math.inf,
                )
            )
            est = estimates(out).tau
            if est.lo <= tau_analytic <= est.hi:
                covered += 1
        assert covered >= 18
