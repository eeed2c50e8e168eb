import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from priobeacon.analytic import (
    ContentionConfig,
    ConvergenceError,
    MacParameters,
    TauSolution,
    analytic_csv_row,
    ANALYTIC_CSV_HEADER,
    average_latency,
    backoff_time,
    evaluate,
    expected_backoff_slots,
    expiration_time,
    normalized_throughput,
    solve_tau,
    success_time,
    _completion_sums,
    _nbinom_cdf,
    _nbinom_pmf,
    _pmf_underflow_start,
    _tau_for_range,
)
from priobeacon.geometry import Category
from priobeacon.policy import BackoffPolicy, BackoffRange, PolicyKind, backoff_range

TABLE_PARAMS = MacParameters()
T_SUC_DEFAULT = 0.00012233333333333334  # 40us + 320 bits / 6 Mb/s + 28us + 1us
MIX_80 = {Category.CAT1: 0.1, Category.CAT2: 0.125, Category.CAT3: 0.2, Category.UNCATEGORIZED: 0.575}


def traditional_config(n_sta, cw, params=TABLE_PARAMS):
    return ContentionConfig(n_sta=n_sta, policy=BackoffPolicy.traditional(cw), params=params)


def proposed_config(n_sta, cw, category, params=TABLE_PARAMS, mix=MIX_80):
    return ContentionConfig(
        n_sta=n_sta, policy=BackoffPolicy.proposed(cw), category=category, params=params, category_mix=mix
    )


class TestMacParameters:
    def test_slots_per_beacon(self):
        assert TABLE_PARAMS.slots_per_beacon == 2000
        assert MacParameters(t_ibi=100e-3, t_slot=66.7e-6).slots_per_beacon == 1499

    def test_payload_airtime(self):
        assert TABLE_PARAMS.payload_airtime == pytest.approx(8 * 40 / 6e6)

    def test_occupancy_slots(self):
        # (128us DIFS + 122.333us T_suc) / 50us -> 6 slots
        assert TABLE_PARAMS.tx_occupancy_slots == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            MacParameters(t_slot=0)
        with pytest.raises(ValueError):
            MacParameters(difs=-1e-6)
        with pytest.raises(ValueError, match="at least one slot"):
            MacParameters(difs=0, sifs=0, header_airtime=0, payload_bytes=0, t_prop=0)
        assert MacParameters(difs=0, sifs=0, header_airtime=0, payload_bytes=0, t_prop=1e-9).tx_occupancy_slots == 1


class TestSuccessTime:
    def test_default_config(self):
        assert success_time(TABLE_PARAMS) == pytest.approx(T_SUC_DEFAULT, rel=1e-12)

    def test_degenerate_header_payload(self):
        p = MacParameters(header_airtime=0.0, payload_bytes=0)
        assert success_time(p) == pytest.approx(29e-6)

    def test_rate_doubling_linearity(self):
        base = success_time(TABLE_PARAMS)
        doubled = success_time(MacParameters(data_rate=12e6))
        assert base - doubled == pytest.approx(320 / 6e6 - 320 / 12e6)
        assert base - doubled == pytest.approx(26.6667e-6, rel=1e-4)


class TestExpirationTime:
    def test_half(self):
        assert expiration_time(0.5, TABLE_PARAMS) == pytest.approx(0.1)

    def test_tau_one(self):
        assert expiration_time(1.0, TABLE_PARAMS) == 0.0

    def test_point_one(self):
        assert expiration_time(0.1, TABLE_PARAMS) == pytest.approx(0.9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            expiration_time(0.0, TABLE_PARAMS)


class TestBackoffTime:
    def test_table_slot(self):
        assert backoff_time(63, TABLE_PARAMS) == pytest.approx(3.15e-3)

    def test_zero(self):
        assert backoff_time(0, TABLE_PARAMS) == 0.0

    def test_alternative_slot(self):
        assert backoff_time(21, MacParameters(t_slot=66.7e-6)) == pytest.approx(1.4007e-3)


class TestAverageLatency:
    def test_tau_one(self):
        assert average_latency(1.0, 123.0, 2e-3, 1e-4) == pytest.approx(2.1e-3)

    def test_direct_evaluation(self):
        e_t = average_latency(0.5, 0.1, 3.15e-3, T_SUC_DEFAULT)
        assert e_t == pytest.approx(0.05163616666666667, rel=1e-12)

    def test_limit_to_expiration(self):
        assert average_latency(1e-12, 0.9, 3.15e-3, T_SUC_DEFAULT) == pytest.approx(0.9, rel=1e-6)


class TestNormalizedThroughput:
    def test_perfect_channel(self):
        t_suc = T_SUC_DEFAULT
        assert normalized_throughput(1.0, t_suc, t_suc) == pytest.approx(1.0)

    def test_from_latency_example(self):
        r = normalized_throughput(0.5, T_SUC_DEFAULT, 0.05163616666666667)
        assert r == pytest.approx(0.0011845702463066908, rel=1e-9)

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            normalized_throughput(0.5, 1e-4, 0.0)


def oracle_elapsed_absorption(b: int, p_busy: float, slots: int) -> tuple[float, float]:
    """Slot-by-slot dynamic program over idle-slot counts; independent of the
    negative-binomial closed form.  Returns (P[absorb <= slots], E[t*1{absorb<=slots}])."""
    if b == 0:
        return 1.0, 0.0
    state = np.zeros(b)
    state[0] = 1.0
    p_done = 0.0
    t_mass = 0.0
    for t in range(1, slots + 1):
        moved = state * (1.0 - p_busy)
        p_done += moved[b - 1]
        t_mass += t * moved[b - 1]
        state = state * p_busy
        state[1:] += moved[:-1]
    return p_done, t_mass


def reference_expected_backoff_slots(config: ContentionConfig, solution) -> float:
    """The nbinom loop `expected_backoff_slots` ran before it cached per-draw
    sums, kept as a bitwise oracle: every row through `scipy.stats.nbinom.pmf`."""
    slots = config.params.slots_per_beacon
    p_busy = solution.p_busy
    rng_ = config.tagged_range()
    b = np.arange(rng_.lo, rng_.hi + 1, dtype=np.int64)
    if p_busy <= 0.0:
        return float(b[b <= slots].mean())
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
    return num / den


def grid_p_busy_values() -> list[float]:
    """p_busy from solve_tau on default-grid points (tau = 1 at 100 ms, an
    interior fixed point at 20 ms cw 511), plus off-grid busy probabilities."""
    fast = MacParameters(t_ibi=20e-3)
    solved = [solve_tau(traditional_config(n, 127)).p_busy for n in (10, 80)]
    solved += [solve_tau(traditional_config(n, 511, fast)).p_busy for n in (10, 80)]
    solved.append(solve_tau(proposed_config(80, 127, Category.CAT2, fast)).p_busy)
    return solved + [1e-6, 0.35, 0.9, 0.999]


ROW_SLOTS = (1, 2, 20, 400, 2000, 20000)
EDGE_P_BUSY = [5e-324, 1e-12, 1 - 1e-12, 1.0]
GRID_CATEGORIES = (None, Category.CAT1, Category.CAT2, Category.CAT3)


def cut_row_b_values(p_busy: float, slots: int) -> list[int]:
    """b in {1, 2, slots} plus the b whose pmf mode (b - 1) q / p falls on the
    row's last entry slots - b, i.e. b = slots p + q, and its neighbours."""
    p = 1.0 - p_busy
    at_end = round(slots * p + p_busy)
    return sorted({min(max(v, 1), slots) for v in (1, 2, at_end - 1, at_end, at_end + 1, slots)})


def assert_cut_row_exact(b: int, p_busy: float, slots: int) -> bool:
    """The pmf ufunc returns +0.0 on every k the cut skips, and the cut row's
    sums equal the whole row's bit for bit.  Returns whether the row was cut."""
    k = np.arange(0, slots - b + 1, dtype=np.int64)
    pmf = _nbinom_pmf(k, b, 1.0 - p_busy)
    whole = (float(((b + k) * pmf).sum()), float(pmf.sum()))
    got = _completion_sums.__wrapped__(b, p_busy, slots)
    assert [v.hex() for v in got] == [v.hex() for v in whole], (b, p_busy, slots)
    p = 1.0 - p_busy
    if not 0.0 < p < 1.0:
        return False
    end = _pmf_underflow_start(b, p, slots - b)
    tail = pmf[end:]
    assert not tail.any() and not np.signbit(tail).any(), (b, p_busy, slots, end)
    return end < k.shape[0]


class TestNbinomUfuncs:
    """The model calls scipy's nbinom ufuncs without the `scipy.stats` wrapper,
    caches per-draw sums and skips each row's underflowed tail; all three
    must leave every value bit-identical."""

    @pytest.mark.parametrize("slots", [400, 2000])
    def test_pmf_and_cdf_match_scipy_stats_bitwise(self, slots):
        k = np.arange(0, slots + 1, dtype=np.int64)
        for p_busy in grid_p_busy_values():
            p = 1.0 - p_busy
            for b in (1, 2, 15, 127, 340, 511):
                assert np.array_equal(_nbinom_pmf(k, b, p), stats.nbinom.pmf(k, b, p))
                assert np.array_equal(_nbinom_cdf(k, b, p), stats.nbinom.cdf(k, b, p))
            b = np.arange(1, min(511, slots) + 1, dtype=np.int64)
            assert np.array_equal(_nbinom_cdf(slots - b, b, p), stats.nbinom.cdf(slots - b, b, p))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_skipped_pmf_tail_is_exactly_zero(self, data):
        slots = data.draw(st.sampled_from(ROW_SLOTS))
        p_busy = data.draw(st.sampled_from(grid_p_busy_values() + EDGE_P_BUSY))
        b = data.draw(st.sampled_from(cut_row_b_values(p_busy, slots)) | st.integers(1, slots))
        assert_cut_row_exact(b, p_busy, slots)

    def test_skipped_pmf_tail_edge_cases(self):
        cut_rows = 0
        for slots in ROW_SLOTS:
            for p_busy in grid_p_busy_values() + EDGE_P_BUSY:
                for b in cut_row_b_values(p_busy, slots):
                    cut_rows += assert_cut_row_exact(b, p_busy, slots)
        assert cut_rows > 0
        # both tails of this row lie below the cut; a bisection started left
        # of the mode would land in the left one and skip the mode
        assert assert_cut_row_exact(40376, 0.5, 100000)

    @pytest.mark.parametrize(
        "t_ibi, categories",
        # every default-grid row at both timings (None = traditional); at
        # 1 ms (20 slots) p_busy is high and no row reaches the cut
        [(100e-3, GRID_CATEGORIES), (20e-3, GRID_CATEGORIES), (1e-3, (None,))],
        ids=["0.1", "0.02", "0.001"],
    )
    def test_expected_backoff_slots_matches_reference_loop(self, t_ibi, categories):
        params = MacParameters(t_ibi=t_ibi)
        for category in categories:
            for n in (10, 20, 40, 80):
                for cw in (15, 127, 511):
                    if category is None:
                        cfg = traditional_config(n, cw, params)
                    else:
                        cfg = proposed_config(n, cw, category, params)
                    sol = solve_tau(cfg)
                    want = reference_expected_backoff_slots(cfg, sol)
                    assert expected_backoff_slots(cfg, sol) == want
                    hits = _completion_sums.cache_info().hits
                    assert expected_backoff_slots(cfg, sol) == want
                    assert _completion_sums.cache_info().hits > hits


class TestSolveTau:
    def test_single_station_is_certain(self):
        sol = solve_tau(traditional_config(1, 511))
        assert sol.tau == 1.0
        assert sol.p_busy == 0.0

    def test_residual_and_reapplication(self):
        cfg = traditional_config(80, 127)
        tol = 1e-10
        sol = solve_tau(cfg, tol=tol)
        assert sol.residual <= tol
        # one more model iteration moves tau by at most tol
        from priobeacon.analytic import _p_busy

        p = _p_busy(sol.tau_mix, cfg.n_sta, cfg.params.slots_per_beacon)
        tau_again = _tau_for_range(cfg.tagged_range(), p, cfg.params.slots_per_beacon)
        assert abs(tau_again - sol.tau_mix) <= tol

    def test_matches_dp_oracle_off_fixed_point(self):
        # check the negative-binomial machinery itself on a small regime where
        # expiration genuinely happens
        slots, p_busy = 30, 0.35
        rng_ = BackoffRange(0, 19)
        got = _tau_for_range(rng_, p_busy, slots)
        want = np.mean([oracle_elapsed_absorption(b, p_busy, slots)[0] for b in range(20)])
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_monotone_in_n_sta(self):
        taus = [solve_tau(traditional_config(n, 127)).tau for n in (10, 40, 80)]
        assert taus[0] >= taus[1] >= taus[2]

    def test_dominance_proposed_cat1_vs_traditional(self):
        for n in (10, 80):
            t_trad = solve_tau(traditional_config(n, 127)).tau
            t_prop = solve_tau(proposed_config(n, 127, Category.CAT1)).tau
            assert t_prop >= t_trad - 1e-9

    def test_cw_ordering(self):
        taus = [solve_tau(traditional_config(80, cw)).tau for cw in (15, 127, 511)]
        assert taus[0] >= taus[1] >= taus[2]

    def test_non_convergence_reported(self):
        with pytest.raises(ConvergenceError):
            solve_tau(traditional_config(80, 127), max_iter=0)

    def test_proposed_requires_mix(self):
        with pytest.raises(ValueError):
            ContentionConfig(n_sta=8, policy=BackoffPolicy.proposed(15), category=Category.CAT1)

    def test_small_period_fixed_point_is_interior(self):
        # 40-slot periods starve large draws, so tau must fall strictly below 1
        params = MacParameters(t_ibi=2e-3)  # 40 slots of 50us
        sol = solve_tau(traditional_config(12, 32, params))
        assert 0.0 < sol.tau < 1.0
        assert sol.p_busy > 0.0


class TestContenderClasses:
    """The model groups the contender mix by the range `backoff_range` gives each category."""

    def test_proposed_mix_weights_per_chunk(self):
        pol = BackoffPolicy.proposed(127)
        classes = proposed_config(80, 127, Category.CAT1).contender_classes()
        assert [r for r, _ in classes] == [backoff_range(pol, c) for c in (Category.CAT1, Category.CAT2, Category.CAT3)]
        assert [w for _, w in classes] == pytest.approx([0.1, 0.125, 0.775], abs=1e-15)

    def test_all_uncategorized_mix_is_one_cat3_class(self):
        cfg = proposed_config(80, 127, Category.CAT1, mix={Category.UNCATEGORIZED: 1.0})
        assert cfg.contender_classes() == [(backoff_range(cfg.policy, Category.CAT3), 1.0)]

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("cw", [3, 15, 127, 511])
    def test_category_and_mix_matter_exactly_when_the_ranges_differ(self, kind, cw):
        pol = BackoffPolicy(kind, cw)
        shared = pol.shared_range()
        if shared is None:
            with pytest.raises(ValueError, match="tagged category"):
                ContentionConfig(n_sta=8, policy=pol, category_mix=MIX_80)
            with pytest.raises(ValueError, match="category mix"):
                ContentionConfig(n_sta=8, policy=pol, category=Category.CAT1)
            cfg = ContentionConfig(n_sta=8, policy=pol, category=Category.CAT1, category_mix=MIX_80)
            assert len(cfg.contender_classes()) == 3
        else:
            assert ContentionConfig(n_sta=8, policy=pol).contender_classes() == [(shared, 1.0)]
            assert ContentionConfig(n_sta=8, policy=pol, category_mix=MIX_80).contender_classes() == [(shared, 1.0)]

    @pytest.mark.parametrize("mix", [None, MIX_80, {Category.UNCATEGORIZED: 1.0}], ids=["none", "mix80", "uncat"])
    def test_traditional_is_one_class_whatever_the_mix(self, mix):
        cfg = ContentionConfig(n_sta=80, policy=BackoffPolicy.traditional(127), category_mix=mix)
        assert cfg.contender_classes() == [(BackoffRange(0, 126), 1.0)]


class TestExpectedBackoffSlots:
    def test_idle_medium_traditional(self):
        cfg = traditional_config(1, 127)
        sol = solve_tau(cfg)
        assert expected_backoff_slots(cfg, sol) == pytest.approx(63.0)

    def test_idle_medium_proposed_cat1(self):
        cfg = proposed_config(1, 127, Category.CAT1)
        sol = solve_tau(cfg)
        assert expected_backoff_slots(cfg, sol) == pytest.approx(21.0)

    def test_proposed_cat1_below_traditional_at_80(self):
        cfg_t = traditional_config(80, 127)
        cfg_p = proposed_config(80, 127, Category.CAT1)
        e_t = expected_backoff_slots(cfg_t, solve_tau(cfg_t))
        e_p = expected_backoff_slots(cfg_p, solve_tau(cfg_p))
        assert e_p < e_t

    def test_nondecreasing_in_cw(self):
        values = []
        for cw in (15, 127, 511):
            cfg = traditional_config(40, cw)
            values.append(expected_backoff_slots(cfg, solve_tau(cfg)))
        assert values[0] <= values[1] <= values[2]

    def test_conditional_mean_matches_dp_oracle(self):
        slots, p_busy = 30, 0.35
        rng_ = BackoffRange(0, 19)
        num = den = 0.0
        for b in range(20):
            p_done, t_mass = oracle_elapsed_absorption(b, p_busy, slots)
            num += t_mass
            den += p_done
        want = num / den
        cfg = traditional_config(12, 20, MacParameters(t_ibi=30 * 50e-6))
        from priobeacon.analytic import TauSolution

        sol = TauSolution(tau=0.5, tau_mix=0.5, p_busy=p_busy, iterations=1, residual=0.0)
        got = expected_backoff_slots(cfg, sol)
        assert got == pytest.approx(want, rel=1e-10)


def full_range_tau(rng_, p_busy, slots):
    """`_tau_for_range` evaluated at every value of the range, the ones past the period too."""
    b = np.arange(rng_.lo, rng_.hi + 1, dtype=np.int64)
    probs = (b == 0).astype(float)
    pos = (b >= 1) & (b <= slots)
    probs[pos] = _nbinom_cdf(slots - b[pos], b[pos], 1.0 - p_busy)
    return float(probs.mean())


def full_range_backoff_slots(rng_, p_busy, slots):
    """`expected_backoff_slots` summed over every value of the range, skipping the infeasible ones."""
    num = den = 0.0
    for b in range(rng_.lo, rng_.hi + 1):
        if b == 0:
            den += 1.0
        elif b <= slots:
            mass, prob = _completion_sums(b, p_busy, slots)
            num += mass
            den += prob
    return num / den


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFeasibleRange:
    """The model evaluates only the draws 1..slots; a zero draw completes at once and a draw past
    the period never does."""

    def test_random_ranges_equal_the_full_range_evaluation(self):
        # proposed chunks start at zero or past it, and at short periods lie partly or wholly past them
        rng = np.random.default_rng(20)
        for _ in range(300):
            slots, cw = int(rng.integers(1, 60)), int(rng.integers(3, 300))
            category = (Category.CAT1, Category.CAT2, Category.CAT3)[rng.integers(3)]
            cfg = proposed_config(12, cw, category, MacParameters(t_ibi=slots * 50e-6))
            assert cfg.params.slots_per_beacon == slots
            rng_, p_busy = cfg.tagged_range(), float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
            assert _tau_for_range.__wrapped__(rng_, p_busy, slots) == full_range_tau(rng_, p_busy, slots)
            if rng_.lo <= slots:
                sol = TauSolution(tau=0.5, tau_mix=0.5, p_busy=p_busy, iterations=1, residual=0.0)
                assert expected_backoff_slots(cfg, sol) == full_range_backoff_slots(rng_, p_busy, slots)

    def test_window_far_past_the_period_costs_no_array_over_the_window(self):
        # 20 slots, cw 10^6: the row of tau values is the one array as long as the window
        # (8 bytes a value), and E[N_bo] builds none
        cw, params = 10**6, MacParameters(t_ibi=20 * 50e-6)
        assert params.slots_per_beacon == 20
        cfg = traditional_config(40, cw, params)
        sol = TauSolution(tau=0.5, tau_mix=0.5, p_busy=0.3, iterations=1, residual=0.0)
        rng_ = cfg.tagged_range()
        assert _tau_for_range.__wrapped__(rng_, 0.3, 20) == full_range_tau(rng_, 0.3, 20)
        assert expected_backoff_slots(cfg, sol) == full_range_backoff_slots(rng_, 0.3, 20)
        _completion_sums.cache_clear()
        assert peak_bytes(_tau_for_range.__wrapped__, rng_, 0.3, 20) <= 9 * cw
        assert peak_bytes(expected_backoff_slots, cfg, sol) <= 1 * cw


class TestEvaluate:
    def test_latency_decomposition_exact(self):
        res = evaluate(traditional_config(40, 127))
        rebuilt = (1.0 - res.tau) * res.e_texp + res.tau * (res.e_tbo + res.t_suc)
        assert res.e_t == rebuilt

    def test_throughput_bounds_and_monotonicity(self):
        rs = [evaluate(traditional_config(n, 127)).r for n in (1, 10, 40, 80)]
        assert all(0.0 <= r <= 1.0 for r in rs)
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_csv_row_round_trips(self):
        cfg = proposed_config(40, 127, Category.CAT2)
        res = evaluate(cfg)
        row = analytic_csv_row(("proposed", "cat2", 127, 40), res)
        parts = row.split(",")
        assert len(parts) == len(ANALYTIC_CSV_HEADER.split(","))
        assert parts[:4] == ["proposed", "cat2", "127", "40"]
        assert [float(v) for v in parts[4:]] == [res.tau, res.e_nbo, res.e_texp, res.e_tbo, res.t_suc, res.e_t, res.r]

    def test_interior_regime_consistency(self):
        # in a genuinely expiring regime every piece still fits together
        params = MacParameters(t_ibi=2e-3)
        cfg = traditional_config(12, 32, params)
        res = evaluate(cfg)
        assert 0 < res.tau < 1
        assert res.e_texp > 0
        assert res.r == pytest.approx(res.tau * res.t_suc / res.e_t)
