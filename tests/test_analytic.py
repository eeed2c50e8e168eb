import math

import numpy as np
import pytest

from priobeacon.analytic import (
    ContentionConfig,
    ConvergenceError,
    MacParameters,
    analytic_csv_row,
    ANALYTIC_CSV_HEADER,
    average_latency,
    backoff_time,
    evaluate,
    expected_backoff_slots,
    expiration_time,
    irt_distribution,
    normalized_throughput,
    solve_tau,
    success_time,
    _tau_for_range,
)
from priobeacon.geometry import Category
from priobeacon.policy import BackoffPolicy, BackoffRange

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


class TestIrtDistribution:
    def test_geometric_law(self):
        d = irt_distribution(0.5, 10)
        assert d.pmf[1] == pytest.approx(0.5)
        assert d.pmf[2] == pytest.approx(0.25)
        assert d.pmf[3] == pytest.approx(0.125)

    def test_certain_transmission(self):
        d = irt_distribution(1.0, 5)
        assert d.pmf[1] == 1.0
        assert all(d.pmf[n] == 0.0 for n in range(2, 6))
        assert d.truncation_mass == 0.0

    def test_normalization(self):
        for tau in (0.05, 0.3, 0.9):
            d = irt_distribution(tau, 200)
            assert abs(sum(d.pmf.values()) + d.truncation_mass - 1.0) <= 1e-12

    def test_mean_identity_with_tail(self):
        for tau in (0.1, 0.4, 0.8):
            n_max = int(math.ceil(50 / tau))
            d = irt_distribution(tau, n_max)
            assert d.truncated_mean_with_tail() == pytest.approx(1.0 / tau, abs=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            irt_distribution(0.0, 10)
        with pytest.raises(ValueError):
            irt_distribution(0.5, 0)


class TestEvaluate:
    def test_latency_decomposition_exact(self):
        res = evaluate(traditional_config(40, 127))
        rebuilt = (1.0 - res.tau) * res.e_texp + res.tau * (res.e_tbo + res.t_suc)
        assert res.e_t == rebuilt
        assert res.p_col_assumed == 0.0

    def test_throughput_bounds_and_monotonicity(self):
        rs = [evaluate(traditional_config(n, 127)).r for n in (1, 10, 40, 80)]
        assert all(0.0 <= r <= 1.0 for r in rs)
        assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_csv_row_round_trips(self):
        cfg = proposed_config(40, 127, Category.CAT2)
        res = evaluate(cfg)
        row = analytic_csv_row(cfg, res)
        parts = row.split(",")
        assert len(parts) == len(ANALYTIC_CSV_HEADER.split(","))
        assert parts[0] == "proposed" and parts[1] == "cat2"
        assert float(parts[4]) == res.tau
        assert float(parts[10]) == res.r

    def test_interior_regime_consistency(self):
        # in a genuinely expiring regime every piece still fits together
        params = MacParameters(t_ibi=2e-3)
        cfg = traditional_config(12, 32, params)
        res = evaluate(cfg)
        assert 0 < res.tau < 1
        assert res.e_texp > 0
        assert res.r == pytest.approx(res.tau * res.t_suc / res.e_t)
