"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Grid: {traditional, proposed-cat1, proposed-cat2, proposed-cat3} x
CW {15, 127, 511} x N_sta {10, 20, 40, 80}, full connectivity, default MAC
timing (100 ms periods of 50 us slots), 10^4 beacon periods per point.

This docstring is the one account of which criteria fail and why; the
README and the ROADMAP point here.

At the default timing every packet is transmitted: a transmission occupies
6 slots, so the latest possible transmission slot is
(cw-1) + (n_sta-1)*6 <= 510 + 474 = 984, far inside the 2000-slot period.
tau = 1 exactly, analytic and simulated, and expirations never occur.  A
clause that needs packets to expire cannot hold on this grid under these
slot semantics.

The expiry preset is 20 ms periods (400 slots), the timing of the
benchmark's phase-expiry workload.  There the traditional arm at CW 127,
N_sta 80 (latest slot 126 + 79*6 = 600) can run out of period.  It is this
repository's choice, not an operating point read from the paper; the
paper's figures are not in the repository.  At CW 127 over N_sta in
{10, 20, 40, 80}, on the same nested chain, seed rule and period count:

* 02 checks its strict gap on the scheme itself: simulated tau, CI-aware.
* 01 and 02 also check the analytic model there, against the simulation
  and for the strict gap (the `_at_expiry` tests).  Both fail:
  `analytic._p_busy` charges one busy slot per contender transmission and
  ignores the 6-slot occupancy and the draw-order serialization, so the
  model gives tau = 1 on both arms where the simulator shows expirations.
  They pass once the model is fixed (ROADMAP item 2).

Criteria 04, 05 and 08 fail with their bounds kept as stated.  The paper
figures the bounds were read from are not in the repository, so whether
the model departs from the paper or the bounds were misread is not settled.

* 04: with tau = 1 the documented E[T] reduces to E[T_bo] + T_suc, which
  rises monotonically in N_sta, so there is no interior minimum.
* 05: the band [0.2 s, 1.2 s] contradicts criterion 01.  Where simulated
  tau is 1, criterion 01 forces analytic tau >= 0.95, and then
  E[T] <= 0.05^2/0.95 * T_ibi + T_ibi + T_suc, well under 0.2 s.
* 08: under the SYNC rule (simultaneous starts cannot be sensed) every
  same-draw tie is a collision, which alone puts P_col far above 0.05, and
  no packet expires on this grid, so the expiration rate cannot exceed the
  collision rate.  The bound encodes the model's collision-free
  approximation (p_col pinned to 0), which the simulator refutes.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from priobeacon.analytic import (
    ContentionConfig,
    MacParameters,
    evaluate,
    solve_tau,
    success_time,
    analytic_csv_row,
    ANALYTIC_CSV_HEADER,
)
from priobeacon.cli import main
from priobeacon.geometry import Category, CategoryThresholds, RegionSpec, category_mix, drop_nodes
from priobeacon.metrics import BitSums, build_estimates
from priobeacon.policy import BackoffPolicy
from priobeacon.sim import Outcome, SimConfig, run_simulation
from stats_helpers import backoff_slot_mean, chi_square_geometric

DROP_SEED = 4
SUBSAMPLE_SEED = 4
PERIODS = 10_000
CW_VALUES = (15, 127, 511)
N_VALUES = (10, 20, 40, 80)
N_FINE = (10, 20, 30, 40, 50, 60, 70, 80)
PARAMS = MacParameters()
# 400-slot periods: the expiration preset of the phase-expiry benchmark workload
PARAMS_EXPIRY = MacParameters(t_ibi=20e-3)
TH = CategoryThresholds()
ARMS = (
    ("traditional", None),
    ("proposed", Category.CAT1),
    ("proposed", Category.CAT2),
    ("proposed", Category.CAT3),
)


def record(report, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    report.append(line)
    print(line)


def make_policy(name: str, cw: int) -> BackoffPolicy:
    return BackoffPolicy.traditional(cw) if name == "traditional" else BackoffPolicy.proposed(cw)


def estimates(out, category):
    """The estimates `report` computes, over a category's nodes (every node for None); None if absent."""
    nodes = np.arange(out.n_nodes) if category is None else out.category_nodes(category)
    return build_estimates(BitSums.of(out.transmitted_bits()[nodes]), out.elapsed_sums()[nodes], out.config.params)


@dataclass
class GridData:
    chain: dict            # n_sta -> nested subsampled scenario
    mixes: dict            # n_sta -> category mix
    analytic: dict         # (policy, category, cw, n) -> AnalyticalResult
    sims: dict             # (policy, cw, n) -> SimOutcome


@pytest.fixture(scope="module")
def grid() -> GridData:
    scenario = drop_nodes(RegionSpec(), TH, 2e-5, seed=DROP_SEED)
    rng = np.random.default_rng(SUBSAMPLE_SEED)
    chain, current = {}, scenario
    for n in sorted(N_FINE, reverse=True):
        current = current.subsample(n, rng) if n < current.n_nodes else current
        chain[n] = current
    mixes = {n: category_mix(chain[n]) for n in N_FINE}

    analytic = {}
    for policy_name, category in ARMS:
        for cw in CW_VALUES:
            for n in N_FINE:
                analytic[(policy_name, category, cw, n)] = evaluate(
                    ContentionConfig(
                        n_sta=n,
                        policy=make_policy(policy_name, cw),
                        category=category,
                        params=PARAMS,
                        category_mix=mixes[n] if policy_name == "proposed" else None,
                    )
                )

    sims = {}
    for policy_name in ("traditional", "proposed"):
        for cw in CW_VALUES:
            for n in N_VALUES:
                sims[(policy_name, cw, n)] = run_simulation(
                    SimConfig(
                        scenario=chain[n],
                        policy=make_policy(policy_name, cw),
                        params=PARAMS,
                        n_periods=PERIODS,
                        seed=1000 + 37 * cw + n,
                        sense_range=math.inf,
                    )
                )
    return GridData(chain=chain, mixes=mixes, analytic=analytic, sims=sims)


@dataclass
class ExpiryData:
    analytic: dict         # (policy, category, n) -> analytic tau at CW 127
    sims: dict             # (category, n) -> simulated TauEstimate at CW 127; None is the traditional arm


@pytest.fixture(scope="module")
def expiry(grid) -> ExpiryData:
    """CW 127 at the expiry preset: analytic tau and simulated tau per arm."""
    analytic, sims = {}, {}
    for n in N_VALUES:
        for policy_name, categories in (
            ("traditional", (None,)),
            ("proposed", (Category.CAT1, Category.CAT2, Category.CAT3)),
        ):
            policy = make_policy(policy_name, 127)
            out = run_simulation(
                SimConfig(
                    scenario=grid.chain[n],
                    policy=policy,
                    params=PARAMS_EXPIRY,
                    n_periods=PERIODS,
                    seed=1000 + 37 * 127 + n,
                    sense_range=math.inf,
                )
            )
            for category in categories:
                cfg = ContentionConfig(
                    n_sta=n,
                    policy=policy,
                    category=category,
                    params=PARAMS_EXPIRY,
                    category_mix=grid.mixes[n] if policy_name == "proposed" else None,
                )
                analytic[(policy_name, category, n)] = solve_tau(cfg).tau
                est = estimates(out, category)
                assert est is not None, f"no {category} nodes at ({policy_name}, 127, {n})"
                sims[(category, n)] = est.tau
    return ExpiryData(analytic=analytic, sims=sims)


def sim_tau(grid: GridData, policy_name: str, category, cw: int, n: int) -> float:
    est = estimates(grid.sims[(policy_name, cw, n)], category)
    assert est is not None, f"no {category} nodes at ({policy_name}, {cw}, {n})"
    return est.tau.value


def test_criterion_01_oracle_equivalence(grid, criterion_report):
    """|tau_analytic - tau_sim| <= 0.05 at every grid point."""
    worst = 0.0
    for policy_name, category in ARMS:
        for cw in CW_VALUES:
            for n in N_VALUES:
                dev = abs(grid.analytic[(policy_name, category, cw, n)].tau - sim_tau(grid, policy_name, category, cw, n))
                worst = max(worst, dev)
    ok = worst <= 0.05
    record(criterion_report, 1, ok, f"oracle equivalence: max |tau_analytic - tau_sim| = {worst:.4g} (bound 0.05)")
    assert ok


def test_criterion_01_oracle_equivalence_at_expiry(expiry, criterion_report):
    """|tau_analytic - tau_sim| <= 0.05 at CW=127 for every arm and N at the expiry preset."""
    dev = {
        (policy_name, category, n): abs(expiry.analytic[(policy_name, category, n)] - expiry.sims[(category, n)].value)
        for policy_name, category in ARMS
        for n in N_VALUES
    }
    worst = max(dev, key=dev.get)
    ok = dev[worst] <= 0.05
    policy_name, category, n = worst
    arm = policy_name if category is None else f"{policy_name}-{category.token}"
    detail = (
        f"max |tau_analytic - tau_sim| = {dev[worst]:.4g} at ({arm}, 127, {n}): "
        f"analytic {expiry.analytic[worst]:.4g}, simulated {expiry.sims[(category, n)].value:.4g} (bound 0.05)"
    )
    record(criterion_report, 1, ok, f"oracle equivalence at 20 ms: {detail}")
    assert ok, f"model departs from the simulation where packets expire: {detail}; see the module docstring"


def test_criterion_02_priority_effect(grid, expiry, criterion_report):
    """tau(proposed, cat1) >= tau(traditional) at CW=127; strict by 0.01 at N=80.

    Dominance is checked on the analytic model over the default grid.  The
    strict gap is checked on the scheme itself, in simulation at the expiry
    preset (see the module docstring), and CI-aware: cat1's lower bound must
    clear traditional's upper bound by 0.01.  The point estimates must also
    show cat1 >= traditional and cat1 >= cat2 >= cat3 at every N_sta.  The
    within-arm ordering is what shows that cat1 holds the lowest chunk:
    narrower chunks mean more same-draw ties and fewer serialized
    transmissions, which lifts tau for every category of the proposed arm,
    so a cat1 on the top chunk can still beat the traditional arm.  The
    model's strict gap is test_criterion_02_analytic_gap_at_expiry.
    """
    dominated = all(
        grid.analytic[("proposed", Category.CAT1, 127, n)].tau >= grid.analytic[("traditional", None, 127, n)].tau
        for n in N_VALUES
    )
    est = expiry.sims
    sim_dominated = all(
        est[(Category.CAT1, n)].value >= est[(None, n)].value
        and est[(Category.CAT1, n)].value >= est[(Category.CAT2, n)].value >= est[(Category.CAT3, n)].value
        for n in N_VALUES
    )
    cat1, trad = est[(Category.CAT1, 80)], est[(None, 80)]
    gap = cat1.lo - trad.hi
    ok = dominated and sim_dominated and gap >= 0.01
    record(
        criterion_report, 2, ok,
        f"priority effect: analytic dominance {'holds' if dominated else 'violated'}, simulated dominance at "
        f"20 ms {'holds' if sim_dominated else 'violated'}, simulated CI gap at N=80 is {gap:.4g} "
        f"(tau_hat {cat1.value:.4g} vs {trad.value:.4g}; needs >= 0.01)",
    )
    assert ok, (
        f"priority effect violated: analytic dominance {dominated}, simulated dominance at 20 ms {sim_dominated}, "
        f"cat1 CI lower bound {cat1.lo:.4g} minus traditional CI upper bound {trad.hi:.4g} = {gap:.4g} < 0.01"
    )


def test_criterion_02_analytic_gap_at_expiry(expiry, criterion_report):
    """Analytic tau(proposed, cat1) - tau(traditional) >= 0.01 at CW=127, N=80 at the expiry preset."""
    cat1 = expiry.analytic[("proposed", Category.CAT1, 80)]
    trad = expiry.analytic[("traditional", None, 80)]
    gap = cat1 - trad
    ok = gap >= 0.01
    detail = f"analytic gap at N=80 is {gap:.4g} (tau {cat1:.4g} vs {trad:.4g}; needs >= 0.01)"
    record(criterion_report, 2, ok, f"priority effect in the model at 20 ms: {detail}")
    assert ok, (
        f"model shows no priority gap where packets expire: {detail}; simulated traditional tau is "
        f"{expiry.sims[(None, 80)].value:.4g}; see the module docstring"
    )


def test_criterion_03_backoff_slot_orderings(grid, criterion_report):
    """E[N_bo] proposed-cat1 < traditional at CW=127; non-decreasing in CW; both routes."""
    analytic_scheme = all(
        grid.analytic[("proposed", Category.CAT1, 127, n)].e_nbo < grid.analytic[("traditional", None, 127, n)].e_nbo
        for n in N_FINE
    )
    analytic_cw = all(
        grid.analytic[(pol, cat, 15, n)].e_nbo
        <= grid.analytic[(pol, cat, 127, n)].e_nbo
        <= grid.analytic[(pol, cat, 511, n)].e_nbo
        for pol, cat in ARMS
        for n in N_FINE
    )
    empirical_scheme = True
    for n in N_VALUES:
        prop = backoff_slot_mean(grid.sims[("proposed", 127, n)], Category.CAT1)
        trad = backoff_slot_mean(grid.sims[("traditional", 127, n)], None)
        empirical_scheme &= prop[0] + prop[1] < trad[0] - trad[1]
    empirical_cw = True
    for n in N_VALUES:
        means = [backoff_slot_mean(grid.sims[("traditional", cw, n)], None) for cw in CW_VALUES]
        empirical_cw &= means[0][0] - means[0][1] <= means[1][0] + means[1][1]
        empirical_cw &= means[1][0] - means[1][1] <= means[2][0] + means[2][1]
    ok = analytic_scheme and analytic_cw and empirical_scheme and empirical_cw
    record(
        criterion_report, 3, ok,
        "backoff-slot orderings: scheme and CW orderings hold analytically and empirically (CI-aware)"
        if ok
        else f"backoff orderings violated: scheme(a)={analytic_scheme} cw(a)={analytic_cw} "
        f"scheme(e)={empirical_scheme} cw(e)={empirical_cw}",
    )
    assert ok


def test_criterion_04_latency_inflection(grid, criterion_report):
    """Analytic E[T] for traditional CW=127 over N in {1,2,5,10,20,40,80} has an interior minimum."""
    ns = (1, 2, 5, 10, 20, 40, 80)
    results = [evaluate(ContentionConfig(n_sta=n, policy=BackoffPolicy.traditional(127), params=PARAMS)) for n in ns]
    lat = [res.e_t for res in results]
    argmin = int(np.argmin(lat))
    ok = 0 < argmin < len(ns) - 1
    record(
        criterion_report, 4, ok,
        f"latency inflection: E[T] minimum at N_sta={ns[argmin]} over {ns} "
        f"(values {['%.4g' % v for v in lat]})",
    )
    assert ok, (
        f"no interior minimum: analytic tau is at least {min(res.tau for res in results):.6g} at every N_sta, so "
        f"the documented E[T] = (1 - tau) E[T_exp] + tau (E[T_bo] + T_suc) reduces to E[T_bo] + T_suc, which "
        f"goes from {lat[0] * 1e3:.4g} ms to {lat[-1] * 1e3:.4g} ms; the paper figure this bound was read from "
        f"is not in the repository; see the module docstring"
    )


def test_criterion_05_latency_magnitude(grid, criterion_report):
    """Analytic E[T] for proposed-cat1, CW=511, N=80 lies in [0.2 s, 1.2 s]."""
    e_t = grid.analytic[("proposed", Category.CAT1, 511, 80)].e_t
    ok = 0.2 <= e_t <= 1.2
    record(criterion_report, 5, ok, f"latency magnitude: E[T](proposed-cat1, cw=511, N=80) = {e_t:.6g} s (band [0.2, 1.2])")
    tau_sim = sim_tau(grid, "proposed", Category.CAT1, 511, 80)
    tau_floor = tau_sim - 0.05
    cap = (1 - tau_floor) ** 2 / tau_floor * PARAMS.t_ibi + PARAMS.t_ibi + success_time(PARAMS) if tau_floor > 0 else float("inf")
    assert ok, (
        f"band contradicts criterion 01: simulated tau here is {tau_sim:.4g}, so criterion 01 forces analytic "
        f"tau >= {tau_floor:.4g} and then E[T] <= (1 - tau)^2/tau * T_ibi + T_ibi + T_suc = {cap:.4g} s < 0.2 s; "
        f"the paper figure this band was read from is not in the repository; see the module docstring"
    )


def test_criterion_06_throughput_consistency(grid, criterion_report, tmp_path):
    """R recomputed from emitted CSV columns matches stored R within 1e-9 relative;
    R in [0,1]; R non-increasing in N_sta."""
    rows = [ANALYTIC_CSV_HEADER]
    for (policy_name, category, cw, n), result in grid.analytic.items():
        token = "all" if category is None else category.token
        rows.append(analytic_csv_row((policy_name, token, cw, n), result))
    path = tmp_path / "analytic.csv"
    path.write_text("\n".join(rows) + "\n")
    worst_rel = 0.0
    bounds_ok = True
    for line in path.read_text().strip().splitlines()[1:]:
        parts = line.split(",")
        tau, t_suc, e_t, r = float(parts[4]), float(parts[8]), float(parts[9]), float(parts[10])
        worst_rel = max(worst_rel, abs(tau * t_suc / e_t - r) / r)
        bounds_ok &= 0.0 <= r <= 1.0
    mono_ok = True
    for policy_name, category in ARMS:
        for cw in CW_VALUES:
            rs = [grid.analytic[(policy_name, category, cw, n)].r for n in N_FINE]
            mono_ok &= all(a >= b for a, b in zip(rs, rs[1:]))
    ok = worst_rel <= 1e-9 and bounds_ok and mono_ok
    record(
        criterion_report, 6, ok,
        f"throughput consistency: max CSV recomputation error {worst_rel:.3g} (bound 1e-9), "
        f"bounds {'ok' if bounds_ok else 'violated'}, monotone in N_sta {'ok' if mono_ok else 'violated'}",
    )
    assert ok


def test_criterion_07_irt_geometric_law(grid, criterion_report):
    """Proposed-cat1, CW=15, N=80: gaps fit Geometric(tau_hat) at 1%; mean within 5%
    of 1/tau_hat; proposed-cat1 IRT CDF dominates traditional over gaps 1..10."""
    est_p = estimates(grid.sims[("proposed", 15, 80)], Category.CAT1)
    tau_hat, irt_p = est_p.tau.value, est_p.irt
    counts = {g: int(round(p * irt_p.gap_count)) for g, p in irt_p.pmf.items()}
    stat, dof, pvalue = chi_square_geometric(counts, tau_hat)
    gof_ok = pvalue > 0.01
    mean_gap = sum(gap * p for gap, p in irt_p.pmf.items())
    mean_ok = abs(mean_gap - 1.0 / tau_hat) <= 0.05 / tau_hat

    irt_t = estimates(grid.sims[("traditional", 15, 80)], None).irt
    cdf_p, cdf_t = irt_p.cdf(), irt_t.cdf()

    def cdf_at(cdf, g):
        value = 0.0
        for gap in sorted(cdf):
            if gap <= g:
                value = cdf[gap]
        return value

    dominance_ok = all(cdf_at(cdf_p, g) >= cdf_at(cdf_t, g) for g in range(1, 11))
    ok = gof_ok and mean_ok and dominance_ok
    record(
        criterion_report, 7, ok,
        f"IRT geometric law: GoF p={pvalue:.3g}, mean gap {mean_gap:.4g} vs 1/tau_hat {1/tau_hat:.4g}, "
        f"CDF dominance {'holds' if dominance_ok else 'violated'}",
    )
    assert ok


def test_criterion_08_expiration_constrained_regime(grid, criterion_report):
    """P_col < 0.05 and expiration rate > collision rate at every CW >= 127 grid point."""
    worst_pcol = 0.0
    worst_exp = 0.0
    violations = 0
    points = 0
    for policy_name in ("traditional", "proposed"):
        for cw in (127, 511):
            for n in N_VALUES:
                out = grid.sims[(policy_name, cw, n)]
                counts = {oc: int(c.sum()) for oc, c in out.counts().items()}
                total = out.outcomes.size
                collided = counts[Outcome.COLLIDED_SYNC] + counts[Outcome.COLLIDED_HIDDEN]
                pcol = collided / (total - counts[Outcome.EXPIRED])  # per transmitted packet
                exp_rate = counts[Outcome.EXPIRED] / total
                col_rate = collided / total
                points += 1
                worst_pcol = max(worst_pcol, pcol)
                worst_exp = max(worst_exp, exp_rate)
                if not (pcol < 0.05 and exp_rate > col_rate):
                    violations += 1
    ok = violations == 0
    record(
        criterion_report, 8, ok,
        f"expiration-constrained regime: {violations}/{points} points violate "
        f"(worst P_col = {worst_pcol:.3g}, highest expiration rate {worst_exp:.3g})",
    )
    assert ok, (
        f"regime not reached: under the SYNC rule every same-draw tie is a collision, and the worst P_col is "
        f"{worst_pcol:.3g} against the bound 0.05; the highest expiration rate is {worst_exp:.3g}; the bound "
        f"encodes the model's collision-free approximation (p_col pinned to 0); see the module docstring"
    )


def test_criterion_09_determinism_and_conservation(grid, criterion_report, tmp_path):
    """Byte-identical pipeline outputs under a repeated master seed; outcome
    counts sum to n_periods at every grid point."""
    conservation_ok = True
    for out in grid.sims.values():
        counts = out.counts()
        total = sum(counts[oc] for oc in Outcome)
        conservation_ok &= bool((total == out.n_periods).all())

    text = """
[policy]
policies = traditional proposed
cw = 15 127
[contention]
n_sta = 10 20
[sim]
periods = 200
full_connectivity = true
[seeds]
master = 77
"""
    cfg_path = tmp_path / "exp.ini"
    byte_ok = True
    snapshots = []
    for run_dir in ("run_a", "run_b"):
        cfg_path.write_text(text + f"[output]\ndir = {tmp_path / run_dir}\n")
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc in (0, 1)  # tolerance verdicts aside, the pipeline must complete
        snapshots.append(
            {p.name: p.read_bytes() for p in sorted((tmp_path / run_dir).iterdir())}
        )
    byte_ok = set(snapshots[0]) == set(snapshots[1]) and all(
        snapshots[0][name] == snapshots[1][name] for name in snapshots[0]
    )
    ok = conservation_ok and byte_ok
    record(
        criterion_report, 9, ok,
        f"determinism and conservation: pipeline bytes {'identical' if byte_ok else 'DIFFER'}, "
        f"per-node counts {'sum to n_periods' if conservation_ok else 'violate conservation'}",
    )
    assert ok


def test_criterion_10_exhaustive_micro_oracle(grid, criterion_report):
    """2 nodes, CW=3, 4-slot periods, full connectivity: simulated outcome
    distribution matches exact enumeration of the 3x3 joint backoff draws
    within total-variation distance 0.02."""
    # Exact enumeration: the 6-slot occupancy covers the whole 4-slot period,
    # so equal draws collide (SYNC) and otherwise the smaller draw delivers
    # while the larger expires.  Per-node marginals over the 9 joint draws:
    exact = {
        Outcome.DELIVERED: 3 / 9,
        Outcome.COLLIDED_SYNC: 3 / 9,
        Outcome.COLLIDED_HIDDEN: 0.0,
        Outcome.EXPIRED: 3 / 9,
    }
    scenario = drop_nodes(RegionSpec(), TH, 2 / RegionSpec().area, seed=0)
    params = MacParameters(t_ibi=4 * 50e-6)
    out = run_simulation(
        SimConfig(
            scenario=scenario, policy=BackoffPolicy.traditional(3), params=params,
            n_periods=100_000, seed=123, sense_range=math.inf,
        )
    )
    total = out.outcomes.size
    observed = {oc: float((out.outcomes == int(oc)).sum()) / total for oc in Outcome}
    tv = 0.5 * sum(abs(observed[oc] - exact[oc]) for oc in Outcome)
    ok = tv <= 0.02
    record(criterion_report, 10, ok, f"micro oracle: total-variation distance {tv:.4g} (bound 0.02)")
    assert ok
