import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priobeacon.analytic import MacParameters
from priobeacon.geometry import Category, CategoryThresholds, RegionSpec, drop_nodes
from priobeacon.policy import BackoffPolicy, draw_matrix
from priobeacon.sim import (
    Outcome,
    SimConfig,
    SimOutcome,
    _full_adjacency,
    _run_aligned_batched,
    _run_full_connectivity,
    _run_slot_walker,
    classify_collision,
    empirical_pcol,
    run_simulation,
)

REGION = RegionSpec()
TH = CategoryThresholds()


def make_scenario(seed=1, density=2e-5):
    return drop_nodes(REGION, TH, density, seed=seed)


def single_node_scenario():
    return drop_nodes(REGION, TH, 1 / REGION.area, seed=0)


class TestBasics:
    def test_single_node_all_delivered(self):
        sc = single_node_scenario()
        out = run_simulation(SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=1000, seed=5))
        counts = out.counts()
        assert counts[Outcome.DELIVERED][0] == 1000
        assert counts[Outcome.COLLIDED_SYNC][0] == 0
        assert counts[Outcome.COLLIDED_HIDDEN][0] == 0
        assert counts[Outcome.EXPIRED][0] == 0
        assert empirical_pcol(out) == 0.0

    def test_conservation(self):
        sc = make_scenario()
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.proposed(15, TH), n_periods=400, seed=2, full_connectivity=True)
        )
        counts = out.counts()
        total = sum(counts[oc] for oc in Outcome)
        assert (total == 400).all()

    def test_zero_nodes_rejected(self):
        sc = drop_nodes(REGION, TH, 0.4 / REGION.area, seed=0)
        with pytest.raises(ValueError):
            run_simulation(SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=10, seed=0))

    def test_cw_larger_than_period_flagged(self):
        sc = single_node_scenario()
        params = MacParameters(t_ibi=1e-3)  # 20 slots
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_simulation(
                SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), params=params, n_periods=10, seed=0)
            )
        assert any("exceeds" in str(w.message) for w in caught)

    def test_seed_determinism_byte_for_byte(self):
        sc = make_scenario(seed=3)
        cfg = SimConfig(scenario=sc, policy=BackoffPolicy.proposed(127, TH), n_periods=200, seed=11, full_connectivity=True)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.elapsed, b.elapsed)
        assert a.to_outcome_csv() == b.to_outcome_csv()
        assert a.to_bits_text() == b.to_bits_text()
        assert a.to_stats_csv() == b.to_stats_csv()

    def test_full_connectivity_never_hidden(self):
        sc = make_scenario(seed=4)
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=500, seed=9, full_connectivity=True)
        )
        assert out.counts()[Outcome.COLLIDED_HIDDEN].sum() == 0

    def test_silent_uncategorized_removed(self):
        sc = make_scenario(seed=1)
        out = run_simulation(
            SimConfig(
                scenario=sc, policy=BackoffPolicy.proposed(127, TH), n_periods=100, seed=1,
                full_connectivity=True, uncategorized="silent",
            )
        )
        assert (out.categories != int(Category.UNCATEGORIZED)).all()
        assert out.n_nodes == sum(1 for nd in sc.nodes if nd.category is not Category.UNCATEGORIZED)


class TestElapsedAndFreezing:
    def test_elapsed_at_least_draw(self):
        sc = make_scenario(seed=2)
        cfg = SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=100, seed=7, full_connectivity=True)
        out = run_simulation(cfg)
        rng = np.random.default_rng(7)
        draws = draw_matrix(cfg.policy, sc.categories(), 100, rng)
        transmitted = out.outcomes != int(Outcome.EXPIRED)
        assert (out.elapsed[transmitted] >= draws[transmitted]).all()
        # with contention some packet must actually get frozen
        assert (out.elapsed[transmitted] > draws[transmitted]).any()

    def test_idle_medium_elapsed_equals_draw(self):
        sc = single_node_scenario()
        cfg = SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=200, seed=3)
        out = run_simulation(cfg)
        draws = draw_matrix(cfg.policy, sc.categories(), 200, np.random.default_rng(3))
        assert np.array_equal(out.elapsed.ravel(), draws.ravel())

    def test_elapsed_sums_skip_expired_periods(self):
        params = MacParameters(t_ibi=3e-3)  # 60 slots: some packets expire
        sc = make_scenario(seed=2)
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), params=params, n_periods=50, seed=4)
        )
        transmitted = out.outcomes != int(Outcome.EXPIRED)
        assert 0 < transmitted.mean() < 1
        expect = [int(out.elapsed[transmitted[:, i], i].sum()) for i in range(out.n_nodes)]
        assert out.elapsed_sums().tolist() == expect
        stats_sums = [int(ln.split(",")[3]) for ln in out.to_stats_csv().splitlines()[1:]]
        assert stats_sums == expect

    def test_bits_text_matches_per_character_join(self):
        rng = np.random.default_rng(5)
        periods, n = 37, 11
        outcomes = rng.integers(0, len(Outcome), size=(periods, n)).astype(np.int8)
        out = SimOutcome(
            node_ids=np.arange(n), categories=np.ones(n, dtype=np.int64), outcomes=outcomes,
            elapsed=np.where(outcomes == int(Outcome.EXPIRED), -1, 3).astype(np.int32),
            policy=BackoffPolicy.traditional(15), params=MacParameters(), n_periods=periods, seed=0,
            full_connectivity=False, random_phase_offsets=False, diagnostics={},
        )
        expect = "\n".join("".join("1" if b else "0" for b in row) for row in out.transmitted_bits()) + "\n"
        assert out.to_bits_text() == expect


class TestEngineEquivalence:
    @pytest.mark.parametrize("cw", [3, 15, 127, 511])
    def test_walker_matches_closed_form(self, cw):
        sc = make_scenario(seed=1)
        cats = sc.categories()
        policy = BackoffPolicy.proposed(cw, TH) if cw >= 3 else BackoffPolicy.traditional(cw)
        draws = draw_matrix(policy, cats, 40, np.random.default_rng(cw))
        params = MacParameters()
        slots, occ = params.slots_per_beacon, params.tx_occupancy_slots
        oA, eA, _ = _run_full_connectivity(draws, slots, occ)
        oB, eB, _ = _run_slot_walker(draws, np.zeros(len(cats), dtype=np.int64), _full_adjacency(len(cats)), slots, occ)
        assert np.array_equal(oA, oB)
        assert np.array_equal(eA, eB)

    @pytest.mark.parametrize("occ", [1, 6])
    def test_batched_matches_walker_random_adjacency(self, occ):
        # aligned periods on random symmetric adjacency (plus the hidden-node chain),
        # with roomy periods and with budgets below n*occ where packets expire
        master = np.random.default_rng(occ)
        adjacencies = [np.zeros((1, 1), dtype=bool), _full_adjacency(2), np.zeros((2, 2), dtype=bool)]
        chain = TestCollisionClassification.CHAIN
        adjacencies.append(chain)
        for _ in range(10):
            n = int(master.integers(3, 40))
            upper = np.triu(master.random((n, n)) < master.uniform(0.1, 0.9), 1)
            adjacencies.append(upper | upper.T)
        totals = dict.fromkeys(("expired", "sync_events", "hn_events", "dual_label_events"), 0)
        for adj in adjacencies:
            n = adj.shape[0]
            cw = int(master.choice([3, 15, 127]))
            for slots in (max(2, n * occ // 2), cw + n * occ):
                draws = master.integers(0, cw, size=(25, n))
                if adj is chain:
                    draws[0] = (0, 2, 0)  # the textbook hidden-node period
                oW, eW, dW = _run_slot_walker(draws, np.zeros(n, dtype=np.int64), adj, slots, occ)
                oB, eB, dB = _run_aligned_batched(draws, adj, slots, occ)
                assert np.array_equal(oW, oB) and np.array_equal(eW, eB)
                assert oB.dtype == oW.dtype and eB.dtype == eW.dtype
                for key in ("sync_events", "hn_events", "dual_label_events"):
                    assert dB[key] == dW[key], key
                    totals[key] += dB[key]
                totals["expired"] += int((oB == int(Outcome.EXPIRED)).sum())
        assert all(v > 0 for v in totals.values()), totals

    def test_walker_fuzz_invariants_random_adjacency(self):
        # random topologies and window/period shapes: conservation, elapsed >= draw,
        # SYNC only between adjacent same-slot starters, HN never under full connectivity
        master = np.random.default_rng(2024)
        for _ in range(25):
            n = int(master.integers(2, 9))
            slots = int(master.integers(4, 60))
            occ = int(master.integers(1, 9))
            periods = 30
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(i + 1, n):
                    adj[i, j] = adj[j, i] = master.random() < 0.5
            cw = int(master.integers(2, slots + 10))
            draws = master.integers(0, cw, size=(periods, n))
            o, e, diag = _run_slot_walker(draws, np.zeros(n, dtype=np.int64), adj, slots, occ)
            assert ((o >= 0) & (o <= 3)).all()
            transmitted = o != int(Outcome.EXPIRED)
            assert (e[transmitted] >= draws[transmitted]).all()
            assert (e[~transmitted] == -1).all()
            if adj.sum() == n * (n - 1):  # complete graph
                assert (o != int(Outcome.COLLIDED_HIDDEN)).all()
            # a SYNC outcome needs an adjacent node transmitting in the same slot
            for p in range(periods):
                for i in np.flatnonzero(o[p] == int(Outcome.COLLIDED_SYNC)):
                    peers = np.flatnonzero(adj[i] & transmitted[p])
                    assert any(e[p, j] == e[p, i] for j in peers)

    def test_micro_case_all_joint_draws(self):
        # 2 nodes, cw=3, 4-slot periods: occupancy covers the whole period,
        # so ties collide, the smaller draw delivers and the larger expires
        for b1 in range(3):
            for b2 in range(3):
                draws = np.array([[b1, b2]])
                oA, eA, _ = _run_full_connectivity(draws, 4, 6)
                oB, eB, _ = _run_slot_walker(draws, np.zeros(2, dtype=np.int64), _full_adjacency(2), 4, 6)
                assert np.array_equal(oA, oB) and np.array_equal(eA, eB)
                if b1 == b2:
                    assert list(oA[0]) == [int(Outcome.COLLIDED_SYNC)] * 2
                else:
                    winner, loser = (0, 1) if b1 < b2 else (1, 0)
                    assert oA[0, winner] == int(Outcome.DELIVERED)
                    assert oA[0, loser] == int(Outcome.EXPIRED)
                    assert eA[0, winner] == min(b1, b2)


def pairwise_labels(node, start, end, adj):
    """Brute-force SYNC/HN labels: every ordered pair of events of different nodes."""
    k = len(node)
    sync = [False] * k
    hn = [False] * k
    for a in range(k):
        for b in range(k):
            x, y = node[a], node[b]
            if x == y or not (start[a] < end[b] and start[b] < end[a]):
                continue
            if adj[x, y]:
                sync[a] = sync[a] or start[a] == start[b]
            elif (adj[x] & adj[y]).any():
                hn[a] = True
    labels = [
        Outcome.COLLIDED_SYNC if s else Outcome.COLLIDED_HIDDEN if h else Outcome.DELIVERED for s, h in zip(sync, hn)
    ]
    diag = {
        "sync_events": sum(sync),
        "hn_events": sum(hn),
        "dual_label_events": sum(s and h for s, h in zip(sync, hn)),
    }
    return labels, diag


class TestCollisionClassification:
    # chain 0-1-2: 0 and 2 are hidden from each other, 1 hears both
    CHAIN = np.array(
        [[False, True, False], [True, False, True], [False, True, False]]
    )

    def test_sync_adjacent_same_slot(self):
        labels, diag = classify_collision([0, 1], [0, 0], [6, 6], self.CHAIN)
        assert labels.dtype == np.int8
        assert labels.tolist() == [Outcome.COLLIDED_SYNC, Outcome.COLLIDED_SYNC]
        assert diag["sync_events"] == 2

    def test_hidden_node_textbook(self):
        labels, diag = classify_collision([0, 2], [0, 3], [6, 9], self.CHAIN)
        assert labels.tolist() == [Outcome.COLLIDED_HIDDEN, Outcome.COLLIDED_HIDDEN]
        assert diag["hn_events"] == 2

    def test_solo_transmission_clean(self):
        labels, diag = classify_collision([0], [0], [6], self.CHAIN)
        assert labels.tolist() == [Outcome.DELIVERED]
        assert diag == {"sync_events": 0, "hn_events": 0, "dual_label_events": 0}

    def test_non_overlapping_hidden_pair_clean(self):
        labels, _ = classify_collision([0, 2], [0, 6], [6, 12], self.CHAIN)
        assert labels.tolist() == [Outcome.DELIVERED, Outcome.DELIVERED]

    def test_dual_label_reports_sync(self):
        # 0-1 adjacent (same start), 2 hidden from 0 but sharing receiver 3
        adj = np.zeros((4, 4), dtype=bool)
        for a, b in ((0, 1), (0, 3), (2, 3)):
            adj[a, b] = adj[b, a] = True
        labels, diag = classify_collision([0, 1, 2], [0, 0, 2], [6, 6, 8], adj)
        assert labels[0] == Outcome.COLLIDED_SYNC
        assert labels[1] == Outcome.COLLIDED_SYNC
        assert labels[2] == Outcome.COLLIDED_HIDDEN
        assert diag["dual_label_events"] == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_definition(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        pairs = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n), label="pairs")
        upper = np.triu(np.reshape(pairs, (n, n)), 1)
        adj = upper | upper.T
        # events on a run clock of `slots`-slot periods; ends cut at the period end
        slots = data.draw(st.integers(2, 12), label="slots")
        event = st.tuples(st.integers(0, n - 1), st.integers(0, 40), st.integers(1, 8))
        raw = data.draw(st.lists(event, max_size=25), label="events")
        node = [i for i, _, _ in raw]
        start = [s for _, s, _ in raw]
        end = [min(s + d, (s // slots + 1) * slots) for _, s, d in raw]
        # one node transmitting back to back: its first event ends where the second starts
        i, s, d1 = data.draw(event, label="first back-to-back event")
        d2 = data.draw(st.integers(1, 8), label="second duration")
        node += [i, i]
        start += [s, s + d1]
        end += [s + d1, s + d1 + d2]
        labels, diag = classify_collision(node, start, end, adj)
        expect, expect_diag = pairwise_labels(node, start, end, adj)
        assert labels.tolist() == expect
        assert diag == expect_diag

    def test_hidden_node_end_to_end(self):
        # force the textbook dynamics through the walker: 0 and 2 draw 0, 1 larger
        draws = np.array([[0, 2, 0]])
        o, e, diag = _run_slot_walker(draws, np.zeros(3, dtype=np.int64), self.CHAIN, 30, 6)
        assert o[0, 0] == int(Outcome.COLLIDED_HIDDEN)
        assert o[0, 2] == int(Outcome.COLLIDED_HIDDEN)
        assert o[0, 1] == int(Outcome.DELIVERED)
        assert e[0, 1] == 8  # frozen during the 6-slot occupancy, then finishes its 2 counts


class TestPhaseOffsets:
    def test_conservation_and_determinism(self):
        sc = make_scenario(seed=8, density=10 / REGION.area)
        cfg = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=150, seed=13,
            full_connectivity=True, random_phase_offsets=True,
            params=MacParameters(t_ibi=2e-3),
        )
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.outcomes, b.outcomes)
        counts = a.counts()
        assert (sum(counts[oc] for oc in Outcome) == 150).all()
        assert a.diagnostics["engine"] == "slot-walker"


class TestPriorityRealization:
    def test_delivered_rate_ordering_under_proposed(self):
        sc = make_scenario(seed=1)  # cat1/cat2/cat3 = 7/9/17
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.proposed(127, TH), n_periods=2000, seed=21, full_connectivity=True)
        )
        counts = out.counts()[Outcome.DELIVERED]
        rates = {}
        for cat in (Category.CAT1, Category.CAT2, Category.CAT3):
            nodes = out.category_nodes(cat)
            rates[cat] = counts[nodes].mean() / out.n_periods
        assert rates[Category.CAT1] >= rates[Category.CAT2] >= rates[Category.CAT3]


class TestEmpiricalPcol:
    def test_stress_micro_case(self):
        # 2 nodes, cw=3, 4-slot periods: ties collide in 3 of 9 joint draws,
        # so half of all attempted transmissions collide
        sc = drop_nodes(REGION, TH, 2 / REGION.area, seed=0)
        cfg = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(3), n_periods=20_000, seed=17,
            full_connectivity=True, params=MacParameters(t_ibi=200e-6),
        )
        out = run_simulation(cfg)
        pcol = empirical_pcol(out)
        assert pcol == pytest.approx(0.5, abs=0.02)
        # per node-period collision fraction is 1/3
        sync_rate = out.counts()[Outcome.COLLIDED_SYNC].sum() / out.outcomes.size
        assert sync_rate == pytest.approx(1 / 3, abs=0.02)

    @pytest.mark.filterwarnings("ignore:contention window")
    def test_undefined_without_transmissions(self):
        # single uncategorized node -> cat3 range [7, 9], beyond a 4-slot period
        sc = drop_nodes(REGION, TH, 1 / REGION.area, seed=1)
        assert sc.nodes[0].category is Category.UNCATEGORIZED
        params = MacParameters(t_ibi=200e-6)  # 4 slots
        out = run_simulation(
            SimConfig(
                scenario=sc, policy=BackoffPolicy.proposed(10, TH), params=params,
                n_periods=100, seed=1, full_connectivity=True,
            )
        )
        assert empirical_pcol(out) is None
        assert (out.outcomes == int(Outcome.EXPIRED)).all()
