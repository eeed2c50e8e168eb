import warnings
from dataclasses import replace

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
    _run_full_connectivity,
    _run_walker,
    classify_collision,
    empirical_pcol,
    run_simulation,
    run_simulations,
)
from priobeacon import sim

REGION = RegionSpec()
TH = CategoryThresholds()


def reference_walk(draws: np.ndarray, offsets: np.ndarray, adjacency: np.ndarray, slots: int, occupancy: int):
    """Per-slot oracle for `_run_walker`: steps every busy slot of the whole
    run, any adjacency, optional per-node phase offsets.  Quiet stretches (no
    occupancy, no zero counter) are skipped in one jump.  draws is
    (periods, n); it returns (outcomes, elapsed, diagnostics)."""
    periods, n = draws.shape
    end_of_run = int(offsets.max()) + periods * slots
    packet = np.full(n, -1, dtype=np.int64)      # index of the active packet, -1 before activation
    counter = np.zeros(n, dtype=np.int64)
    pending = np.zeros(n, dtype=bool)
    active = np.zeros(n, dtype=bool)
    occ_left = np.zeros(n, dtype=np.int64)
    next_boundary = offsets.copy()

    outcomes = np.full((periods, n), int(Outcome.EXPIRED), dtype=np.int8)
    elapsed = np.full((periods, n), -1, dtype=np.int32)
    ev_node: list[int] = []
    ev_start: list[int] = []
    ev_end: list[int] = []
    ev_packet: list[int] = []

    t = 0
    while t < end_of_run:
        at_boundary = next_boundary == t
        if at_boundary.any():
            for i in np.flatnonzero(at_boundary):
                occ_left[i] = 0  # occupancy never crosses the owner's boundary
                packet[i] += 1  # an un-transmitted previous packet stays EXPIRED
                if packet[i] < periods:
                    active[i] = True
                    pending[i] = True
                    counter[i] = draws[packet[i], i]
                    next_boundary[i] = offsets[i] + (packet[i] + 1) * slots
                else:
                    active[i] = False
                    pending[i] = False
                    next_boundary[i] = end_of_run + 1

        ongoing = occ_left > 0
        contenders = active & pending
        if not ongoing.any():
            ready = contenders & (counter == 0)
            if not ready.any():
                # nothing can change until a counter reaches zero or a boundary hits
                dt = int(next_boundary.min()) - t
                if contenders.any():
                    dt = min(dt, int(counter[contenders].min()))
                dt = min(max(dt, 1), end_of_run - t)
                counter[contenders] -= dt
                t += dt
                continue
        busy_at_start = (adjacency & ongoing).any(axis=1)
        starters = contenders & (counter == 0) & ~busy_at_start
        transmitting = ongoing | starters
        sensed_busy = (adjacency & transmitting).any(axis=1)
        decr = contenders & ~starters & (counter > 0) & ~sensed_busy
        counter[decr] -= 1
        if starters.any():
            for i in np.flatnonzero(starters):
                end = int(min(t + occupancy, next_boundary[i]))
                ev_node.append(i)
                ev_start.append(t)
                ev_end.append(end)
                ev_packet.append(int(packet[i]))
                elapsed[packet[i], i] = t - (next_boundary[i] - slots)
                pending[i] = False
                occ_left[i] = end - t
        occ_left[occ_left > 0] -= 1
        t += 1

    labels, diag = classify_collision(ev_node, ev_start, ev_end, adjacency)
    outcomes[ev_packet, ev_node] = labels
    diag["engine"] = "slot-walker"
    return outcomes, elapsed, diag


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
        n = len(cats)
        ((oB, eB, _),) = _run_walker([(draws[:, None], np.zeros(n, dtype=np.int64), _full_adjacency(n))], slots, occ)
        assert np.array_equal(oA, oB)
        assert np.array_equal(eA, eB)

    @pytest.mark.parametrize("occ", [1, 6])
    def test_batched_matches_walker_random_adjacency(self, occ):
        # random symmetric adjacency (plus the hidden-node chain), with roomy periods
        # and with budgets below n*occ where packets expire, in both layouts the
        # walker is run in: rows of single periods with zero offsets, and one row
        # of all periods with random per-node offsets
        master = np.random.default_rng(occ)
        adjacencies = [np.zeros((1, 1), dtype=bool), _full_adjacency(2), np.zeros((2, 2), dtype=bool)]
        chain = TestCollisionClassification.CHAIN
        adjacencies.append(chain)
        for _ in range(10):
            n = int(master.integers(3, 40))
            upper = np.triu(master.random((n, n)) < master.uniform(0.1, 0.9), 1)
            adjacencies.append(upper | upper.T)
        keys = ("expired", "sync_events", "hn_events", "dual_label_events")
        totals = {layout: dict.fromkeys(keys, 0) for layout in ("aligned", "offset")}
        for adj in adjacencies:
            n = adj.shape[0]
            cw = int(master.choice([3, 15, 127]))
            for slots in (max(2, n * occ // 2), cw + n * occ):
                draws = master.integers(0, cw, size=(25, n))
                if adj is chain:
                    draws[0] = (0, 2, 0)  # the textbook hidden-node period
                zero = np.zeros(n, dtype=np.int64)
                offsets = master.integers(0, slots, size=n)
                for layout, rows, offs in (("aligned", draws[:, None], zero), ("offset", draws[None], offsets)):
                    oW, eW, dW = reference_walk(draws, offs, adj, slots, occ)
                    ((oB, eB, dB),) = _run_walker([(rows, offs, adj)], slots, occ)
                    assert np.array_equal(oW, oB) and np.array_equal(eW, eB), layout
                    assert oB.dtype == oW.dtype and eB.dtype == eW.dtype
                    for key in keys[1:]:
                        assert dB[key] == dW[key], (layout, key)
                        totals[layout][key] += dB[key]
                    totals[layout]["expired"] += int((oB == int(Outcome.EXPIRED)).sum())
        assert all(v > 0 for t in totals.values() for v in t.values()), totals

    @pytest.mark.parametrize("occ", [1, 6])
    def test_stacked_runs_match_reference(self, occ):
        # runs of different sizes as rows of one walk, the node axis padded to the
        # largest: n = 1, n = 2, the hidden-node chain and random graphs of up to 12
        # nodes, each one row with random per-node offsets; each run must equal the
        # per-slot reference walked alone, with budgets below and above the largest
        # run's n*occ
        master = np.random.default_rng(10 + occ)
        adjacencies = [np.zeros((1, 1), dtype=bool), _full_adjacency(2), TestCollisionClassification.CHAIN]
        for _ in range(8):
            n = int(master.integers(3, 13))
            upper = np.triu(master.random((n, n)) < master.uniform(0.1, 0.9), 1)
            adjacencies.append(upper | upper.T)
        keys = ("expired", "sync_events", "hn_events", "dual_label_events")
        totals = dict.fromkeys(keys, 0)
        for slots in (12 * occ // 2, 127 + 12 * occ):
            runs = []
            for adj in adjacencies:
                n = adj.shape[0]
                draws = master.integers(0, int(master.choice([3, 15, 127])), size=(25, n))
                runs.append((draws[None], master.integers(0, slots, size=n), adj))
            results = _run_walker(runs, slots, occ)
            assert len(results) == len(runs)
            for (rows, offs, adj), (oB, eB, dB) in zip(runs, results):
                oW, eW, dW = reference_walk(rows[0], offs, adj, slots, occ)
                assert np.array_equal(oW, oB) and np.array_equal(eW, eB), adj.shape
                assert oB.dtype == oW.dtype and eB.dtype == eW.dtype
                assert dB == dW
                for key in keys[1:]:
                    totals[key] += dB[key]
                totals["expired"] += int((oB == int(Outcome.EXPIRED)).sum())
        assert all(v > 0 for v in totals.values()), totals

    def test_run_simulations_matches_run_simulation(self):
        # a mixed batch: phase-offset runs at several n (two period counts, so two
        # stacked walks), an aligned 700 m run and a full-connectivity run
        sc = make_scenario(seed=1)
        params = MacParameters(t_ibi=3e-3)  # 60 slots: packets expire
        rng = np.random.default_rng(0)
        subs = [sc.subsample(n, rng) for n in (1, 5, 12)] + [sc]
        offset_runs = [
            SimConfig(
                scenario=sub, policy=BackoffPolicy.proposed(15, TH) if k % 2 else BackoffPolicy.traditional(31),
                params=params, n_periods=40, seed=k, random_phase_offsets=True,
            )
            for k, sub in enumerate(subs)
        ]
        aligned = SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), params=params, n_periods=30, seed=7)
        full = replace(aligned, seed=8, full_connectivity=True)
        second_walk = replace(offset_runs[-1], n_periods=25, seed=9, full_connectivity=True)
        configs = [*offset_runs[:2], aligned, offset_runs[2], full, offset_runs[3], second_walk]
        batch = list(run_simulations(configs))
        assert len(batch) == len(configs)
        for config, got in zip(configs, batch):
            want = run_simulation(config)
            for name in ("node_ids", "categories", "outcomes", "elapsed"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.diagnostics == want.diagnostics
            assert (got.n_periods, got.seed, got.policy) == (config.n_periods, config.seed, config.policy)
        engines = [out.diagnostics["engine"] for out in batch]
        assert engines.count("full-connectivity") == 1 and engines.count("slot-walker") == len(configs) - 1
        assert sum(out.diagnostics["hn_events"] for out in batch) > 0

    def test_run_simulations_computes_aligned_runs_when_yielded(self, monkeypatch):
        calls = []
        real = sim._run_full_connectivity

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "_run_full_connectivity", counted)
        sc = make_scenario(seed=2)
        configs = [
            SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=20, seed=s, full_connectivity=True)
            for s in range(3)
        ]
        outcomes = run_simulations(configs)
        assert not calls
        next(outcomes)
        assert len(calls) == 1
        assert len(list(outcomes)) == 2 and len(calls) == 3

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
            ((o, e, diag),) = _run_walker([(draws[:, None], np.zeros(n, dtype=np.int64), adj)], slots, occ)
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
                ((oB, eB, _),) = _run_walker([(draws[:, None], np.zeros(2, dtype=np.int64), _full_adjacency(2))], 4, 6)
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
        ((o, e, diag),) = _run_walker([(draws[:, None], np.zeros(3, dtype=np.int64), self.CHAIN)], 30, 6)
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
