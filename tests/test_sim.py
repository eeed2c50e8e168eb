import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priobeacon.analytic import MacParameters
from priobeacon.cli import MANIFEST_HEADER, main
from priobeacon.geometry import Category, CategoryThresholds, RegionSpec, drop_nodes
from priobeacon.metrics import BitSums
from priobeacon.policy import BackoffPolicy, draw_matrix
from priobeacon.sim import (
    OUTCOME_CSV_HEADER,
    STATS_CSV_HEADER,
    Outcome,
    SimConfig,
    SimOutcome,
    _run_full_connectivity,
    _run_walker,
    classify_collision,
    point_files,
    read_point,
    run_simulation,
    simulate_points,
)
from priobeacon import sim
from stats_helpers import assert_same_sums

REGION = RegionSpec()
TH = CategoryThresholds()


def complete_graph(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def closed_form(draws: np.ndarray, slots: int, occupancy: int):
    """`_run_full_connectivity` into fresh arrays holding values no outcome or elapsed
    can take, so that an entry it leaves unwritten shows; returns (outcomes, elapsed, diagnostics)."""
    outcomes = np.full(draws.shape, 99, dtype=np.int8)
    elapsed = np.full(draws.shape, -99, dtype=np.int32)
    diag = _run_full_connectivity(draws, slots, occupancy, outcomes, elapsed)
    return outcomes, elapsed, diag


def walk_complete(draws: np.ndarray, slots: int, occupancy: int):
    """The walker on a complete graph, one row per period of the (periods, n) draws."""
    n = draws.shape[1]
    ((outcomes, elapsed, diag),) = _run_walker(
        [(draws[:, None], np.zeros(n, dtype=np.int64), complete_graph(n))], slots, occupancy
    )
    return outcomes, elapsed, diag


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


def set_chunk_rows(monkeypatch, rows: int, n: int):
    """Make an aligned run of n nodes take `rows` periods a chunk, on either engine."""
    monkeypatch.setattr(sim, "_CHUNK_NODE_PERIODS", rows * n + n - 1)


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
        collided = counts[Outcome.COLLIDED_SYNC][0] + counts[Outcome.COLLIDED_HIDDEN][0]
        assert collided / (1000 - counts[Outcome.EXPIRED][0]) == 0.0  # P_col per transmitted packet

    def test_conservation(self):
        sc = make_scenario()
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.proposed(15), n_periods=400, seed=2, sense_range=math.inf)
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
        cfg = SimConfig(scenario=sc, policy=BackoffPolicy.proposed(127), n_periods=200, seed=11, sense_range=math.inf)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.elapsed, b.elapsed)
        assert a.to_outcome_csv() == b.to_outcome_csv()
        assert a.to_bits_text() == b.to_bits_text()
        assert a.to_stats_csv() == b.to_stats_csv()

    @pytest.mark.parametrize("rows, n", [(819, 80), (37, 5), (2**16, 1), (2**16 + 3, 2)])
    def test_outcome_counts_equal_per_outcome_counts(self, rows, n):
        # packed counts hold 0xFFFF per field: 2^16 rows of one outcome need two blocks
        rng = np.random.default_rng(rows)
        for outcomes in (rng.integers(0, len(Outcome), size=(rows, n), dtype=np.int8),
                         np.full((rows, n), int(Outcome.EXPIRED), dtype=np.int8)):
            want = np.stack([np.count_nonzero(outcomes == int(oc), axis=0) for oc in Outcome])
            counts = sim._outcome_counts(outcomes)
            assert counts.dtype == np.int64 and np.array_equal(counts, want)

    def test_counts_and_elapsed_sums_build_no_bits_text(self, monkeypatch):
        sc = make_scenario(seed=2)
        out = run_simulation(SimConfig(
            scenario=sc, policy=BackoffPolicy.proposed(15), params=MacParameters(t_ibi=3e-3),
            sense_range=math.inf, n_periods=150, seed=4,
        ))
        assert (out.outcomes == int(Outcome.EXPIRED)).any()
        want_counts = [np.count_nonzero(out.outcomes == int(oc), axis=0) for oc in Outcome]
        want_sums = np.where(out.elapsed >= 0, out.elapsed, 0).sum(axis=0)
        monkeypatch.setattr(sim, "_PointTally", None)
        counts = out.counts()
        assert list(counts) == list(Outcome)
        assert all(np.array_equal(counts[oc], want) for oc, want in zip(Outcome, want_counts))
        assert out.elapsed_sums().dtype == np.int64 and np.array_equal(out.elapsed_sums(), want_sums)
        # the per-node exporters format the same counts and sums, with no bits text either
        tokens = [Category(c).token for c in sc.categories]
        tx = out.n_periods - want_counts[Outcome.EXPIRED]
        for text, header, columns in ((out.to_outcome_csv(), OUTCOME_CSV_HEADER, want_counts),
                                      (out.to_stats_csv(), STATS_CSV_HEADER, [tx, want_sums])):
            rows = zip(sc.ids, tokens, *columns)
            assert text == "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"

    def test_full_connectivity_never_hidden(self):
        sc = make_scenario(seed=4)
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=500, seed=9, sense_range=math.inf)
        )
        assert out.counts()[Outcome.COLLIDED_HIDDEN].sum() == 0


class TestChunkedAlignedRuns:
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("kind", ["traditional", "proposed"])
    @pytest.mark.parametrize("sense_range", [math.inf, 700.0])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, sense_range, kind, chunk):
        # 10 ms periods (200 slots) at cw 127: packets expire, and on the 700 m graph hidden nodes collide
        sc = make_scenario(seed=1)
        config = SimConfig(
            scenario=sc, policy=getattr(BackoffPolicy, kind)(127), params=MacParameters(t_ibi=10e-3),
            sense_range=sense_range, n_periods=50, seed=3,
        )
        assert 50 * sc.n_nodes <= sim._CHUNK_NODE_PERIODS  # one chunk
        whole = run_simulation(config)
        set_chunk_rows(monkeypatch, chunk, sc.n_nodes)
        chunked = run_simulation(config)
        for name in ("outcomes", "elapsed"):
            a, b = getattr(whole, name), getattr(chunked, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert chunked.diagnostics == whole.diagnostics
        assert (whole.outcomes == int(Outcome.EXPIRED)).any()
        assert (whole.diagnostics["hn_events"] > 0) == (sense_range == 700.0)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_aligned_runs_are_computed_when_asked_for(self, tmp_path, monkeypatch, chunk):
        rows = []  # the periods of each closed-form chunk, in call order
        real = sim._run_full_connectivity

        def counted(draws, *args):
            rows.append(draws.shape[0])
            return real(draws, *args)

        sc = make_scenario(seed=2)
        monkeypatch.setattr(sim, "_run_full_connectivity", counted)
        set_chunk_rows(monkeypatch, chunk, sc.n_nodes)
        points = [
            (f"{s:03d}", SimConfig(
                scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=20, seed=s, sense_range=math.inf
            ))
            for s in range(3)
        ]
        per_run = -(-20 // chunk)
        results = simulate_points(tmp_path, points)
        assert not rows
        next(results)
        assert len(rows) == per_run and sum(rows) == 20
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(point_files("000"))
        assert len(list(results)) == 2 and len(rows) == 3 * per_run

    def test_peak_memory_does_not_grow_with_periods(self):
        # beyond the returned (periods, n) arrays, an aligned run holds one chunk's working set
        sc = make_scenario(density=40 / REGION.area)
        assert sc.n_nodes == 40

        def traced_peak(periods):
            config = SimConfig(
                scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=periods, seed=1, sense_range=math.inf
            )
            tracemalloc.start()
            try:
                out = run_simulation(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.outcomes.nbytes - out.elapsed.nbytes

        assert traced_peak(16384) <= 1.1 * traced_peak(4096)

    def test_closed_form_batch_holds_nothing_between_points(self, tmp_path):
        # once a point is written, the batch holds none of its chunks' arrays: what it keeps
        # until the next point is asked for is less than one chunk's int32 draws
        sc = make_scenario(density=40 / REGION.area)
        config = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=4000, seed=1, sense_range=math.inf
        )
        assert 4000 * sc.n_nodes > 2 * sim._CHUNK_NODE_PERIODS  # several chunks a point
        results = simulate_points(tmp_path, [(f"{k:03d}", replace(config, seed=k)) for k in range(3)])
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            _, diag = next(results)
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert diag["engine"] == "full-connectivity"
        assert held < sim._CHUNK_NODE_PERIODS * 4, held
        assert len(list(results)) == 2

    def test_both_engines_take_the_same_chunks(self, tmp_path, monkeypatch):
        # one budget of node-periods sizes an aligned run's chunks, whichever engine runs it
        sc = make_scenario(density=40 / REGION.area)
        rows = []  # the periods of each chunk's draws, in call order
        real = sim.draw_matrix

        def recorded(policy, categories, n_periods, rng):
            rows.append(n_periods)
            return real(policy, categories, n_periods, rng)

        monkeypatch.setattr(sim, "draw_matrix", recorded)
        config = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=4000, seed=1, sense_range=math.inf
        )
        points = [("000", config), ("001", replace(config, sense_range=700.0))]
        engines = [diag["engine"] for _, diag in simulate_points(tmp_path, points)]
        assert engines == ["full-connectivity", "slot-walker"]
        half = len(rows) // 2
        assert rows[:half] == rows[half:] and sum(rows) == 2 * 4000 and half > 2, rows
        assert max(rows) <= sim._CHUNK_NODE_PERIODS // sc.n_nodes, rows

    def test_closed_form_point_holds_no_more_than_a_walked_one(self, tmp_path):
        # the closed form holds far fewer bytes per node-period than the walker, so with one
        # chunk size for both a streamed closed-form point peaks below a walked one
        sc = make_scenario(density=40 / REGION.area)
        config = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=16384, seed=1, sense_range=math.inf
        )

        def traced_peak(config):
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                ((_, diag),) = simulate_points(tmp_path, [("000", config)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return diag["engine"], peak - baseline

        closed, closed_peak = traced_peak(config)
        walked, walked_peak = traced_peak(replace(config, sense_range=700.0))
        assert (closed, walked) == ("full-connectivity", "slot-walker")
        assert closed_peak < walked_peak, (closed_peak, walked_peak)

    def test_closed_form_peak_memory_stays_below_its_argsort_form(self):
        # 5 573 523 B: the peak beyond the returned arrays of the argsort-and-put_along_axis closed
        # form for this run, a 3 276-period chunk; writing each chunk in place must not regrow it
        sc = make_scenario(density=40 / REGION.area)
        config = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=16384, seed=1, sense_range=math.inf
        )
        tracemalloc.start()
        try:
            out = run_simulation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.diagnostics["engine"] == "full-connectivity"
        assert peak - out.outcomes.nbytes - out.elapsed.nbytes <= 5_573_523

    @pytest.mark.parametrize("full_connectivity", ["true", "false"])
    def test_simulate_and_report_peaks_do_not_grow_with_periods(self, tmp_path, full_connectivity):
        # `simulate` writes each point's bits file one chunk of columns at a time and `report`
        # reads it back one block of rows at a time, so from P to 4P periods neither peak grows
        # by more than a small constant, where the bits text alone would grow by 3 * P * n bytes
        # (983 kB).  At P = 8192 and 40 nodes a run already takes several chunks on either
        # engine.  The walker's chunks differ by up to about 60 kB in what they hold to classify
        # their transmissions, and the 4P run has more chunks to take the largest from.
        n, periods = 40, 8192
        assert 4 * (sim._CHUNK_NODE_PERIODS // n) <= periods

        def traced_peaks(p):
            cfgp = tmp_path / f"{p}.ini"
            cfgp.write_text(
                f"[policy]\npolicies = traditional\ncw = 127\n[contention]\nn_sta = {n}\n[sim]\nperiods = {p}\n"
                f"full_connectivity = {full_connectivity}\n[output]\ndir = {tmp_path}/out{p}\n"
            )
            assert main(["analyze", "--config", str(cfgp)]) == 0
            peaks = []
            for stage in ("simulate", "report"):
                tracemalloc.start()
                try:
                    rc = main([stage, "--config", str(cfgp)])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert rc == 0, (stage, p)
            # a peak of a run that failed early would say nothing: the report judged the point
            summary = (tmp_path / f"out{p}" / "summary.txt").read_text()
            assert "point policy=traditional category=all cw=127 n_sta=40" in summary, summary
            assert "missing:" not in summary, summary
            return peaks

        small, large = traced_peaks(periods), traced_peaks(4 * periods)
        assert large[0] - small[0] <= 128 * 1024, (small, large)
        assert large[1] - small[1] <= 128 * 1024, (small, large)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunked_closed_form_matches_walker(self, monkeypatch, chunk):
        # one node; cw far past the period (clipped draws); more than 128 nodes at cw 511
        # (keys wider than 16 bits); 5 ms periods, where packets expire
        many = make_scenario(density=140 / REGION.area)
        assert many.n_nodes > 128
        cases = [
            (single_node_scenario(), BackoffPolicy.traditional(511), MacParameters()),
            (make_scenario(seed=2), BackoffPolicy.traditional(2**40), MacParameters(t_ibi=20e-3)),
            (many, BackoffPolicy.traditional(511), MacParameters()),
            (make_scenario(seed=1), BackoffPolicy.proposed(127), MacParameters(t_ibi=5e-3)),
        ]
        expired = 0
        for sc, policy, params in cases:
            config = SimConfig(scenario=sc, policy=policy, params=params, sense_range=math.inf, n_periods=30, seed=5)
            set_chunk_rows(monkeypatch, chunk, sc.n_nodes)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = run_simulation(config)
            draws = draw_matrix(policy, sc.categories, 30, np.random.default_rng(5))
            o, e, d = walk_complete(draws, params.slots_per_beacon, params.tx_occupancy_slots)
            assert out.diagnostics["engine"] == "full-connectivity"
            assert np.array_equal(out.outcomes, o) and np.array_equal(out.elapsed, e)
            assert out.diagnostics["sync_events"] == d["sync_events"]
            expired += int((o == int(Outcome.EXPIRED)).sum())
        assert expired > 0


class TestElapsedAndFreezing:
    def test_elapsed_at_least_draw(self):
        sc = make_scenario(seed=2)
        cfg = SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=100, seed=7, sense_range=math.inf)
        out = run_simulation(cfg)
        rng = np.random.default_rng(7)
        draws = draw_matrix(cfg.policy, sc.categories, 100, rng)
        transmitted = out.outcomes != int(Outcome.EXPIRED)
        assert (out.elapsed[transmitted] >= draws[transmitted]).all()
        # with contention some packet must actually get frozen
        assert (out.elapsed[transmitted] > draws[transmitted]).any()

    def test_idle_medium_elapsed_equals_draw(self):
        sc = single_node_scenario()
        cfg = SimConfig(scenario=sc, policy=BackoffPolicy.traditional(127), n_periods=200, seed=3)
        out = run_simulation(cfg)
        draws = draw_matrix(cfg.policy, sc.categories, 200, np.random.default_rng(3))
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
        config = SimConfig(scenario=make_scenario(density=n / REGION.area), policy=BackoffPolicy.traditional(15))
        assert config.scenario.n_nodes == n
        out = SimOutcome(
            config=config, outcomes=outcomes,
            elapsed=np.where(outcomes == int(Outcome.EXPIRED), -1, 3).astype(np.int32), diagnostics={},
        )
        expect = "\n".join("".join("1" if b else "0" for b in row) for row in out.transmitted_bits()) + "\n"
        assert out.to_bits_text() == expect


class TestEngineEquivalence:
    @pytest.mark.parametrize("t_ibi", [100e-3, 20e-3, 5e-3])
    @pytest.mark.parametrize("cw", [3, 15, 127, 511])
    def test_walker_matches_closed_form(self, cw, t_ibi):
        # the closed form labels same-draw ties SYNC itself; this pins that it is the
        # classifier's SYNC rule on a complete graph.  At 100 ms no packet expires
        # (510 + 79 * 6 < 2000 slots); at 20 ms and 5 ms packets expire from cw 127 on.
        sc = make_scenario(seed=1)
        cats = sc.categories
        policy = BackoffPolicy.proposed(cw) if cw >= 3 else BackoffPolicy.traditional(cw)
        draws = draw_matrix(policy, cats, 40, np.random.default_rng(cw))
        params = MacParameters(t_ibi=t_ibi)
        slots, occ = params.slots_per_beacon, params.tx_occupancy_slots
        oA, eA, dA = closed_form(draws, slots, occ)
        oB, eB, dB = walk_complete(draws, slots, occ)
        assert np.array_equal(oA, oB)
        assert np.array_equal(eA, eB)
        for key in ("sync_events", "hn_events", "dual_label_events"):
            assert dA[key] == dB[key], key
        assert (oA == int(Outcome.EXPIRED)).any() == (t_ibi < 100e-3 and cw >= 127)

    def test_closed_form_matches_walker_on_random_draws(self):
        # seeded cases at occupancy 1-7: one node, periods whose draws all tie, draws at or
        # past the period end, cw far past it (clipped keys), more than 128 nodes at cw 511
        # (keys wider than 16 bits) and periods of 2^27 and 2^30 slots (64-bit keys)
        rng = np.random.default_rng(11)
        cases = [(1, 511, 2000), (1, 50, 20), (2, 2**40, 30), (40, 2**40, 400), (129, 511, 2000), (140, 511, 400)]
        cases += [(80, 2**40, 2**27), (3, 2**31, 2**30)]
        cases += [(int(rng.integers(1, 14)), int(rng.integers(1, 80)), int(rng.integers(2, 60))) for _ in range(300)]
        totals = dict.fromkeys(Outcome, 0)
        for n, cw, slots in cases:
            occ, periods = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            draws = rng.integers(0, cw, size=(periods, n))
            draws[rng.random(periods) < 0.3] = rng.integers(0, cw)  # every draw of the period tied
            oA, eA, dA = closed_form(draws, slots, occ)
            oB, eB, dB = walk_complete(draws, slots, occ)
            assert oA.dtype == oB.dtype and np.array_equal(oA, oB), (n, cw, slots, occ)
            assert eA.dtype == eB.dtype and np.array_equal(eA, eB), (n, cw, slots, occ)
            for key in ("sync_events", "hn_events", "dual_label_events"):
                assert dA[key] == dB[key], key
            for oc in Outcome:
                totals[oc] += int((oA == int(oc)).sum())
        assert totals[Outcome.COLLIDED_HIDDEN] == 0
        assert all(totals[oc] > 0 for oc in (Outcome.DELIVERED, Outcome.COLLIDED_SYNC, Outcome.EXPIRED)), totals

    @pytest.mark.parametrize("occ", [1, 6])
    def test_batched_matches_walker_random_adjacency(self, occ):
        # random symmetric adjacency (plus the hidden-node chain), with roomy periods
        # and with budgets below n*occ where packets expire, in both layouts the
        # walker is run in: rows of single periods with zero offsets, and one row
        # of all periods with random per-node offsets
        master = np.random.default_rng(occ)
        adjacencies = [np.zeros((1, 1), dtype=bool), complete_graph(2), np.zeros((2, 2), dtype=bool)]
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
        adjacencies = [np.zeros((1, 1), dtype=bool), complete_graph(2), TestCollisionClassification.CHAIN]
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

    def test_frozen_until_the_latest_sensed_end(self):
        # chain A-C-B (A and B hidden from each other), 10-slot periods, occupancy 6,
        # B offset by 5: A sends over [11, 17); B starts later, at 13, but its own
        # period boundary cuts it at 15.  C, frozen with one slot left from 11, must
        # wait for A's end and start at 18, not resume when B ends
        draws = np.array([[9, 0, 7], [1, 2, 9]])
        offsets = np.array([0, 0, 5])
        chain = TestCollisionClassification.CHAIN
        ((o, e, d),) = _run_walker([(draws[None], offsets, chain)], 10, 6)
        oW, eW, dW = reference_walk(draws, offsets, chain, 10, 6)
        assert np.array_equal(o, oW) and np.array_equal(e, eW) and d == dW
        assert e.tolist() == [[-1, 0, 8], [1, 8, -1]]
        hn = int(Outcome.COLLIDED_HIDDEN)
        assert o[1, 0] == hn and o[0, 2] == hn and o[1, 1] == int(Outcome.DELIVERED)

    @staticmethod
    def walk_one(draws, offsets, adjacency, slots, occupancy):
        """One run walked alone, checked against the per-slot reference; draws is (periods, n)."""
        ((o, e, d),) = _run_walker([(draws[None], offsets, adjacency)], slots, occupancy)
        oW, eW, dW = reference_walk(draws, offsets, adjacency, slots, occupancy)
        assert np.array_equal(o, oW) and np.array_equal(e, eW) and d == dW
        return o, e, d

    def test_expires_several_periods_in_a_row(self):
        # 10-slot periods, occupancy 3, node 1 offset by 4.  Node 0's draws 10, 25 and 11
        # reach their period ends (10 exactly), so it rolls from period 0 to period 3, whose
        # draw 3 counts down from 30 to a start at 33.  Node 1's fresh draw 1 at 34 waits
        # for that transmission's end at 36 and starts at 37
        draws = np.array([[10, 2], [25, 3], [11, 0], [3, 1]])
        o, e, d = self.walk_one(draws, np.array([0, 4]), complete_graph(2), 10, 3)
        assert e.T.tolist() == [[-1, -1, -1, 3], [2, 3, 0, 3]]
        assert (o[:3, 0] == int(Outcome.EXPIRED)).all() and (o[3] == int(Outcome.DELIVERED)).all()

    def test_busy_from_the_previous_period_freezes_a_fresh_packet(self):
        # node 1 (offset 5) sends over [8, 14); node 0, frozen with one count left, expires
        # at its boundary 10.  Its fresh draw 0 stays frozen past the boundary and starts at
        # 14, and node 1's next draw 2 (period [15, 25)) waits for that end, 20, to start at 22
        draws = np.array([[9, 3], [0, 2]])
        o, e, d = self.walk_one(draws, np.array([0, 5]), complete_graph(2), 10, 6)
        assert e.T.tolist() == [[-1, 4], [3, 7]]
        assert o[0, 0] == int(Outcome.EXPIRED) and d["sync_events"] == d["hn_events"] == 0

    def test_zero_draw_at_a_boundary_starts_with_a_neighbour(self):
        # node 0 sends over [1, 3); node 1 (offset 3) counts its 7 down from 3 to a start at
        # 10, the slot node 0's fresh draw 0 starts in: neither can sense the other, SYNC
        draws = np.array([[1, 7], [0, 5]])
        o, e, d = self.walk_one(draws, np.array([0, 3]), complete_graph(2), 10, 2)
        assert e.T.tolist() == [[1, 0], [7, 5]]
        sync = int(Outcome.COLLIDED_SYNC)
        assert o[1, 0] == sync and o[0, 1] == sync and d["sync_events"] == 2

    def test_rows_go_on_after_another_run_runs_out(self):
        # a 1-node run whose two packets are sent by slot 10, stacked with the chain 0-1-2 at
        # offsets 0, 3 and 9, whose row goes on to slot 24.  In the chain, node 1's second
        # packet (period [13, 23)) is frozen by node 2 from 14 to 18 and by node 0 from 15 to
        # 19, so its 6 counts would end at 24: it expires.  Nodes 0 and 2, hidden from each
        # other, overlap at node 1: HN
        alone = (np.array([[0], [0]]), np.array([0]), np.zeros((1, 1), dtype=bool))
        chain = (np.array([[2, 0, 4], [5, 6, 1]]), np.array([0, 3, 9]), TestCollisionClassification.CHAIN)
        results = _run_walker([(draws[None], offsets, adj) for draws, offsets, adj in (alone, chain)], 10, 4)
        for (draws, offsets, adj), (o, e, d) in zip((alone, chain), results):
            oW, eW, dW = reference_walk(draws, offsets, adj, 10, 4)
            assert np.array_equal(o, oW) and np.array_equal(e, eW) and d == dW
        (oA, eA, _), (oB, eB, dB) = results
        assert eA.tolist() == [[0], [0]] and (oA == int(Outcome.DELIVERED)).all()
        assert eB.T.tolist() == [[2, 5], [3, -1], [5, 1]]
        hn = int(Outcome.COLLIDED_HIDDEN)
        assert oB[1, 1] == int(Outcome.EXPIRED) and oB[1, 0] == hn and oB[0, 2] == hn and dB["hn_events"] == 2

    def test_random_stacked_batches_match_reference(self):
        # seeded batches of 1-3 runs of 1-13 nodes and 1-2 rows each, occupancy 1-7, 2-59
        # slots, 1-7 periods, draws up to 2 * slots (many expire, some at their period end
        # exactly), zero or random offsets; each row of each run must equal the per-slot
        # reference walked alone, outcome for outcome and in the SYNC/HN/dual counts
        master = np.random.default_rng(23)
        keys = ("sync_events", "hn_events", "dual_label_events")
        totals = dict.fromkeys((*keys, "expired"), 0)
        for _ in range(300):
            slots, occ, periods = int(master.integers(2, 60)), int(master.integers(1, 8)), int(master.integers(1, 8))
            runs = []
            for _ in range(int(master.integers(1, 4))):
                n = int(master.integers(1, 14))
                upper = np.triu(master.random((n, n)) < master.uniform(0.1, 0.9), 1)
                offsets = master.integers(0, slots, size=n) if master.random() < 0.5 else np.zeros(n, dtype=np.int64)
                draws = master.integers(0, 2 * slots + 1, size=(int(master.integers(1, 3)), periods, n))
                runs.append((draws, offsets, upper | upper.T))
            for (draws, offsets, adj), (o, e, d) in zip(runs, _run_walker(runs, slots, occ)):
                want = [reference_walk(row, offsets, adj, slots, occ) for row in draws]
                assert np.array_equal(o, np.concatenate([w[0] for w in want]))
                assert np.array_equal(e, np.concatenate([w[1] for w in want]))
                for key in keys:
                    assert d[key] == sum(w[2][key] for w in want), key
                    totals[key] += d[key]
                totals["expired"] += int((o == int(Outcome.EXPIRED)).sum())
        assert all(v > 0 for v in totals.values()), totals

    def test_stacked_runs_own_their_arrays(self):
        # a walked run's arrays hold no view of the padded batch, so the batch's buffer is
        # freed before its runs are classified
        rng = np.random.default_rng(4)
        runs = [(rng.integers(0, 15, size=(1, 6, m)), rng.integers(0, 20, size=m), complete_graph(m)) for m in (3, 5)]
        (oA, eA, _), (oB, eB, _) = _run_walker(runs, 20, 2)
        for a in (oA, eA):
            for b in (oB, eB):
                assert not np.shares_memory(a, b)
        for e, m in ((eA, 3), (eB, 5)):
            assert e.shape == (6, m) and (e.base is None or e.base.nbytes == e.nbytes)

    @pytest.mark.parametrize("layout", ["aligned", "offset"])
    def test_a_lone_run_is_walked_in_its_own_layout(self, layout):
        # the walk's elapsed buffer holds the rows' periods and nothing else: a lone unpadded
        # run's elapsed is a view of all of it, 80 nodes x 100 periods, in either layout
        rng = np.random.default_rng(6)
        n, periods = 80, 100
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        draws = rng.integers(0, 127, size=(periods, n))
        if layout == "aligned":
            run = (draws[:, None], np.zeros(n, dtype=np.int64), upper | upper.T)
        else:
            run = (draws[None], rng.integers(0, 400, size=n), upper | upper.T)
        ((o, e, _),) = _run_walker([run], 400, 6)
        assert e.shape == o.shape == (periods, n) and e.flags.c_contiguous
        assert e.base is not None and e.base.dtype == np.int32 and e.base.size == periods * n

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
                oA, eA, _ = closed_form(draws, 4, 6)
                oB, eB, _ = walk_complete(draws, 4, 6)
                assert np.array_equal(oA, oB) and np.array_equal(eA, eB)
                if b1 == b2:
                    assert list(oA[0]) == [int(Outcome.COLLIDED_SYNC)] * 2
                else:
                    winner, loser = (0, 1) if b1 < b2 else (1, 0)
                    assert oA[0, winner] == int(Outcome.DELIVERED)
                    assert oA[0, loser] == int(Outcome.EXPIRED)
                    assert eA[0, winner] == min(b1, b2)

    def test_engines_agree_just_below_the_int32_start_limit(self):
        # the closed form starts the k-th distinct draw u <= slots at u + k * occupancy (k <= u), in
        # int32, so MacParameters caps slots * (occupancy + 1) at 2^31 - 2
        occ = MacParameters().tx_occupancy_slots
        limit = (2**31 - 2) // (occ + 1)
        for t_ibi in (2e5, (limit + 1) * 50e-6):
            with pytest.raises(ValueError, match=f"t_ibi must be at most {limit} slots"):
                MacParameters(t_ibi=t_ibi)
        params = MacParameters(t_ibi=limit * 50e-6)
        assert params.slots_per_beacon == limit and params.tx_occupancy_slots == occ
        # 3 nodes, 3 periods, cw 2^33: at 4e9 slots int32 starts wrap and the engines disagree here
        sc = make_scenario(density=3 / REGION.area)
        assert sc.n_nodes == 3
        transmitted = 0
        for seed in range(6):
            config = SimConfig(
                scenario=sc, policy=BackoffPolicy.traditional(2**33), params=params,
                sense_range=math.inf, n_periods=3, seed=seed,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = run_simulation(config)
            draws = draw_matrix(config.policy, sc.categories, 3, np.random.default_rng(seed))
            o, e, _ = walk_complete(draws, limit, occ)
            assert np.array_equal(out.outcomes, o) and np.array_equal(out.elapsed, e), seed
            transmitted += int((o != int(Outcome.EXPIRED)).sum())
        assert transmitted > 0
        # the largest draws a period can hold, tied and not
        draws = np.array([[limit - 1, limit - 1, limit - 2], [limit - 1 - occ, 0, limit], [limit - 1] * 3])
        oA, eA, dA = closed_form(draws, limit, occ)
        oB, eB, dB = walk_complete(draws, limit, occ)
        assert np.array_equal(oA, oB) and np.array_equal(eA, eB) and dA["sync_events"] == dB["sync_events"]
        assert eA.max() == limit - 1 and (oA == int(Outcome.COLLIDED_SYNC)).any()


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


class TestDrawsPastThePeriod:
    """Draws of 2^62 and more expire like any draw of `slots` or more.  Stacked unclipped, they
    would put start times past int64 (a cast that raises under errstate) and the walk might not end."""

    @pytest.mark.parametrize("layout", ["aligned", "offset"])
    def test_walker_equals_reference_and_clipped_draws(self, layout):
        rng = np.random.default_rng(62)
        n, slots, occ = 9, 30, 3
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = upper | upper.T
        draws = rng.integers(0, 40, size=(16, n))
        huge = rng.random(draws.shape) < 0.3
        draws[huge] = rng.choice([2**62, 3 * 2**61 + 1, 2**63 - 2], size=int(huge.sum()))
        clipped = np.minimum(draws, slots)
        offsets = rng.integers(0, slots, size=n) if layout == "offset" else np.zeros(n, dtype=np.int64)
        rows = (lambda d: d[None]) if layout == "offset" else (lambda d: d[:, None])
        with np.errstate(invalid="raise"):
            ((o, e, d),) = _run_walker([(rows(draws), offsets, adj)], slots, occ)
            ((oC, eC, dC),) = _run_walker([(rows(clipped), offsets, adj)], slots, occ)
        oW, eW, dW = reference_walk(draws, offsets, adj, slots, occ)
        assert np.array_equal(o, oW) and np.array_equal(e, eW) and d == dW
        assert np.array_equal(o, oC) and np.array_equal(e, eC) and d == dC
        assert (o[huge] == int(Outcome.EXPIRED)).all() and (o != int(Outcome.EXPIRED)).any()

    @pytest.mark.parametrize("phase_offsets", [False, True])
    def test_largest_window_expires_every_node_period(self, phase_offsets):
        # at 700 m the drop is no complete graph, so both layouts are walked
        sc = make_scenario(seed=1)
        cfg = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(2**63 - 1), n_periods=30, seed=7,
            random_phase_offsets=phase_offsets,
        )
        with np.errstate(invalid="raise"), pytest.warns(UserWarning, match="exceeds"):
            out = run_simulation(cfg)
        assert out.diagnostics["engine"] == "slot-walker"
        assert (out.outcomes == int(Outcome.EXPIRED)).all() and (out.elapsed == -1).all()


class TestPhaseOffsets:
    def test_conservation_and_determinism(self):
        sc = make_scenario(seed=8, density=10 / REGION.area)
        cfg = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(15), n_periods=150, seed=13,
            sense_range=math.inf, random_phase_offsets=True,
            params=MacParameters(t_ibi=2e-3),
        )
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert np.array_equal(a.outcomes, b.outcomes)
        counts = a.counts()
        assert (sum(counts[oc] for oc in Outcome) == 150).all()
        assert a.diagnostics["engine"] == "slot-walker"

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_batch_keeps_no_draws(self, tmp_path, monkeypatch, chunk):
        # once a phase-offset batch is stacked for its walk, no run's int64 draws are held:
        # not while the walk classifies its runs, nor while the batch writes its points
        sc = make_scenario(density=12 / REGION.area)
        configs = [
            SimConfig(
                scenario=sc, policy=BackoffPolicy.traditional(15), params=MacParameters(t_ibi=3e-3),
                n_periods=30, seed=seed, random_phase_offsets=True,
            )
            for seed in range(4)
        ]
        set_chunk_rows(monkeypatch, chunk, sc.n_nodes)
        from_draws = [tracemalloc.Filter(True, draw_matrix.__code__.co_filename)]

        def draw_bytes():  # bytes held of what `policy.py` allocated: traditional draws allocate nothing else there
            return sum(trace.size for trace in tracemalloc.take_snapshot().filter_traces(from_draws).traces)

        held = []
        real = sim.classify_collision

        def classify(*args):
            held.append(draw_bytes())
            return real(*args)

        monkeypatch.setattr(sim, "classify_collision", classify)
        tracemalloc.start()
        try:
            probe = draw_matrix(configs[0].policy, sc.categories, 30, np.random.default_rng(0))
            assert draw_bytes() >= probe.nbytes  # the filter sees draws that are held
            del probe
            batch = simulate_points(tmp_path, [(f"{k:03d}", config) for k, config in enumerate(configs)])
            next(batch)
            held.append(draw_bytes())
        finally:
            tracemalloc.stop()
        assert held == [0] * (len(configs) + 1)


class TestPointFiles:
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("phase_offsets", [False, True])
    def test_written_point_reads_back(self, tmp_path, monkeypatch, phase_offsets, chunk):
        # a complete-graph run (the closed form) and a phase-offset run (the walker), at
        # 3 ms periods (60 slots) where packets expire
        config = SimConfig(
            scenario=make_scenario(seed=2), policy=BackoffPolicy.proposed(15), params=MacParameters(t_ibi=3e-3),
            sense_range=math.inf, n_periods=120, seed=5, random_phase_offsets=phase_offsets,
        )
        out = run_simulation(config)
        assert out.diagnostics["engine"] == ("slot-walker" if phase_offsets else "full-connectivity")
        n = config.scenario.n_nodes
        set_chunk_rows(monkeypatch, chunk, n)
        monkeypatch.setattr(sim, "_READ_BLOCK_BYTES", chunk * 121)  # `chunk` rows a read
        ((names, diag),) = simulate_points(tmp_path, [("004_proposed_cw15_n20", config)])
        assert names == point_files("004_proposed_cw15_n20") and diag == out.diagnostics
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        present = [Category(c) for c in np.unique(config.scenario.categories)]
        groups = read_point(tmp_path / names[1], tmp_path / names[2], [None, *present])
        bits = out.transmitted_bits()
        assert 0 < bits.mean() < 1 and len(present) >= 2
        for (sums, elapsed_sums), nodes in zip(groups, [slice(None), *map(out.category_nodes, present)]):
            assert_same_sums(sums, BitSums.of(bits[nodes]))
            assert elapsed_sums.dtype == np.int64 and np.array_equal(elapsed_sums, out.elapsed_sums()[nodes])
        lines = (tmp_path / names[0]).read_text(encoding="ascii").splitlines()
        assert lines[0] == OUTCOME_CSV_HEADER
        assert [int(ln.split(",")[0]) for ln in lines[1:]] == config.scenario.ids.tolist()
        counts = np.array([[int(v) for v in ln.split(",")[2:]] for ln in lines[1:]])
        assert np.array_equal(counts.T, np.stack(list(out.counts().values())))

    def test_chunk_bits_text_joins_to_the_whole(self):
        # the one bits encoder: a run's text cut into chunks of periods at any points, encoded
        # chunk by chunk with newlines only on the last, is the whole run's text, row by row
        config = SimConfig(
            scenario=make_scenario(seed=3), policy=BackoffPolicy.traditional(15),
            params=MacParameters(t_ibi=3e-3), sense_range=math.inf, n_periods=50, seed=2,
        )
        out = run_simulation(config)
        whole = sim._bits_text(out.outcomes, True)
        n = config.scenario.n_nodes
        assert whole.shape == (n, 51) and (whole[:, -1] == ord("\n")).all()
        assert bytes(whole) == out.to_bits_text().encode("ascii")
        bits = out.transmitted_bits()
        assert 0 < bits.mean() < 1
        assert np.array_equal(whole[:, :-1] == ord("1"), bits) and np.isin(whole[:, :-1], list(b"01")).all()
        cuts = [0, 1, 8, 9, 30, 50]
        parts = [sim._bits_text(out.outcomes[a:b], b == 50) for a, b in zip(cuts, cuts[1:])]
        assert [part.shape for part in parts] == [(n, b - a + (b == 50)) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_streamed_files_equal_run_simulation_exports(self, tmp_path, monkeypatch, chunk):
        # one mixed batch, streamed in chunks of `chunk` periods (at the full drop's size) and
        # written one chunk at a time, against each run's own outcome computed in one chunk
        # and exported whole: phase-offset runs at n = 1, 5, 12 and the full drop (two period
        # counts, so two stacked walks), an aligned 700 m run (walker rows) and two complete-graph
        # runs (the closed form, the full drop then 12 nodes) at 3 ms periods (60 slots), where
        # packets expire; then a
        # complete-graph, an aligned 700 m and a phase-offset run at 10 ms, where hidden nodes collide
        sc = make_scenario(seed=1)
        params = MacParameters(t_ibi=3e-3)
        rng = np.random.default_rng(0)
        subs = [sc.subsample(n, rng) for n in (1, 5, 12)] + [sc]
        offset_runs = [
            SimConfig(
                scenario=sub, policy=BackoffPolicy.proposed(15) if k % 2 else BackoffPolicy.traditional(31),
                params=params, n_periods=40, seed=k, random_phase_offsets=True,
            )
            for k, sub in enumerate(subs)
        ]
        aligned = SimConfig(scenario=sc, policy=BackoffPolicy.traditional(15), params=params, n_periods=30, seed=7)
        second_walk = replace(offset_runs[-1], n_periods=25, seed=9, sense_range=math.inf)
        slow = SimConfig(
            scenario=sc, policy=BackoffPolicy.proposed(127), params=MacParameters(t_ibi=10e-3), n_periods=40, seed=3
        )
        configs = [
            *offset_runs[:2], aligned, offset_runs[2], replace(aligned, seed=8, sense_range=math.inf),
            # a smaller closed-form run after a larger one: each chunk's arrays are sized to it alone
            replace(offset_runs[2], random_phase_offsets=False, sense_range=math.inf),
            offset_runs[3], second_walk,
            replace(slow, sense_range=math.inf), replace(slow, seed=4), replace(slow, seed=5, random_phase_offsets=True),
        ]
        points = [(f"{k:03d}", config) for k, config in enumerate(configs)]
        assert all(config.n_periods * config.scenario.n_nodes <= sim._CHUNK_NODE_PERIODS for config in configs)
        outcomes = [run_simulation(config) for config in configs]
        set_chunk_rows(monkeypatch, chunk, sc.n_nodes)
        results = list(simulate_points(tmp_path, points))
        assert len(results) == len(points)
        for (tag, _), outcome, (names, diag) in zip(points, outcomes, results):
            assert names == point_files(tag)
            assert diag == outcome.diagnostics
            exports = (outcome.to_outcome_csv(), outcome.to_bits_text(), outcome.to_stats_csv())
            for name, text in zip(names, exports):
                assert (tmp_path / name).read_bytes() == text.encode("ascii"), name
        engines = [diag["engine"] for _, diag in results]
        assert engines.count("full-connectivity") == 3 and engines.count("slot-walker") == len(points) - 3
        assert results[2][1]["hn_events"] > 0 and results[9][1]["hn_events"] > 0  # the aligned 700 m runs
        # packets expire in every run but the two smallest walks (n = 1 and 5)
        assert all((out.outcomes == int(Outcome.EXPIRED)).any() for out in outcomes[2:])

    def test_name_rule_follows_the_manifest_columns(self):
        # perfbench reads a point's outcome, bits and stats files from manifest columns 7-9 by position
        columns = MANIFEST_HEADER.split(",")[7:10]
        assert [name.split("_")[0] + "_file" for name in point_files("000_traditional_cw15_n10")] == columns
        assert point_files("*") == ("outcome_*.csv", "bits_*.txt", "stats_*.csv")


class TestPriorityRealization:
    def test_delivered_rate_ordering_under_proposed(self):
        sc = make_scenario(seed=1)  # cat1/cat2/cat3 = 7/9/17
        out = run_simulation(
            SimConfig(scenario=sc, policy=BackoffPolicy.proposed(127), n_periods=2000, seed=21, sense_range=math.inf)
        )
        counts = out.counts()[Outcome.DELIVERED]
        rates = {}
        for cat in (Category.CAT1, Category.CAT2, Category.CAT3):
            nodes = out.category_nodes(cat)
            rates[cat] = counts[nodes].mean() / out.n_periods
        assert rates[Category.CAT1] >= rates[Category.CAT2] >= rates[Category.CAT3]


class TestCollisionFraction:
    def test_stress_micro_case(self):
        # 2 nodes, cw=3, 4-slot periods: ties collide in 3 of 9 joint draws,
        # so half of all attempted transmissions collide
        sc = drop_nodes(REGION, TH, 2 / REGION.area, seed=0)
        cfg = SimConfig(
            scenario=sc, policy=BackoffPolicy.traditional(3), n_periods=20_000, seed=17,
            sense_range=math.inf, params=MacParameters(t_ibi=200e-6),
        )
        out = run_simulation(cfg)
        counts = {oc: int(c.sum()) for oc, c in out.counts().items()}
        transmitted = out.outcomes.size - counts[Outcome.EXPIRED]
        pcol = (counts[Outcome.COLLIDED_SYNC] + counts[Outcome.COLLIDED_HIDDEN]) / transmitted
        assert pcol == pytest.approx(0.5, abs=0.02)
        # per node-period collision fraction is 1/3
        sync_rate = out.counts()[Outcome.COLLIDED_SYNC].sum() / out.outcomes.size
        assert sync_rate == pytest.approx(1 / 3, abs=0.02)

    @pytest.mark.filterwarnings("ignore:contention window")
    def test_undefined_without_transmissions(self):
        # single uncategorized node -> cat3 range [7, 9], beyond a 4-slot period
        sc = drop_nodes(REGION, TH, 1 / REGION.area, seed=1)
        assert sc.categories.tolist() == [Category.UNCATEGORIZED]
        params = MacParameters(t_ibi=200e-6)  # 4 slots
        out = run_simulation(
            SimConfig(
                scenario=sc, policy=BackoffPolicy.proposed(10), params=params,
                n_periods=100, seed=1, sense_range=math.inf,
            )
        )
        transmitted = out.outcomes.size - int(out.counts()[Outcome.EXPIRED].sum())
        assert transmitted == 0  # P_col per transmitted packet is undefined, not zero
        assert (out.outcomes == int(Outcome.EXPIRED)).all()
