"""Slot-accurate Monte Carlo engine for saturated per-beacon broadcast.

Every node of the given scenario contends; which vehicles those are (a
subsample, a rescaled drop, uncategorized nodes left out) is the caller's
choice.  Per beacon period every station holds one fresh packet and draws a
backoff counter from its policy range.  Slot semantics:

* a station whose counter is zero transmits in the first slot with no
  ongoing adjacent transmission at the slot start (simultaneous starts
  cannot be sensed -- that is the synchronized-collision mechanism);
* any slot in which an adjacent station transmits is sensed busy and
  freezes the counter; idle-sensed slots decrement it;
* a transmission keeps the medium busy for ceil((DIFS + T_suc) / T_slot)
  slots, truncated at the transmitter's period boundary;
* a packet not transmitted by its period end expires; the next period
  starts with a fresh draw (no carryover).

Collisions are classified after the fact, by `classify_collision` alone:
SYNC when two mutually adjacent transmitters start in the same slot,
hidden-node (HN) when transmissions of mutually non-adjacent stations
overlap at a common receiver.  An event satisfying both is reported as
SYNC, with both occurrences counted in the diagnostics.

Two engines share these slot semantics; `run_simulations` picks one per
config from the config and the adjacency it builds (`run_simulation` is
its one-config case):

* aligned periods (``random_phase_offsets`` false) on a complete graph,
  which includes ``full_connectivity``: a closed form (all stations sense
  the same medium, so transmissions serialize in draw order and ties
  collide);
* any other run: a walker over independent rows, each with its own clock,
  sensing block and span.  An aligned run is walked alone, one row per
  period (periods are independent trials).  The phase-offset runs of a
  batch are walked together, one row each, holding all of the run's
  periods, with the node axis padded to the largest station count.

The walker jumps from one state change to the next.  It relies on this
condition: once the step's starters are on air, nothing changes until a
transmission ends, a counter that senses no transmitter reaches zero, or a
period boundary passes, so counters that sense nothing decrement by the
whole jump and every other counter stays frozen.  It hands each run's
transmissions to `classify_collision` once.  Tests check the walker against
the closed form on complete graphs, against a per-slot reference walker on
random adjacency in both layouts and with runs of different sizes stacked
in one walk, and `classify_collision` against a pairwise definition.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .analytic import MacParameters
from .geometry import Category, SpatialScenario, build_adjacency
from .policy import BackoffPolicy, draw_matrix

__all__ = [
    "Outcome",
    "SimConfig",
    "SimOutcome",
    "run_simulation",
    "run_simulations",
    "classify_collision",
    "empirical_pcol",
    "OUTCOME_CSV_HEADER",
    "STATS_CSV_HEADER",
]


class Outcome(IntEnum):
    DELIVERED = 0
    COLLIDED_SYNC = 1
    COLLIDED_HIDDEN = 2
    EXPIRED = 3


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: all of `scenario`'s nodes contend under `policy`."""

    scenario: SpatialScenario
    policy: BackoffPolicy
    params: MacParameters = field(default_factory=MacParameters)
    sense_range: float = 700.0
    n_periods: int = 1000
    seed: int = 0
    full_connectivity: bool = False
    random_phase_offsets: bool = False

    def __post_init__(self):
        if self.n_periods < 1:
            raise ValueError("n_periods must be at least 1")
        if not (self.sense_range > 0):
            raise ValueError("sense_range must be positive")
        if self.scenario.n_nodes == 0:
            raise ValueError("simulation needs at least one contending node")


@dataclass
class SimOutcome:
    """Per-node, per-period results of one simulation run."""

    node_ids: np.ndarray          # (n,)
    categories: np.ndarray        # (n,) Category values
    outcomes: np.ndarray          # (periods, n) Outcome codes
    elapsed: np.ndarray           # (periods, n) slots from period start to tx start, -1 if expired
    policy: BackoffPolicy
    params: MacParameters
    n_periods: int
    seed: int
    full_connectivity: bool
    random_phase_offsets: bool
    diagnostics: dict

    @property
    def n_nodes(self) -> int:
        return self.node_ids.shape[0]

    def counts(self) -> dict[Outcome, np.ndarray]:
        """Per-node counters of each outcome; they sum to n_periods per node."""
        return {oc: (self.outcomes == int(oc)).sum(axis=0) for oc in Outcome}

    def transmitted_bits(self) -> np.ndarray:
        """(n, periods) bool: True where the node's packet was transmitted
        (delivered or collided) in that period."""
        return (self.outcomes != int(Outcome.EXPIRED)).T

    def elapsed_sums(self) -> np.ndarray:
        """(n,) int64: each node's elapsed backoff slots summed over its transmitted periods."""
        return self.elapsed.sum(axis=0, dtype=np.int64, where=self.outcomes != int(Outcome.EXPIRED))

    def category_nodes(self, category: Category) -> np.ndarray:
        return np.flatnonzero(self.categories == int(category))

    def to_outcome_csv(self) -> str:
        counts = self.counts()
        lines = [OUTCOME_CSV_HEADER]
        for i in range(self.n_nodes):
            lines.append(
                "%d,%s,%d,%d,%d,%d"
                % (
                    self.node_ids[i],
                    Category(int(self.categories[i])).token,
                    counts[Outcome.DELIVERED][i],
                    counts[Outcome.COLLIDED_SYNC][i],
                    counts[Outcome.COLLIDED_HIDDEN][i],
                    counts[Outcome.EXPIRED][i],
                )
            )
        return "\n".join(lines) + "\n"

    def to_bits_text(self) -> str:
        """One line of '1'/'0' per node, one character per period."""
        bits = self.transmitted_bits()
        text = np.full((bits.shape[0], bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
        text[:, :-1] = bits
        text[:, :-1] += ord("0")
        return text.tobytes().decode("ascii")

    def to_stats_csv(self) -> str:
        """Diagnostic per-node stats: transmission count and summed elapsed backoff slots."""
        tx = self.transmitted_bits().sum(axis=1)
        elapsed = self.elapsed_sums()
        lines = [STATS_CSV_HEADER]
        for i in range(self.n_nodes):
            lines.append("%d,%s,%d,%d" % (self.node_ids[i], Category(int(self.categories[i])).token, tx[i], elapsed[i]))
        return "\n".join(lines) + "\n"


OUTCOME_CSV_HEADER = "node_id,category,delivered,sync,hn,expired"
STATS_CSV_HEADER = "node_id,category,tx_count,sum_elapsed_slots"


def classify_collision(node, start, end, adjacency: np.ndarray):
    """Label a run's transmission events as SYNC / HN / clean.

    node, start, end: (k,) integer array-likes, one entry per event, start < end,
    end exclusive (slots on one clock for the whole run); adjacency is the
    symmetric (n, n) sensing graph.  Two events of different nodes collide
    when their spans overlap:

    * SYNC if the nodes are adjacent and start in the same slot;
    * HN if the nodes are not adjacent but share a neighbour (a common
      receiver).

    An event in both kinds of pair is labelled SYNC; the diagnostics count it
    under both and as dual.  Returns (labels, diagnostics): labels is a (k,)
    int8 array of Outcome codes in the order of the input events.
    """
    order = np.argsort(start, kind="stable")
    node = np.asarray(node, dtype=np.int64)[order]
    start = np.asarray(start, dtype=np.int64)[order]
    end = np.asarray(end, dtype=np.int64)[order]
    k = order.size
    adj_f = adjacency.astype(np.float64)
    hidden = ~adjacency & ((adj_f @ adj_f) > 0)  # non-adjacent, share a receiver
    np.fill_diagonal(hidden, False)
    sync = np.zeros(k, dtype=bool)
    hn = np.zeros(k, dtype=bool)
    # Sorted by start, event a overlaps a + lag iff that one starts before a
    # ends; an a that fails at one lag fails at every larger lag.
    a = np.arange(k)
    lag = 1
    while True:
        a = a[a + lag < k]
        a = a[start[a + lag] < end[a]]
        if not a.size:
            break
        b = a + lag
        pair_sync = adjacency[node[a], node[b]] & (start[a] == start[b])
        pair_hn = hidden[node[a], node[b]]
        sync[a[pair_sync]] = sync[b[pair_sync]] = True
        hn[a[pair_hn]] = hn[b[pair_hn]] = True
        lag += 1
    labels = np.empty(k, dtype=np.int8)
    labels[order] = np.where(
        sync, int(Outcome.COLLIDED_SYNC), np.where(hn, int(Outcome.COLLIDED_HIDDEN), int(Outcome.DELIVERED))
    )
    diag = {
        "sync_events": int(sync.sum()),
        "hn_events": int(hn.sum()),
        "dual_label_events": int((sync & hn).sum()),
    }
    return labels, diag


def _full_adjacency(n: int) -> np.ndarray:
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def run_simulation(config: SimConfig) -> SimOutcome:
    """Run the Monte Carlo engine; deterministic under the config seed."""
    return next(run_simulations([config]))


def run_simulations(configs) -> Iterator[SimOutcome]:
    """Yield one SimOutcome per config, in config order, each deterministic under its own seed.

    Every phase-offset run of the batch is one row of a single walk (one walk
    per slot budget, occupancy and period count), made before the first
    outcome is yielded.  Any other run is computed when it is yielded, so a
    batch of long aligned runs holds one run's arrays at a time.
    """
    configs = list(configs)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, config in enumerate(configs):
        slots = config.params.slots_per_beacon
        if config.policy.cw > slots:
            warnings.warn(
                f"contention window {config.policy.cw} exceeds {slots} slots per beacon; "
                "large draws will always expire",
                stacklevel=2,
            )
        if config.random_phase_offsets:
            groups.setdefault((slots, config.params.tx_occupancy_slots, config.n_periods), []).append(k)
    walked = {}
    for (slots, occupancy, _), ks in groups.items():
        runs = [(draws[None], offsets, adjacency) for draws, offsets, adjacency in (_draw(configs[k]) for k in ks)]
        walked.update(zip(ks, _run_walker(runs, slots, occupancy)))
    for k, config in enumerate(configs):
        outcomes, elapsed, diag = walked.pop(k) if k in walked else _run_aligned(config)
        yield SimOutcome(
            node_ids=np.array([nd.id for nd in config.scenario.nodes], dtype=np.int64),
            categories=config.scenario.categories(),
            outcomes=outcomes,
            elapsed=elapsed,
            policy=config.policy,
            params=config.params,
            n_periods=config.n_periods,
            seed=config.seed,
            full_connectivity=config.full_connectivity,
            random_phase_offsets=config.random_phase_offsets,
            diagnostics=diag,
        )


def _draw(config: SimConfig):
    """A run's (periods, n) backoff draws, phase offsets (None for aligned
    periods) and sensing graph; its seed's stream gives the offsets first."""
    scenario = config.scenario
    n = scenario.n_nodes
    slots = config.params.slots_per_beacon
    adjacency = _full_adjacency(n) if config.full_connectivity else build_adjacency(scenario, config.sense_range)
    rng = np.random.default_rng(config.seed)
    offsets = rng.integers(0, slots, size=n) if config.random_phase_offsets else None
    draws = draw_matrix(config.policy, scenario.categories(), config.n_periods, rng)
    return draws, offsets, adjacency


def _run_aligned(config: SimConfig):
    """An aligned run on its own: the closed form on a complete graph, else one walker row per period."""
    draws, _, adjacency = _draw(config)
    n = adjacency.shape[0]
    slots, occupancy = config.params.slots_per_beacon, config.params.tx_occupancy_slots
    if (adjacency | np.eye(n, dtype=bool)).all():
        return _run_full_connectivity(draws, slots, occupancy)
    (result,) = _run_walker([(draws[:, None], np.zeros(n, dtype=np.int64), adjacency)], slots, occupancy)
    return result


def _run_full_connectivity(draws: np.ndarray, slots: int, occupancy: int):
    """Closed-form per-period outcomes under full connectivity with aligned periods.

    All stations freeze and decrement in lockstep, so transmissions happen in
    draw order: the k-th distinct draw value u transmits at slot u + k*occupancy
    (k counted from 0), stations sharing a draw start together (SYNC), and a
    start slot beyond the period expires.
    """
    periods, n = draws.shape
    order = np.argsort(draws, axis=1, kind="stable")
    sorted_d = np.take_along_axis(draws, order, axis=1)
    new_group = np.ones((periods, n), dtype=bool)
    if n > 1:
        new_group[:, 1:] = sorted_d[:, 1:] != sorted_d[:, :-1]
    gidx = np.cumsum(new_group, axis=1) - 1
    tx_slot = sorted_d + gidx * occupancy
    expired = tx_slot >= slots
    tie = np.zeros((periods, n), dtype=bool)
    if n > 1:
        eq = sorted_d[:, 1:] == sorted_d[:, :-1]
        tie[:, 1:] |= eq
        tie[:, :-1] |= eq
    out_sorted = np.full((periods, n), int(Outcome.DELIVERED), dtype=np.int8)
    out_sorted[tie] = int(Outcome.COLLIDED_SYNC)
    out_sorted[expired] = int(Outcome.EXPIRED)
    el_sorted = np.where(expired, -1, tx_slot).astype(np.int32)

    outcomes = np.empty((periods, n), dtype=np.int8)
    elapsed = np.empty((periods, n), dtype=np.int32)
    np.put_along_axis(outcomes, order, out_sorted, axis=1)
    np.put_along_axis(elapsed, order, el_sorted, axis=1)
    transmitted = ~expired
    diag = {
        "engine": "full-connectivity",
        "sync_events": int((tie & transmitted).sum()),
        "hn_events": 0,
        "dual_label_events": 0,
    }
    return outcomes, elapsed, diag


def _run_walker(runs, slots: int, occupancy: int):
    """Walk independent rows of consecutive periods, any adjacency, rows from several runs.

    runs is a list of (draws, offsets, adjacency), one per run: draws is
    (rows, periods, n) with the same periods in every run, and node i's
    period p of a row starts at offsets[i] + p * slots on that row's clock.
    `run_simulations` passes an aligned run alone, as one row per period with
    zero offsets (periods are independent trials there), and every
    phase-offset run of a batch together, one row each.

    The rows of all runs are stacked, the node axis padded to the largest n;
    padded nodes are never pending and add no boundary events.  Each row
    has its run's sensing block and its own span (its run's last offset plus
    periods * slots), keeps its own clock and jumps to its earliest state
    change (see the module docstring).  Each node counts the on-air
    transmitters it senses: a starter adds its block row, an ender takes it
    away.  A zero counter blocked by an ongoing transmission senses that
    transmission, so it stays frozen with the rest.  Collisions are
    classified afterwards, run by run, from `elapsed`, with row r of a run
    placed at r * span on one run clock and each transmission cut at its
    period end.  Returns one (outcomes, elapsed, diagnostics) per run, its
    rows of periods stacked into (rows * periods, n).
    """
    periods = runs[0][0].shape[1]
    n = max(adjacency.shape[0] for _, _, adjacency in runs)
    sizes = [draws.shape[0] for draws, _, _ in runs]
    first = np.cumsum([0, *sizes])  # run k holds rows first[k]:first[k + 1]
    run_span = [int(offsets.max()) + periods * slots for _, offsets, _ in runs]
    span = np.repeat(run_span, sizes)
    block = np.repeat(np.arange(len(runs)), sizes)  # each row's sensing block
    hears = np.zeros((len(runs), n, n), dtype=np.int32)  # hears[b, j, i]: i senses a transmitting j
    # the smallest integer type that holds every draw keeps the padded stack small
    draws = np.zeros((first[-1], periods, n), dtype=np.min_scalar_type(max(int(d.max()) for d, _, _ in runs)))
    boundary = np.full((first[-1], n), np.iinfo(np.int64).max)  # padded nodes: never
    for k, (run_draws, offsets, adjacency) in enumerate(runs):
        m = adjacency.shape[0]
        hears[k, :m, :m] = adjacency.T
        draws[first[k]:first[k + 1], :, :m] = run_draws
        boundary[first[k]:first[k + 1], :m] = offsets
    cols = np.arange(n)
    elapsed = np.full((first[-1], periods, n), -1, dtype=np.int32)

    # state of the rows still running, compacted as rows finish
    rows = np.arange(first[-1])
    t = np.zeros(rows.size, dtype=np.int64)
    packet = np.full((rows.size, n), -1, dtype=np.int64)  # the node's current period, -1 before its first
    counter = np.zeros((rows.size, n), dtype=np.int64)
    pending = np.zeros((rows.size, n), dtype=bool)
    on_air = np.zeros((rows.size, n), dtype=bool)
    end = np.zeros((rows.size, n), dtype=np.int64)  # end of the node's transmission
    heard = np.zeros((rows.size, n), dtype=np.int32)  # on-air transmitters the node senses
    while rows.size:
        at_boundary = boundary == t[:, None]
        if at_boundary.any():  # a fresh packet; an untransmitted one stays expired
            packet += at_boundary
            fresh = at_boundary & (packet < periods)
            counter = np.where(fresh, draws[rows[:, None], np.minimum(packet, periods - 1), cols], counter)
            pending = np.where(at_boundary, fresh, pending)
            boundary += at_boundary * slots
        ended = on_air & (end <= t[:, None])
        if ended.any():
            r, i = np.nonzero(ended)
            np.subtract.at(heard, r, hears[block[rows[r]], i])
            on_air &= ~ended
        starters = pending & (counter == 0) & (heard == 0)
        if starters.any():
            r, i = np.nonzero(starters)
            elapsed[rows[r], packet[r, i], i] = t[r] - boundary[r, i] + slots
            end[r, i] = np.minimum(t[r] + occupancy, boundary[r, i])
            np.add.at(heard, r, hears[block[rows[r]], i])
            on_air |= starters
            pending &= ~starters
        decr = pending & (heard == 0)
        change = np.where(on_air, end, np.where(decr, np.minimum(t[:, None] + counter, boundary), boundary))
        dt = np.minimum(change.min(axis=1), span) - t
        counter -= decr * dt[:, None]
        t += dt
        done = t >= span
        if done.any():
            keep = ~done
            rows, t, span, packet, counter, pending, on_air, end, heard, boundary = (
                rows[keep], t[keep], span[keep], packet[keep], counter[keep], pending[keep], on_air[keep],
                end[keep], heard[keep], boundary[keep],
            )

    results = []
    for k, (_, offsets, adjacency) in enumerate(runs):
        m = adjacency.shape[0]
        run_elapsed = elapsed[first[k]:first[k + 1], :, :m]
        row, period, node = np.nonzero(run_elapsed >= 0)
        base = row * run_span[k] + offsets[node] + period * slots
        start = base + run_elapsed[row, period, node]
        labels, diag = classify_collision(node, start, np.minimum(start + occupancy, base + slots), adjacency)
        outcomes = np.full(run_elapsed.shape, int(Outcome.EXPIRED), dtype=np.int8)
        outcomes[row, period, node] = labels
        diag["engine"] = "slot-walker"
        results.append((outcomes.reshape(-1, m), run_elapsed.reshape(-1, m), diag))
    return results


def empirical_pcol(outcome: SimOutcome):
    """Collision probability per attempted transmission: (SYNC + HN) / transmitted.

    Returns None when no transmission was attempted (undefined, not zero).
    """
    transmitted = int((outcome.outcomes != int(Outcome.EXPIRED)).sum())
    if transmitted == 0:
        return None
    collided = int(
        ((outcome.outcomes == int(Outcome.COLLIDED_SYNC)) | (outcome.outcomes == int(Outcome.COLLIDED_HIDDEN))).sum()
    )
    return collided / transmitted
