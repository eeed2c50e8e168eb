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

Two engines share these slot semantics; `run_simulation` picks one from
the config and the adjacency it builds:

* aligned periods (``random_phase_offsets`` false) on a complete graph,
  which includes ``full_connectivity``: a closed form (all stations sense
  the same medium, so transmissions serialize in draw order and ties
  collide);
* any other run: a walker over independent rows, each with its own clock.
  An aligned run is one row per period (periods are independent trials),
  a phase-offset run one row holding all its periods.

The walker jumps from one state change to the next.  It relies on this
condition: once the step's starters are on air, nothing changes until a
transmission ends, a counter that senses no transmitter reaches zero, or a
period boundary passes, so counters that sense nothing decrement by the
whole jump and every other counter stays frozen.  It hands the whole run's
transmissions to `classify_collision` once.  Tests check the walker against
the closed form on complete graphs, against a per-slot reference walker on
random adjacency in both layouts, and `classify_collision` against a
pairwise definition.
"""

from __future__ import annotations

import warnings
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
    scenario = config.scenario
    n = scenario.n_nodes
    if n == 0:
        raise ValueError("simulation needs at least one contending node")
    slots = config.params.slots_per_beacon
    if config.policy.cw > slots:
        warnings.warn(
            f"contention window {config.policy.cw} exceeds {slots} slots per beacon; "
            "large draws will always expire",
            stacklevel=2,
        )
    node_ids = np.array([nd.id for nd in scenario.nodes], dtype=np.int64)
    categories = scenario.categories()
    adjacency = _full_adjacency(n) if config.full_connectivity else build_adjacency(scenario, config.sense_range)

    rng = np.random.default_rng(config.seed)
    offsets = rng.integers(0, slots, size=n) if config.random_phase_offsets else None
    draws = draw_matrix(config.policy, categories, config.n_periods, rng)

    occupancy = config.params.tx_occupancy_slots
    if offsets is not None:
        outcomes, elapsed, diag = _run_walker(draws[None], offsets, adjacency, slots, occupancy)
    elif (adjacency | np.eye(n, dtype=bool)).all():
        outcomes, elapsed, diag = _run_full_connectivity(draws, slots, occupancy)
    else:
        outcomes, elapsed, diag = _run_walker(draws[:, None], np.zeros(n, dtype=np.int64), adjacency, slots, occupancy)

    return SimOutcome(
        node_ids=node_ids,
        categories=categories,
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


def _run_walker(draws: np.ndarray, offsets: np.ndarray, adjacency: np.ndarray, slots: int, occupancy: int):
    """Walk independent rows of consecutive periods, any adjacency.

    draws is (rows, periods, n); node i's period p of a row starts at
    offsets[i] + p * slots on that row's clock.  `run_simulation` passes an
    aligned run as one row per period with zero offsets (periods are
    independent trials there) and a phase-offset run as a single row.

    Every row keeps its own clock and jumps to its earliest state change
    (see the module docstring).  A zero counter blocked by an ongoing
    transmission senses that transmission, so it stays frozen with the rest.
    Collisions are classified afterwards from `elapsed`, with row r placed
    at r * span on one run clock and each transmission cut at its period
    end.  Returns (outcomes, elapsed, diagnostics), rows of periods stacked
    into (rows * periods, n).
    """
    rows_n, periods, n = draws.shape
    span = int(offsets.max()) + periods * slots  # one row's run
    hears = adjacency.T.astype(np.float32)  # (on_air @ hears)[r, i] > 0: i senses a transmitter
    cols = np.arange(n)
    elapsed = np.full((rows_n, periods, n), -1, dtype=np.int32)

    # state of the rows still running, compacted as rows finish
    rows = np.arange(rows_n)
    t = np.zeros(rows_n, dtype=np.int64)
    packet = np.full((rows_n, n), -1, dtype=np.int64)  # the node's current period, -1 before its first
    counter = np.zeros((rows_n, n), dtype=np.int64)
    pending = np.zeros((rows_n, n), dtype=bool)
    end = np.zeros((rows_n, n), dtype=np.int64)  # end of the node's transmission
    boundary = np.broadcast_to(offsets, (rows_n, n)).astype(np.int64)
    while rows.size:
        at_boundary = boundary == t[:, None]
        if at_boundary.any():  # a fresh packet; an untransmitted one stays expired
            packet += at_boundary
            fresh = at_boundary & (packet < periods)
            counter = np.where(fresh, draws[rows[:, None], np.minimum(packet, periods - 1), cols], counter)
            pending = np.where(at_boundary, fresh, pending)
            boundary += at_boundary * slots
        ongoing = end > t[:, None]
        busy_at_start = (ongoing.astype(np.float32) @ hears) > 0
        starters = pending & (counter == 0) & ~busy_at_start
        on_air = ongoing | starters
        if starters.any():
            r, i = np.nonzero(starters)
            elapsed[rows[r], packet[r, i], i] = t[r] - boundary[r, i] + slots
            end = np.where(starters, np.minimum(t[:, None] + occupancy, boundary), end)
            pending &= ~starters
        decr = pending & ((on_air.astype(np.float32) @ hears) == 0)
        change = np.where(on_air, end, np.where(decr, np.minimum(t[:, None] + counter, boundary), boundary))
        dt = np.minimum(change.min(axis=1), span) - t
        counter -= decr * dt[:, None]
        t += dt
        done = t >= span
        if done.any():
            keep = ~done
            rows, t, packet, counter, pending, end, boundary = (
                rows[keep], t[keep], packet[keep], counter[keep], pending[keep], end[keep], boundary[keep]
            )

    row, period, node = np.nonzero(elapsed >= 0)
    base = row * span + offsets[node] + period * slots
    start = base + elapsed[row, period, node]
    labels, diag = classify_collision(node, start, np.minimum(start + occupancy, base + slots), adjacency)
    outcomes = np.full((rows_n, periods, n), int(Outcome.EXPIRED), dtype=np.int8)
    outcomes[row, period, node] = labels
    diag["engine"] = "slot-walker"
    return outcomes.reshape(-1, n), elapsed.reshape(-1, n), diag


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
