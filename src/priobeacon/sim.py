"""Slot-accurate Monte Carlo engine for saturated per-beacon broadcast.

Per beacon period every station holds one fresh packet and draws a backoff
counter from its policy range.  Slot semantics:

* a station whose counter is zero transmits in the first slot with no
  ongoing adjacent transmission at the slot start (simultaneous starts
  cannot be sensed -- that is the synchronized-collision mechanism);
* any slot in which an adjacent station transmits is sensed busy and
  freezes the counter; idle-sensed slots decrement it;
* a transmission keeps the medium busy for ceil((DIFS + T_suc) / T_slot)
  slots, truncated at the transmitter's period boundary;
* a packet not transmitted by its period end expires; the next period
  starts with a fresh draw (no carryover).

Collisions are classified after the fact: SYNC when two mutually adjacent
transmitters start in the same slot, hidden-node (HN) when transmissions of
mutually non-adjacent stations overlap at a common receiver.  An event
satisfying both is reported as SYNC, with both occurrences counted in the
diagnostics.

Three engine paths share these slot semantics; `run_simulation` picks one
from the config and the adjacency it builds:

* aligned periods (``random_phase_offsets`` false) on a complete graph,
  which includes ``full_connectivity``: a closed-form vectorized path (all
  stations sense the same medium, so transmissions serialize in draw order
  and ties collide);
* aligned periods on any other adjacency: a period-batched engine.  Periods
  are independent trials there, so it walks all of them at once and
  classifies collisions from (periods, n) start/end arrays;
* per-node phase offsets (``random_phase_offsets`` true): a slot walker over
  the whole run, with collisions classified per cluster of overlapping
  transmissions by `classify_collision`.

Tests check the walker against the closed form on complete graphs and the
batched engine against the walker on random adjacency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
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
    scenario: SpatialScenario
    policy: BackoffPolicy
    params: MacParameters = field(default_factory=MacParameters)
    sense_range: float = 700.0
    n_periods: int = 1000
    seed: int = 0
    full_connectivity: bool = False
    random_phase_offsets: bool = False
    uncategorized: str = "contend"  # contend | report | silent

    def __post_init__(self):
        if self.n_periods < 1:
            raise ValueError("n_periods must be at least 1")
        if not (self.sense_range > 0):
            raise ValueError("sense_range must be positive")
        if self.uncategorized not in ("contend", "report", "silent"):
            raise ValueError("uncategorized must be one of contend/report/silent")


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


def classify_collision(events, adjacency: np.ndarray, _common: np.ndarray | None = None):
    """Label transmission events as SYNC / HN / clean.

    events: sequence of (node_index, start_slot, end_slot) with end exclusive.
    SYNC: another transmitter adjacent to this one started in the same slot.
    HN: a transmitter hidden from this one (non-adjacent) overlaps it at a
    common receiver.  Events meeting both get the dominant SYNC label; the
    diagnostics count how many carried both.

    Returns (labels, diagnostics) where labels[i] is an Outcome for event i.
    """
    k = len(events)
    if k == 0:
        return [], {"sync_events": 0, "hn_events": 0, "dual_label_events": 0}
    ids = np.array([e[0] for e in events], dtype=np.int64)
    starts = np.array([e[1] for e in events], dtype=np.int64)
    ends = np.array([e[2] for e in events], dtype=np.int64)
    adj = adjacency[np.ix_(ids, ids)]
    same_start = starts[:, None] == starts[None, :]
    np.fill_diagonal(same_start, False)
    sync = (adj & same_start).any(axis=1)
    overlap = (starts[:, None] < ends[None, :]) & (starts[None, :] < ends[:, None])
    np.fill_diagonal(overlap, False)
    if _common is None:
        rows = adjacency[ids]
        common = (rows.astype(np.int64) @ rows.T.astype(np.int64)) > 0
    else:
        common = _common[np.ix_(ids, ids)]
    hn = (overlap & ~adj & common).any(axis=1)
    labels = [
        Outcome.COLLIDED_SYNC if sync[i] else (Outcome.COLLIDED_HIDDEN if hn[i] else Outcome.DELIVERED)
        for i in range(k)
    ]
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
    nodes = list(scenario.nodes)
    if config.uncategorized == "silent":
        nodes = [nd for nd in nodes if nd.category is not Category.UNCATEGORIZED]
    n = len(nodes)
    if n == 0:
        raise ValueError("simulation needs at least one contending node")
    slots = config.params.slots_per_beacon
    if config.policy.cw > slots:
        warnings.warn(
            f"contention window {config.policy.cw} exceeds {slots} slots per beacon; "
            "large draws will always expire",
            stacklevel=2,
        )
    node_ids = np.array([nd.id for nd in nodes], dtype=np.int64)
    categories = np.array([int(nd.category) for nd in nodes], dtype=np.int64)
    if config.full_connectivity:
        adjacency = _full_adjacency(n)
    else:
        sub = scenario if len(nodes) == scenario.n_nodes else _filtered(scenario, nodes)
        adjacency = build_adjacency(sub, config.sense_range)

    rng = np.random.default_rng(config.seed)
    offsets = rng.integers(0, slots, size=n) if config.random_phase_offsets else None
    draws = draw_matrix(config.policy, categories, config.n_periods, rng)

    occupancy = config.params.tx_occupancy_slots
    if offsets is not None:
        outcomes, elapsed, diag = _run_slot_walker(draws, offsets, adjacency, slots, occupancy)
    elif (adjacency | np.eye(n, dtype=bool)).all():
        outcomes, elapsed, diag = _run_full_connectivity(draws, slots, occupancy)
    else:
        outcomes, elapsed, diag = _run_aligned_batched(draws, adjacency, slots, occupancy)

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


def _filtered(scenario: SpatialScenario, nodes) -> SpatialScenario:
    return replace(scenario, nodes=tuple(nodes))


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


_CLASSIFY_CHUNK = 1 << 16  # (periods, n, n) elements per classification chunk


def _run_aligned_batched(draws: np.ndarray, adjacency: np.ndarray, slots: int, occupancy: int):
    """Aligned periods on any adjacency, all periods walked at once.

    Every period starts fresh and occupancy is cut at the shared period end,
    so periods are independent trials in which each node transmits at most
    once.  Each period keeps its own clock: a quiet one (nothing on air, no
    zero counter) jumps to its next zero counter, the others take one slot
    step with the sensed-busy check as a matrix product over the adjacency.
    Collisions are classified afterwards from the (periods, n) start and end
    slots, in period chunks that bound the (periods, n, n) temporaries.

    Two walker checks cannot fire here.  A counter reaches zero only in an
    idle-sensed slot, or at a shared period start, so no adjacent station is
    on air when it does: a zero counter always starts at once.  And every
    start lies inside its period, so an end past the period end overlaps the
    same transmissions as one cut at it.
    """
    periods, n = draws.shape
    hears = adjacency.T.astype(np.float32)  # (on_air @ hears)[p, i] > 0: i senses a transmitter
    start = np.full((periods, n), -1, dtype=np.int64)  # local start slot, -1 if expired
    end = np.zeros((periods, n), dtype=np.int64)

    # state of the periods still running, compacted as periods finish
    rows = np.arange(periods)
    t = np.zeros(periods, dtype=np.int64)
    counter = draws.astype(np.int64)
    pending = np.ones((periods, n), dtype=bool)
    st = start.copy()
    en = end.copy()
    while rows.size:
        starters = pending & (counter == 0)
        on_air = (en > t[:, None]) | starters
        # a quiet period jumps to its next zero counter; past its end if none is pending
        dt = np.where(on_air.any(axis=1), 1, np.where(pending, counter, slots).min(axis=1))
        sensed_busy = (on_air.astype(np.float32) @ hears) > 0
        decr = pending & ~starters & ~sensed_busy
        counter -= decr * dt[:, None]
        st = np.where(starters, t[:, None], st)
        en = np.where(starters, t[:, None] + occupancy, en)
        pending &= ~starters
        t += dt
        done = t >= slots
        if done.any():
            start[rows[done]] = st[done]
            end[rows[done]] = en[done]
            keep = ~done
            rows, t, counter, pending, st, en = rows[keep], t[keep], counter[keep], pending[keep], st[keep], en[keep]

    transmitted = start >= 0
    others = ~np.eye(n, dtype=bool)
    adj_f = adjacency.astype(np.float64)
    sync_peer = adjacency & others
    hidden_peer = ~adjacency & ((adj_f @ adj_f) > 0) & others  # non-adjacent, share a receiver
    sync = np.zeros((periods, n), dtype=bool)
    hn = np.zeros((periods, n), dtype=bool)
    chunk = max(1, _CLASSIFY_CHUNK // (n * n))
    for lo in range(0, periods, chunk):
        s, e = start[lo : lo + chunk], end[lo : lo + chunk]
        # an expired node (start -1, end 0) shares a start or overlaps only with
        # another expired node, and expired rows are masked out below
        same_start = s[:, :, None] == s[:, None, :]
        sync[lo : lo + chunk] = (same_start & sync_peer).any(axis=2)
        overlap = (s[:, :, None] < e[:, None, :]) & (s[:, None, :] < e[:, :, None])
        hn[lo : lo + chunk] = (overlap & hidden_peer).any(axis=2)
    sync &= transmitted
    hn &= transmitted

    outcomes = np.full((periods, n), int(Outcome.EXPIRED), dtype=np.int8)
    outcomes[transmitted] = int(Outcome.DELIVERED)
    outcomes[hn] = int(Outcome.COLLIDED_HIDDEN)
    outcomes[sync] = int(Outcome.COLLIDED_SYNC)
    diag = {
        "engine": "aligned-batched",
        "sync_events": int(sync.sum()),
        "hn_events": int(hn.sum()),
        "dual_label_events": int((sync & hn).sum()),
    }
    return outcomes, start.astype(np.int32), diag


def _run_slot_walker(draws: np.ndarray, offsets: np.ndarray, adjacency: np.ndarray, slots: int, occupancy: int):
    """General engine: walks slots over the whole run, any adjacency, optional
    per-node phase offsets.  Quiet stretches (no occupancy, no zero counter)
    are skipped in one jump.  `run_simulation` uses it for phase-offset runs;
    with zero offsets it is the reference the other two engines are tested
    against."""
    periods, n = draws.shape
    adj_f = adjacency.astype(np.float64)
    common = (adj_f @ adj_f) > 0  # share at least one receiver

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

    diag = _classify_events(ev_node, ev_start, ev_end, ev_packet, adjacency, common, outcomes)
    diag["engine"] = "slot-walker"
    return outcomes, elapsed, diag


def _classify_events(ev_node, ev_start, ev_end, ev_packet, adjacency, common, outcomes):
    """Classify chronologically-clustered transmission events and write outcomes."""
    sync_total = hn_total = dual_total = 0
    k = len(ev_node)
    idx = 0
    starts = np.array(ev_start, dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    while idx < k:
        # grow a cluster: events whose spans can possibly overlap
        cluster = [order[idx]]
        cluster_end = ev_end[order[idx]]
        j = idx + 1
        while j < k and ev_start[order[j]] < cluster_end:
            cluster.append(order[j])
            cluster_end = max(cluster_end, ev_end[order[j]])
            j += 1
        events = [(ev_node[e], ev_start[e], ev_end[e]) for e in cluster]
        labels, diag = classify_collision(events, adjacency, _common=common)
        for e, lab in zip(cluster, labels):
            outcomes[ev_packet[e], ev_node[e]] = int(lab)
        sync_total += diag["sync_events"]
        hn_total += diag["hn_events"]
        dual_total += diag["dual_label_events"]
        idx = j
    return {"sync_events": sync_total, "hn_events": hn_total, "dual_label_events": dual_total}


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
