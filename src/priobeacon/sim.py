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

Collisions are classified after the fact: SYNC when two mutually adjacent
transmitters start in the same slot, hidden-node (HN) when transmissions of
mutually non-adjacent stations overlap at a common receiver.  An event
satisfying both is reported as SYNC, with both occurrences counted in the
diagnostics.  `classify_collision` defines both labels and labels every
walked run.  The closed form labels same-draw ties SYNC by itself, which is
the classifier's SYNC rule on a complete graph: every pair is adjacent, no
pair is hidden, and only stations that start together overlap.
`tests/test_sim.py::TestEngineEquivalence::test_walker_matches_closed_form`
pins this.

Two engines share these slot semantics; each run takes one, picked from
its config and the adjacency it builds, whether it comes alone to
`run_simulation` or in a batch to `simulate_points`:

* aligned periods (``random_phase_offsets`` false) on a complete graph,
  which includes ``sense_range = inf``: a closed form (all stations sense
  the same medium, so transmissions serialize in draw order and ties
  collide);
* any other run: a walker over independent rows, each with its own clock,
  sensing block and span.  An aligned run is walked alone, one row per
  period (periods are independent trials).  The phase-offset runs of a
  batch are walked together, one row each, holding all of the run's
  periods, with the node axis padded to the largest station count.

An aligned run, on either engine, is drawn and simulated chunk by chunk:
each chunk of periods takes its draws in turn from the run's one generator
and yields its rows of int8 outcomes and int32 elapsed (the closed form
writes them into two buffers that every chunk reuses), and the event
counts are summed over chunks.  Consecutive draws from one generator equal
one draw of the whole run and periods are independent, so the chunks
change no result.  `run_simulation` gathers a run's chunks into the
(periods, n) arrays of a `SimOutcome` (5 bytes per node-period).
`simulate_points`, which `simulate` runs, keeps no such arrays: it tallies
each chunk into what the point's files hold, per-node outcome counts and
int64 elapsed sums and the node-major bits text, one column block per
chunk (a walked phase-offset run is one block), and writes them as bytes.
A `SimOutcome`'s `to_*` exporters give the same bytes, and a streamed
point holds its bits text (1 byte per node-period) and one chunk's
working set, whatever the run's length.

The closed form ranks each period's draws with one sort of packed keys,
(draw << b) | node with b bits for the node, so the keys are unique and
their order is the stable order by draw.  Draws are clipped at the slots
per beacon first: a larger draw expires whatever its rank, and the clip
bounds the keys by the period whatever the window (at the paper's windows
and station counts they are 16 bits wide).  The k-th distinct value u of a
period starts at u + k * occupancy (k <= u, so a start is at most
slots * (occupancy + 1), which `MacParameters` keeps inside int32).  Each
node-period's outcome and elapsed travel as one int32 code, scattered once
into the chunk's elapsed rows and decoded there in place, into its elapsed
and outcome rows.

The walker jumps from one transmission start to the next.  A node waiting
with counter c as of time tau, sensing the medium busy until b (the latest
end of the transmissions it senses), starts at s = max(b, tau) + c unless a
transmission it senses begins first.  Between two starts no busy time
changes, so no s does either.  A packet whose s is not before its period
end e expires there; the node's next packet counts down its fresh draw
from max(b, e).  Busy times only rise, so an s only rises, and an expiry
is known as soon as a busy time pushes s to e.  One step takes each row's
earliest s: the nodes starting then go on air together (adjacent ones
collide SYNC); every other counter is settled to that time, the starters'
listeners' busy times rise to the starters' ends, and each starter and
each expired packet gives way to the node's next packet.  A row ends when
its nodes' packets have run out.  It hands each run's transmissions to
`classify_collision` once.  Tests check the walker against the closed
form on complete graphs, against a per-slot reference walker on random
adjacency in both layouts and with runs of different sizes stacked in one
walk, and `classify_collision` against a pairwise definition.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .analytic import MacParameters
from .geometry import Category, SpatialScenario, build_adjacency, category_from_token
from .metrics import MIN_PERIODS
from .policy import BackoffPolicy, draw_matrix

__all__ = [
    "Outcome",
    "SimConfig",
    "SimOutcome",
    "run_simulation",
    "simulate_points",
    "classify_collision",
    "point_files",
    "read_point",
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
    """One simulation run: all of `scenario`'s nodes contend under `policy`.

    Two nodes sense each other within `sense_range` metres; `math.inf`
    gives complete sensing (full connectivity).
    """

    scenario: SpatialScenario
    policy: BackoffPolicy
    params: MacParameters = field(default_factory=MacParameters)
    sense_range: float = 700.0
    n_periods: int = 1000
    seed: int = 0
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
    """Per-node, per-period results of one simulation run of `config`.

    Column i of `outcomes` and `elapsed` is node i of `config.scenario`
    (`ids[i]`, `categories[i]`); row p is beacon period p.
    """

    config: SimConfig
    outcomes: np.ndarray          # (periods, n) Outcome codes
    elapsed: np.ndarray           # (periods, n) slots from period start to tx start, -1 if expired
    diagnostics: dict

    @property
    def n_nodes(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[0]

    def counts(self) -> dict[Outcome, np.ndarray]:
        """Per-node counters of each outcome; they sum to n_periods per node."""
        return dict(zip(Outcome, _outcome_counts(self.outcomes)))

    def transmitted_bits(self) -> np.ndarray:
        """(n, periods) bool: True where the node's packet was transmitted
        (delivered or collided) in that period."""
        return (self.outcomes != int(Outcome.EXPIRED)).T

    def elapsed_sums(self) -> np.ndarray:
        """(n,) int64: each node's elapsed backoff slots summed over its transmitted periods."""
        # an expired period's elapsed is -1
        return self.elapsed.sum(axis=0, dtype=np.int64) + _outcome_counts(self.outcomes)[Outcome.EXPIRED]

    def category_nodes(self, category: Category) -> np.ndarray:
        return np.flatnonzero(self.config.scenario.categories == int(category))

    def to_outcome_csv(self) -> str:
        return _per_node_csv(self.config.scenario, OUTCOME_CSV_HEADER, *_outcome_counts(self.outcomes))

    def to_bits_text(self) -> str:
        """One line of '1'/'0' per node, one character per period."""
        tally = _PointTally(self.config.scenario, self.n_periods)
        tally.add(0, self.outcomes, self.elapsed)
        return str(tally.bits.data, "ascii")

    def to_stats_csv(self) -> str:
        """Diagnostic per-node stats: transmission count and summed elapsed backoff slots."""
        tx = self.n_periods - _outcome_counts(self.outcomes)[Outcome.EXPIRED]
        return _per_node_csv(self.config.scenario, STATS_CSV_HEADER, tx, self.elapsed_sums())


def _per_node_csv(scenario: SpatialScenario, header: str, *columns: np.ndarray) -> str:
    """`header`, then one line per node of `scenario`: its id, its category token and its value
    in each integer column."""
    tokens = [Category(cat).token for cat in scenario.categories]
    line = "%d,%s" + ",%d" * len(columns)
    return "\n".join([header, *(line % row for row in zip(scenario.ids, tokens, *columns))]) + "\n"


class _PointTally:
    """What a point's files hold, filled one block of periods at a time: each node's outcome
    counts and int64 elapsed sum, and the bits text, one line of '1'/'0' per node."""

    def __init__(self, scenario: SpatialScenario, periods: int):
        n = scenario.n_nodes
        self.scenario = scenario
        self.counts = np.zeros((len(Outcome), n), dtype=np.int64)
        self.elapsed_sums = np.zeros(n, dtype=np.int64)  # an expired period adds -1
        self.bits = np.full((n, periods + 1), ord("\n"), dtype=np.uint8)

    def add(self, first: int, outcomes: np.ndarray, elapsed: np.ndarray) -> None:
        """Tally periods first, first + 1, ... from their (rows, n) outcomes and elapsed."""
        bits = self.bits[:, first:first + outcomes.shape[0]]
        np.not_equal(outcomes.T, int(Outcome.EXPIRED), out=bits)
        bits += ord("0")
        self.counts += _outcome_counts(outcomes)
        self.elapsed_sums += elapsed.sum(axis=0, dtype=np.int64)

    def outcome_csv(self) -> str:
        return _per_node_csv(self.scenario, OUTCOME_CSV_HEADER, *self.counts)

    def stats_csv(self) -> str:
        """Each node's transmitted periods and its elapsed sum over them."""
        expired = self.counts[Outcome.EXPIRED]
        tx = self.bits.shape[1] - 1 - expired
        return _per_node_csv(self.scenario, STATS_CSV_HEADER, tx, self.elapsed_sums + expired)

    def write(self, out: Path, tag: str) -> tuple[str, str, str]:
        """Write the point's outcome, bits and stats files into `out`; return their names."""
        names = point_files(tag)
        (out / names[0]).write_bytes(self.outcome_csv().encode("ascii"))
        with open(out / names[1], "wb") as fh:
            fh.write(self.bits)
        (out / names[2]).write_bytes(self.stats_csv().encode("ascii"))
        return names


_COUNT_FIELDS = np.arange(0, 16 * len(Outcome), 16, dtype=np.uint64)[:, None]  # each outcome's shift in a packed count


def _outcome_counts(outcomes: np.ndarray) -> np.ndarray:
    """(len(Outcome), n) int64: how often each Outcome code occurs in each column of the (rows, n)
    int8 `outcomes`.

    Each block of rows is counted in one pass: code c stands for 1 << 16c, so one uint64 sum down
    the block's rows packs its four counts, 16 bits each.  A block has at most 0xFFFF rows, so no
    count carries into the next, and at most a chunk's node-periods, so the one buffer every
    block reuses, 8 bytes per node-period, stays within a chunk's working set.
    """
    rows, n = outcomes.shape
    step = min(0xFFFF, max(1, _CHUNK_NODE_PERIODS // n))
    counts = np.zeros((len(Outcome), n), dtype=np.int64)
    fields = np.empty((min(step, rows), n), dtype=np.uint64)
    for first in range(0, rows, step):
        block = fields[:rows - first]
        block[...] = outcomes[first:first + step]
        block <<= 4
        np.left_shift(1, block, out=block)
        counts += ((block.sum(axis=0) >> _COUNT_FIELDS) & 0xFFFF).astype(np.int64)
    return counts


OUTCOME_CSV_HEADER = "node_id,category,delivered,sync,hn,expired"
STATS_CSV_HEADER = "node_id,category,tx_count,sum_elapsed_slots"


def point_files(tag: str) -> tuple[str, str, str]:
    """The names of a point's outcome, bits and stats files, in the order of the manifest's file
    columns; the tag "*" gives their glob patterns."""
    return f"outcome_{tag}.csv", f"bits_{tag}.txt", f"stats_{tag}.csv"


def read_point(bits_path: Path, stats_path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One simulated point read back from the bits and stats files `simulate_points` wrote: the
    (n, periods) transmitted bits, the (n,) int64 `Category` values and the (n,) elapsed sums.

    Raises ValueError when the bits/stats pair is malformed or inconsistent:
    ragged or too short bits rows, a bits row with a character other than
    '0' and '1', a bad stats line, different node counts, or a tx_count
    that differs from the node's count of '1's.
    """
    rows = bits_path.read_bytes().split()
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"{bits_path.name}: bits rows differ in length")
    raw = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), len(rows[0]) if rows else 0)
    bits = raw == ord("1")
    if bits.shape[1] < MIN_PERIODS:
        raise ValueError(f"{bits_path.name}: {bits.shape[1]} periods, the estimators need {MIN_PERIODS}")
    if raw.min() < ord("0") or raw.max() > ord("1"):
        row = np.flatnonzero((~bits & (raw != ord("0"))).any(axis=1))[0]
        raise ValueError(f"{bits_path.name} row {row + 1}: a character other than '0' and '1'")
    lines = stats_path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != STATS_CSV_HEADER:
        raise ValueError(f"{stats_path.name}: unexpected stats CSV header")
    cats, tx, elapsed_sums = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            _node, tok, n_tx, elapsed = line.split(",")
            cats.append(category_from_token(tok))
            tx.append(int(n_tx))
            elapsed_sums.append(int(elapsed))
        except ValueError:
            raise ValueError(f"{stats_path.name} line {lineno}: malformed stats row {line!r}") from None
    if len(cats) != bits.shape[0]:
        raise ValueError(f"{bits_path.name} has {bits.shape[0]} nodes but {stats_path.name} has {len(cats)}")
    ones = bits.sum(axis=1)
    bad = np.flatnonzero(ones != tx)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{stats_path.name} node row {i + 1}: tx_count {tx[i]} but {ones[i]} '1's in {bits_path.name}")
    return bits, np.array(cats, dtype=np.int64), np.array(elapsed_sums, dtype=np.int64)


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


def run_simulation(config: SimConfig) -> SimOutcome:
    """Run the Monte Carlo engine; deterministic under the config seed."""
    shape = (config.n_periods, config.scenario.n_nodes)
    outcomes, elapsed = np.empty(shape, dtype=np.int8), np.empty(shape, dtype=np.int32)

    def gather(first, chunk_outcomes, chunk_elapsed):
        outcomes[first:first + chunk_outcomes.shape[0]] = chunk_outcomes
        elapsed[first:first + chunk_elapsed.shape[0]] = chunk_elapsed

    (chunks,) = _simulated_chunks([config])
    return SimOutcome(config, outcomes, elapsed, _fold(chunks, gather))


def simulate_points(out: Path, points) -> Iterator[tuple[tuple[str, str, str], dict]]:
    """Simulate each (tag, config) of `points`, in order, and write the point's files into
    `out`, the bytes `SimOutcome.to_*` give for `run_simulation(config)`; yield, point by
    point, the files' names and the run's diagnostics.

    Every phase-offset run of the batch is one row of a single walk (one walk
    per slot budget, occupancy and period count), made before the first point
    is written; nothing here keeps the runs' draws, so the walk frees them
    once stacked.  Any other run is computed, chunk by chunk, when its point
    is asked for.  A point's files are tallied as its run is computed, an
    aligned run chunk by chunk and a walked run as one block, so no run's
    (periods, n) arrays are kept: what a point holds beyond one chunk is its
    bits text.
    """
    points = list(points)
    for (tag, config), chunks in zip(points, _simulated_chunks([config for _, config in points])):
        tally = _PointTally(config.scenario, config.n_periods)
        diagnostics = _fold(chunks, tally.add)
        yield tally.write(out, tag), diagnostics


def _simulated_chunks(configs: list[SimConfig]) -> Iterator[Iterator[tuple]]:
    """Per config, in order, its run as (first period, outcomes, elapsed, diagnostics) chunks of
    consecutive periods: all of a walked phase-offset run in one, an aligned run's as computed."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, config in enumerate(configs):
        slots = config.params.slots_per_beacon
        if config.policy.cw > slots:
            warnings.warn(
                f"contention window {config.policy.cw} exceeds {slots} slots per beacon; "
                "large draws will always expire",
                stacklevel=3,
            )
        if config.random_phase_offsets:
            groups.setdefault((slots, config.params.tx_occupancy_slots, config.n_periods), []).append(k)
    walked = {}
    for (slots, occupancy, _), ks in groups.items():
        walked.update(zip(ks, _run_walker([_draw_phase_offset_run(configs[k]) for k in ks], slots, occupancy)))
    for k, config in enumerate(configs):
        yield iter([(0, *walked.pop(k))]) if k in walked else _run_aligned(config)


def _fold(chunks, add) -> dict:
    """Pass each chunk's first period, outcomes and elapsed to `add`; return the run's
    diagnostics, the last chunk's with the event counts summed over all chunks."""
    counts = dict.fromkeys(("sync_events", "hn_events", "dual_label_events"), 0)
    for first, outcomes, elapsed, diag in chunks:
        add(first, outcomes, elapsed)
        for key in counts:
            counts[key] += diag[key]
    return {**diag, **counts}


def _draw_phase_offset_run(config: SimConfig):
    """A phase-offset run's (1, periods, n) backoff draws, phase offsets and
    sensing graph; its seed's stream gives the offsets first."""
    scenario = config.scenario
    adjacency = build_adjacency(scenario, config.sense_range)
    rng = np.random.default_rng(config.seed)
    offsets = rng.integers(0, config.params.slots_per_beacon, size=scenario.n_nodes)
    draws = draw_matrix(config.policy, scenario.categories, config.n_periods, rng)
    return draws[None], offsets, adjacency


# A walked node with no packet left resumes at _NEVER, later than any transmission start,
# in a period that ends at _END
_NEVER = np.iinfo(np.int64).max // 2
_END = np.iinfo(np.int64).max

# Node-periods an aligned run draws and simulates at a time: 0.25 MB of int32 draws
# (under 1 MB of temporaries while per-column bounds are drawn), about 2 MB of
# closed-form temporaries and 0.5 MB to count outcomes, whatever the run's length.
# Twice as many outgrow what glibc's malloc keeps for reuse (its trim threshold
# follows the largest block freed so far, and `simulate` frees no per-run arrays),
# so every chunk would fault its temporaries in afresh.
_CHUNK_NODE_PERIODS = 1 << 16


def _run_aligned(config: SimConfig):
    """Yield an aligned run's chunks (see the module docstring) as (first period, outcomes,
    elapsed, diagnostics): the closed form on a complete graph, written into two buffers
    that every chunk reuses, so a chunk's arrays hold until the next chunk is asked for;
    else one walker row per period."""
    scenario = config.scenario
    periods, n = config.n_periods, scenario.n_nodes
    slots, occupancy = config.params.slots_per_beacon, config.params.tx_occupancy_slots
    adjacency = build_adjacency(scenario, config.sense_range)
    complete = (adjacency | np.eye(n, dtype=bool)).all()
    rng = np.random.default_rng(config.seed)
    step = min(periods, max(1, _CHUNK_NODE_PERIODS // n))
    if complete:
        outcome_rows, elapsed_rows = np.empty((step, n), dtype=np.int8), np.empty((step, n), dtype=np.int32)
    for first in range(0, periods, step):
        rows = min(step, periods - first)
        draws = draw_matrix(config.policy, scenario.categories, rows, rng)
        if complete:
            outcomes, elapsed = outcome_rows[:rows], elapsed_rows[:rows]
            diag = _run_full_connectivity(draws, slots, occupancy, outcomes, elapsed)
        else:
            runs = [(draws[:, None], np.zeros(n, dtype=np.int64), adjacency)]
            ((outcomes, elapsed, diag),) = _run_walker(runs, slots, occupancy)
            del runs
        del draws
        yield first, outcomes, elapsed, diag


def _run_full_connectivity(draws: np.ndarray, slots: int, occupancy: int, outcomes: np.ndarray, elapsed: np.ndarray):
    """Closed-form per-period outcomes under full connectivity with aligned periods,
    written into `outcomes` and `elapsed` (C-contiguous, shaped like `draws`); returns
    the diagnostics.

    All stations freeze and decrement in lockstep, so transmissions happen in
    draw order: the k-th distinct draw value u transmits at slot u + k*occupancy
    (k counted from 0), stations sharing a draw start together (SYNC), and a
    start slot beyond the period expires.  A draw of `slots` or more expires
    whatever its rank, so draws are clipped at `slots`: that changes neither
    the order nor the ties of the draws below it.  Each period sorts the keys
    (clipped draw << b) | node, with b bits for the node, in the smallest
    unsigned type of 16 bits or more that holds them (uint16 up to cw 512 at
    128 nodes).  The keys are unique, so their order is the stable order by
    draw, and a key's low bits give its node back.  Each node-period's
    outcome and elapsed travel as one int32 code, t for a clean start at
    slot t, -2 - t for a SYNC start and -1 for expired, scattered once into
    `elapsed` and decoded there in place.
    """
    periods, n = draws.shape
    shift = (n - 1).bit_length()
    top = min(int(draws.max()), slots)
    # at least 16 bits: numpy sorts short rows of 8-bit keys about twice as slowly
    keys = np.empty((periods, n), dtype=np.promote_types(np.min_scalar_type(top << shift | (n - 1)), np.uint16))
    np.minimum(draws, top, out=keys, casting="unsafe")
    keys <<= shift
    keys |= np.arange(n, dtype=keys.dtype)
    keys.sort(axis=1)
    value = keys >> shift
    # new[i]: flat entry i starts a run of equal draws in its period; the last entry closes the last period
    flat = value.reshape(-1)
    new = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:-1])
    new[::n] = True
    tie = ~(new[:-1] & new[1:]).reshape(periods, n)
    # the running count of runs, less its period's first, is the number of smaller distinct draws
    tx = np.cumsum(new[:-1], dtype=np.int32).reshape(periods, n)
    tx -= tx[:, :1]
    tx *= occupancy
    np.add(tx, value, out=tx, casting="unsafe")  # value <= slots, and elapsed is int32 anyway
    code = tx * 2
    code += 2
    code *= tie
    np.subtract(tx, code, out=code)  # -2 - t where tied, else t
    np.copyto(code, -1, where=tx >= slots)
    index = np.bitwise_and(keys, (1 << shift) - 1, dtype=np.intp)
    index += np.arange(0, periods * n, n)[:, None]
    elapsed.reshape(-1)[index.reshape(-1)] = code.reshape(-1)
    np.less(elapsed, 0, out=outcomes, casting="unsafe")  # DELIVERED, or COLLIDED_SYNC unless expired
    np.copyto(outcomes, int(Outcome.EXPIRED), where=elapsed == -1)
    np.maximum(elapsed, -2 - elapsed, out=elapsed)
    return {
        "engine": "full-connectivity",
        "sync_events": int(np.count_nonzero(code < -1)),
        "hn_events": 0,
        "dual_label_events": 0,
    }


def _run_walker(runs, slots: int, occupancy: int):
    """Walk independent rows of consecutive periods, any adjacency, rows from several runs.

    runs is a list of (draws, offsets, adjacency), one per run: draws is
    (rows, periods, n) with the same periods in every run, and node i's
    period p of a row starts at offsets[i] + p * slots on that row's clock.
    The walk drops its references to the runs' draws once they are stacked,
    and the stack once the walk ends, without changing the caller's list.

    The rows of all runs are stacked, the node axis padded to the largest n;
    padded nodes never start.  Each row has its run's sensing block, keeps
    its own clock and jumps from one transmission start to the next (see
    the module docstring).  Per (row, node) the walk keeps the flat index of
    the current packet in the stacked draws, the period end, resume =
    max(busy, tau) and start = resume + the counter left at resume.  A
    starter at t ends at min(t + occupancy, its period end); a listener's
    resume rises to the latest such end it hears, and its start by as much
    as its resume rose past max(resume, t).  Collisions are classified
    afterwards, run by run, from `elapsed`, with row r of a run placed at
    r * span on one run clock (span is the run's last offset plus periods *
    slots) and each transmission cut at its period end.  Returns one
    (outcomes, elapsed, diagnostics) per run, its rows of periods stacked
    into (rows * periods, n).  A walk of several runs copies each run's
    elapsed out of the padded buffer, which is then freed before the runs are
    classified.  A walk of one run returns a view of the walk's elapsed
    buffer, which holds one more period per row; an aligned chunk's is
    tallied into its point's files or copied once, into the run's array.
    """
    periods = runs[0][0].shape[1]
    n = max(adjacency.shape[0] for _, _, adjacency in runs)
    sizes = [draws.shape[0] for draws, _, _ in runs]
    first = np.cumsum([0, *sizes])  # run k holds rows first[k]:first[k + 1]
    run_span = [int(offsets.max()) + periods * slots for _, offsets, _ in runs]
    block = np.repeat(np.arange(len(runs)), sizes)  # each row's sensing block
    hears = np.zeros((len(runs), n, n), dtype=bool)  # hears[b, j, i]: i senses a transmitting j
    # the smallest integer type that holds every draw and `no_packet` keeps the padded stack
    # small; period `periods` holds `no_packet`, what a node draws once its packets run out
    no_packet = max(int(d.max()) for d, _, _ in runs) + 1
    draws = np.full((first[-1], periods + 1, n), no_packet, dtype=np.min_scalar_type(no_packet))
    end = np.full((first[-1], n), _END)  # padded nodes: a period that never ends
    for k, (run_draws, offsets, adjacency) in enumerate(runs):
        m = adjacency.shape[0]
        hears[k, :m, :m] = adjacency.T
        draws[first[k]:first[k + 1], :periods, :m] = run_draws
        end[first[k]:first[k + 1], :m] = offsets
    del run_draws
    runs = [(offsets, adjacency) for _, offsets, adjacency in runs]
    draws = draws.reshape(-1)
    hears = hears.reshape(-1, n)
    elapsed = np.full(draws.size, -1, dtype=np.int32)  # the layout of the draws

    # per (row, node) of the rows still running, flat and compacted as rows finish; each
    # node starts as if it had sent a packet -1 whose period ended at its offset
    cols = np.arange(n)
    packet = (np.arange(first[-1])[:, None] * (periods + 1) * n + cols - n).reshape(-1)  # its index in `draws`
    hear_ix = (block[:, None] * n + cols).reshape(-1)  # its row of `hears`
    end = end.reshape(-1)
    resume = np.minimum(end, _NEVER)  # the counter runs down from here unless a busy time raises it
    start = np.full(end.size, _NEVER)  # resume + the counter left at resume
    while True:
        # a sent packet, or one that can no longer start before its period end, gives way to the next
        f = np.flatnonzero(start >= end)
        while f.size:
            p = packet[f] + n
            packet[f] = p
            d = draws[p]
            last = d == no_packet
            e = end[f]
            res = np.where(last, _NEVER, np.maximum(resume[f], e))
            resume[f] = res
            start[f] = s = res + d
            end[f] = e = np.where(last, _END, e + slots)
            f = f[s >= e]
        t = start.reshape(-1, n).min(axis=1)  # each row's next transmission start
        if t.max() >= _NEVER:  # a row whose packets have all run out is done
            done = t >= _NEVER
            t = t[~done]
            if not t.size:
                break
            keep = np.repeat(~done, n)
            packet, hear_ix, resume, start, end = packet[keep], hear_ix[keep], resume[keep], start[keep], end[keep]
        f = np.flatnonzero(start.reshape(-1, n) == t[:, None])
        r = f // n  # sorted, and every row has a starter
        tr, e = t[r], end[f]
        elapsed[packet[f]] = tr - e + slots
        heard = hears[hear_ix[f]] * np.minimum(tr + occupancy, e)[:, None]
        if f.size > t.size:  # a row with several starters: the latest end each node hears
            heard = np.maximum.reduceat(heard, np.searchsorted(r, np.arange(t.size)), axis=0)
        settled = np.maximum(resume.reshape(-1, n), t[:, None])
        raised = np.maximum(settled, heard)
        start += (raised - settled).reshape(-1)
        resume = raised.reshape(-1)
        start[f] = _NEVER  # sent: gives way to the node's next packet at the top of the loop

    del draws
    elapsed = elapsed.reshape(first[-1], periods + 1, n)
    elapsed = [elapsed[first[k]:first[k + 1], :periods, :adj.shape[0]] for k, (_, adj) in enumerate(runs)]
    if len(runs) > 1:  # copied out, so the padded buffer is freed before classification's temporaries
        elapsed = [run_elapsed.copy() for run_elapsed in elapsed]
    results = []
    for k, ((offsets, adjacency), run_elapsed) in enumerate(zip(runs, elapsed)):
        m = adjacency.shape[0]
        row, period, node = np.nonzero(run_elapsed >= 0)
        base = row * run_span[k] + offsets[node] + period * slots
        start = base + run_elapsed[row, period, node]
        labels, diag = classify_collision(node, start, np.minimum(start + occupancy, base + slots), adjacency)
        outcomes = np.full(run_elapsed.shape, int(Outcome.EXPIRED), dtype=np.int8)
        outcomes[row, period, node] = labels
        diag["engine"] = "slot-walker"
        results.append((outcomes.reshape(-1, m), run_elapsed.reshape(-1, m), diag))
    return results

