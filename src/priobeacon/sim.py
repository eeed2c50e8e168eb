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
its config and the adjacency it builds:

* aligned periods (``random_phase_offsets`` false) on a complete graph,
  which includes ``sense_range = inf``: a closed form (all stations sense
  the same medium, so transmissions serialize in draw order and ties
  collide);
* any other run: a walker over independent rows, each with its own clock,
  walked one row at a time by the C step loop of `_walk.c` (see
  `_run_walker`).  An aligned run is walked one row per period (periods
  are independent trials); a phase-offset run is one row holding all of
  its periods.

`sim` compiles `_walk.c` on first import with the system ``cc`` into
``__pycache__/_walk-<SHA-256 of the source>.so`` beside it and loads it
with `ctypes`; without a C compiler the import raises ImportError.

An aligned run, on either engine, is drawn and simulated chunk by chunk:
each chunk of periods, as many as fit in one budget of node-periods that
both engines share, takes its draws in turn from the run's one generator
and yields fresh rows of int8 outcomes and int32 elapsed of its own, and
the event counts are summed over chunks.  On either engine no array
outlives its chunk, so nothing is held between chunks or between points.
Consecutive draws from one generator equal one draw of the whole run and
periods are independent, so the chunks change no result.  A phase-offset
run is one chunk: it is drawn, walked and classified whole, when its
point is asked for.  `run_simulation` gathers a run's chunks into the
(periods, n) arrays of a `SimOutcome` (5 bytes per node-period).
`simulate_points`, which `simulate` runs, keeps no such arrays: it
tallies each chunk into what the point's files hold, per-node outcome
counts and int64 elapsed sums, and encodes the chunk's columns of the
node-major bits text, which it writes in place, row by row, into the file
sized for the whole run.  `SimOutcome.to_bits_text` encodes its whole run
with the same function, so a `SimOutcome`'s `to_*` exporters give the
same bytes.  A streamed aligned point holds one chunk's working set, the
chunk's bits text included (1 byte per node-period), whatever the run's
length; a phase-offset point holds its whole run.  `read_point` reads the
file back one block of rows at a time, into the `metrics.BitSums` that
every estimate takes.

A draw of `slots` (the slots per beacon) or more expires whatever else
happens in its period, so both engines clip draws at `slots` where they
take them in, which changes no outcome: the closed form as it builds its
sort keys, which the clip bounds by the period whatever the window, and
the walker as it reads each draw, which keeps every start time exact in
int64 (draws wider than int32 are clipped before the walk).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .analytic import MacParameters
from .geometry import Category, SpatialScenario, build_adjacency, category_from_token
from .metrics import MIN_PERIODS, BitSums
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
        return str(_bits_text(self.outcomes, True).data, "ascii")

    def to_stats_csv(self) -> str:
        """Diagnostic per-node stats: transmission count and summed elapsed backoff slots."""
        raw_sums = self.elapsed.sum(axis=0, dtype=np.int64)
        return _stats_csv(self.config.scenario, _outcome_counts(self.outcomes), raw_sums)


def _stats_csv(scenario: SpatialScenario, counts: np.ndarray, raw_sums: np.ndarray) -> str:
    """The stats file of `scenario`'s nodes: each node's transmitted periods and its elapsed sum over
    them, from its (len(Outcome), n) outcome counts and its raw elapsed sum, to which each expired
    period added -1."""
    expired = counts[Outcome.EXPIRED]
    return _per_node_csv(scenario, STATS_CSV_HEADER, counts.sum(axis=0) - expired, raw_sums + expired)


def _per_node_csv(scenario: SpatialScenario, header: str, *columns: np.ndarray) -> str:
    """`header`, then one line per node of `scenario`: its id, its category token and its value
    in each integer column."""
    tokens = [Category(cat).token for cat in scenario.categories]
    line = "%d,%s" + ",%d" * len(columns)
    return "\n".join([header, *(line % row for row in zip(scenario.ids, tokens, *columns))]) + "\n"


def _bits_text(outcomes: np.ndarray, last: bool) -> np.ndarray:
    """The node-major bits text of the (rows, n) `outcomes`, as (n, rows) uint8: '1' where the
    node's packet was transmitted that period, '0' where it expired; and one column more, of
    newlines, when `last`, for the periods that end the run."""
    rows, n = outcomes.shape
    text = np.empty((n, rows + last), dtype=np.uint8)
    np.not_equal(outcomes.T, int(Outcome.EXPIRED), out=text[:, :rows])
    text[:, :rows] += ord("0")
    text[:, rows:] = ord("\n")
    return text


class _PointTally:
    """What a point's files hold, filled one chunk of periods at a time: each node's outcome
    counts and int64 elapsed sum, and its bits file, one line of '1'/'0' per node.

    The bits file is node-major, so it is sized once and each chunk's text is written in place
    as it comes, with one `os.pwrite` per node row, at the row's offset plus the chunk's first
    period; the chunk that ends the run carries the rows' newlines.  So the tally holds no text
    beyond the chunk's own, whatever the run's length.
    """

    def __init__(self, scenario: SpatialScenario, periods: int, bits_file):
        n = scenario.n_nodes
        self.scenario = scenario
        self.counts = np.zeros((len(Outcome), n), dtype=np.int64)
        self.elapsed_sums = np.zeros(n, dtype=np.int64)  # an expired period adds -1
        self.fd, self.periods = bits_file.fileno(), periods
        os.ftruncate(self.fd, n * (periods + 1))

    def add(self, first: int, outcomes: np.ndarray, elapsed: np.ndarray) -> None:
        """Tally periods first, first + 1, ... from their (rows, n) outcomes and elapsed, and
        write their bits text."""
        self.counts += _outcome_counts(outcomes)
        self.elapsed_sums += elapsed.sum(axis=0, dtype=np.int64)
        rows = outcomes.shape[0]
        for row, data in enumerate(_bits_text(outcomes, first + rows == self.periods)):
            if os.pwrite(self.fd, data, row * (self.periods + 1) + first) != data.nbytes:
                raise OSError("short write to a bits file")

    def outcome_csv(self) -> str:
        return _per_node_csv(self.scenario, OUTCOME_CSV_HEADER, *self.counts)

    def stats_csv(self) -> str:
        return _stats_csv(self.scenario, self.counts, self.elapsed_sums)


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


def read_point(bits_path: Path, stats_path: Path, groups: list[Category | None]) -> list[tuple[BitSums, np.ndarray]]:
    """One simulated point read back from the bits and stats files `simulate_points` wrote: for
    each of `groups` (a `Category`, or None for every node), the `BitSums` of its nodes' bits
    rows and their (k,) int64 elapsed sums, in node order.

    The node-major bits file is read one block of whole rows at a time, about
    `_READ_BLOCK_BYTES`, and each block is checked and added to the groups' sums before the
    next is read, so what a point holds does not grow with the run's length.  Raises
    ValueError when the bits/stats pair is malformed or inconsistent: too short bits rows,
    rows of different lengths (each row, the last one too, ends in a single newline), a bad
    stats line, different node counts, a bits row with a character other than '0' and '1', or
    a tx_count that differs from the node's count of '1's.  A foreign character is raised
    only once every block's row ends are checked, and a tx_count once every block's
    characters are, so a file's reason does not depend on which block holds its faults.
    """
    with open(bits_path, "rb") as fh:
        width = len(fh.readline())  # a row's periods and its newline
        if width - 1 < MIN_PERIODS:
            raise ValueError(f"{bits_path.name}: {max(width - 1, 0)} periods, the estimators need {MIN_PERIODS}")
        n, ragged = divmod(os.fstat(fh.fileno()).st_size, width)
        if ragged:
            raise ValueError(f"{bits_path.name}: bits rows differ in length")
        categories, tx, elapsed_sums = _read_stats(stats_path)
        if len(categories) != n:
            raise ValueError(f"{bits_path.name} has {n} nodes but {stats_path.name} has {len(categories)}")
        members = [np.ones(n, dtype=bool) if group is None else categories == group for group in groups]
        sums = [BitSums(width - 1) for _ in groups]
        ones = np.empty(n, dtype=np.int64)  # each row's count of '1's
        foreign = None  # the first row with a character other than '0' and '1'; after it, blocks are only checked
        fh.seek(0)
        step = max(1, _READ_BLOCK_BYTES // width)
        for first in range(0, n, step):
            raw = np.frombuffer(fh.read(step * width), dtype=np.uint8).reshape(-1, width)
            body = raw[:, :-1]
            if (raw[:, -1] != ord("\n")).any():
                raise ValueError(f"{bits_path.name}: bits rows differ in length")
            bits = body == ord("1")
            if body.min() < ord("0") or body.max() > ord("1"):
                if (body == ord("\n")).any():
                    raise ValueError(f"{bits_path.name}: bits rows differ in length")
                if foreign is None:
                    foreign = first + np.flatnonzero((~bits & (body != ord("0"))).any(axis=1))[0]
            if foreign is None:
                rows = slice(first, first + bits.shape[0])
                ones[rows] = np.count_nonzero(bits, axis=1)
                for group_sums, member in zip(sums, members):
                    group_sums.add(bits[member[rows]])
    if foreign is not None:
        raise ValueError(f"{bits_path.name} row {foreign + 1}: a character other than '0' and '1'")
    bad = np.flatnonzero(ones != tx)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{stats_path.name} node row {i + 1}: tx_count {tx[i]} but {ones[i]} '1's in {bits_path.name}")
    return [(group_sums, elapsed_sums[member]) for group_sums, member in zip(sums, members)]


def _read_stats(stats_path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stats file's (n,) int64 `Category` values, tx counts and elapsed sums."""
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
    return tuple(np.array(column, dtype=np.int64) for column in (cats, tx, elapsed_sums))


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

    return SimOutcome(config, outcomes, elapsed, _fold(_simulated_chunks(config), gather))


def simulate_points(out: Path, points) -> Iterator[tuple[tuple[str, str, str], dict]]:
    """Simulate each (tag, config) of `points`, in order, and write the point's files into
    `out`, the bytes `SimOutcome.to_*` give for `run_simulation(config)`; yield, point by
    point, the files' names and the run's diagnostics.

    Each run is computed when its point is asked for, and its files are tallied and its bits
    file written as it is computed, an aligned run chunk by chunk and a phase-offset run as
    one chunk, so no aligned run's (periods, n) arrays are kept: what a point holds is one
    chunk and its bits text (see `_PointTally`).
    """
    for tag, config in points:
        names = point_files(tag)
        with open(out / names[1], "wb") as bits_file:
            tally = _PointTally(config.scenario, config.n_periods, bits_file)
            diagnostics = _fold(_simulated_chunks(config), tally.add)
        (out / names[0]).write_bytes(tally.outcome_csv().encode("ascii"))
        (out / names[2]).write_bytes(tally.stats_csv().encode("ascii"))
        yield names, diagnostics


def _simulated_chunks(config: SimConfig) -> Iterator[tuple]:
    """`config`'s run as (first period, outcomes, elapsed, diagnostics) chunks of consecutive
    periods: a phase-offset run in one, an aligned run's as computed."""
    slots = config.params.slots_per_beacon
    if config.policy.cw > slots:
        warnings.warn(
            f"contention window {config.policy.cw} exceeds {slots} slots per beacon; "
            "large draws will always expire",
            stacklevel=3,
        )
    return _run_phase_offsets(config) if config.random_phase_offsets else _run_aligned(config)


def _fold(chunks, add) -> dict:
    """Pass each chunk's first period, outcomes and elapsed to `add`; return the run's
    diagnostics, the last chunk's with the event counts summed over all chunks."""
    counts = dict.fromkeys(("sync_events", "hn_events", "dual_label_events"), 0)
    for first, outcomes, elapsed, diag in chunks:
        add(first, outcomes, elapsed)
        for key in counts:
            counts[key] += diag[key]
    return {**diag, **counts}


def _run_phase_offsets(config: SimConfig):
    """Yield a phase-offset run as one chunk (see `_simulated_chunks`): one walker row of all
    its periods, node i's first starting at its offset; its seed's stream gives the offsets
    first, then the draws."""
    scenario, params = config.scenario, config.params
    adjacency = build_adjacency(scenario, config.sense_range)
    rng = np.random.default_rng(config.seed)
    offsets = rng.integers(0, params.slots_per_beacon, size=scenario.n_nodes)
    # the draws are passed on unnamed, so the walk lets them go before it classifies the run
    yield 0, *_run_walker(
        draw_matrix(config.policy, scenario.categories, config.n_periods, rng)[None],
        offsets, adjacency, params.slots_per_beacon, params.tx_occupancy_slots,
    )


# Bytes of a bits file `read_point` checks and sums at a time (whole rows, at least one).  A
# block holds a few times its size in temporaries, and smaller ones made `report` slower
# (64 kB: 0.11 s against 0.07 s over the 24 points of a 20 000-period full-connectivity grid).
_READ_BLOCK_BYTES = 1 << 18

# Node-periods an aligned run draws and simulates at a time, on either engine, whatever the
# run's length.  A streamed chunk holds about 110 bytes per node-period on the walker (nearly
# all of it the classification of every transmission), more where more of them
# transmit, and about 32 on the closed form (its draws, temporaries and output rows, the
# outcome count and the bits text).  Chunks of 2^16 held 9.3 MB on the walker at 10 nodes,
# and on the closed form made glibc trim the heap after each chunk and fault it in again.
_CHUNK_NODE_PERIODS = 1 << 14


def _run_aligned(config: SimConfig):
    """Yield an aligned run's chunks (see the module docstring) as (first period, outcomes,
    elapsed, diagnostics), each of `_CHUNK_NODE_PERIODS // n` periods (at least one; the last
    takes the rest) and with arrays of its own: the closed form on a complete graph, else one
    walker row per period."""
    scenario = config.scenario
    periods, n = config.n_periods, scenario.n_nodes
    slots, occupancy = config.params.slots_per_beacon, config.params.tx_occupancy_slots
    adjacency = build_adjacency(scenario, config.sense_range)
    complete = (adjacency | np.eye(n, dtype=bool)).all()
    rng = np.random.default_rng(config.seed)
    step = min(periods, max(1, _CHUNK_NODE_PERIODS // n))
    for first in range(0, periods, step):
        rows = min(step, periods - first)
        draws = draw_matrix(config.policy, scenario.categories, rows, rng)
        if complete:
            outcomes, elapsed = np.empty((rows, n), dtype=np.int8), np.empty((rows, n), dtype=np.int32)
            diag = _run_full_connectivity(draws, slots, occupancy, outcomes, elapsed)
        else:
            outcomes, elapsed, diag = _run_walker(draws[:, None], np.zeros(n, dtype=np.int64), adjacency, slots, occupancy)
        del draws
        yield first, outcomes, elapsed, diag


def _run_full_connectivity(draws: np.ndarray, slots: int, occupancy: int, outcomes: np.ndarray, elapsed: np.ndarray):
    """Closed-form per-period outcomes under full connectivity with aligned periods,
    written into `outcomes` and `elapsed` (C-contiguous, shaped like `draws`); returns
    the diagnostics.

    All stations freeze and decrement in lockstep, so transmissions happen in
    draw order: the k-th distinct draw value u transmits at slot u + k*occupancy
    (k counted from 0), stations sharing a draw start together (SYNC), and a
    start slot beyond the period expires.  k <= u, so a start is at most
    slots * (occupancy + 1), which `MacParameters` keeps inside int32.
    Draws are clipped at `slots` (see the module docstring), which changes
    neither the order nor the ties of the draws below it.  Each period sorts
    the keys (clipped draw << b) | node, with b bits for the node, in the
    smallest unsigned type of 16 bits or more that holds them (uint16 up to
    cw 512 at 128 nodes).  The keys are unique, so their order is the stable order by
    draw, and a key's low bits give its node back.  Each node-period's start
    slot (-1 where it expires) and its outcome (EXPIRED, else COLLIDED_SYNC
    where its draw is tied and DELIVERED where not) are computed in key order
    and scattered into `elapsed` and `outcomes` through one index.
    """
    periods, n = draws.shape
    shift = (n - 1).bit_length()
    top = min(int(draws.max()), slots)
    # at least 16 bits: numpy sorts short rows of 8-bit keys about twice as slowly
    key_type = np.promote_types(np.min_scalar_type(top << shift | (n - 1)), np.uint16)
    keys = np.minimum(draws, top, out=np.empty(draws.shape, key_type), casting="unsafe")
    keys <<= shift
    keys |= np.arange(n, dtype=keys.dtype)
    keys.sort(axis=1)
    value = keys >> shift
    # new[i]: flat entry i starts a run of equal draws in its period; the last entry closes the last period
    flat = value.reshape(-1)
    new = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:-1])
    new[::n] = True
    tie = np.logical_and(new[:-1], new[1:])
    np.logical_not(tie, out=tie)
    # the running count of runs, less its period's first, is the number of smaller distinct draws
    tx = np.cumsum(new[:-1], dtype=np.int32).reshape(periods, n)
    tx -= tx[:, :1]
    tx *= occupancy
    np.add(tx, value, out=tx, casting="unsafe")  # value <= slots, and elapsed is int32 anyway
    expired = np.greater_equal(tx, slots, out=new[:-1].reshape(periods, n))  # the run flags are spent
    np.copyto(tx, -1, where=expired)
    label = tie.view(np.int8)  # COLLIDED_SYNC where tied, else DELIVERED
    np.copyto(label, int(Outcome.EXPIRED), where=expired.reshape(-1))
    index = np.bitwise_and(keys, (1 << shift) - 1, dtype=np.intp)
    index += np.arange(0, periods * n, n)[:, None]
    index = index.reshape(-1)
    elapsed.reshape(-1)[index] = tx.reshape(-1)
    outcomes.reshape(-1)[index] = label
    return {
        "engine": "full-connectivity",
        "sync_events": int(np.count_nonzero(np.equal(label, int(Outcome.COLLIDED_SYNC), out=new[:-1]))),
        "hn_events": 0,
        "dual_label_events": 0,
    }


def _compiled(source: Path) -> Path:
    """The shared library built from the C file `source`: `__pycache__/<stem>-<SHA-256 of the
    source>.so` beside it, compiled with the system `cc` first if it is not there.

    The compiler writes a temporary file in the cache, which then replaces the library's name,
    so processes that build it at once each load a whole library.  Raises ImportError when it
    cannot be built.
    """
    code = source.read_bytes()
    cache = source.parent / "__pycache__"
    library = cache / f"{source.stem}-{hashlib.sha256(code).hexdigest()}.so"
    if library.exists():
        return library
    try:
        cache.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            cc = ["cc", "-O2", "-shared", "-fPIC", "-x", "c", "-o", partial, "-"]
            subprocess.run(cc, input=code, capture_output=True, check=True)
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode(errors="replace").strip() if isinstance(exc, subprocess.CalledProcessError) else exc
        raise ImportError(
            f"priobeacon needs a C compiler, `cc` on PATH, to build {source.name} into {cache}: {detail}"
        ) from exc
    return library


_walk_rows = ctypes.CDLL(str(_compiled(Path(__file__).with_name("_walk.c")))).walk_rows
_walk_rows.restype = ctypes.c_int
_walk_rows.argtypes = [
    *[ctypes.c_int64] * 3,
    np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS"),  # draws
    np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),  # offsets
    np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS"),  # adjacency
    ctypes.c_int64,
    ctypes.c_int64,
    np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS,WRITEABLE"),  # elapsed
]


def _run_walker(draws, offsets, adjacency, slots: int, occupancy: int):
    """Walk a run's independent rows of consecutive periods, any adjacency.

    draws is (rows, periods, n), offsets (n,) and adjacency the symmetric (n, n) sensing graph:
    node i's period p of a row starts at offsets[i] + p * slots on that row's clock.  The walk
    lets the draws go before it classifies the run.

    The C step loop of `_walk.c` walks one row at a time, jumping from one transmission start
    to the next, and clips each draw at `slots` as it reads it (see the module docstring).  A
    node waiting with counter c as of time tau, sensing the medium busy until b (the latest end
    of the transmissions it senses), starts at s = max(b, tau) + c unless a transmission it
    senses begins first.  Between two starts no busy time changes, so no s does either.  A
    packet whose s is not before its period end e expires there; the node's next packet counts
    down its fresh draw from max(b, e).  Busy times only rise, so an s only rises, and an
    expiry is known as soon as a busy time pushes s to e.

    Per node the walk keeps its current packet, the period end, resume = max(b, tau) and
    start = resume + the counter left at resume, from the node's first packet, whose period
    starts at its offset, until its packets run out.  One step costs O(n): each sent or expired
    packet gives way to the node's next, and the earliest start t is taken.  The nodes starting
    then go on air together (adjacent ones collide SYNC), each until min(t + occupancy, its
    period end), and their elapsed slots are written.  Every other counter is settled to t; a
    listener's resume rises to the latest such end it hears, and its start by as much as its
    resume rose past max(resume, t).  A row ends when its nodes' packets have run out.

    The run's transmissions then go to `classify_collision` once, from `elapsed`, with row r
    placed at r * span on one run clock (span is the run's last offset plus periods * slots)
    and each transmission cut at its period end.  Returns (outcomes, elapsed, diagnostics), the
    rows of periods stacked into (rows * periods, n).  Tests check the walker against the
    closed form on complete graphs and against a per-slot reference walker on random adjacency
    in both layouts, and `classify_collision` against a pairwise definition.
    """
    rows, periods, n = draws.shape
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets.shape != (n,) or adjacency.shape != (n, n):
        raise ValueError(f"{n} nodes need (n,) offsets and an (n, n) adjacency")
    # int32 draws go to the walk as they are; wider ones are clipped at slots, below 2^31
    if draws.dtype == np.int32:
        draws = np.ascontiguousarray(draws)
    else:
        draws = np.minimum(draws, slots, out=np.empty(draws.shape, np.int32), casting="unsafe")
    hears = np.ascontiguousarray(adjacency, dtype=np.uint8)
    elapsed = np.empty((rows, periods, n), dtype=np.int32)
    if _walk_rows(rows, periods, n, draws, offsets, hears, slots, occupancy, elapsed):
        raise MemoryError("the walk could not allocate its per-node state")
    del draws

    row, period, node = np.nonzero(elapsed >= 0)
    base = row * (int(offsets.max()) + periods * slots) + offsets[node] + period * slots
    start = base + elapsed[row, period, node]
    labels, diag = classify_collision(node, start, np.minimum(start + occupancy, base + slots), adjacency)
    outcomes = np.full(elapsed.shape, int(Outcome.EXPIRED), dtype=np.int8)
    outcomes[row, period, node] = labels
    diag["engine"] = "slot-walker"
    return outcomes.reshape(-1, n), elapsed.reshape(-1, n), diag
