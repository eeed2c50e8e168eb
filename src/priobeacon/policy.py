"""Backoff-counter allocation policies.

Two schemes over a fixed contention window of cw slots:

* traditional -- every station draws uniformly from the full range [0, cw-1]
  (single-stage: broadcast has no retransmission, so the window never grows).
* proposed -- the range is cut into three priority chunks at floor((cw-1)/3)
  and floor(2(cw-1)/3); the most dangerous category gets the lowest chunk.
  A cut point itself belongs to the lower (more dangerous) chunk, so the
  three chunks are disjoint integer ranges that partition {0, ..., cw-1}.

Uncategorized stations contend with the highest chunk, CAT3's.  This rule
lives only in `backoff_range`, which both the simulator's draws and the
analytic model's contender classes read.  Whether uncategorized stations
contend at all is an `UncategorizedMode` (config key `sim.uncategorized`),
applied where a grid point's stations are chosen; whether they are
reported, by listing `uncat` in `policy.categories`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Category

__all__ = ["PolicyKind", "BackoffPolicy", "BackoffRange", "backoff_range", "draw_matrix"]


class PolicyKind(Enum):
    TRADITIONAL = "traditional"
    PROPOSED = "proposed"


class UncategorizedMode(Enum):
    """Whether uncategorized stations contend (in CAT3's range) or stay silent,
    left out of every grid point."""

    CONTEND = "contend"
    SILENT = "silent"


@dataclass(frozen=True)
class BackoffRange:
    """Inclusive integer slot range [lo, hi] a station draws its counter from."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"invalid backoff range [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BackoffPolicy:
    kind: PolicyKind
    cw: int

    def __post_init__(self):
        if not (1 <= self.cw < 2**63):  # draws are int64
            raise ValueError(f"contention window must be a positive slot count below 2^63, not {self.cw}")
        if self.kind is PolicyKind.PROPOSED and self.cw < 3:
            raise ValueError("proposed policy needs cw >= 3 for three non-degenerate chunks")

    @staticmethod
    def traditional(cw: int) -> "BackoffPolicy":
        return BackoffPolicy(PolicyKind.TRADITIONAL, cw)

    @staticmethod
    def proposed(cw: int) -> "BackoffPolicy":
        return BackoffPolicy(PolicyKind.PROPOSED, cw)

    def shared_range(self) -> "BackoffRange | None":
        """The one range every category draws from, or None when `backoff_range`
        gives the categories different ranges (then the category matters)."""
        ranges = {backoff_range(self, cat) for cat in Category}
        return ranges.pop() if len(ranges) == 1 else None


def backoff_range(policy: BackoffPolicy, category: Category) -> BackoffRange:
    """Backoff-counter range for a station of the given category.

    Traditional ignores the category.  Proposed gives each category its
    chunk, as the module docstring states.
    """
    top = policy.cw - 1
    if policy.kind is PolicyKind.TRADITIONAL:
        return BackoffRange(0, top)
    cut1 = top // 3
    cut2 = (2 * top) // 3
    if category is Category.CAT1:
        return BackoffRange(0, cut1)
    if category is Category.CAT2:
        return BackoffRange(cut1 + 1, cut2)
    return BackoffRange(cut2 + 1, top)


def draw_matrix(policy: BackoffPolicy, categories: np.ndarray, n_periods: int, rng: np.random.Generator) -> np.ndarray:
    """(n_periods, n_nodes) matrix of backoff draws, one column per node.

    Column i draws uniformly from node i's range; a single generator call
    keeps the draw stream independent of how the matrix is later consumed.
    Consecutive calls on one generator draw what one call of their rows
    would, which lets `sim` draw a run chunk by chunk.  Scalar bounds, used
    when every category shares one range, draw the same values as
    per-column bounds of that range, and faster.  The matrix is int32 when
    every draw fits (cw - 1 < 2^31), else int64: numpy draws a range of
    up to 2^32 values from 32-bit outputs whatever the dtype, so both
    dtypes give the same values and leave the generator in the same state.

    Per-column bounds are drawn at scalar speed from one raw draw of 32-bit
    outputs, mapped the way numpy maps them.  For a range of w <= 2^32
    values numpy takes the stream's next 32-bit output u and returns lo +
    ((u * w) >> 32) (Lemire's method), rejecting u, and taking the next,
    only when the low 32 bits of u * w fall below (2^32 - w) mod w; it
    returns lo without drawing when w is 1.  So where no element is rejected
    the map gives numpy's values and leaves the generator where numpy would;
    rejection is rare (probability below w / 2^32 per element).  Width-1
    columns, widths above 2^32 and any rejected element take numpy's call.
    """
    dtype = np.int32 if policy.cw - 1 < 2**31 else np.int64
    size = (n_periods, categories.shape[0])
    shared = policy.shared_range()
    if shared is not None:
        return rng.integers(shared.lo, shared.hi + 1, size=size, dtype=dtype)
    bounds = np.array([(r.lo, r.hi) for r in (backoff_range(policy, c) for c in Category)], dtype=np.int64)
    lo, hi = bounds[categories - int(Category.CAT1)].T
    width = hi - lo + 1
    if ((width > 1) & (width <= 2**32)).all():
        state = rng.bit_generator.state
        w = width.astype(np.uint64)
        uw = rng.integers(0, 2**32, size=size, dtype=np.uint32).astype(np.uint64)
        uw *= w
        if not (uw.astype(np.uint32) < ((2**32 - w) % w).astype(np.uint32)).any():  # no u rejected
            uw >>= 32
            uw += lo.astype(np.uint64)
            return uw.astype(dtype)
        rng.bit_generator.state = state
    return rng.integers(lo, hi + 1, size=size, dtype=dtype)
