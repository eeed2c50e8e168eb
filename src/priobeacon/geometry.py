"""Spatial scenario generation for danger-centric vehicular broadcast.

Drops vehicle nodes uniformly on a bounded plane (fixed-count or Poisson
count), measures each node's distance to a danger location, assigns a risk
category from distance thresholds, and derives the carrier-sense adjacency
used for collision classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, IntEnum

import numpy as np

__all__ = [
    "Category",
    "DropMode",
    "RegionSpec",
    "CategoryThresholds",
    "SpatialScenario",
    "categorize",
    "drop_nodes",
    "build_adjacency",
    "category_counts",
    "category_mix",
    "save_scenario",
]


class Category(IntEnum):
    """Crash-risk category; lower value = closer to the danger source."""

    CAT1 = 1
    CAT2 = 2
    CAT3 = 3
    UNCATEGORIZED = 4

    @property
    def token(self) -> str:
        return _CATEGORY_TOKENS[self]


_CATEGORY_TOKENS = {
    Category.CAT1: "cat1",
    Category.CAT2: "cat2",
    Category.CAT3: "cat3",
    Category.UNCATEGORIZED: "uncat",
}
_TOKEN_CATEGORIES = {tok: cat for cat, tok in _CATEGORY_TOKENS.items()}


def category_from_token(token: str) -> Category:
    try:
        return _TOKEN_CATEGORIES[token]
    except KeyError:
        raise ValueError(f"unknown category token {token!r}") from None


class DropMode(Enum):
    """How the node count is chosen: deterministic round(density*area) or a Poisson draw."""

    FIXED_COUNT = "fixedcount"
    POISSON_COUNT = "poissoncount"


class SweepMode(Enum):
    """How a grid point's n_sta vehicles come from the drop: a subsample of it
    (`SpatialScenario.subsample`), or a fresh drop at density n_sta / area (`drop_nodes`)."""

    SUBSAMPLE = "subsample"
    RESCALE = "rescale"


@dataclass(frozen=True)
class RegionSpec:
    """Axis-aligned rectangle [0, width] x [0, height] containing the danger point.

    The danger point (danger_x, danger_y) defaults to the region center.
    """

    width: float = 2000.0
    height: float = 2000.0
    danger_x: float | None = None
    danger_y: float | None = None

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf and self.area < math.inf):
            raise ValueError(f"width, height and area must be positive and finite, not {self.width} x {self.height}")
        if self.danger_x is None:
            object.__setattr__(self, "danger_x", self.width / 2.0)
        if self.danger_y is None:
            object.__setattr__(self, "danger_y", self.height / 2.0)
        if not (0.0 <= self.danger_x <= self.width and 0.0 <= self.danger_y <= self.height):
            raise ValueError(f"danger point ({self.danger_x}, {self.danger_y}) must lie inside the region")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class CategoryThresholds:
    """Distance cut points; boundaries belong to the closer (more dangerous) category."""

    th1: float = 300.0
    th2: float = 500.0
    th3: float = 700.0

    def __post_init__(self):
        if not (0.0 < self.th1 < self.th2 < self.th3):
            raise ValueError("thresholds must satisfy 0 < th1 < th2 < th3")


_NODE_ARRAYS = ("ids", "positions", "distances", "categories")


@dataclass(frozen=True, eq=False)
class SpatialScenario:
    """A drop of n vehicles.  Node i is `ids[i]` at `positions[i]` (x, y), `distances[i]`
    metres from the danger point, of category `categories[i]` (a `Category` value).
    The node arrays are read-only, so analyze and simulate can share a drop."""

    region: RegionSpec
    thresholds: CategoryThresholds
    ids: np.ndarray          # (n,) int64
    positions: np.ndarray    # (n, 2) float
    distances: np.ndarray    # (n,) float
    categories: np.ndarray   # (n,) int64
    density: float
    seed: int
    drop_mode: DropMode

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name)).view() for name in _NODE_ARRAYS}
        n = len(arrays["ids"])
        if any(arr.shape != ((n, 2) if name == "positions" else (n,)) for name, arr in arrays.items()):
            raise ValueError("scenario node arrays disagree: " + ", ".join(f"{k} {a.shape}" for k, a in arrays.items()))
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def select(self, keep) -> "SpatialScenario":
        """The nodes `keep` picks, an index array (in its order) or a boolean mask (in node order)."""
        return replace(self, **{name: getattr(self, name)[keep] for name in _NODE_ARRAYS})

    def subsample(self, n_sta: int, rng: np.random.Generator) -> "SpatialScenario":
        """Uniform random subsample of n_sta nodes, categories preserved, node order kept."""
        if not (1 <= n_sta <= self.n_nodes):
            raise ValueError(f"cannot subsample {n_sta} of {self.n_nodes} nodes")
        return self.select(np.sort(rng.choice(self.n_nodes, size=n_sta, replace=False)))


def categorize(distances, thresholds: CategoryThresholds) -> np.ndarray:
    """Map an array of distances to their risk categories (int64 `Category` values).

    Closed upper bounds: a distance exactly at a threshold belongs to the
    closer (more dangerous) category.
    """
    d = np.asarray(distances, dtype=float)
    if (d < 0).any():
        raise ValueError("distance must be non-negative")
    return np.searchsorted((thresholds.th1, thresholds.th2, thresholds.th3), d, side="left") + int(Category.CAT1)


def drop_nodes(
    region: RegionSpec,
    thresholds: CategoryThresholds,
    density: float,
    mode: DropMode = DropMode.FIXED_COUNT,
    seed: int = 0,
) -> SpatialScenario:
    """Generate a static scenario: i.i.d. uniform node positions over the region.

    FIXED_COUNT places round(density * area) nodes; POISSON_COUNT draws the
    count from Poisson(density * area). Identical arguments replay the exact
    same scenario.
    """
    mean_count = density * region.area
    if not (density > 0 and mean_count < math.inf):
        raise ValueError("density must be positive, with density * area finite")
    rng = np.random.default_rng(seed)
    if mode is DropMode.FIXED_COUNT:
        count = round(mean_count)
    else:
        count = int(rng.poisson(mean_count))
    xs = rng.uniform(0.0, region.width, size=count)
    ys = rng.uniform(0.0, region.height, size=count)
    distances = np.hypot(xs - region.danger_x, ys - region.danger_y)
    return SpatialScenario(
        region=region,
        thresholds=thresholds,
        ids=np.arange(count),
        positions=np.column_stack((xs, ys)),
        distances=distances,
        categories=categorize(distances, thresholds),
        density=density,
        seed=seed,
        drop_mode=mode,
    )


def build_adjacency(scenario: SpatialScenario, sense_range: float) -> np.ndarray:
    """Boolean adjacency matrix: nodes are neighbors iff pairwise distance <= sense_range (all pairs at inf).

    Symmetric and irreflexive.
    """
    if not (sense_range > 0):
        raise ValueError("sense_range must be positive")
    pos = scenario.positions
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    adj = dist <= sense_range
    np.fill_diagonal(adj, False)
    return adj


def category_counts(scenario: SpatialScenario) -> dict[Category, int]:
    counts = np.bincount(scenario.categories, minlength=len(Category) + 1)
    return {c: int(counts[c]) for c in Category}


def category_mix(scenario: SpatialScenario) -> dict[Category, float]:
    """Empirical category proportions of the scenario (sums to 1)."""
    if scenario.n_nodes == 0:
        raise ValueError("cannot compute category mix of an empty scenario")
    counts = category_counts(scenario)
    return {c: counts[c] / scenario.n_nodes for c in Category}


# Line-oriented scenario text format.  Header lines: region, thresholds,
# density, seed, mode; then one line per node `id x y distance category`.
# Distances and coordinates carry 6 decimal places.

def scenario_to_text(scenario: SpatialScenario) -> str:
    lines = [
        "region %.6f %.6f %.6f %.6f"
        % (scenario.region.width, scenario.region.height, scenario.region.danger_x, scenario.region.danger_y),
        "thresholds %.6f %.6f %.6f" % (scenario.thresholds.th1, scenario.thresholds.th2, scenario.thresholds.th3),
        "density %s" % repr(scenario.density),
        "seed %d" % scenario.seed,
        "mode %s" % scenario.drop_mode.value,
    ]
    for i, (x, y), d, c in zip(*(getattr(scenario, name).tolist() for name in _NODE_ARRAYS)):
        lines.append("%d %.6f %.6f %.6f %s" % (i, x, y, d, Category(c).token))
    return "\n".join(lines) + "\n"


def save_scenario(scenario: SpatialScenario, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(scenario_to_text(scenario))

