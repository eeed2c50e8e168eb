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
    "Point2D",
    "RegionSpec",
    "CategoryThresholds",
    "VehicleNode",
    "SpatialScenario",
    "distance_to_danger",
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


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")


@dataclass(frozen=True)
class RegionSpec:
    """Axis-aligned rectangle [0, width] x [0, height] containing the danger point.

    The danger location defaults to the region center.
    """

    width: float = 2000.0
    height: float = 2000.0
    danger: Point2D = None  # type: ignore[assignment]

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("region must have positive width and height")
        if self.danger is None:
            object.__setattr__(self, "danger", Point2D(self.width / 2.0, self.height / 2.0))
        if not (0.0 <= self.danger.x <= self.width and 0.0 <= self.danger.y <= self.height):
            raise ValueError("danger point must lie inside the region")

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


@dataclass(frozen=True)
class VehicleNode:
    id: int
    position: Point2D
    distance_to_danger: float
    category: Category


@dataclass(frozen=True)
class SpatialScenario:
    region: RegionSpec
    thresholds: CategoryThresholds
    nodes: tuple[VehicleNode, ...]
    density: float
    seed: int
    drop_mode: DropMode

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        """(n, 2) array of node coordinates in node order."""
        return np.array([(n.position.x, n.position.y) for n in self.nodes], dtype=float).reshape(-1, 2)

    def categories(self) -> np.ndarray:
        return np.array([int(n.category) for n in self.nodes], dtype=np.int64)

    def subsample(self, n_sta: int, rng: np.random.Generator) -> "SpatialScenario":
        """Uniform random subsample of n_sta nodes, categories preserved, node order kept."""
        if not (1 <= n_sta <= self.n_nodes):
            raise ValueError(f"cannot subsample {n_sta} of {self.n_nodes} nodes")
        keep = np.sort(rng.choice(self.n_nodes, size=n_sta, replace=False))
        return replace(self, nodes=tuple(self.nodes[i] for i in keep))


def distance_to_danger(position: Point2D, danger: Point2D) -> float:
    """Euclidean distance in meters between a node position and the danger point."""
    return math.hypot(position.x - danger.x, position.y - danger.y)


def categorize(d: float, thresholds: CategoryThresholds) -> Category:
    """Map a distance to its risk category.

    Closed upper bounds: a distance exactly at a threshold belongs to the
    closer (more dangerous) category.
    """
    if d < 0:
        raise ValueError("distance must be non-negative")
    if d <= thresholds.th1:
        return Category.CAT1
    if d <= thresholds.th2:
        return Category.CAT2
    if d <= thresholds.th3:
        return Category.CAT3
    return Category.UNCATEGORIZED


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
    if not (density > 0):
        raise ValueError("density must be positive")
    rng = np.random.default_rng(seed)
    mean_count = density * region.area
    if mode is DropMode.FIXED_COUNT:
        count = round(mean_count)
    else:
        count = int(rng.poisson(mean_count))
    xs = rng.uniform(0.0, region.width, size=count)
    ys = rng.uniform(0.0, region.height, size=count)
    nodes = []
    for i in range(count):
        pos = Point2D(float(xs[i]), float(ys[i]))
        d = distance_to_danger(pos, region.danger)
        nodes.append(VehicleNode(id=i, position=pos, distance_to_danger=d, category=categorize(d, thresholds)))
    return SpatialScenario(
        region=region,
        thresholds=thresholds,
        nodes=tuple(nodes),
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
    pos = scenario.positions()
    n = pos.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    adj = dist <= sense_range
    np.fill_diagonal(adj, False)
    return adj


def category_counts(scenario: SpatialScenario) -> dict[Category, int]:
    counts = {c: 0 for c in Category}
    for node in scenario.nodes:
        counts[node.category] += 1
    return counts


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
        % (scenario.region.width, scenario.region.height, scenario.region.danger.x, scenario.region.danger.y),
        "thresholds %.6f %.6f %.6f" % (scenario.thresholds.th1, scenario.thresholds.th2, scenario.thresholds.th3),
        "density %s" % repr(scenario.density),
        "seed %d" % scenario.seed,
        "mode %s" % scenario.drop_mode.value,
    ]
    for node in scenario.nodes:
        lines.append(
            "%d %.6f %.6f %.6f %s"
            % (node.id, node.position.x, node.position.y, node.distance_to_danger, node.category.token)
        )
    return "\n".join(lines) + "\n"


def save_scenario(scenario: SpatialScenario, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(scenario_to_text(scenario))

