"""Experiment configuration: flat key-value text with sections, plus seed derivation.

The file format is INI (configparser): sections [scenario], [policy],
[contention], [mac], [sim], [seeds], [report], [output].  Every key has a
default, so an empty file is a valid configuration.  `canonical_text`
re-serializes a configuration into a normalized form whose parse round-trips
exactly.

Seeds: all randomness derives from [seeds] master through splitmix64.
Derived seed k is the k-th output of a splitmix64 stream whose state starts
at master: seed_k = mix(master + (k+1) * 0x9E3779B97F4A7C15).  Index 0 seeds
the scenario drop; grid point i (0-based, enumeration order: policies, then
cw values, then n_sta values as listed) uses index 1+2i for the simulation
and 2+2i for the sweep subsample.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from enum import Enum
from io import StringIO
from typing import get_type_hints

from .geometry import Category, CategoryThresholds, DropMode, RegionSpec, SweepMode, category_from_token
from .analytic import MacParameters
from .metrics import MIN_PERIODS
from .policy import BackoffPolicy, PolicyKind, UncategorizedMode
from .sim import SimConfig

__all__ = ["ExperimentConfig", "parse_config", "parse_config_text", "canonical_text", "derive_seed", "splitmix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 step: advance the state by the golden gamma and finalize."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, index: int) -> int:
    """index-th output of the splitmix64 stream seeded at master."""
    if index < 0:
        raise ValueError("seed index must be non-negative")
    return splitmix64((master + index * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class ExperimentConfig:
    # Defaults the library classes own are read from them, not restated.  A field's annotation is
    # its config key's kind, which `_KINDS` parses and formats.
    # scenario
    width: float = RegionSpec.width
    height: float = RegionSpec.height
    danger_x: float | None = None
    danger_y: float | None = None
    density: float = 2e-5
    th1: float = CategoryThresholds.th1
    th2: float = CategoryThresholds.th2
    th3: float = CategoryThresholds.th3
    drop_mode: DropMode = DropMode.FIXED_COUNT
    # policy grid
    policies: tuple[PolicyKind, ...] = (PolicyKind.TRADITIONAL, PolicyKind.PROPOSED)
    cw_values: tuple[int, ...] = (15, 127, 511)
    categories: tuple[Category, ...] = (Category.CAT1, Category.CAT2, Category.CAT3)
    # contention grid
    n_sta: tuple[int, ...] = (10, 20, 40, 80)
    sweep_mode: SweepMode = SweepMode.SUBSAMPLE
    # mac
    t_ibi: float = MacParameters.t_ibi
    t_slot: float = MacParameters.t_slot
    difs: float = MacParameters.difs
    sifs: float = MacParameters.sifs
    header_airtime: float = MacParameters.header_airtime
    payload_bytes: int = MacParameters.payload_bytes
    data_rate: float = MacParameters.data_rate
    t_prop: float = MacParameters.t_prop
    # sim
    periods: int = SimConfig.n_periods
    sense_range: float = SimConfig.sense_range
    full_connectivity: bool = False
    random_phase_offsets: bool = False
    uncategorized: UncategorizedMode = UncategorizedMode.CONTEND
    zero_based_irt: bool = False
    # seeds
    master_seed: int = 1
    # report tolerances (tau absolute, the rest relative)
    tau_tol: float = 0.05
    e_nbo_tol: float | None = None
    delay_tol: float | None = None
    r_tol: float | None = None
    # output
    out_dir: str = "out"

    def region(self) -> RegionSpec:
        try:
            return RegionSpec(self.width, self.height, self.danger_x, self.danger_y)
        except ValueError as exc:
            raise ValueError(f"scenario.width/height/danger_x/danger_y: {exc}") from None

    def thresholds(self) -> CategoryThresholds:
        try:
            return CategoryThresholds(self.th1, self.th2, self.th3)
        except ValueError as exc:
            raise ValueError(f"scenario.th1/th2/th3: {exc}") from None

    def mac_params(self) -> MacParameters:
        return MacParameters(**{f.name: getattr(self, f.name) for f in fields(MacParameters)})

    def tolerances(self) -> dict[str, float]:
        tols = {"tau": self.tau_tol}
        for name, value in (("e_nbo", self.e_nbo_tol), ("delay", self.delay_tol), ("r", self.r_tol)):
            if value is not None:
                tols[name] = value
        return tols

    def grid_points(self) -> list[tuple[int, BackoffPolicy, int]]:
        """(index, policy, n_sta) in the documented enumeration order.  The one place the policy
        kinds and cw values become policies: a cw no policy takes raises, naming its key."""
        pairs = []
        for kind in self.policies:
            for cw in self.cw_values:
                try:
                    policy = BackoffPolicy(kind, cw)
                except ValueError as exc:
                    raise ValueError(f"policy.cw: {exc}") from None
                pairs += [(policy, n) for n in self.n_sta]
        return [(idx, policy, n) for idx, (policy, n) in enumerate(pairs)]

    def scenario_seed(self) -> int:
        return derive_seed(self.master_seed, 0)

    def sim_seed(self, point_index: int) -> int:
        return derive_seed(self.master_seed, 1 + 2 * point_index)

    def subsample_seed(self, point_index: int) -> int:
        return derive_seed(self.master_seed, 2 + 2 * point_index)

    def validate(self) -> "ExperimentConfig":
        # a repeated value would give several grid rows one (policy, category, cw, n_sta) key
        for name in ("policy.policies", "policy.cw", "policy.categories", "contention.n_sta"):
            attr = _field_name(*name.split("."))
            values = getattr(self, attr)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value: {_FIELD_KIND[attr][1](values)}")
        self.grid_points()
        if self.uncategorized is UncategorizedMode.SILENT and Category.UNCATEGORIZED in self.categories:
            raise ValueError(
                "policy.categories must not list uncat with sim.uncategorized = silent, which removes those nodes"
            )
        if any(n < 1 for n in self.n_sta):
            raise ValueError("contention.n_sta values must be positive")
        if self.periods < MIN_PERIODS:
            raise ValueError(f"sim.periods must be at least {MIN_PERIODS}, the tau and IRT estimators' floor")
        for name, value in (("sim.sense_range", self.sense_range), ("scenario.density", self.density)):
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        for name, value in self.tolerances().items():
            if not (0 <= value < math.inf):
                raise ValueError(f"report.{name}_tol must be non-negative and finite")
        if (self.danger_x is None) != (self.danger_y is None):
            raise ValueError("scenario.danger_x and scenario.danger_y must be given together")
        if not math.isfinite(self.density * self.region().area):
            raise ValueError("scenario.density/width/height: the expected node count must be finite")
        self.thresholds()
        self.mac_params()
        return self


_SCHEMA: dict[str, tuple[str, ...]] = {
    "scenario": ("width", "height", "danger_x", "danger_y", "density", "th1", "th2", "th3", "drop_mode"),
    "policy": ("policies", "cw", "categories"),
    "contention": ("n_sta", "sweep_mode"),
    "mac": ("t_ibi", "t_slot", "difs", "sifs", "header_airtime", "payload_bytes", "data_rate", "t_prop"),
    "sim": ("periods", "sense_range", "full_connectivity", "random_phase_offsets", "uncategorized", "zero_based_irt"),
    "seeds": ("master",),
    "report": ("tau_tol", "e_nbo_tol", "delay_tol", "r_tol"),
    "output": ("dir",),
}

_KEY_TO_FIELD = {
    ("policy", "cw"): "cw_values",
    ("seeds", "master"): "master_seed",
    ("output", "dir"): "out_dir",
}


def _field_name(section: str, key: str) -> str:
    return _KEY_TO_FIELD.get((section, key), key)


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


class _NotAChoice(ValueError):
    """A value outside a choice key's values; the message follows the key's name with no colon."""


def _choice(enum: type[Enum], hint: str = ""):
    """(parse, format) for a key whose values are `enum`'s: any other value reads
    `<section.key> must be <a> or <b><hint>`."""

    def parse(raw: str):
        try:
            return enum(raw)
        except ValueError:
            raise _NotAChoice(f"must be {' or '.join(m.value for m in enum)}{hint}") from None

    return parse, lambda v: v.value


# (parse, format) per field annotation: a key's kind is its field's type
_KINDS = {
    float: (float, lambda v: repr(float(v))),
    float | None: (
        lambda raw: None if raw in ("", "none") else float(raw),
        lambda v: "none" if v is None else repr(float(v)),
    ),
    int: (int, str),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    str: (str, str),
    tuple[int, ...]: (lambda raw: tuple(int(tok) for tok in raw.split()), lambda v: " ".join(map(str, v))),
    DropMode: (DropMode, lambda v: v.value),
    SweepMode: _choice(SweepMode),
    UncategorizedMode: _choice(
        UncategorizedMode, "; to report the uncategorized nodes, list uncat in policy.categories"
    ),
    tuple[PolicyKind, ...]: (
        lambda raw: tuple(PolicyKind(tok) for tok in raw.split()),
        lambda v: " ".join(kind.value for kind in v),
    ),
    tuple[Category, ...]: (
        lambda raw: tuple(category_from_token(tok) for tok in raw.split()),
        lambda v: " ".join(cat.token for cat in v),
    ),
}
_FIELD_KIND = {name: _KINDS[hint] for name, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from None
    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown config key {section}.{key}")
            name = _field_name(section, key)
            try:
                overrides[name] = _FIELD_KIND[name][0](raw.strip())
            except ValueError as exc:
                raise ValueError(f"{section}.{key}{' ' if isinstance(exc, _NotAChoice) else ': '}{exc}") from None
    return ExperimentConfig(**overrides).validate()


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def canonical_text(config: ExperimentConfig) -> str:
    """Normalized config serialization; parse_config_text round-trips it exactly."""
    out = StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            name = _field_name(section, key)
            out.write(f"{key} = {_FIELD_KIND[name][1](getattr(config, name))}\n")
        out.write("\n")
    return out.getvalue()
