"""Command-line experiment orchestration.

Subcommands:
    drop      write the spatial scenario file and print category counts
    analyze   evaluate the analytic model over the grid, emit analytic.csv
    simulate  run the Monte Carlo grid, emit per-point outcome/bits/stats files
    report    join analytic and simulated results, judge tolerances
    sweep     drop + analyze + simulate + report

All experiment state comes from the config file; `--out` only moves the
output directory (no environment variables).  Every random stream derives
from the master seed via splitmix64, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytic as an
from . import metrics as mt
from .config import ExperimentConfig, canonical_text, parse_config
from .geometry import (
    Category,
    SpatialScenario,
    SweepMode,
    category_counts,
    category_mix,
    drop_nodes,
    save_scenario,
)
from .policy import BackoffPolicy, UncategorizedMode
from .sim import SimConfig, point_files, read_point, simulate_points
from .sim import run_simulation  # noqa: F401  unused here, but perfbench/tracer.py wraps cli.run_simulation

__all__ = ["main", "build_parser"]


def _reporting_categories(cfg: ExperimentConfig, policy: BackoffPolicy) -> list[tuple[str, Category | None]]:
    """(token, category) per reported row: one `all` row when the policy gives every category one range."""
    if policy.shared_range() is not None:
        return [("all", None)]
    return [(cat.token, cat) for cat in cfg.categories]


def _drop_scenario(cfg: ExperimentConfig) -> SpatialScenario:
    return drop_nodes(cfg.region(), cfg.thresholds(), cfg.density, cfg.drop_mode, seed=cfg.scenario_seed())


def _point_scenario(cfg: ExperimentConfig, scenario: SpatialScenario, point_index: int, n_sta: int) -> SpatialScenario:
    """The stations that contend at a grid point, in the model and the simulation alike: the subsample
    of the drop (or the rescaled drop), less its uncategorized nodes under `uncategorized = silent`.
    A point left with none raises one ValueError, so `analyze` and `simulate` give the same reason."""
    if cfg.sweep_mode is SweepMode.RESCALE:
        density = n_sta / cfg.region().area
        sub = drop_nodes(cfg.region(), cfg.thresholds(), density, cfg.drop_mode, seed=cfg.subsample_seed(point_index))
    else:
        sub = scenario.subsample(n_sta, np.random.default_rng(cfg.subsample_seed(point_index)))
    if cfg.uncategorized is UncategorizedMode.SILENT:
        sub = sub.select(sub.categories != Category.UNCATEGORIZED)
    if sub.n_nodes == 0:
        raise ValueError("no station contends at this point")
    return sub


def _point_label(idx: int, policy: BackoffPolicy, n_sta: int, tok: str = "") -> str:
    """How analyze_errors.txt and summary.txt name a grid point (and one of its category rows)."""
    return f"point {idx} ({policy.kind.value}{' ' + tok if tok else ''} cw={policy.cw} n_sta={n_sta})"


_NAN_RESULT = an.AnalyticalResult(*[np.nan] * 7)  # the values of a point the model could not evaluate


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def cmd_drop(cfg: ExperimentConfig) -> int:
    scenario = _drop_scenario(cfg)  # first, so a drop that fails leaves no output directory
    out = _out_dir(cfg)
    path = out / "scenario.txt"
    save_scenario(scenario, path)
    counts = category_counts(scenario)
    print(f"scenario: {scenario.n_nodes} nodes -> {path}")
    for cat in Category:
        print(f"  {cat.token}: {counts[cat]}")
    return 0


def cmd_analyze(cfg: ExperimentConfig) -> int:
    # first: after a failed analyze, no earlier run's rows are left for `report` to judge
    for name in ("analytic.csv", "analyze_errors.txt"):
        (Path(cfg.out_dir) / name).unlink(missing_ok=True)
    scenario = _drop_scenario(cfg)
    out = _out_dir(cfg)
    mac = cfg.mac_params()
    rows = [an.ANALYTIC_CSV_HEADER]
    errors: list[str] = []
    for idx, policy, n_sta in cfg.grid_points():
        try:
            sub = _point_scenario(cfg, scenario, idx, n_sta)
            mix = category_mix(sub)
        except ValueError as exc:
            sub = None
            errors.append(f"{_point_label(idx, policy, n_sta)}: {exc}")
        for tok, cat in _reporting_categories(cfg, policy):
            result = _NAN_RESULT
            if sub is not None:
                config = an.ContentionConfig(
                    n_sta=sub.n_nodes, policy=policy, category=cat, params=mac, category_mix=mix
                )
                try:
                    result = an.evaluate(config)
                except (an.ConvergenceError, ValueError, MemoryError) as exc:  # MemoryError: a window too wide
                    errors.append(f"{_point_label(idx, policy, n_sta, tok)}: {exc}")
            # keyed by the grid point, which report joins on, whatever the station count modeled
            rows.append(an.analytic_csv_row((policy.kind.value, tok, policy.cw, n_sta), result))
    path = out / "analytic.csv"
    _write_text(path, "\n".join(rows) + "\n")
    print(f"analytic grid: {len(rows) - 1} rows -> {path}")
    if errors:
        _write_text(out / "analyze_errors.txt", "\n".join(errors) + "\n")
        print(f"{len(errors)} point(s) failed; see analyze_errors.txt", file=sys.stderr)
    return 0


_SEED_RULE = (
    "seed rule: derived seed k = splitmix64(master + (k+1)*0x9E3779B97F4A7C15); "
    "k=0 scenario drop; grid point i (enumeration order: policies, cw, n_sta as listed) "
    "uses k=1+2i for the simulation and k=2+2i for the subsample/rescale."
)
MANIFEST_HEADER = "index,policy,cw,n_sta,sim_seed,subsample_seed,status,outcome_file,bits_file,stats_file,full_connectivity"


def cmd_simulate(cfg: ExperimentConfig) -> int:
    # first: after a failed simulate, no manifest and no point file of an earlier run is left for `report`
    for pattern in ("manifest.csv", "sim_points.csv", "metadata.txt", *point_files("*")):
        for path in Path(cfg.out_dir).glob(pattern):
            path.unlink()
    scenario = _drop_scenario(cfg)
    out = _out_dir(cfg)
    mac = cfg.mac_params()
    points = []  # (grid point, its SimConfig or the reason it has none)
    for idx, policy, n_sta in cfg.grid_points():
        try:
            config = SimConfig(
                scenario=_point_scenario(cfg, scenario, idx, n_sta),
                policy=policy,
                params=mac,
                sense_range=math.inf if cfg.full_connectivity else cfg.sense_range,
                n_periods=cfg.periods,
                seed=cfg.sim_seed(idx),
                random_phase_offsets=cfg.random_phase_offsets,
            )
        except ValueError as exc:
            config = f"error: {exc}"
        points.append(((idx, policy, n_sta), config))
    simulated = [
        (f"{idx:03d}_{policy.kind.value}_cw{policy.cw}_n{n_sta}", config)
        for (idx, policy, n_sta), config in points
        if isinstance(config, SimConfig)
    ]
    results = simulate_points(out, simulated)
    manifest = [MANIFEST_HEADER]
    sim_points = ["index,stations,engine,sync_events,hn_events,dual_label_events"]
    for (idx, policy, n_sta), config in points:
        if isinstance(config, SimConfig):
            status, (names, diag) = "ok", next(results)
            sim_points.append(
                f"{idx},{config.scenario.n_nodes},{diag['engine']},{diag['sync_events']},{diag['hn_events']},"
                f"{diag['dual_label_events']}"
            )
        else:
            status, names = config, ("", "", "")
        manifest.append(
            f"{idx},{policy.kind.value},{policy.cw},{n_sta},{cfg.sim_seed(idx)},{cfg.subsample_seed(idx)},{status},"
            f"{','.join(names)},{str(cfg.full_connectivity).lower()}"
        )
    _write_text(out / "sim_points.csv", "\n".join(sim_points) + "\n")
    _write_text(out / "manifest.csv", "\n".join(manifest) + "\n")
    meta = [
        _SEED_RULE,
        f"master_seed: {cfg.master_seed}",
        f"full_connectivity: {cfg.full_connectivity}",
        f"random_phase_offsets: {cfg.random_phase_offsets}",
        f"uncategorized: {cfg.uncategorized.value}",
        f"periods: {cfg.periods}",
        "",
        "config (output dir normalized so reruns are byte-identical):",
        canonical_text(replace(cfg, out_dir="out")),
    ]
    _write_text(out / "metadata.txt", "\n".join(meta))
    print(f"simulated {len(simulated)}/{len(points)} grid points -> {out / 'manifest.csv'}")
    return 0


def _manifest_files(row: list[str] | None, policy: BackoffPolicy, n_sta: int) -> tuple[str, str]:
    """The bits and stats file names in a grid point's manifest row; a ValueError says why there are none."""
    if row is None:
        raise ValueError("no manifest row")
    n_fields = len(MANIFEST_HEADER.split(","))
    if len(row) != n_fields or row[1:4] != [policy.kind.value, str(policy.cw), str(n_sta)]:
        raise ValueError(f"manifest row {','.join(row)!r} is not this point's {n_fields}-field row")
    if row[6] != "ok":
        raise ValueError(row[6])
    return row[8], row[9]


def cmd_report(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    # before any input is read: a failed report leaves no verdict, and a grid without cw 15 no IRT table
    for name in ("report.csv", "irt_cw15.csv", "summary.txt"):
        (out / name).unlink(missing_ok=True)
    mac = cfg.mac_params()
    analytic_rows, missing = an.read_analytic_rows(out / "analytic.csv")
    tolerances = cfg.tolerances()

    report_lines = ["metric,policy,category,cw,n_sta,analytic,empirical,ci"]
    summary: list[str] = []
    irt_lines = ["policy,category,n_sta,gap,pmf,cdf"]
    all_pass = True

    with open(out / "manifest.csv", "r", encoding="ascii") as fh:
        fh.readline()
        manifest = {row[0]: row for row in (ln.strip().split(",") for ln in fh if ln.strip())}

    seen_keys = set()
    for idx, policy, n_sta in cfg.grid_points():
        policy_name, cw = policy.kind.value, policy.cw
        rows = [(tok, cat, (policy_name, tok, cw, n_sta)) for tok, cat in _reporting_categories(cfg, policy)]
        # a failed point gets its one `point N` line below, not one more per analytic row
        seen_keys.update(key for *_, key in rows)
        try:
            bits_name, stats_name = _manifest_files(manifest.get(str(idx)), policy, n_sta)
            groups = read_point(out / bits_name, out / stats_name, [cat for _, cat, _ in rows])
        except (ValueError, OSError) as exc:
            missing.append(f"{_point_label(idx, policy, n_sta)}: {exc}")
            continue
        for (tok, _cat, key), (bit_sums, elapsed_sums) in zip(rows, groups):
            analytic = analytic_rows.get(key)
            if isinstance(analytic, str):
                missing.append(f"{_point_label(idx, policy, n_sta, tok)}: {analytic}")
                continue
            if analytic is None or not np.isfinite(analytic.tau):
                missing.append(f"no analytic row for {key}")
                continue
            empirical = mt.build_estimates(bit_sums, elapsed_sums, mac)
            if empirical is None:
                missing.append(f"no {tok} nodes at {_point_label(idx, policy, n_sta)}")
                continue
            rep = mt.compare(key, analytic, empirical, tolerances)
            all_pass = all_pass and rep.passed
            summary.append(rep.to_text())
            for metric, (a, e, _dev, _tol, _p) in rep.rows.items():
                ci = repr(empirical.tau.half_width) if metric == "tau" else ""
                report_lines.append(
                    f"{metric},{policy_name},{tok},{cw},{n_sta},{repr(float(a))},{repr(float(e))},{ci}"
                )
            if cw == 15:
                shift = 1 if cfg.zero_based_irt else 0
                cdf = empirical.irt.cdf()
                for gap in sorted(empirical.irt.pmf):
                    irt_lines.append(
                        f"{policy_name},{tok},{n_sta},{gap - shift},"
                        f"{repr(empirical.irt.pmf[gap])},{repr(cdf[gap])}"
                    )
    missing += [f"no simulated point for analytic row {key}" for key in analytic_rows if key not in seen_keys]

    all_pass = all_pass and not missing
    _write_text(out / "report.csv", "\n".join(report_lines) + "\n")
    if len(irt_lines) > 1:
        _write_text(out / "irt_cw15.csv", "\n".join(irt_lines) + "\n")
    verdict = "PASS" if all_pass else "FAIL"
    tail = [f"missing: {m}" for m in missing] + [f"overall: {verdict}"]
    _write_text(out / "summary.txt", "\n".join(summary + tail) + "\n")
    print(f"report -> {out / 'report.csv'} ({verdict})")
    for m in missing:
        print(f"warning: {m}", file=sys.stderr)
    return 0 if all_pass else 1


def cmd_sweep(cfg: ExperimentConfig) -> int:
    rc = cmd_drop(cfg)
    rc = rc or cmd_analyze(cfg)
    rc = rc or cmd_simulate(cfg)
    return rc or cmd_report(cfg)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the experiment config file")
    common.add_argument("--out", help="override the output directory")
    parser = argparse.ArgumentParser(prog="priobeacon", description="danger-distance backoff prioritization experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("drop", parents=[common], help="generate and export the node drop")
    sub.add_parser("analyze", parents=[common], help="evaluate the analytic model grid")
    sub.add_parser("simulate", parents=[common], help="run the Monte Carlo grid")
    sub.add_parser("report", parents=[common], help="join analytic and simulated results")
    sub.add_parser("sweep", parents=[common], help="drop + analyze + simulate + report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    # looked up at call time, so a wrapper installed on a cmd_* name is the one that runs
    commands = {
        "drop": cmd_drop, "analyze": cmd_analyze, "simulate": cmd_simulate, "report": cmd_report, "sweep": cmd_sweep
    }
    try:
        with warnings.catch_warnings():  # a library warning prints as one line, like the CLI's own warnings
            warnings.showwarning = lambda message, *_args: print(f"warning: {message}", file=sys.stderr)
            return commands[args.command](cfg)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a drop too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
