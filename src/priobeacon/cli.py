"""Command-line experiment orchestration.

Subcommands:
    drop      write the spatial scenario file and print category counts
    analyze   evaluate the analytic model over the grid, emit analytic.csv
    simulate  run the Monte Carlo grid, emit per-point outcome/bits/stats files
    report    join analytic and simulated results, judge tolerances
    sweep     drop + analyze + simulate + report

All state comes from the config file and flags (no environment variables);
every random stream derives from the master seed via splitmix64, so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytic as an
from . import metrics as mt
from .config import ExperimentConfig, canonical_text, parse_config
from .geometry import (
    Category,
    SpatialScenario,
    category_counts,
    category_from_token,
    category_mix,
    drop_nodes,
    save_scenario,
)
from .policy import BackoffPolicy
from .sim import STATS_CSV_HEADER, SimConfig, run_simulations
from .sim import run_simulation  # noqa: F401  unused here, but perfbench/tracer.py wraps cli.run_simulation

__all__ = ["main", "build_parser"]


def _make_policy(cfg: ExperimentConfig, policy_name: str, cw: int) -> BackoffPolicy:
    if policy_name == "traditional":
        return BackoffPolicy.traditional(cw)
    return BackoffPolicy.proposed(cw, cfg.thresholds())


def _reporting_categories(cfg: ExperimentConfig, policy_name: str) -> list[tuple[str, Category | None]]:
    if policy_name == "traditional":
        return [("all", None)]
    cats: list[tuple[str, Category | None]] = [(tok, cat) for tok, cat in zip(cfg.categories, cfg.category_enums())]
    if cfg.uncategorized == "report":
        cats.append(("uncat", Category.UNCATEGORIZED))
    return cats


def _drop_scenario(cfg: ExperimentConfig) -> SpatialScenario:
    return drop_nodes(
        cfg.region(), cfg.thresholds(), cfg.density, cfg.drop_mode_enum(), seed=cfg.scenario_seed()
    )


def _point_scenario(cfg: ExperimentConfig, scenario: SpatialScenario, point_index: int, n_sta: int) -> SpatialScenario:
    """The stations that contend at a grid point, in the model and the simulation alike: the subsample
    of the drop (or the rescaled drop), less its uncategorized nodes under `uncategorized = silent`."""
    if cfg.sweep_mode == "rescale":
        density = n_sta / cfg.region().area
        sub = drop_nodes(
            cfg.region(), cfg.thresholds(), density, cfg.drop_mode_enum(), seed=cfg.subsample_seed(point_index)
        )
    elif n_sta == scenario.n_nodes:
        sub = scenario
    else:
        sub = scenario.subsample(n_sta, np.random.default_rng(cfg.subsample_seed(point_index)))
    if cfg.uncategorized == "silent":
        sub = replace(sub, nodes=tuple(nd for nd in sub.nodes if nd.category is not Category.UNCATEGORIZED))
    return sub


_NAN_RESULT = an.AnalyticalResult(*[np.nan] * 7)  # the values of a point the model could not evaluate


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def cmd_drop(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    scenario = _drop_scenario(cfg)
    path = out / "scenario.txt"
    save_scenario(scenario, path)
    counts = category_counts(scenario)
    print(f"scenario: {scenario.n_nodes} nodes -> {path}")
    for cat in Category:
        print(f"  {cat.token}: {counts[cat]}")
    return 0


def cmd_analyze(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    scenario = _drop_scenario(cfg)
    mac = cfg.mac_params()
    if max(cfg.cw_values) > mac.slots_per_beacon:
        print(
            f"warning: largest cw {max(cfg.cw_values)} exceeds {mac.slots_per_beacon} slots per beacon",
            file=sys.stderr,
        )
    rows = [an.ANALYTIC_CSV_HEADER]
    errors: list[str] = []
    for idx, policy_name, cw, n_sta in cfg.grid_points():
        try:
            sub = _point_scenario(cfg, scenario, idx, n_sta)
            mix = category_mix(sub)
        except ValueError as exc:
            sub = None
            errors.append(f"point {idx} ({policy_name} cw={cw} n_sta={n_sta}): {exc}")
        policy = _make_policy(cfg, policy_name, cw)
        for tok, cat in _reporting_categories(cfg, policy_name):
            result = _NAN_RESULT
            if sub is not None:
                config = an.ContentionConfig(
                    n_sta=sub.n_nodes, policy=policy, category=cat, params=mac, category_mix=mix
                )
                try:
                    result = an.evaluate(config)
                except (an.ConvergenceError, ValueError) as exc:
                    errors.append(f"point {idx} ({policy_name} {tok} cw={cw} n_sta={n_sta}): {exc}")
            # keyed by the grid point, which report joins on, whatever the station count modeled
            rows.append(f"{policy_name},{tok},{cw},{n_sta},{an.analytic_csv_values(result)}")
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


def cmd_simulate(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    scenario = _drop_scenario(cfg)
    mac = cfg.mac_params()
    points = []  # (grid point, its SimConfig or the reason it has none)
    for idx, policy_name, cw, n_sta in cfg.grid_points():
        try:
            config = SimConfig(
                scenario=_point_scenario(cfg, scenario, idx, n_sta),
                policy=_make_policy(cfg, policy_name, cw),
                params=mac,
                sense_range=cfg.sense_range,
                n_periods=cfg.periods,
                seed=cfg.sim_seed(idx),
                full_connectivity=cfg.full_connectivity,
                random_phase_offsets=cfg.random_phase_offsets,
            )
        except ValueError as exc:
            config = f"error: {exc}"
        points.append(((idx, policy_name, cw, n_sta), config))
    outcomes = run_simulations([config for _, config in points if isinstance(config, SimConfig)])
    manifest = ["index,policy,cw,n_sta,sim_seed,subsample_seed,status,outcome_file,bits_file,stats_file,full_connectivity"]
    sim_points = ["index,stations,engine,sync_events,hn_events,dual_label_events"]
    for (idx, policy_name, cw, n_sta), config in points:
        tag = f"{idx:03d}_{policy_name}_cw{cw}_n{n_sta}"
        names = (f"outcome_{tag}.csv", f"bits_{tag}.txt", f"stats_{tag}.csv")
        if isinstance(config, SimConfig):
            outcome = next(outcomes)
            _write_text(out / names[0], outcome.to_outcome_csv())
            _write_text(out / names[1], outcome.to_bits_text())
            _write_text(out / names[2], outcome.to_stats_csv())
            diag = outcome.diagnostics
            sim_points.append(
                f"{idx},{outcome.n_nodes},{diag['engine']},{diag['sync_events']},{diag['hn_events']},"
                f"{diag['dual_label_events']}"
            )
            status = "ok"
        else:
            status = config
            names = ("", "", "")
        manifest.append(
            f"{idx},{policy_name},{cw},{n_sta},{cfg.sim_seed(idx)},{cfg.subsample_seed(idx)},{status},"
            f"{names[0]},{names[1]},{names[2]},{str(cfg.full_connectivity).lower()}"
        )
    _write_text(out / "sim_points.csv", "\n".join(sim_points) + "\n")
    _write_text(out / "manifest.csv", "\n".join(manifest) + "\n")
    meta = [
        _SEED_RULE,
        f"master_seed: {cfg.master_seed}",
        f"full_connectivity: {cfg.full_connectivity}",
        f"random_phase_offsets: {cfg.random_phase_offsets}",
        f"uncategorized: {cfg.uncategorized}",
        f"periods: {cfg.periods}",
        "",
        "config (output dir normalized so reruns are byte-identical):",
        canonical_text(replace(cfg, out_dir="out")),
    ]
    _write_text(out / "metadata.txt", "\n".join(meta))
    n_ok = sum(1 for ln in manifest[1:] if ",ok," in ln)
    print(f"simulated {n_ok}/{len(manifest) - 1} grid points -> {out / 'manifest.csv'}")
    return 0


def _read_analytic_rows(path: Path) -> dict[tuple, an.AnalyticalResult]:
    rows = {}
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != an.ANALYTIC_CSV_HEADER:
            raise ValueError(f"unexpected analytic CSV header in {path}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 11:
                continue
            key = (parts[0], parts[1], int(parts[2]), int(parts[3]))
            vals = [float(v) for v in parts[4:]]
            rows[key] = an.AnalyticalResult(
                tau=vals[0], e_nbo=vals[1], e_texp=vals[2], e_tbo=vals[3], t_suc=vals[4], e_t=vals[5], r=vals[6]
            )
    return rows


def _read_point(bits_path: Path, stats_path: Path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """One simulated point's (n, periods) transmitted bits, category tokens and elapsed sums.

    Raises ValueError when the bits/stats pair is malformed or inconsistent:
    ragged or too short bits rows, a bad stats line, different node counts,
    or a tx_count that differs from the node's count of '1's.
    """
    with open(bits_path, "rb") as fh:
        rows = fh.read().split()
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"{bits_path.name}: bits rows differ in length")
    raw = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), len(rows[0]) if rows else 0)
    bits = raw == ord("1")
    if bits.shape[1] < mt.MIN_PERIODS:
        raise ValueError(f"{bits_path.name}: {bits.shape[1]} periods, the estimators need {mt.MIN_PERIODS}")
    with open(stats_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != STATS_CSV_HEADER:
        raise ValueError(f"{stats_path.name}: unexpected stats CSV header")
    cats, tx, elapsed_sums = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            _node, cat, n_tx, elapsed = line.split(",")
            category_from_token(cat)
            tx.append(int(n_tx))
            elapsed_sums.append(int(elapsed))
        except ValueError:
            raise ValueError(f"{stats_path.name} line {lineno}: malformed stats row {line!r}") from None
        cats.append(cat)
    if len(cats) != bits.shape[0]:
        raise ValueError(f"{bits_path.name} has {bits.shape[0]} nodes but {stats_path.name} has {len(cats)}")
    ones = bits.sum(axis=1)
    bad = np.flatnonzero(ones != tx)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{stats_path.name} node row {i + 1}: tx_count {tx[i]} but {ones[i]} '1's in {bits_path.name}")
    return bits, cats, np.array(elapsed_sums, dtype=np.int64)


def cmd_report(cfg: ExperimentConfig, analytic_path: Path | None = None, sim_dir: Path | None = None) -> int:
    out = _out_dir(cfg)
    analytic_path = analytic_path or out / "analytic.csv"
    sim_dir = sim_dir or out
    mac = cfg.mac_params()
    analytic_rows = _read_analytic_rows(analytic_path)
    tolerances = cfg.tolerances()

    report_lines = ["metric,policy,category,cw,n_sta,analytic,empirical,ci"]
    summary: list[str] = []
    irt_lines = ["policy,category,n_sta,gap,pmf,cdf"]
    missing: list[str] = []
    all_pass = True

    manifest_path = sim_dir / "manifest.csv"
    with open(manifest_path, "r", encoding="ascii") as fh:
        fh.readline()
        manifest = [ln.strip().split(",") for ln in fh if ln.strip()]

    seen_keys = set()
    for parts in manifest:
        idx, policy_name, cw, n_sta = int(parts[0]), parts[1], int(parts[2]), int(parts[3])
        status = parts[6]
        if status != "ok":
            missing.append(f"point {idx} ({policy_name} cw={cw} n_sta={n_sta}): {status}")
            continue
        try:
            bits, cats, elapsed_sums = _read_point(sim_dir / parts[8], sim_dir / parts[9])
        except (ValueError, OSError) as exc:
            missing.append(f"point {idx} ({policy_name} cw={cw} n_sta={n_sta}): {exc}")
            continue
        for tok, _cat in _reporting_categories(cfg, policy_name):
            key = mt.GridKey(policy_name, tok, cw, n_sta)
            seen_keys.add(key.as_tuple())
            analytic = analytic_rows.get(key.as_tuple())
            sel = [i for i, c in enumerate(cats) if tok in ("all", c)]
            empirical = mt.build_estimates(key, bits[sel], elapsed_sums[sel], mac)
            if analytic is None or not np.isfinite(analytic.tau):
                missing.append(f"no analytic row for {key.as_tuple()}")
                continue
            if empirical is None:
                missing.append(f"no {tok} nodes at point {idx} ({policy_name} cw={cw} n_sta={n_sta})")
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
    for key in analytic_rows:
        if key not in seen_keys:
            missing.append(f"no simulated point for analytic row {key}")

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
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--periods", type=int, help="override the beacon-period count")
    common.add_argument("--full-connectivity", action="store_true", help="force a complete sensing graph")
    common.add_argument("--zero-based-irt", action="store_true", help="report IRT gaps shifted by one")
    common.add_argument(
        "--include-uncategorized", action="store_true", help="report the uncategorized nodes as a category"
    )
    parser = argparse.ArgumentParser(prog="priobeacon", description="danger-distance backoff prioritization experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("drop", parents=[common], help="generate and export the node drop")
    sub.add_parser("analyze", parents=[common], help="evaluate the analytic model grid")
    sub.add_parser("simulate", parents=[common], help="run the Monte Carlo grid")
    rep = sub.add_parser("report", parents=[common], help="join analytic and simulated results")
    rep.add_argument("--analytic", help="analytic CSV path (default <out>/analytic.csv)")
    rep.add_argument("--sim-dir", help="directory with simulation outputs (default <out>)")
    sub.add_parser("sweep", parents=[common], help="drop + analyze + simulate + report")
    return parser


def _apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.periods is not None:
        cfg = replace(cfg, periods=args.periods)
    if args.full_connectivity:
        cfg = replace(cfg, full_connectivity=True)
    if args.zero_based_irt:
        cfg = replace(cfg, zero_based_irt=True)
    if args.include_uncategorized:
        cfg = replace(cfg, uncategorized="report")
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
        cfg = _apply_flags(cfg, args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "drop":
            return cmd_drop(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "report":
            analytic = Path(args.analytic) if args.analytic else None
            sim_dir = Path(args.sim_dir) if args.sim_dir else None
            return cmd_report(cfg, analytic, sim_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
