"""priobeacon benchmark: the CLI grid sweep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record   # rewrite digests.json

Run from the root of a source checkout; the package is imported from
`src/` of that checkout.  Each sweep runs `perfbench/child.py` in a fresh
interpreter, one at a time (closed loop, one client, single process) with
OpenBLAS/OpenMP/MKL pinned to one thread.  `--seed` is the workload master
seed written into the generated config; seed 1 is the paper's default
experiment and the only seed whose output digests are recorded.

--trace 0 repeats untraced sweeps while the next one is expected to end
inside the `--seconds` window (at least one), tops the set-up samples up
to SETUP_SAMPLES with set-up-only processes, and prints the end-to-end
metrics as medians over the samples.
--trace 1 runs one untraced and one traced sweep at the same seed, checks
that both write the same bytes, and prints the per-layer metrics.

Every sweep's outputs are checked (see `check_sweep`); a grid point that
fails a check counts in `failed`.  The last stdout line is the result
JSON; the line before it carries the run record (environment, failure
reasons, `failed_point_ratio`, `tau_abs_dev_max`, absent-category rows).
Outputs go to `.bench_out/` under the checkout.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
DEADLINE_S = 165.0
SETUP_SAMPLES = 3

# The full default grid: the 80-node drop subsampled to each n_sta.
POLICIES = ("traditional", "proposed")
CWS = (15, 127, 511)
N_STAS = (10, 20, 40, 80)
CATEGORIES = ("cat1", "cat2", "cat3")
MODULES = ("cli", "config", "geometry", "policy", "sim", "analytic", "metrics")
GRID = [
    (i, pol, cw, n)
    for i, (pol, cw, n) in enumerate((p, c, n) for p in POLICIES for c in CWS for n in N_STAS)
]

# Config sections per workload; everything else keeps the README defaults.
# 100 periods is the floor: the report's IRT estimator rejects fewer.
WORKLOADS = {
    # Paper default: 700 m sensing, aligned periods -> per-slot walker and
    # per-cluster collision classification (~90% of the sweep).
    "aligned-700m": {"sim": {"periods": 100}},
    # Closed-form engine, no walker: time spreads over analytic, the
    # exporters, report parsing and draws; the only I/O- and memory-heavy one.
    "fullconn-long": {"sim": {"periods": 20000, "full_connectivity": "true"}},
    # 400-slot periods with random phase offsets: the walker without shared
    # boundaries, packets expire and the analytic fixed point is interior.
    "phase-expiry": {"mac": {"t_ibi": 0.02}, "sim": {"periods": 100, "random_phase_offsets": "true"}},
}

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The package was imported from outside this checkout's `src/`."""


# ---------------------------------------------------------------- inputs


def config_text(workload: str, seed: int) -> str:
    sections = {k: dict(v) for k, v in WORKLOADS[workload].items()}
    sections.setdefault("seeds", {})["master"] = seed
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def periods_of(workload: str) -> int:
    return int(WORKLOADS[workload]["sim"]["periods"])


def tokens(policy: str) -> tuple[str, ...]:
    return ("all",) if policy == "traditional" else CATEGORIES


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(run_dir: Path, name: str, mode: str, config: Path, deadline: float, out: Path | None = None,
              spans: bool = False):
    """Run child.py once; returns its result dict, or None on timeout or crash."""
    result = run_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--config", str(config),
           "--out", str(out or run_dir / name), "--result", str(result)]
    if spans:
        cmd += ["--spans", str(run_dir / f"{name}.spans.json")]
    timeout = max(1.0, deadline - time.monotonic())
    with open(run_dir / f"{name}.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                cmd + ["--spawned", repr(time.monotonic())],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                env=child_env(), cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result.exists():
        return None
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    if Path(res["module"]).resolve().parent != (ROOT / "src" / "priobeacon").resolve():
        raise BenchError(f"priobeacon imported from {res['module']}, not from this checkout")
    return res


# ---------------------------------------------------------------- output checks


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def tree_digest(out: Path) -> str:
    """Digest of every file name and byte under out (for byte-identity checks)."""
    parts = []
    for path in sorted(out.iterdir()):
        parts += [path.name.encode(), path.read_bytes()]
    return _sha(*parts)


def _read_rows(path: Path) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return [ln for ln in fh.read().splitlines()[1:] if ln.strip()]


_ABSENT = re.compile(r"^missing: no (\w+) nodes at point (\d+) \(")
_POINT = re.compile(r"^missing: point (\d+) ")
_KEY = re.compile(r"^missing: no (?:analytic|simulated) (?:row|point) for (?:analytic row )?(\(.*\))$")


def _all_failed(why: str) -> dict:
    return {"failed": {i: why for i, *_ in GRID}, "absent": [], "tau_dev": [], "digests": {}, "bytes": 0}


def _check_point(out: Path, manifest_row: list[str], periods: int, n: int) -> tuple[list[bytes], set[str]]:
    """Read one point's outcome/bits/stats files and check them against each other.

    Returns the raw file bytes and the categories present; raises ValueError on a violation.
    """
    raw = [(out / manifest_row[k]).read_bytes() for k in (7, 8, 9)]
    outcome = [ln.split(",") for ln in raw[0].decode("ascii").splitlines()[1:]]
    bits = raw[1].decode("ascii").splitlines()
    stats = [ln.split(",") for ln in raw[2].decode("ascii").splitlines()[1:]]
    if not (len(outcome) == len(bits) == len(stats) == n):
        raise ValueError(f"node rows {len(outcome)}/{len(bits)}/{len(stats)} for n_sta {n}")
    for o, b, st in zip(outcome, bits, stats):
        delivered, sync, hn, expired = (int(v) for v in o[2:6])
        tx = delivered + sync + hn
        if tx + expired != periods:
            raise ValueError(f"node {o[0]}: outcome counts sum to {tx + expired}, not {periods}")
        if len(b) != periods or b.count("1") != tx or b.count("0") != expired:
            raise ValueError(f"node {o[0]}: bits disagree with outcome counts")
        if st[:2] != o[:2] or int(st[2]) != tx:
            raise ValueError(f"node {o[0]}: stats disagree with outcome counts")
    return raw, {o[1] for o in outcome}


def check_sweep(out: Path, periods: int, rc: dict, expected: dict | None) -> dict:
    """Check one sweep's outputs; returns failed points, reasons and report figures.

    A point fails on a non-ok manifest status, a missing or non-finite
    analytic row, per-node counts that do not sum to the period count, bits
    or stats that disagree with the counts, a present category without a
    tau row in report.csv, an unexplained `missing:` line, or (at the
    default seed) a digest that differs from the recorded one.  Categories
    absent from a point's subsample are counted, not failed.
    """
    # report exits 1 when a row fails its tolerance or a point is missing;
    # the missing lines are judged below, so 1 is not a failure by itself.
    bad_rc = {s: c for s, c in rc.items() if c != 0 and not (s == "report" and c == 1)}
    if bad_rc:
        return _all_failed(f"return codes {bad_rc}")
    try:
        manifest = {int(ln.split(",")[0]): ln.split(",") for ln in _read_rows(out / "manifest.csv")}
        analytic = {tuple(ln.split(",")[:4]): ln for ln in _read_rows(out / "analytic.csv")}
        tau_rows = {}
        for r in (ln.split(",") for ln in _read_rows(out / "report.csv")):
            if r[0] == "tau":
                tau_rows[(r[1], r[2], r[3], r[4])] = abs(float(r[5]) - float(r[6]))
        with open(out / "summary.txt", encoding="ascii") as fh:
            summary = fh.read().splitlines()
    except (OSError, ValueError, IndexError) as exc:
        return _all_failed(f"unreadable outputs: {exc}")

    failed: dict[int, str] = {}

    def fail(idx: int, why: str) -> None:
        failed.setdefault(idx, why)

    absent: set[tuple[int, str]] = set()
    digests: dict[str, str] = {}
    for idx, pol, cw, n in GRID:
        keys = [(pol, tok, str(cw), str(n)) for tok in tokens(pol)]
        row = manifest.get(idx)
        if row is None or len(row) != 11 or row[1:4] != [pol, str(cw), str(n)] or row[6] != "ok":
            fail(idx, f"manifest: {row}")
            continue
        for key in keys:
            vals = analytic.get(key, "").split(",")[4:]
            try:
                if len(vals) != 7 or not all(math.isfinite(float(v)) for v in vals):
                    fail(idx, f"analytic row {key}: {vals}")
            except ValueError:
                fail(idx, f"analytic row {key}: {vals}")
        try:
            raw, present = _check_point(out, row, periods, n)
        except (OSError, ValueError, IndexError, UnicodeDecodeError) as exc:
            fail(idx, str(exc))
            continue
        for key in keys:
            if key[1] != "all" and key[1] not in present:
                absent.add((idx, key[1]))
            elif key not in tau_rows:
                fail(idx, f"no tau row for {key[1]}")
        digests[str(idx)] = _sha("\n".join(analytic.get(k, "") for k in keys).encode(), *raw)
        if expected is not None and expected["points"].get(str(idx)) != digests[str(idx)]:
            fail(idx, "digest differs from the recorded default-seed digest")

    by_key = {(pol, str(cw), str(n)): idx for idx, pol, cw, n in GRID}
    reported_absent = set()
    for line in summary:
        if not line.startswith("missing: "):
            continue
        m = _ABSENT.match(line)
        if m:
            reported_absent.add((int(m.group(2)), m.group(1)))
            continue
        m = _POINT.match(line)
        if m:
            fail(int(m.group(1)), line)
            continue
        m = _KEY.match(line)
        key = tuple(str(v) for v in ast.literal_eval(m.group(1))) if m else ()
        if len(key) == 4 and (key[0], key[2], key[3]) in by_key:
            fail(by_key[(key[0], key[2], key[3])], line)
        else:
            for idx, *_ in GRID:
                fail(idx, f"unexplained: {line}")
    for idx, tok in absent ^ reported_absent:
        fail(idx, f"summary and outputs disagree on absent {tok}")
    if expected is not None:
        for idx, tok in absent ^ {tuple(a) for a in expected["absent"]}:
            fail(idx, f"absent {tok} differs from the recorded default-seed set")
    return {
        "failed": failed,
        "absent": sorted(absent),
        "tau_dev": list(tau_rows.values()),
        "digests": digests,
        "bytes": sum(p.stat().st_size for p in out.iterdir()),
    }


# ---------------------------------------------------------------- per-layer metrics


def _self_times(spans: list) -> list[float]:
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1]
    return selfs


def layer_metrics(spans: list, traced_sweep_s: float) -> tuple[dict, list[str]]:
    """Per-layer figures from the traced sweep's spans, plus accounting problems."""
    selfs = _self_times(spans)
    problems = []
    if min(selfs, default=0.0) < -1e-6:
        problems.append("a child span outlasts its parent")

    def spans_of(name):
        return [(s, selfs[i]) for i, s in enumerate(spans) if s[0] == name]

    def calls(name):
        return float(len(spans_of(name)))

    def attr_sum(name, key):
        return float(sum(s[4].get(key, 0) for s, _ in spans_of(name)))

    def total(name, **attr):
        return float(sum(s[2] - s[1] for s, _ in spans_of(name) if all(s[4].get(k) == v for k, v in attr.items())))

    sims = spans_of("sim.run_simulation")
    node_periods = attr_sum("sim.run_simulation", "node_periods")
    transmitted = attr_sum("sim.run_simulation", "transmitted")
    adj = [s[4] for s, _ in spans_of("geometry.build_adjacency")]
    m = {
        "sim.run_simulation.s": total("sim.run_simulation"),
        "sim.run_simulation.calls": calls("sim.run_simulation"),
        **{f"sim.run_simulation.cw{cw}.s": total("sim.run_simulation", cw=cw) for cw in CWS},
        "sim.walk_self.s": float(sum(st for _, st in sims)),
        "sim.classify_collision.s": total("sim.classify_collision"),
        "sim.classify_collision.calls": calls("sim.classify_collision"),
        "sim.engine.slot_walker": float(sum(s[4].get("engine") == "slot-walker" for s, _ in sims)),
        "sim.engine.full_connectivity": float(sum(s[4].get("engine") == "full-connectivity" for s, _ in sims)),
        "sim.node_periods": node_periods,
        "sim.sync_events": attr_sum("sim.run_simulation", "sync_events"),
        "sim.hn_events": attr_sum("sim.run_simulation", "hn_events"),
        "sim.dual_label_events": attr_sum("sim.run_simulation", "dual_label_events"),
        "sim.expired_ratio": attr_sum("sim.run_simulation", "expired") / node_periods if node_periods else 0.0,
        "sim.delivered_ratio": attr_sum("sim.run_simulation", "delivered") / transmitted if transmitted else 0.0,
        "sim.export.s": sum(total(f"sim.export.{k}") for k in ("outcome", "bits", "stats")),
        "sim.export.bits_s": total("sim.export.bits"),
        "sim.export.bytes": sum(attr_sum(f"sim.export.{k}", "bytes") for k in ("outcome", "bits", "stats")),
        "analytic.solve_tau.s": total("analytic.solve_tau"),
        "analytic.solve_tau.calls": calls("analytic.solve_tau"),
        "analytic.solve_tau.iterations": attr_sum("analytic.solve_tau", "iterations"),
        "analytic.expected_backoff_slots.s": total("analytic.expected_backoff_slots"),
        "analytic.expected_backoff_slots.calls": calls("analytic.expected_backoff_slots"),
        "analytic.convergence_errors": float(
            sum(s[4].get("error") == "ConvergenceError" for s, _ in spans_of("analytic.solve_tau"))
        ),
        "cli.report.parse_s": float(sum(st for _, st in spans_of("cli.report"))),
        "metrics.estimate_irt.s": total("metrics.estimate_irt"),
        "metrics.total_wait_periods.s": total("metrics.total_wait_periods"),
        "metrics.total_wait_periods.calls": calls("metrics.total_wait_periods"),
        "metrics.compare.s": total("metrics.compare"),
        "policy.draw_matrix.s": total("policy.draw_matrix"),
        "policy.draws": attr_sum("policy.draw_matrix", "draws"),
        "geometry.drop_nodes.s": total("geometry.drop_nodes"),
        "geometry.subsample.s": total("geometry.subsample"),
        "geometry.build_adjacency.s": total("geometry.build_adjacency"),
        "geometry.build_adjacency.calls": calls("geometry.build_adjacency"),
        "geometry.adjacency_density": (
            statistics.fmean(a["edges"] / (a["n"] * (a["n"] - 1)) for a in adj if a["n"] > 1) if adj else 0.0
        ),
        "config.parse_config.s": total("config.parse_config"),
    }
    # Self time per module; with the unattributed remainder (the CLI's own
    # argument handling and the gaps between stages) it adds up to the sweep.
    for module in MODULES:
        m[f"self.{module}.s"] = float(sum(st for s, st in zip(spans, selfs) if s[0].split(".", 1)[0] == module))
    m["trace.unattributed_s"] = traced_sweep_s - sum(selfs)
    if m["trace.unattributed_s"] < -1e-6:
        problems.append("spans cover more than the traced sweep")
    if abs(sum(m[f"self.{k}.s"] for k in MODULES) + m["trace.unattributed_s"] - traced_sweep_s) > 1e-6:
        problems.append("self times plus remainder do not add up to the traced sweep")
    if m["analytic.convergence_errors"] or any("error" in s[4] for s in spans if s[0] != "analytic.solve_tau"):
        problems.append("a traced call raised")
    return m, problems


# ---------------------------------------------------------------- run record


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = ROOT / "src" / "priobeacon"
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": _sha(*(p.read_bytes() for p in sorted(src.glob("*.py")))),
        "threads": CHILD_ENV,
    }


def load_expected(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def median(xs):
    return float(statistics.median(xs))


# ---------------------------------------------------------------- main


def sweep_time(res: dict) -> float:
    """Back-to-back drop + analyze + simulate + report of one sweep process."""
    return sum(res["stage_s"].values())


def sweep(run_dir: Path, name: str, config: Path, periods: int, expected, deadline: float, spans: bool = False):
    """One checked sweep; returns (child result or None, check dict)."""
    res = run_child(run_dir, name, "sweep", config, deadline, spans=spans)
    if res is None:
        return None, {**_all_failed("sweep process failed or timed out"), "tree": None}
    check = check_sweep(run_dir / name, periods, res["rc"], expected)
    check["tree"] = tree_digest(run_dir / name) if (run_dir / name).is_dir() else None
    return res, check


def measure_end_to_end(args, run_dir: Path, config: Path, periods: int, expected, deadline: float, record: dict):
    """--trace 0: closed loop of sweeps inside the window, then set-up samples.

    Another sweep starts only if it is expected to end inside `--seconds`;
    at least one runs.  Set-up-only processes top the set-up samples (one
    per sweep) up to SETUP_SAMPLES.
    """
    checks, sweeps, problems, walls = [], [], [], []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        name = f"sweep{len(checks)}"
        res, check = sweep(run_dir, name, config, periods, expected, deadline)
        shutil.rmtree(run_dir / name, ignore_errors=True)
        checks.append(check)
        if res is None:
            break
        sweeps.append(res)
        walls.append(time.monotonic() - t0)
        if time.monotonic() - started + statistics.fmean(walls) > args.seconds:
            break
    setups = [r["setup_s"] for r in sweeps]
    while sweeps and len(setups) < SETUP_SAMPLES:
        res = run_child(run_dir, f"setup{len(setups)}", "setup", config, deadline)
        if res is None:
            problems.append("set-up process failed")
            break
        setups.append(res["setup_s"])
    if len({c["tree"] for c in checks if c["tree"]}) > 1:
        problems.append("repeated sweeps at one seed wrote different bytes")
        for c in checks:
            c["failed"].update({i: "nondeterministic outputs" for i, *_ in GRID})
    record.update(sweep_walls=walls, sweeps=len(sweeps))
    if not sweeps:
        return checks, sweeps, {}, problems
    # Per-stage medians go to the run record, not to BENCHMARK.json: their
    # run-to-run spread on a shared 2-vCPU machine exceeds any bound the
    # benchmark may set (see README.md, Noise).
    record["extra_metrics"] = {
        f"{stage}_s": {"value": median([r["stage_s"][stage] for r in sweeps]), "unit": "s"}
        for stage in ("analyze", "simulate", "report")
    }
    metrics = {
        "sweep_s": (median([sweep_time(r) for r in sweeps]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in sweeps]), "MB"),
    }
    return checks, sweeps, metrics, problems


def measure_layers(run_dir: Path, config: Path, periods: int, expected, deadline: float, record: dict):
    """--trace 1: an untraced and a traced sweep at one seed; per-layer figures from the spans."""
    problems = []
    plain, plain_check = sweep(run_dir, "untraced", config, periods, expected, deadline)
    traced, traced_check = sweep(run_dir, "traced", config, periods, expected, deadline, spans=True)
    checks = [plain_check, traced_check]
    for name in ("untraced", "traced"):
        shutil.rmtree(run_dir / name, ignore_errors=True)
    if plain is None or traced is None:
        return checks, [], {}, problems
    if plain_check["tree"] != traced_check["tree"]:
        problems.append("traced outputs differ from untraced outputs")
        traced_check["failed"].update({i: "traced outputs differ" for i, *_ in GRID})
    with open(run_dir / "traced.spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    layers, layer_problems = layer_metrics(spans, sweep_time(traced))
    problems += layer_problems
    layers["setup.import_s"] = traced["import_s"]
    layers["cli.output_bytes"] = float(traced_check["bytes"])
    layers["cli.absent_category_rows"] = float(len(traced_check["absent"]))
    layers["trace.sweep_s"] = sweep_time(traced)
    layers["trace.overhead_s"] = sweep_time(traced) - sweep_time(plain)
    record["spans"] = len(spans)
    return checks, [plain, traced], {k: (v, unit_of(k)) for k, v in layers.items()}, problems


def record_digests(workload: str, run_dir: Path, config: Path, periods: int, deadline: float) -> int:
    res, check = sweep(run_dir, "sweep0", config, periods, None, deadline)
    shutil.rmtree(run_dir / "sweep0", ignore_errors=True)
    if res is None or check["failed"]:
        print(f"error: cannot record from a failing sweep: {check['failed']}", file=sys.stderr)
        return 1
    book = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    book[workload] = {"seed": DEFAULT_SEED, "absent": [list(a) for a in check["absent"]], "points": check["digests"]}
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(check['digests'])} point digests for {workload}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="record the default-seed digests instead of checking")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "priobeacon" / "__init__.py").is_file():
        print(f"error: no priobeacon source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.record else args.seed
    run_dir = WORK / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "experiment.ini"
    config.write_text(config_text(args.workload, seed), encoding="ascii")
    periods = periods_of(args.workload)
    record = {"workload": args.workload, "seed": seed, "trace": args.trace, "env": environment()}
    try:
        if args.record:
            return record_digests(args.workload, run_dir, config, periods, deadline)
        expected = load_expected(args.workload, seed)
        record["digest_checked"] = expected is not None
        if args.trace == 0:
            checks, results, metrics, problems = measure_end_to_end(
                args, run_dir, config, periods, expected, deadline, record)
        else:
            checks, results, metrics, problems = measure_layers(run_dir, config, periods, expected, deadline, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = len(GRID) * len(checks)
    failed = sum(len(c["failed"]) for c in checks)
    tau_devs = [d for c in checks for d in c["tau_dev"]]
    record.setdefault("extra_metrics", {}).update(
        failed_point_ratio={"value": failed / attempted, "unit": "ratio"},
        tau_abs_dev_max={"value": max(tau_devs) if tau_devs else None, "unit": "1"},
    )
    record.update(
        versions=results[0]["versions"] if results else None,
        absent_category_rows=len(checks[0]["absent"]),
        problems=problems,
        failures=sorted({f"point {i}: {why}" for c in checks for i, why in c["failed"].items()})[:20],
    )
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    if not metrics:
        print("error: no sweep completed; see " + str(run_dir), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(("ratio", "density")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
