"""Names the package exports, and names the traced benchmark patches, must
resolve: a rename or deletion in the package fails here rather than at the
importer or in `perfbench/run.py --trace 1`.  Every exported name must be
used by the package or named in the README, so code only tests reach stays
out of the library.  The benchmark's reading of `summary.txt` must keep
matching what `report` writes."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
from pathlib import Path

import priobeacon
from priobeacon.cli import main
from priobeacon.geometry import CategoryThresholds, RegionSpec, drop_nodes
from priobeacon.policy import BackoffPolicy
from priobeacon.sim import SimConfig, run_simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_exports_resolve():
    modules = [importlib.import_module(f"priobeacon.{m.name}") for m in pkgutil.iter_modules(priobeacon.__path__)]
    assert modules
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"__all__ lists names that do not exist: {stale}"


def test_module_exports_are_used_by_the_package_or_the_readme():
    package = Path(priobeacon.__file__).parent
    used = set()  # names the package's code reads, as a bare name or an attribute
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used |= set(re.findall(r"\w+", (package.parents[1] / "README.md").read_text()))
    modules = [importlib.import_module(f"priobeacon.{m.name}") for m in pkgutil.iter_modules(priobeacon.__path__)]
    unused = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if name not in used]
    assert not unused, f"exported but used only outside the package and its README: {unused}"


def test_tracer_wrapped_names_resolve():
    tracer = _load_perfbench("tracer")
    assert tracer.WRAPPED
    unresolved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.WRAPPED
        if not callable(getattr(owner, attr, None))
    ]
    assert not unresolved, f"perfbench/tracer.py wraps names that no longer exist: {unresolved}"


def test_tracer_reads_a_simulation_result():
    # `cmd_simulate` calls `run_simulations`, so no sweep reaches this wrapper;
    # feed it a real result instead.
    tracer = _load_perfbench("tracer")
    scenario = drop_nodes(RegionSpec(), CategoryThresholds(), 5 / RegionSpec().area, seed=0)
    config = SimConfig(scenario=scenario, policy=BackoffPolicy.traditional(15), n_periods=20, seed=1)
    attrs = tracer._run_simulation_attrs((config,), {}, run_simulation(config))
    assert attrs["cw"] == 15 and attrs["engine"] == "slot-walker"
    assert attrs["node_periods"] == 5 * 20 == attrs["transmitted"] + attrs["expired"]


GUARD_GRID = """
[policy]
policies = traditional proposed
cw = 127
[contention]
n_sta = 5 10
[sim]
periods = 120
full_connectivity = true
[seeds]
master = 5
"""


def _bench_reading(run, line):
    """What `perfbench/run.py` `check_sweep` charges a `missing:` line to, or None for every point."""
    m = run._ABSENT.match(line)
    if m:
        return ("absent", int(m.group(2)), m.group(1))
    m = run._POINT.match(line)
    if m:
        return ("point", int(m.group(1)))
    m = run._KEY.match(line)
    return ("key", tuple(str(v) for v in ast.literal_eval(m.group(1)))) if m else None


def test_bench_runner_reads_every_missing_line_kind(tmp_path):
    # grid points: 0 traditional n_sta 5, 1 traditional 10, 2 proposed 5, 3 proposed 10 (no cat1 node at seed 5)
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(GUARD_GRID + f"[output]\ndir = {tmp_path}/out\n")
    assert main(["analyze", "--config", str(cfgp)]) == 0
    assert main(["simulate", "--config", str(cfgp)]) == 0
    out = tmp_path / "out"
    manifest = (out / "manifest.csv").read_text().splitlines()
    (out / "manifest.csv").write_text("\n".join(manifest[:1] + manifest[2:]) + "\n")  # point 0 has no row
    lines = (out / "analytic.csv").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:4] + ["nan"] * 7)  # traditional n_sta 10: no analytic value
    lines[4] = ",".join(lines[4].split(",")[:4] + ["high"] + lines[4].split(",")[5:])  # proposed cat2 n_sta 5
    lines.append(lines[1].replace(",127,5,", ",127,99,"))  # a row outside the grid
    lines.append("junk")  # a line with no grid key
    (out / "analytic.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--config", str(cfgp)]) == 1

    run = _load_perfbench("run")
    missing = [ln for ln in (out / "summary.txt").read_text().splitlines() if ln.startswith("missing: ")]
    readings = {ln: _bench_reading(run, ln) for ln in missing}
    assert Counter(readings.values()) == Counter([
        ("point", 0),
        ("point", 2),
        ("absent", 3, "cat1"),
        ("key", ("traditional", "all", "127", "10")),
        ("key", ("traditional", "all", "127", "99")),
        None,
    ]), readings
    # a line that names no grid key is the only kind the benchmark charges to every point
    assert [ln for ln, r in readings.items() if r is None] == ["missing: analytic.csv line 11: no grid key in 'junk'"]
