"""Names the package exports, and names the traced benchmark patches, must
resolve: a rename or deletion in the package fails here rather than at the
importer or in `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import priobeacon
from priobeacon.geometry import CategoryThresholds, RegionSpec, drop_nodes
from priobeacon.policy import BackoffPolicy
from priobeacon.sim import SimConfig, run_simulation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_module_exports_resolve():
    modules = [importlib.import_module(f"priobeacon.{m.name}") for m in pkgutil.iter_modules(priobeacon.__path__)]
    assert modules
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"__all__ lists names that do not exist: {stale}"


def test_tracer_wrapped_names_resolve():
    tracer = _load_tracer()
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
    tracer = _load_tracer()
    scenario = drop_nodes(RegionSpec(), CategoryThresholds(), 5 / RegionSpec().area, seed=0)
    config = SimConfig(scenario=scenario, policy=BackoffPolicy.traditional(15), n_periods=20, seed=1)
    attrs = tracer._run_simulation_attrs((config,), {}, run_simulation(config))
    assert attrs["cw"] == 15 and attrs["engine"] == "slot-walker"
    assert attrs["node_periods"] == 5 * 20 == attrs["transmitted"] + attrs["expired"]
