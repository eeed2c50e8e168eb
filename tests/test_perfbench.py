"""The traced benchmark patches package functions by name, so a rename in the
package must fail here rather than break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    unresolved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.WRAPPED
        if not callable(getattr(owner, attr, None))
    ]
    assert not unresolved, f"perfbench/tracer.py wraps names that no longer exist: {unresolved}"
