"""In-memory spans around the public functions of every priobeacon module.

Each wrapped call records (name, start, end, parent span, attributes) with
`time.perf_counter`; attributes carry the counts measured where the work
happens (engine, event counts, solver iterations, bytes written).  A name is
patched in the module that looks it up at call time: `cli` imports
`drop_nodes`, `run_simulation` and `parse_config` by name, and `sim` imports
`build_adjacency` and `draw_matrix` by name, while `analytic.*`, `metrics.*`
and `sim.classify_collision` resolve through their own module's globals.
Nothing in the package is edited; the wrappers only observe arguments and
results, so a traced sweep writes the same bytes as an untraced one.
"""

from __future__ import annotations

import json
import time

from priobeacon import analytic, cli, geometry, metrics, sim


def _run_simulation_attrs(args, _kwargs, out) -> dict:
    outcomes = out.outcomes
    expired = int((outcomes == int(sim.Outcome.EXPIRED)).sum())
    diag = out.diagnostics
    return {
        "cw": args[0].policy.cw,
        "engine": diag["engine"],
        "sync_events": diag["sync_events"],
        "hn_events": diag["hn_events"],
        "dual_label_events": diag["dual_label_events"],
        "node_periods": int(outcomes.size),
        "expired": expired,
        "delivered": int((outcomes == int(sim.Outcome.DELIVERED)).sum()),
        "transmitted": int(outcomes.size) - expired,
    }


def _adjacency_attrs(_args, _kwargs, adj) -> dict:
    return {"n": adj.shape[0], "edges": int(adj.sum())}


# (module or class, attribute, span name, attributes from (args, kwargs, result))
WRAPPED = (
    (cli, "cmd_drop", "cli.drop", None),
    (cli, "cmd_analyze", "cli.analyze", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_report", "cli.report", None),
    (cli, "parse_config", "config.parse_config", None),
    (cli, "drop_nodes", "geometry.drop_nodes", None),
    (cli, "run_simulation", "sim.run_simulation", _run_simulation_attrs),
    (geometry.SpatialScenario, "subsample", "geometry.subsample", None),
    (sim, "build_adjacency", "geometry.build_adjacency", _adjacency_attrs),
    (sim, "draw_matrix", "policy.draw_matrix", lambda a, k, out: {"draws": int(out.size)}),
    (sim, "classify_collision", "sim.classify_collision", None),
    (sim.SimOutcome, "to_outcome_csv", "sim.export.outcome", lambda a, k, out: {"bytes": len(out)}),
    (sim.SimOutcome, "to_bits_text", "sim.export.bits", lambda a, k, out: {"bytes": len(out)}),
    (sim.SimOutcome, "to_stats_csv", "sim.export.stats", lambda a, k, out: {"bytes": len(out)}),
    (analytic, "evaluate", "analytic.evaluate", None),
    (analytic, "solve_tau", "analytic.solve_tau", lambda a, k, out: {"iterations": out.iterations}),
    (analytic, "expected_backoff_slots", "analytic.expected_backoff_slots", None),
    (metrics, "proportion_ci", "metrics.proportion_ci", None),
    (metrics, "total_wait_periods", "metrics.total_wait_periods", None),
    (metrics, "estimate_irt", "metrics.estimate_irt", None),
    (metrics, "compare", "metrics.compare", None),
)


class Tracer:
    """Span recorder; `install` patches the names in WRAPPED, `write` dumps the spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self._stack: list[int] = []

    def _wrap(self, fn, name, attrs_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[4].update(attrs_of(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs_of in WRAPPED:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, attrs_of))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
