"""Layer spans for the traced run: recorded in the workload process, analysed by the harness.

The tracer wraps each layer's public functions at the names their callers
look up (``tradeshock.cli.run_shock_recovery``, the ``dijkstra`` name in
``tradeshock.efficiency``, the shock methods of ``TradeNetwork``, ...), so
no source file of the program changes. A span is (id, parent, layer,
name, thread, start, end) plus a few per-call counts; spans stay in memory
and are written as JSON lines once the CLI call has returned.

The layer of a span is the module that defines the wrapped function. The
root span is ``cli.main`` itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("ingest", "network", "efficiency", "centrality", "simulation", "resilience", "cli")
INDICATORS = (
    "betweenness", "within_module", "out_closeness", "hubs",
    "pagerank", "clustering", "out_degree", "edge_weight",
)
TOGGLE_METHODS = ("shock_nodes", "shock_edges", "restore")


def _indicator(args, kwargs, result) -> dict:
    value = args[1] if len(args) > 1 else kwargs.get("indicator", "edge_weight")
    return {"indicator": getattr(value, "value", value)}


def _toggles(args, kwargs, result) -> dict:
    # Every caller in the program passes a list or tuple of elements.
    return {"toggles": len(args[1])}


def _dijkstra_rows(args, kwargs, result) -> dict:
    # One source index gives a vector, several (or all) give one row each.
    return {"rows": 1 if result.ndim == 1 else int(result.shape[0])}


class Tracer:
    """Collects spans from every thread of one workload process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.warnings: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = extra(args, kwargs, result) if extra is not None else None
            spans.append((span_id, parent, layer, name, threading.get_ident(), start, end, info))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer boundary the CLI crosses, and capture RuntimeWarnings."""
        from tradeshock import centrality, cli, efficiency, simulation
        from tradeshock.network import TradeNetwork

        def patch(owner, attr: str, layer: str, extra: Callable | None = None) -> None:
            setattr(owner, attr, self.wrap(layer, attr, getattr(owner, attr), extra))

        patch(cli, "parse_trade_file", "ingest", lambda a, k, r: {"rows": len(r.records)})
        patch(cli, "build_yearly_networks", "ingest")
        for method in ("fork", "stats"):
            patch(TradeNetwork, method, "network")
        for method in TOGGLE_METHODS:
            patch(TradeNetwork, method, "network", _toggles)
        for owner in (cli, simulation):
            patch(owner, "network_efficiency", "efficiency")
            patch(owner, "rank_nodes", "centrality", _indicator)
            patch(owner, "rank_edges", "centrality", _indicator)
        patch(centrality, "shortest_path_costs", "efficiency")
        patch(efficiency, "dijkstra", "efficiency", _dijkstra_rows)
        patch(simulation, "strength", "centrality")
        for attr in ("run_shock_recovery", "run_random_control", "rank_by_impact"):
            patch(cli, attr, "simulation")
        patch(simulation, "run_shock_recovery", "simulation")  # replicates of a random control
        patch(cli, "summarize", "resilience")
        patch(cli, "_write_atomic", "cli", lambda a, k, r: {"bytes": len(a[1].encode())})

        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._record_warning

    def _record_warning(self, message, category, filename, lineno, file=None, line=None) -> None:
        self.warnings.append(
            {"category": category.__name__, "file": Path(filename).name, "message": str(message)}
        )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, name, thread, start, end, info in self.spans:
                record = {
                    "type": "span", "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "thread": thread, "start": start, "end": end,
                }
                record.update(info or {})
                handle.write(json.dumps(record) + "\n")
            for warning in self.warnings:
                handle.write(json.dumps({"type": "warning", **warning}) + "\n")


def load(path: Path) -> tuple[list[dict], list[dict]]:
    spans, warns = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            (spans if record["type"] == "span" else warns).append(record)
    return spans, warns


def self_times(spans: list[dict]) -> dict[int, float]:
    """Wall time each span spends with no child span open, per thread.

    Each thread's innermost open span owns the time until the next span
    boundary. When several threads have a span open at once, that interval
    is shared equally between them, so that self times add up to the root
    span's wall time. The root (``cli.main``, on the main thread) owns only
    the time in which no other span is open on any thread: while worker
    threads run, the main thread is waiting for them.
    """
    root = next(s for s in spans if s["layer"] == "cli" and s["name"] == "main")
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"], s))
        events.append((s["end"], 0, -s["id"], s))  # ends first; inner spans end first
    events.sort(key=lambda e: e[:3])
    stacks: dict[int, list[dict]] = defaultdict(list)
    owned: dict[int, float] = defaultdict(float)
    previous = None
    for t, is_start, _, s in events:
        if previous is not None and t > previous:
            tops = [stack[-1] for stack in stacks.values() if stack]
            busy = [top for top in tops if top is not root]
            for top in busy or tops:
                owned[top["id"]] += (t - previous) / len(busy or tops)
        previous = t
        stack = stacks[s["thread"]]
        if is_start:
            stack.append(s)
        else:
            stack.remove(s)
    return owned


def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[dict], warns: list[dict], cpu_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced CLI call."""
    owned = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    self_s = {layer: 0.0 for layer in LAYERS}
    for span_id, seconds in owned.items():
        self_s[by_id[span_id]["layer"]] += seconds

    def named(layer: str, *names: str) -> list[dict]:
        return [s for s in spans if s["layer"] == layer and (not names or s["name"] in names)]

    def call_ms(group: list[dict], q: float = 50) -> float:
        return 1000.0 * _p([s["end"] - s["start"] for s in group], q)

    root = named("cli", "main")[0]
    wall = root["end"] - root["start"]
    evaluations = [s for s in named("efficiency") if s["name"] != "dijkstra"]
    rows = sum(s["rows"] for s in named("efficiency", "dijkstra"))
    network = named("network")
    simulation = named("simulation")
    simulation_ids = {s["id"] for s in simulation}
    ranking = named("centrality", "rank_nodes", "rank_edges")
    centrality = named("centrality")

    metrics = {
        "ingest.parse_s": sum(owned[s["id"]] for s in named("ingest", "parse_trade_file")),
        "ingest.build_s": sum(owned[s["id"]] for s in named("ingest", "build_yearly_networks")),
        "ingest.rows": sum(s["rows"] for s in named("ingest", "parse_trade_file")),
        "network.mask_s": self_s["network"],
        "network.calls": len(network),
        "network.toggles": sum(s.get("toggles", 0) for s in network),
        "efficiency.calls": len(evaluations),
        "efficiency.self_s": self_s["efficiency"],
        "efficiency.call_ms_p50": call_ms(evaluations),
        "efficiency.call_ms_p99": call_ms(evaluations, 99),
        "efficiency.dijkstra_rows": rows,
        "efficiency.rows_per_call": rows / len(evaluations) if evaluations else 0.0,
        "centrality.calls": len(centrality),
        "centrality.self_s": self_s["centrality"],
        "centrality.warnings": sum(
            1 for w in warns if w["category"] == "RuntimeWarning" and w["file"] == "centrality.py"
        ),
        "simulation.runs": len(simulation),
        "simulation.run_s_p50": _p([s["end"] - s["start"] for s in simulation], 50),
        "simulation.steps": sum(
            1 for s in network if s["name"] in TOGGLE_METHODS and s["parent"] in simulation_ids
        ),
        "simulation.self_s": self_s["simulation"],
        "resilience.calls": len(named("resilience")),
        "resilience.self_s": self_s["resilience"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": sum(s.get("bytes", 0) for s in named("cli", "_write_atomic")),
        "cli.cpu_util": cpu_s / wall,
    }
    for indicator in INDICATORS:
        metrics[f"centrality.{indicator}.call_ms_p50"] = call_ms(
            [s for s in ranking if s["indicator"] == indicator]
        )
    metrics["trace.wall_s"] = wall
    metrics["trace.self_sum_s"] = sum(self_s.values())
    return metrics
