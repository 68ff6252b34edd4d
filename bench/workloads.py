"""Seeded fixtures and CLI calls for the benchmark's four workloads.

Each workload is one trade-flow CSV (written through the library's own
``write_trade_file``, so the program's ``ingest`` layer parses it), an
optional ``simulate`` manifest, and the one CLI call a user would make on
them. The generators live here rather than in ``tests/netgen.py`` so that
edits to the test fixtures can never change the benchmark's inputs.

Sizes ("full" is what the benchmark measures, "tiny" is for the harness
self-test) and the scenario lists are fixed per workload; only the seed
varies the weights, the random edges and the random controls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tradeshock import TradeRecord, write_trade_file

TRADE_FILE = "trade.csv"
MANIFEST_FILE = "manifest.json"
OUTPUT_DIR = "out"
FIRST_YEAR = 2019


@dataclass(frozen=True)
class Operation:
    """One (year, scenario) run of ``simulate``, or the one ``impact`` call."""

    run_id: str
    year: int
    indicator: str
    target_kind: str
    points: int  # rows of its trajectory CSV; for impact, the probes plus the baseline
    replicates: int = 1

    @property
    def evaluations(self) -> int:
        return self.points * self.replicates


@dataclass(frozen=True)
class Fixture:
    argv: tuple[str, ...]  # CLI arguments, relative to the fixture directory
    operations: tuple[Operation, ...]
    impact_top: int | None = None  # set for the impact call

    @property
    def evaluations(self) -> int:
        return sum(op.evaluations for op in self.operations)


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _codes(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(n)]


def hub_weights(rng: np.random.Generator, n_hubs: int, n_triples: int) -> tuple[list[str], np.ndarray]:
    """Heavy hub core; light periphery triples, each tied to two hubs."""
    n = n_hubs + 3 * n_triples
    codes = _codes("H", n_hubs) + _codes("P", 3 * n_triples)
    w = np.zeros((n, n))
    w[:n_hubs, :n_hubs] = rng.uniform(200.0, 400.0, (n_hubs, n_hubs))
    np.fill_diagonal(w, 0.0)
    for start in range(n_hubs, n, 3):
        members = range(start, start + 3)
        for a in members:
            for b in members:
                if a != b:
                    w[a, b] = rng.uniform(1.0, 3.0)
        for h in rng.choice(n_hubs, size=2, replace=False).tolist():
            for m in members:
                w[h, m] = rng.uniform(40.0, 80.0)
                w[m, h] = rng.uniform(20.0, 40.0)
    return codes, w


def ring_weights(rng: np.random.Generator, n: int, extra_p: float) -> tuple[list[str], np.ndarray]:
    """Two-way ring (strongly connected) plus random extra edges."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = rng.uniform(0.5, 10.0)
        w[(i + 1) % n, i] = rng.uniform(0.5, 10.0)
    extra = (rng.random((n, n)) < extra_p) & (w == 0)
    np.fill_diagonal(extra, False)
    w[extra] = rng.uniform(0.5, 10.0, int(extra.sum()))
    return _codes("R", n), w


def dense_weights(rng: np.random.Generator, n: int, p_edge: float) -> tuple[list[str], np.ndarray]:
    """Erdos-Renyi digraph with continuous weights, so ranks never tie."""
    w = np.zeros((n, n))
    mask = rng.random((n, n)) < p_edge
    np.fill_diagonal(mask, False)
    w[mask] = rng.uniform(0.05, 10.0, int(mask.sum()))
    return _codes("D", n), w


def _records(year: int, codes: list[str], w: np.ndarray) -> list[TradeRecord]:
    # Import flow: the reporter is the importer, so source -> target is partner -> reporter.
    rows, cols = np.nonzero(w)
    return [
        TradeRecord(year, reporter=codes[j], partner=codes[i], flow="import", value=float(w[i, j]))
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def _points(n_targets: int, batch_fraction: float = 0.01, shock_depth: float = 0.5) -> int:
    """Trajectory length: the baseline plus one point per shock and per recovery batch."""
    batch = math.ceil(batch_fraction * n_targets)
    total = math.ceil(shock_depth * n_targets)
    return 1 + 2 * math.ceil(total / batch)


def _simulate(
    directory: Path, seed: int, networks: dict[int, tuple[list[str], np.ndarray]],
    scenarios: list[dict], jobs: int,
) -> Fixture:
    records = [r for year, (codes, w) in networks.items() for r in _records(year, codes, w)]
    write_trade_file(records, directory / TRADE_FILE)
    manifest = {
        "input": TRADE_FILE,
        "output_dir": OUTPUT_DIR,
        "master_seed": seed,
        "jobs": jobs,
        "scenarios": scenarios,
    }
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n")
    operations = []
    for year, (codes, w) in sorted(networks.items()):
        for spec in scenarios:
            n_targets = len(codes) if spec["target_kind"] == "nodes" else int((w > 0).sum())
            replicates = spec.get("replicates", 20) if spec["indicator"] == "random" else 1
            operations.append(
                Operation(
                    f"{year}_{spec['target_kind']}_{spec['indicator']}", year,
                    spec["indicator"], spec["target_kind"], _points(n_targets), replicates,
                )
            )
    return Fixture(("simulate", "--manifest", MANIFEST_FILE), tuple(operations))


def sweep_hub(directory: Path, seed: int, tiny: bool) -> Fixture:
    n_hubs, n_triples = (5, 8) if tiny else (8, 64)
    networks = {
        FIRST_YEAR + k: hub_weights(_rng(seed, 1, k), n_hubs, n_triples) for k in range(2)
    }
    scenarios = [
        {"target_kind": "nodes", "indicator": "out_degree"},
        {"target_kind": "nodes", "indicator": "pagerank", "recovery_order": "reverse_shock_order"},
        {"target_kind": "nodes", "indicator": "betweenness"},
        {"target_kind": "nodes", "indicator": "clustering"},
        {"target_kind": "nodes", "indicator": "random", "replicates": 4},
        {"target_kind": "edges", "indicator": "edge_weight"},
    ]
    return _simulate(directory, seed, networks, scenarios, jobs=2)


def impact_edges(directory: Path, seed: int, tiny: bool) -> Fixture:
    n_hubs, n_triples = (5, 8) if tiny else (8, 64)
    codes, w = hub_weights(_rng(seed, 2), n_hubs, n_triples)
    write_trade_file(_records(FIRST_YEAR, codes, w), directory / TRADE_FILE)
    top = 10
    argv = ("impact", "-i", TRADE_FILE, "--years", str(FIRST_YEAR), "--target", "edges",
            "--top", str(top))
    probes = int((w > 0).sum())
    operation = Operation("impact", FIRST_YEAR, "impact", "edges", probes + 1)
    return Fixture(argv, (operation,), impact_top=top)


def rerank(directory: Path, seed: int, tiny: bool) -> Fixture:
    networks = {FIRST_YEAR: ring_weights(_rng(seed, 3), 20 if tiny else 100, 0.3)}
    scenarios = [
        {"target_kind": "nodes", "indicator": name, "recompute_rankings": True}
        for name in ("betweenness", "within_module", "out_closeness", "hubs")
    ]
    return _simulate(directory, seed, networks, scenarios, jobs=1)


def dense_edges(directory: Path, seed: int, tiny: bool) -> Fixture:
    networks = {FIRST_YEAR: dense_weights(_rng(seed, 4), 30 if tiny else 230, 0.5)}
    scenarios = [
        {"target_kind": "edges", "indicator": "edge_weight"},
        {"target_kind": "edges", "indicator": "random", "replicates": 2,
         "recovery_order": "reverse_shock_order"},
    ]
    return _simulate(directory, seed, networks, scenarios, jobs=1)


WORKLOADS = {
    "sweep_hub": sweep_hub,
    "impact_edges": impact_edges,
    "rerank": rerank,
    "dense_edges": dense_edges,
}


def generate(name: str, directory: Path, seed: int, tiny: bool = False) -> Fixture:
    """Write the workload's input files into ``directory`` and describe its call."""
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](directory, seed, tiny)
