"""Command-line front end.

Subcommands:

- ingest      per-year network summaries from a trade-flow file
- efficiency  raw and normalized network efficiency per year
- rank        top elements under an influence indicator
- impact      most damaging single-element removals
- simulate    batches of shock-recovery scenarios, written to an output dir

`simulate` accepts either a JSON manifest or flags, runs every
(year, scenario) combination, and writes one trajectory CSV per run plus
a combined report table and a machine-readable summary. All output is
deterministic for a fixed input and master seed: scenario seeds are
derived from the run id, floats are serialized with full round-trip
precision, and rows are sorted.

Exit codes: 0 on success, 1 for bad input or arguments, 2 when one or
more scenarios fail at runtime (completed runs are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .centrality import IndicatorKind, rank_edges, rank_nodes
from .efficiency import network_efficiency
from .ingest import FIRST_YEAR, FLOWS, LAST_YEAR, ParseReport
from .ingest import build_yearly_networks, parse_trade_file
from .network import TradeNetwork
from .resilience import summarize
from .simulation import (
    RecoveryOrder,
    ScenarioConfig,
    TargetKind,
    child_seed,
    plan_scenario,
    rank_by_impact,
    run_random_control,
    run_shock_recovery,
)

_REPORT_HEADER = "year,indicator,target_kind,R,LONE_DS,LONE_RS,Resilience,NE0"
_TRAJECTORY_HEADER = ("run_id", "year", "indicator", "target_kind", "t", "phase", "NE", "NE_std")
_MANIFEST_KEYS = ("input", "output_dir", "scenarios", "flow", "years", "master_seed", "jobs")
# simulate flags that set the scenario key of the same name when given; a flag
# left out is left out of the scenario, so the default is ScenarioConfig's.
_SCENARIO_FLAGS = (
    "batch_fraction",
    "shock_depth",
    "recovery_order",
    "replicates",
    "recompute_rankings",
)


def _fmt(x: float) -> str:
    """Full round-trip float formatting so reruns are byte-identical."""
    return repr(float(x))


def _parse_years(spec: str | None, available: Sequence[int]) -> list[int]:
    if spec is None or spec.strip().lower() == "all":
        return list(available)

    def year(text: str, token: str) -> int:
        text = text.strip()
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"bad year {token!r}")
        return int(text)

    chosen: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token:
            lo_text, _, hi_text = token.partition("-")
            lo, hi = year(lo_text, token), year(hi_text, token)
            if hi < lo:
                raise ValueError(f"bad year range {token!r}")
            if lo < FIRST_YEAR or hi > LAST_YEAR:  # no record has such a year; build no range
                raise ValueError(f"year range {token!r} leaves [{FIRST_YEAR}, {LAST_YEAR}]")
            chosen.extend(range(lo, hi + 1))
        else:
            chosen.append(year(token, token))
    if not chosen:
        raise ValueError(f"years {spec!r} select no year")
    known = set(available)
    missing = sorted(set(chosen) - known)
    if missing:
        raise ValueError(
            f"no data for year(s) {', '.join(map(str, missing))}; "
            f"available: {', '.join(map(str, available))}"
        )
    return sorted(set(chosen))


def _print_diagnostics(report: ParseReport, path: str) -> None:
    print(
        f"{path}: {len(report.records)} records parsed, "
        f"{len(report.row_errors)} malformed rows, "
        f"{report.zero_value_rows} zero-value rows dropped",
        file=sys.stderr,
    )
    for lineno, message in report.row_errors:
        print(f"{path}:{lineno}: {message}", file=sys.stderr)


def _load_years(
    path: str, flow: str, spec: str | None, diagnostics: bool = False
) -> tuple[dict, list[int]]:
    """The yearly networks of a trade file and the years ``spec`` selects.

    ``diagnostics`` prints the parse report first: it explains a file with no record left.
    """
    report = parse_trade_file(path)
    if diagnostics:
        _print_diagnostics(report, path)
    networks = build_yearly_networks(report.records, flow=flow)
    if not networks:
        raise ValueError(f"{path} has no {flow} records")
    return networks, _parse_years(spec, sorted(networks))


def cmd_ingest(args: argparse.Namespace) -> int:
    networks, years = _load_years(args.input, args.flow, args.years, args.summary)
    writer = csv.writer(sys.stdout)
    writer.writerow(("year", "n_economies", "n_relationships", "total_volume", "density"))
    for year in years:
        stats = networks[year].stats()
        writer.writerow(
            (
                year,
                stats.n_nodes,
                stats.n_edges,
                _fmt(stats.total_volume),
                _fmt(stats.density),
            )
        )
    return 0


def cmd_efficiency(args: argparse.Namespace) -> int:
    networks, years = _load_years(args.input, args.flow, args.years)
    results = [(year, network_efficiency(networks[year])) for year in years]  # fail before output
    writer = csv.writer(sys.stdout)
    writer.writerow(("year", "raw_efficiency", "mean_edge_weight", "normalized_efficiency"))
    for year, result in results:
        writer.writerow(
            (
                year,
                _fmt(result.raw_efficiency),
                _fmt(result.reference_mean_weight),
                _fmt(result.normalized_efficiency),
            )
        )
    return 0


def _one_year(args: argparse.Namespace) -> TradeNetwork:
    networks, years = _load_years(args.input, args.flow, args.years)
    if len(years) != 1:
        raise ValueError(f"{args.command} works on exactly one year; pass --years")
    return networks[years[0]]


def _write_ranked(ranked: Iterable[tuple], edges: bool, value_name: str) -> None:
    """One CSV row per (element, value) pair, numbered from 1."""
    writer = csv.writer(sys.stdout)
    writer.writerow(("rank", *(("source", "target") if edges else ("economy",)), value_name))
    for pos, (element, value) in enumerate(ranked, start=1):
        writer.writerow((pos, *(element if edges else (element,)), _fmt(value)))


def cmd_rank(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ValueError(f"top_k must be >= 1, got {args.top}")
    net = _one_year(args)
    kind = IndicatorKind(args.indicator)
    edges = kind is IndicatorKind.edge_weight
    ranking = (rank_edges if edges else rank_nodes)(net, kind, seed=args.seed)
    ranked = zip(ranking.ordered_items[: args.top], ranking.scores)
    _write_ranked(ranked, edges, "weight" if edges else "score")
    return 0


def cmd_impact(args: argparse.Namespace) -> int:
    net = _one_year(args)
    kind = TargetKind(args.target)
    _write_ranked(rank_by_impact(net, kind, args.top), kind is TargetKind.edges, "impact")
    return 0


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _run_one(
    run_id: str, year: int, net: TradeNetwork, config: ScenarioConfig, out_dir: Path
) -> dict:
    if config.indicator is IndicatorKind.random:
        control = run_random_control(net, config)
        trajectory = control.mean
        spread: Sequence[float] | None = control.std
    else:
        trajectory = run_shock_recovery(net, config)
        spread = None

    rows = [",".join(_TRAJECTORY_HEADER)]
    for t, ne in enumerate(trajectory.ne):
        std_text = _fmt(spread[t]) if spread is not None else ""
        rows.append(
            f"{run_id},{year},{config.indicator.value},{config.target_kind.value},"
            f"{t},{trajectory.phase(t).value},{_fmt(ne)},{std_text}"
        )
    _write_atomic(out_dir / "trajectories" / f"{run_id}.csv", "\n".join(rows) + "\n")

    report = summarize(trajectory)
    return {
        "run_id": run_id,
        "year": year,
        "indicator": config.indicator.value,
        "target_kind": config.target_kind.value,
        "R": report.r,
        "LONE_DS": report.lone_ds,
        "LONE_RS": report.lone_rs,
        "Resilience": report.resilience,
        "NE0": report.ne0,
    }


def _load_manifest(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    unknown = sorted(set(manifest) - set(_MANIFEST_KEYS))
    if unknown:
        raise ValueError(f"manifest has unknown key {unknown[0]!r}")
    for key in ("input", "output_dir", "scenarios"):
        if key not in manifest:
            raise ValueError(f"manifest is missing {key!r}")
    for key in ("input", "output_dir"):
        if not isinstance(manifest[key], str):
            raise ValueError(f"manifest has {key}={manifest[key]!r}, expected str")
    if not isinstance(manifest["scenarios"], list) or not manifest["scenarios"]:
        raise ValueError("manifest needs a non-empty scenarios list")
    return manifest


def _manifest_from_flags(args: argparse.Namespace) -> dict:
    if args.input is None or args.output_dir is None:
        raise ValueError("simulate needs --input and --output-dir (or --manifest)")
    indicators = [token.strip() for token in args.indicators.split(",") if token.strip()]
    if not indicators:
        raise ValueError("no indicators given")
    options = {
        key: getattr(args, key) for key in _SCENARIO_FLAGS if getattr(args, key) is not None
    }
    return {
        "input": args.input,
        "flow": args.flow,
        "years": args.years if args.years else "all",
        "output_dir": args.output_dir,
        "master_seed": args.seed,
        "scenarios": [
            {"target_kind": args.target, "indicator": name, **options} for name in indicators
        ],
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.manifest is not None:
        manifest = _load_manifest(args.manifest)
    else:
        manifest = _manifest_from_flags(args)

    flow = manifest.get("flow", "import")
    if flow not in FLOWS:
        raise ValueError(f"flow must be one of {sorted(FLOWS)}, got {flow!r}")
    master_seed = manifest.get("master_seed", 0)
    if type(master_seed) is not int or master_seed < 0:
        raise ValueError(f"master_seed must be an integer >= 0, got {master_seed!r}")
    # Scenarios run one after another; "jobs" is still accepted from older manifests.
    jobs = manifest.get("jobs", 1)
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    years_field = manifest.get("years", "all")
    if isinstance(years_field, list) and all(type(y) is int for y in years_field):
        years_text = ",".join(map(str, years_field))
    elif isinstance(years_field, str):
        years_text = years_field
    else:
        raise ValueError(
            f"manifest has years={years_field!r}, expected 'all', a year spec or a list of integers"
        )
    out_dir = Path(manifest["output_dir"])

    networks, years = _load_years(manifest["input"], flow, years_text)

    # Validate every scenario on every year before running any, so bad input exits 1.
    tasks: list[tuple[str, int, ScenarioConfig]] = []
    seen: set[str] = set()
    for number, spec in enumerate(manifest["scenarios"], start=1):
        if not isinstance(spec, dict):
            raise ValueError(f"scenario {number} must be a JSON object")
        try:
            scenario = ScenarioConfig.from_mapping(spec)
        except ValueError as exc:
            raise ValueError(f"scenario {number} {exc}") from None
        for year in years:
            try:
                plan_scenario(networks[year], scenario)
            except ValueError as exc:
                raise ValueError(f"scenario {number} cannot run on {year}: {exc}") from None
            run_id = f"{year}_{scenario.target_kind.value}_{scenario.indicator.value}"
            if run_id in seen:
                raise ValueError(f"duplicate scenario {run_id}")
            seen.add(run_id)
            run_seed = child_seed(master_seed, zlib.crc32(run_id.encode("ascii")))
            tasks.append((run_id, year, replace(scenario, master_seed=run_seed)))

    (out_dir / "trajectories").mkdir(parents=True, exist_ok=True)
    results: list[dict] = []
    failures: list[tuple[str, str]] = []
    for run_id, year, config in tasks:
        try:
            results.append(_run_one(run_id, year, networks[year], config, out_dir))
        except Exception as exc:  # noqa: BLE001 - reported per scenario; the others still run
            failures.append((run_id, str(exc)))

    results.sort(key=lambda row: (row["year"], row["indicator"], row["target_kind"]))
    lines = [_REPORT_HEADER]
    for row in results:
        lines.append(
            f"{row['year']},{row['indicator']},{row['target_kind']},"
            f"{_fmt(row['R'])},{_fmt(row['LONE_DS'])},{_fmt(row['LONE_RS'])},"
            f"{_fmt(row['Resilience'])},{_fmt(row['NE0'])}"
        )
    _write_atomic(out_dir / "reports.csv", "\n".join(lines) + "\n")

    by_year: dict[str, list[dict]] = {}
    for row in results:
        by_year.setdefault(str(row["year"]), []).append(row)
    summary = {
        "input": manifest["input"],
        "flow": flow,
        "master_seed": master_seed,
        "years": by_year,
    }
    _write_atomic(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for run_id, message in failures:
        print(f"scenario {run_id} failed: {message}", file=sys.stderr)
    return 2 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradeshock",
        description="Shock-recovery resilience analysis of trade networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument(
            "--input", "-i", required=required, help="trade-flow CSV (optionally .gz)"
        )
        p.add_argument("--flow", choices=sorted(FLOWS), default="import")
        p.add_argument("--years", help="'all', a year, '2001,2008', or '1988-1992'")

    p_ingest = sub.add_parser("ingest", help="per-year network summaries")
    add_io(p_ingest)
    p_ingest.add_argument(
        "--summary", action="store_true", help="print parse diagnostics to stderr"
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_eff = sub.add_parser("efficiency", help="network efficiency per year")
    add_io(p_eff)
    p_eff.set_defaults(func=cmd_efficiency)

    p_rank = sub.add_parser("rank", help="top elements by an influence indicator")
    add_io(p_rank)
    # Validated by IndicatorKind() so an unknown name exits 1, not a usage error.
    p_rank.add_argument("--indicator", required=True, metavar="INDICATOR")
    p_rank.add_argument("--top", type=int, default=10)
    p_rank.add_argument("--seed", type=int, default=0)
    p_rank.set_defaults(func=cmd_rank)

    p_impact = sub.add_parser("impact", help="most damaging single removals")
    add_io(p_impact)
    p_impact.add_argument("--target", choices=[k.value for k in TargetKind], default="nodes")
    p_impact.add_argument("--top", type=int, default=10)
    p_impact.set_defaults(func=cmd_impact)

    p_sim = sub.add_parser("simulate", help="run shock-recovery scenarios")
    p_sim.add_argument("--manifest", help="JSON scenario manifest (overrides other flags)")
    add_io(p_sim, required=False)
    p_sim.add_argument("--output-dir", "-o")
    p_sim.add_argument("--target", choices=[k.value for k in TargetKind], default="nodes")
    p_sim.add_argument(
        "--indicators",
        default="out_degree",
        help="comma-separated indicator names, one scenario each",
    )
    p_sim.add_argument("--batch-fraction", type=float)  # no defaults: see _SCENARIO_FLAGS
    p_sim.add_argument("--shock-depth", type=float)
    p_sim.add_argument("--recovery-order", choices=[o.value for o in RecoveryOrder])
    p_sim.add_argument("--replicates", type=int)
    p_sim.add_argument("--recompute-rankings", action="store_true", default=None)
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # TradeFileError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
