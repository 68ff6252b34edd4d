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
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, get_type_hints

from .centrality import IndicatorKind, rank_edges, rank_nodes
from .efficiency import network_efficiency
from .ingest import FIRST_YEAR, FLOWS, LAST_YEAR, ParseReport
from .ingest import build_yearly_networks, parse_trade_file
from .network import TradeNetwork
from .resilience import summarize
from .simulation import (
    ScenarioConfig,
    TargetKind,
    child_seed,
    plan_scenario,
    rank_by_impact,
    read_dataclass,
    run_random_control,
    run_shock_recovery,
)

# Resilience columns of reports.csv and summary.json; each lower-cased is a ResilienceReport field.
_REPORT_COLUMNS = ("R", "LONE_DS", "LONE_RS", "Resilience", "NE0")
_TRAJECTORY_HEADER = ("run_id", "year", "indicator", "target_kind", "t", "phase", "NE", "NE_std")


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
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
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
    run_id: str,
    year: int,
    net: TradeNetwork,
    config: ScenarioConfig,
    baseline: float,
    out_dir: Path,
) -> dict:
    if config.indicator is IndicatorKind.random:
        control = run_random_control(net, config, baseline)
        trajectory = control.mean
        spread: Sequence[float] | None = control.std
    else:
        trajectory = run_shock_recovery(net, config, baseline)
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
        **{column: getattr(report, column.lower()) for column in _REPORT_COLUMNS},
    }


@dataclass(frozen=True)
class Manifest:
    """A ``simulate`` manifest, or the one its flags build; ``years`` ends as a ``--years`` spec."""

    input: str
    output_dir: str
    scenarios: list
    flow: str = "import"
    years: object = "all"
    master_seed: int = 0
    jobs: int = 1  # accepted from older manifests and ignored: scenarios run one after another

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("needs a non-empty scenarios list")
        if self.master_seed < 0:
            raise ValueError(f"needs master_seed >= 0, got {self.master_seed}")
        if self.flow not in FLOWS:  # before the input is read
            raise ValueError(f"needs flow in {FLOWS}, got {self.flow!r}")
        if self.jobs < 1:
            raise ValueError(f"needs jobs >= 1, got {self.jobs}")
        if isinstance(self.years, list) and all(type(y) is int for y in self.years):
            object.__setattr__(self, "years", ",".join(map(str, self.years)))
        elif not isinstance(self.years, str):
            raise ValueError(
                f"has years={self.years!r}, expected 'all', a year spec or a list of integers"
            )


def _load_manifest(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        raise ValueError(f"manifest {path} is nested too deeply to read") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from None


def _manifest_from_flags(args: argparse.Namespace) -> dict:
    if args.input is None or args.output_dir is None:
        raise ValueError("simulate needs --input and --output-dir (or --manifest)")
    indicators = [token.strip() for token in args.indicators.split(",") if token.strip()]
    if not indicators:
        raise ValueError("no indicators given")
    options = {f.name: getattr(args, f.name) for f in fields(ScenarioConfig) if f.name in args}
    return {
        "input": args.input,
        "flow": args.flow,
        "years": "all" if args.years is None else args.years,
        "output_dir": args.output_dir,
        "master_seed": args.seed,
        "scenarios": [
            {"target_kind": args.target, "indicator": name, **options} for name in indicators
        ],
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    raw = _load_manifest(args.manifest) if args.manifest is not None else _manifest_from_flags(args)
    try:
        manifest = read_dataclass(Manifest, raw)
    except ValueError as exc:
        raise ValueError(f"manifest {exc}") from None
    out_dir = Path(manifest.output_dir)

    networks, years = _load_years(manifest.input, manifest.flow, manifest.years)

    # Validate every scenario on every year before running any, so bad input exits 1.
    tasks: list[tuple[str, int, ScenarioConfig]] = []
    seen: set[str] = set()
    for number, spec in enumerate(manifest.scenarios, start=1):
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
            run_seed = child_seed(manifest.master_seed, zlib.crc32(run_id.encode("ascii")))
            tasks.append((run_id, year, replace(scenario, master_seed=run_seed)))
    # The raw efficiency of each intact year, shared by its runs. A shock only
    # removes edges, so no run overflows once its year's baseline is finite.
    baselines = {year: network_efficiency(networks[year]).raw_efficiency for year in years}

    (out_dir / "trajectories").mkdir(parents=True, exist_ok=True)
    results: list[dict] = []
    failures: list[tuple[str, str]] = []
    for run_id, year, config in tasks:
        try:
            results.append(_run_one(run_id, year, networks[year], config, baselines[year], out_dir))
        except Exception as exc:  # noqa: BLE001 - reported per scenario; the others still run
            failures.append((run_id, str(exc)))

    results.sort(key=lambda row: (row["year"], row["indicator"], row["target_kind"]))
    lines = [",".join(("year", "indicator", "target_kind", *_REPORT_COLUMNS))]
    for row in results:
        lines.append(
            f"{row['year']},{row['indicator']},{row['target_kind']},"
            + ",".join(_fmt(row[column]) for column in _REPORT_COLUMNS)
        )
    _write_atomic(out_dir / "reports.csv", "\n".join(lines) + "\n")

    by_year: dict[str, list[dict]] = {}
    for row in results:
        by_year.setdefault(str(row["year"]), []).append(row)
    summary = {
        "input": manifest.input,
        "flow": manifest.flow,
        "master_seed": manifest.master_seed,
        "years": by_year,
    }
    _write_atomic(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for run_id, message in failures:
        print(f"scenario {run_id} failed: {message}", file=sys.stderr)
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ``ValueError``, so it exits 1 with one line."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # subparsers take its class
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
    indicators = [k.value for k in IndicatorKind]
    p_rank.add_argument("--indicator", required=True, choices=indicators, metavar="INDICATOR")
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
    # A flag per scenario key with a default, but master_seed (--seed). A flag left
    # out is left out of the scenario, so the default is ScenarioConfig's.
    hints = get_type_hints(ScenarioConfig)
    for field in fields(ScenarioConfig):
        if field.default is MISSING or field.name == "master_seed":
            continue
        kind = hints[field.name]
        if kind is bool:
            options = {"action": "store_true"}
        elif issubclass(kind, Enum):
            options = {"choices": [member.value for member in kind]}
        else:
            options = {"type": kind}
        flag = "--" + field.name.replace("_", "-")
        p_sim.add_argument(flag, default=argparse.SUPPRESS, **options)
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # TradeFileError and usage errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
