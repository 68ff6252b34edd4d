"""tradeshock benchmark: seeded workloads run through the public CLI, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a source checkout; the program is imported from its
``src`` directory. The run writes the workload's inputs for ``--seed``
(see ``workloads.py``), then alternates a set-up sample and the
workload's one CLI call, each in a fresh process, for about ``--seconds``.
Every call's outputs are checked. With ``--trace 1`` untraced and traced
calls alternate instead; the traced ones give the per-layer metrics
(``spans.py``).

Each metric is printed with its unit and sample count, after a line that
records the environment. The last line is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``, where an operation is
one (year, scenario) run of ``simulate`` or the one ``impact`` command.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
TRAJECTORY_HEADER = ["run_id", "year", "indicator", "target_kind", "t", "phase", "NE", "NE_std"]
IMPACT_HEADER = ["rank", "source", "target", "impact"]
FAILED_LINE = re.compile(r"^scenario (\S+) failed: ", re.MULTILINE)


def _child(args: list[str], cwd: Path, timeout: float) -> tuple[dict | None, str]:
    """Run probe.py; its JSON line, or None when it failed, and its stderr."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        return None, f"timed out after {exc.timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    return json.loads(lines[-1]), proc.stderr


def digest(paths: list[Path], base: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.relative_to(base).as_posix()):
        sha.update(path.relative_to(base).as_posix().encode() + b"\0")
        sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()


def _output_files(fixture, workdir: Path) -> list[Path]:
    if fixture.impact_top is not None:
        return [workdir / "stdout.txt"]
    return [p for p in (workdir / "out").rglob("*") if p.is_file()]


def _check_trajectory(path: Path, op) -> str | None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != TRAJECTORY_HEADER:
        return "bad trajectory header"
    body = rows[1:]
    if len(body) != op.points:
        return f"{len(body)} trajectory rows, expected {op.points}"
    for t, row in enumerate(body):
        if row[:5] != [op.run_id, str(op.year), op.indicator, op.target_kind, str(t)]:
            return f"trajectory row {t} does not belong to {op.run_id}"
    if body[0][5] != "baseline" or body[-1][5] != "recovery":
        return "trajectory does not run from baseline to recovery"
    if body[-1][6] != body[0][6]:
        return f"restored NE {body[-1][6]} differs from baseline NE {body[0][6]}"
    return None


def check(fixture, workdir: Path, exit_code, stderr: str, expected_digest: str | None):
    """Failure message per operation run_id (empty when the call is correct), and the output digest."""
    ops = fixture.operations
    if exit_code != 0:
        return {op.run_id: f"exit code {exit_code}" for op in ops}, None
    got = digest(_output_files(fixture, workdir), workdir)
    if expected_digest is not None and got != expected_digest:
        return {op.run_id: f"output digest {got} != recorded {expected_digest}" for op in ops}, got
    try:
        failures = _check_outputs(fixture, workdir)
    except (OSError, ValueError, IndexError) as exc:
        failures = {op.run_id: f"unreadable output: {exc}" for op in ops}
    for run_id in FAILED_LINE.findall(stderr):
        failures.setdefault(run_id, "reported failed")
    return failures, got


def _check_outputs(fixture, workdir: Path) -> dict:
    ops = fixture.operations
    failures = {}
    if fixture.impact_top is not None:
        with open(workdir / "stdout.txt", newline="") as handle:
            rows = list(csv.reader(handle))
        problem = None
        if not rows or rows[0] != IMPACT_HEADER or len(rows) - 1 != fixture.impact_top:
            problem = f"impact table is not a header and {fixture.impact_top} rows"
        elif any(not float(row[3]) >= 0 for row in rows[1:]):
            problem = "negative impact"
        if problem:
            failures[ops[0].run_id] = problem
        return failures
    with open(workdir / "out" / "reports.csv", newline="") as handle:
        reports = list(csv.reader(handle))[1:]
    keys = [(row[0], row[1], row[2]) for row in reports]
    for op in ops:
        count = keys.count((str(op.year), op.indicator, op.target_kind))
        path = workdir / "out" / "trajectories" / f"{op.run_id}.csv"
        if count != 1:
            failures.setdefault(op.run_id, f"{count} report rows")
        elif not path.is_file():
            failures.setdefault(op.run_id, "no trajectory file")
        else:
            problem = _check_trajectory(path, op)
            if problem:
                failures.setdefault(op.run_id, problem)
    if len(reports) != len(ops):
        failures = {op.run_id: f"{len(reports)} report rows for {len(ops)} runs" for op in ops}
    return failures


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def _median_metrics(samples: list[dict]) -> dict:
    """Per-key median; counts, which repeat exactly, stay whole numbers."""
    merged = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        ints = all(isinstance(v, int) for v in values)
        merged[key] = (statistics.median_low if ints else statistics.median)(values)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "tradeshock" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'tradeshock'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    from workloads import TRADE_FILE, WORKLOADS, generate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    recorded = json.loads(DIGESTS.read_text())
    expected_digest = None
    if args.size == "full" and args.seed == recorded["seed"]:
        expected_digest = recorded["digests"][args.workload]

    workdir = WORK / f"{args.workload}-{args.size}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    fixture = generate(args.workload, workdir, args.seed, tiny=args.size == "tiny")
    print("env " + json.dumps(environment(args)))

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def setup_sample() -> float:
        result, err = _child(["setup", str(SRC), TRADE_FILE], workdir, remaining())
        if result is None:
            raise RuntimeError(f"set-up failed: {err}")
        return result["setup_s"]

    # A set-up sample before each untraced call spreads them over the run, like the calls.
    measure_start = time.perf_counter()
    setup, plain, traced, layer_samples = [], [], [], []
    attempted = failed = 0
    while True:
        iteration_start = time.perf_counter()
        if not args.trace:
            setup.append(setup_sample())
        trace_call = bool(args.trace) and len(plain) > len(traced)
        shutil.rmtree(workdir / "out", ignore_errors=True)
        trace_file = workdir / f"trace-{len(traced)}.jsonl" if trace_call else None
        result, err = _child(
            ["call", str(SRC), str(trace_file) if trace_file else "-", *fixture.argv],
            workdir, remaining(),
        )
        last = time.perf_counter() - iteration_start
        failures, got = check(
            fixture, workdir, None if result is None else result["exit"], err, expected_digest
        )
        attempted += len(fixture.operations)
        failed += len(failures)
        wall_text = "no result" if result is None else f"{result['wall_s']:.3f} s"
        print(f"call {len(plain) + len(traced) + 1}: {'traced' if trace_call else 'untraced'}, "
              f"{wall_text}, output digest {got}, {len(failures)} failed")
        for run_id, problem in sorted(failures.items()):
            print(f"failed {run_id}: {problem.strip()[:300]}")
        if result is None:
            break
        (traced if trace_call else plain).append(result)
        if trace_call:
            metrics = spans.layer_metrics(*spans.load(trace_file), result["cpu_s"])
            metrics["cli.bytes_written"] += (workdir / "stdout.txt").stat().st_size
            layer_samples.append(metrics)
        enough = len(plain) >= 1 and len(traced) >= args.trace
        if enough and time.perf_counter() - measure_start + last > args.seconds:
            break

    if not plain or len(traced) < args.trace:
        print("error: no complete measurement", file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in plain)
    counts = {}
    if args.trace:
        values = _median_metrics(layer_samples)
        traced_wall = values.pop("trace.wall_s")
        self_sum = values.pop("trace.self_sum_s")
        values["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall - 1.0
        print(f"trace: layer self times add up to {self_sum:.6f} s of {traced_wall:.6f} s "
              f"traced wall ({self_sum / traced_wall:.2%})")
    else:
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "evals_per_s": statistics.median(fixture.evaluations / r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024.0,
        }
        counts["setup_s"] = len(setup)
    sample_count = len(traced) if args.trace else len(plain)
    for name in sorted(values):
        print(f"metric {name} = {values[name]!r} {units[name]} "
              f"(median of n={counts.get(name, sample_count)})")
    print(f"metric failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != declared:
        print(f"error: measured {sorted(values)}, declared {sorted(declared)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
