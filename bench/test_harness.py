"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB",
              "failed_frac": "ratio"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    expected = {m["name"]: m["unit"] for m in declared}
    expected["failed_frac"] = "ratio"
    if trace == "0":
        assert expected == END_TO_END
    assert printed == expected
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"nproc", "cpu", "python", "numpy", "scipy", "seed"} <= set(env)


def _call(workload: str, workdir: Path):
    fixture = generate(workload, workdir, seed=5, tiny=True)
    result, stderr = run._child(["call", str(run.SRC), "-", *fixture.argv], workdir, 120)
    assert result is not None, stderr
    return fixture, result, stderr


def test_a_corrupted_trajectory_fails_its_operation(tmp_path):
    fixture, result, stderr = _call("sweep_hub", tmp_path)
    assert run.check(fixture, tmp_path, result["exit"], stderr, None)[0] == {}

    op = fixture.operations[0]
    path = tmp_path / "out" / "trajectories" / f"{op.run_id}.csv"
    data = bytearray(path.read_bytes())
    last_line = data.rstrip(b"\n").rfind(b"\n") + 1
    ne_end = data.index(b",", data.index(b",recovery,", last_line) + len(b",recovery,"))
    data[ne_end - 1] = ord("1") if data[ne_end - 1] != ord("1") else ord("2")
    path.write_bytes(bytes(data))

    failures, _ = run.check(fixture, tmp_path, result["exit"], stderr, None)
    assert list(failures) == [op.run_id]
    assert "differs from baseline" in failures[op.run_id]


def test_a_digest_mismatch_or_reported_failure_counts(tmp_path):
    fixture, result, stderr = _call("impact_edges", tmp_path)
    failures, good = run.check(fixture, tmp_path, result["exit"], stderr, None)
    assert failures == {}
    assert run.check(fixture, tmp_path, result["exit"], stderr, good)[0] == {}
    assert len(run.check(fixture, tmp_path, result["exit"], stderr, "0" * 64)[0]) == 1
    assert len(run.check(fixture, tmp_path, 2, stderr, None)[0]) == 1

    sweep = tmp_path / "sweep"
    fixture, result, stderr = _call("sweep_hub", sweep)
    op = fixture.operations[-1]
    failed, _ = run.check(fixture, sweep, 0, f"scenario {op.run_id} failed: boom\n", None)
    assert list(failed) == [op.run_id]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _bench("--workload", "rerank", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_share_parallel_intervals_and_add_up_to_wall():
    def span(span_id, parent, layer, thread, start, end):
        return {"id": span_id, "parent": parent, "layer": layer, "name": layer,
                "thread": thread, "start": start, "end": end}

    root = span(1, None, "cli", 1, 0.0, 10.0) | {"name": "main"}
    trace = [
        root,
        span(2, 1, "ingest", 1, 0.0, 2.0),
        span(3, None, "simulation", 2, 2.0, 8.0),
        span(4, None, "simulation", 3, 4.0, 8.0),
        span(5, 3, "efficiency", 2, 5.0, 6.0),
    ]
    owned = spans.self_times(trace)
    assert owned == {1: 2.0, 2: 2.0, 3: 2.0 + 0.5 + 1.0, 4: 2.0, 5: 0.5}
    assert sum(owned.values()) == root["end"] - root["start"]
