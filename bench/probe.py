"""One measurement in a fresh interpreter: a set-up sample, or one CLI call.

    python3 probe.py setup SRC_DIR TRADE_CSV
    python3 probe.py call SRC_DIR TRACE_FILE|- CLI_ARG...

``SRC_DIR`` is the program's ``src`` directory; the workload process
imports ``tradeshock`` from there and nowhere else. ``call`` runs
``tradeshock.cli.main`` in-process from the current directory, sends the
command's standard output to ``stdout.txt``, and, given a trace file,
records layer spans into it. Either mode prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _import_tradeshock(src: str):
    sys.path.insert(0, src)
    import tradeshock

    if Path(tradeshock.__file__).resolve().parent != (Path(src) / "tradeshock").resolve():
        raise SystemExit(f"tradeshock imported from {tradeshock.__file__}, not {src}")
    return tradeshock


def setup(src: str, trade_csv: str) -> dict:
    """Time what every command pays before its first scenario."""
    start = time.perf_counter()
    tradeshock = _import_tradeshock(src)
    report = tradeshock.parse_trade_file(trade_csv)
    tradeshock.build_yearly_networks(report.records)
    return {"setup_s": time.perf_counter() - start}


def call(src: str, trace_file: str, argv: list[str]) -> dict:
    import contextlib

    _import_tradeshock(src)
    from tradeshock import cli

    main = cli.main
    tracer = None
    if trace_file != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli", "main", cli.main)
    with open("stdout.txt", "w", encoding="utf-8", newline="") as out, contextlib.redirect_stdout(out):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad syntax this way
            code = exc.code
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.write(Path(trace_file))
    return {
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    mode, src = sys.argv[1], sys.argv[2]
    if mode == "setup":
        result = setup(src, sys.argv[3])
    else:
        result = call(src, sys.argv[3], sys.argv[4:])
    print(json.dumps(result))
