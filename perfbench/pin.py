"""Record the pinned report digests and exit codes in pins.json.

    python3 perfbench/pin.py

For every workload and each seed in PIN_SEEDS, runs the campaign twice,
in two separate processes.  Both runs must pass the gate (gate.py) and
agree byte for byte; then the report's SHA-256 and the exit code are
pinned.  A later run of the benchmark on a pinned seed must reproduce
them.  Re-pin only for a change that alters reports on purpose.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
from run import PINS, ROOT, SRC, Bench
from workloads import WORKLOADS

PIN_SEEDS = range(16)


def main() -> int:
    if not (SRC / "berbench" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'berbench' / 'cli.py'}", file=sys.stderr)
        return 2
    pins: dict[str, dict[str, dict]] = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in PIN_SEEDS:
            with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
                bench = Bench(workload, seed, Path(tmp), pin=None)
                first, _, _ = bench.run("campaign")
                bench.run("campaign")
            if bench.problems:
                for problem in bench.problems:
                    print(f"INCORRECT: {name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = {
                "report_sha256": gate.sha256(first.report),
                "exit_code": first.exit_code,
            }
            print(f"{name} seed {seed}: exit {first.exit_code} {gate.sha256(first.report)}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
