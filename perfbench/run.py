"""Campaign benchmark for `berbench run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from the ``src`` directory next
to this one.  Workloads are in workloads.py and BENCHMARK.json.

One client in a closed loop: `berbench run` runs as one child process at
a time, each on config documents generated from ``--seed`` into a
temporary directory inside the checkout.  Every run passes the gate in
gate.py, or the benchmark reports ``correct: false`` and exits 1.

``--trace 0`` times untraced runs for ``--seconds`` and reports, as
medians over the samples:

* campaign_s      host wall time of one `berbench run`, spawn to exit
* pattern_mbit_s  compared pattern bits of the campaign / campaign_s
* peak_rss_mb     ru_maxrss of that child (os.wait4)
* setup_s         the same config with no interfaces: interpreter start,
                  imports, config load and the analyzer self-test

``--trace 1`` alternates untraced runs with traced ones (traced.py) and
reports the per-layer metrics of layers.py as medians over the traced
runs, plus the tracing overhead (traced minus untraced campaign_s).

Human-readable lines come first; the last line of stdout is the JSON
result.  failed_run_ratio is printed there as failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import gate
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

#: Set-up samples per run; their median is setup_s.
SETUP_SAMPLES = 5
#: Fewest timed campaign samples (and traced/untraced pairs) per run.
MIN_SAMPLES = 3
#: A child still running after this many seconds is killed and fails.
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "campaign_s": "s",
    "pattern_mbit_s": "Mbit/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Bench:
    """Child processes of one benchmark run, and the gate's verdicts on them."""

    def __init__(self, workload, seed: int, tmp: Path, pin: dict | None):
        self.tmp = tmp
        self.pin = pin
        pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[str, bytes] = {}
        self.configs: dict[str, tuple[dict, Path]] = {}
        for kind, doc in (("campaign", workload.config(seed)),
                          ("setup", workload.setup_config(seed))):
            path = tmp / f"{kind}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            self.configs[kind] = (doc, path)
        self._count = 0

    def spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, float, int]:
        """Run one child; (exit code, stdout, stderr, wall s, ru_maxrss KiB)."""
        self._count += 1
        out = self.tmp / f"child{self._count}.out"
        err = self.tmp / f"child{self._count}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.read_bytes(), err.read_bytes(), wall, usage.ru_maxrss

    def run(self, kind: str, spans: Path | None = None) -> tuple[gate.Run, float, int]:
        """One `berbench run` of the campaign or set-up config, gated."""
        doc, path = self.configs[kind]
        base = self.tmp / f"{kind}-out{self._count + 1}"
        args = ["run", "--config", str(path), "--out", str(base)]
        if spans is None:
            argv = [sys.executable, "-m", "berbench.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans), str(self._count + 1),
                    "--", *args]
        code, stdout, stderr, wall, rss = self.spawn(argv)
        report = base.with_suffix(".json")
        text = base.with_suffix(".txt")
        run = gate.Run(code, stdout, stderr,
                       report.read_bytes() if report.exists() else b"",
                       text.read_bytes() if text.exists() else b"")
        reference = self.references.setdefault(kind, run.report)
        pin = self.pin if kind == "campaign" else None
        self.record(f"{kind} run {self._count}", gate.check_run(doc, run, reference, pin))
        return run, wall, rss

    def check_first(self, run: gate.Run) -> None:
        """Re-render check, and the gate's self-test on copies of a correct run."""
        saved = self.tmp / "rerender.json"
        saved.write_bytes(run.report)
        code, stdout, stderr, _, _ = self.spawn(
            [sys.executable, "-m", "berbench.cli", "report", "--in", str(saved)]
        )
        self.record("report --in", gate.check_rerender(run, gate.Run(code, stdout, stderr, b"", b"")))
        doc = self.configs["campaign"][0]
        if not gate.check_run(doc, run, self.references["campaign"], self.pin):
            self.problems.extend(gate.self_test(doc, run, self.references["campaign"], self.pin))

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.extend(f"{what}: {p}" for p in problems)
            self.failed += 1


def compared_bits(report: bytes) -> int:
    """Pattern bits the campaign compared; 0 for a report the gate rejected."""
    try:
        doc = json.loads(report)
        return sum(m["transmitted_bits"] for r in doc["results"] for m in r["measurements"])
    except (ValueError, KeyError, TypeError):
        return 0


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced samples for `seconds`; end-to-end metrics and sample counts."""
    bench.run("setup")  # warm-up: bytecode and file caches, not timed
    walls, rss, setups = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(walls) < MIN_SAMPLES
           or len(setups) < SETUP_SAMPLES):
        run, wall, maxrss = bench.run("campaign")
        walls.append(wall)
        rss.append(maxrss)
        if len(walls) == 1:
            bench.check_first(run)
        if len(setups) < SETUP_SAMPLES:
            setups.append(bench.run("setup")[1])
    campaign_s = statistics.median(walls)
    metrics = {
        "campaign_s": campaign_s,
        "pattern_mbit_s": compared_bits(bench.references["campaign"]) / campaign_s / 1e6,
        "peak_rss_mb": statistics.median(rss) / 1024,
        "setup_s": statistics.median(setups),
    }
    counts = {"campaign_s": len(walls), "pattern_mbit_s": len(walls),
              "peak_rss_mb": len(rss), "setup_s": len(setups)}
    return metrics, counts


def trace(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced runs; per-layer medians over traced runs."""
    bench.run("setup")  # warm-up, as in measure()
    plain, traced, per_run = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_SAMPLES:
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for side in order:
            if side == "plain":
                run, wall, _ = bench.run("campaign")
                if not plain:
                    bench.check_first(run)
                plain.append(wall)
            else:
                spans = bench.tmp / f"spans{len(traced)}.json"
                _, wall, _ = bench.run("campaign", spans=spans)
                traced.append(wall)
                try:
                    per_run.append(layers.layer_metrics(json.loads(spans.read_text())))
                except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                    bench.record("traced run", [f"spans unreadable: {exc!r}"])
    if not per_run:
        return {}, {}
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.campaign_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    counts = {name: len(per_run) for name in metrics}
    counts["trace.overhead_s"] = min(len(traced), len(plain))
    counts["trace.campaign_s"] = len(traced)
    return {name: metrics[name] for name in layers.UNITS}, counts


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "berbench" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'berbench' / 'cli.py'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pinned = pins.get(workload.name, {})
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        bench = Bench(workload, args.seed, Path(tmp), pinned.get(str(args.seed)))
        if args.trace:
            metrics, counts = trace(bench, args.seconds)
            units = layers.UNITS
        else:
            metrics, counts = measure(bench, args.seconds)
            units = END_TO_END_UNITS
        pin_seed = args.seed
        if bench.pin is None and pinned:
            # The seed has no pin: check one pinned seed too, untimed, so that
            # every benchmark run compares a report with a pinned digest.
            pin_seed = sorted(map(int, pinned))[args.seed % len(pinned)]
            (Path(tmp) / "pinned").mkdir()
            check = Bench(workload, pin_seed, Path(tmp) / "pinned", pinned[str(pin_seed)])
            check.run("campaign")
            bench.attempted += check.attempted
            bench.failed += check.failed
            bench.problems += [f"pinned seed {pin_seed}: {p}" for p in check.problems]

    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}: {workload.why}")
    print(f"# machine {json.dumps(machine())}")
    print(f"# pinned report digest and exit code checked on seed {pin_seed}")
    bits = compared_bits(bench.references.get("campaign", b""))
    print(f"# compared pattern bits per campaign: {bits}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]:8s} n={counts[name]}")
    ratio = bench.failed / bench.attempted
    print(f"{'failed_run_ratio':34s} {ratio:16.6f} {'ratio':8s} n={bench.attempted}")
    for problem in bench.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
