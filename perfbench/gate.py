"""The correctness gate every benchmarked `berbench` run must pass.

A run is correct when:

* its stderr is empty;
* its report JSON hashes to the pinned digest, and its exit code is the
  pinned one, when the seed has a pin (pins.json, recorded by pin.py);
* its report JSON equals, byte for byte, the first report of the same
  config in this benchmark run (each run is its own process);
* every measurement compared exactly ceil(10 / BER_0) bits, without a
  lost lock, over the virtual duration 10 / (rate * BER_0);
* every PASS/FAIL verdict and the exit code follow from the counts in the
  report (a FAIL or NO CONNECTOR verdict is a result, not a failed run);
* the virtual clock ends at the warm-up plus the measurement durations;
* on the fixed-mask workload, every measurement found exactly the flips
  that land on compared payload bits;
* the table on stdout equals the .txt report.

`check_rerender` adds that `berbench report --in` re-renders the .txt
byte-identically, and `self_test` proves that the gate rejects a report
with one flipped byte, a wrong exit code, or output on stderr.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

#: Virtual seconds before the first measurement: analyzer warm-up (900 s)
#: plus the built-in modem's warm-up (300 s).
WARMUP_S = 900 + 300

#: Tuning points measured per rate.
FREQUENCY_POINTS = 3

FRAME_BITS = 256
PAYLOAD_SLOTS = 31


@dataclass(frozen=True)
class Run:
    """What one `berbench run` process left behind."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    report: bytes
    text: bytes


def exact(value) -> Fraction:
    """A JSON number read as the decimal it prints as (1e-05 is 1/100000)."""
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def required_bits(ber0: Fraction) -> int:
    return math.ceil(10 / ber0)


def required_duration(rate_kbps: int, ber0: Fraction) -> int:
    return math.floor(Fraction(10) / (1000 * rate_kbps * ber0) + Fraction(1, 2))


def _payload_index(iface: str, rate_kbps: int, line_pos: int) -> int | None:
    """Payload bit carried at a line-stream position, None for overhead."""
    if iface != "G.704":
        return line_pos
    slots = max(1, min(PAYLOAD_SLOTS, rate_kbps // 64))
    frame, within = divmod(line_pos, FRAME_BITS)
    if not 8 <= within < 8 + 8 * slots:
        return None
    return frame * 8 * slots + within - 8


def expected_mask_errors(indices: list[int], iface: str, rate_kbps: int,
                         order: int, budget: int) -> int:
    """Flips on compared payload bits, for a receiver locked at offset 0."""
    hits = 0
    for pos in indices:
        idx = _payload_index(iface, rate_kbps, pos)
        if idx is not None and order <= idx < order + budget:
            hits += 1
    return hits


def check_run(config: dict, run: Run, reference: bytes | None = None,
              pin: dict | None = None) -> list[str]:
    """Problems with one run of `config`; an empty list means correct."""
    problems = []
    if run.stderr:
        problems.append(f"stderr not empty: {run.stderr[:200]!r}")
    if pin is not None:
        if sha256(run.report) != pin["report_sha256"]:
            problems.append(
                f"report sha256 {sha256(run.report)} != pinned {pin['report_sha256']}"
            )
        if run.exit_code != pin["exit_code"]:
            problems.append(f"exit code {run.exit_code} != pinned {pin['exit_code']}")
    if reference is not None and run.report != reference:
        problems.append("report differs from the first report of the same config")
    if run.stdout != run.text:
        problems.append("table on stdout differs from the .txt report")
    try:
        report = json.loads(run.report)
        problems.extend(_check_report(config, report, run.exit_code))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"report unreadable: {type(exc).__name__}: {exc}")
    return problems


def _check_report(config: dict, report: dict, exit_code: int) -> list[str]:
    problems = []
    ber0 = exact(config["ber0"])
    ber_max = exact(config.get("ber_max", 1e-5))
    order = config.get("pattern", {}).get("order", 15)
    budget = required_bits(ber0)
    mask = config["channel"]["indices"] if config["channel"]["kind"] == "fixed_mask" else None
    if report["schema"] != "ber-campaign-report/1":
        problems.append(f"unexpected schema {report['schema']!r}")
    if exact(report["config"]["ber0"]) != ber0 or exact(report["config"]["ber_max"]) != ber_max:
        problems.append("report resolution or threshold differs from the config")
    names = [r["interface"] for r in report["results"]]
    if names != config.get("interfaces", names):
        problems.append(f"interfaces {names} != requested {config['interfaces']}")

    verdicts = []
    virtual = WARMUP_S
    for result in report["results"]:
        iface = result["interface"]
        verdict = result["verdict"]
        verdicts.append(verdict)
        if verdict == "NO CONNECTOR":
            continue
        rates = config.get("rates", {}).get(iface, [2048])
        measurements = result["measurements"]
        if len(measurements) != FREQUENCY_POINTS * len(rates):
            problems.append(f"{iface}: {len(measurements)} measurements for {len(rates)} rates")
        ok = True
        for m in measurements:
            where = f"{iface} @ {m['rate_kbps']} kbit/s, {m['freq_hz']:g} Hz"
            if m["transmitted_bits"] != budget:
                problems.append(f"{where}: {m['transmitted_bits']} bits compared, not {budget}")
            if m["sync_failed"]:
                problems.append(f"{where}: receiver never locked")
            if m["duration_s"] != required_duration(m["rate_kbps"], ber0):
                problems.append(f"{where}: virtual duration {m['duration_s']} s is wrong")
            virtual += m["duration_s"]
            if m["errored_bits"]:
                ber = Fraction(m["errored_bits"], m["transmitted_bits"])
                kind = "point"
            else:
                ber, kind = ber0, "upper_bound"
            if m["ber"] != {"kind": kind, "value": float(ber)}:
                problems.append(f"{where}: BER {m['ber']} does not follow from the counts")
            ok = ok and ber <= ber_max
            if mask is not None:
                want = expected_mask_errors(mask, iface, m["rate_kbps"], order, budget)
                if m["errored_bits"] != want:
                    problems.append(f"{where}: {m['errored_bits']} errors, mask puts {want}")
        if verdict != ("PASS" if ok else "FAIL"):
            problems.append(f"{iface}: verdict {verdict} does not follow from its measurements")

    want_exit = 2 if "NO CONNECTOR" in verdicts else 1 if "FAIL" in verdicts else 0
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, verdicts give {want_exit}")
    span = report["timestamps"]["virtual_end_s"] - report["timestamps"]["virtual_start_s"]
    if span != virtual:
        problems.append(f"virtual clock ends at {span} s, durations give {virtual} s")
    return problems


def check_rerender(run: Run, rerender: Run) -> list[str]:
    """`berbench report --in` of the run's JSON must reproduce its .txt."""
    problems = []
    if rerender.stdout != run.text:
        problems.append("berbench report --in does not reproduce the .txt byte for byte")
    if rerender.exit_code != run.exit_code:
        problems.append(f"berbench report exit code {rerender.exit_code} != {run.exit_code}")
    if rerender.stderr:
        problems.append(f"berbench report wrote to stderr: {rerender.stderr[:200]!r}")
    return problems


def self_test(config: dict, run: Run, reference: bytes, pin: dict | None) -> list[str]:
    """Faults the gate failed to catch in copies of a run it accepts."""
    middle = len(run.report) // 2
    flipped = run.report[:middle] + bytes([run.report[middle] ^ 1]) + run.report[middle + 1:]
    faults = {
        "one flipped report byte": dataclasses.replace(run, report=flipped),
        "wrong exit code": dataclasses.replace(run, exit_code=run.exit_code ^ 1),
        "output on stderr": dataclasses.replace(run, stderr=b"Traceback"),
    }
    return [
        f"gate self-test: {name} was not reported as a failed run"
        for name, faulty in faults.items()
        if not check_run(config, faulty, reference, pin)
    ]
