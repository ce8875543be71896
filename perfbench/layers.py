"""Per-layer metrics from the spans of one traced run (see traced.py).

Busy time is the sum of a name's span durations; self time subtracts the
part of each span that its child spans cover.  Every name below is the
module of the layer, then the function or the quantity.
"""
from __future__ import annotations

from collections import defaultdict

#: Top-level spans: everything a `berbench run` does after interpreter start.
TOP_LEVEL = ("setup", "cli.load_config", "procedure.run_campaign", "cli.report")

#: Per-layer metric name -> unit, in the order they are printed.
UNITS = {
    "channel.apply.busy_s": "s",
    "channel.apply.bits": "bit",
    "channel.apply.mbit_s": "Mbit/s",
    "channel.flipped_bits": "bit",
    "framing.hdb3_encode.busy_s": "s",
    "framing.hdb3_encode.bits": "bit",
    "framing.hdb3_decode.busy_s": "s",
    "framing.hdb3_decode.bits": "bit",
    "framing.build_multiframes.busy_s": "s",
    "framing.build_multiframes.bits": "bit",
    "framing.g704_align.busy_s": "s",
    "framing.g704_align.bits": "bit",
    "framing.align_failures": "count",
    "prbs.generate.busy_s": "s",
    "prbs.generate.bits": "bit",
    "prbs.generate.mbit_s": "Mbit/s",
    "prbs.synchronize.busy_s": "s",
    "prbs.synchronize.bits": "bit",
    "prbs.synchronize.mbit_s": "Mbit/s",
    "prbs.count_errors.busy_s": "s",
    "prbs.count_errors.bits": "bit",
    "prbs.count_errors.mbit_s": "Mbit/s",
    "prbs.lock_ratio": "ratio",
    "meter.analyzer_self_test.busy_s": "s",
    "meter.measure.calls": "count",
    "meter.measure.self_s": "s",
    "meter.segments": "count",
    "testbed.loopback.self_s": "s",
    "testbed.line_expansion": "ratio",
    "testbed.dut_open_session.calls": "count",
    "testbed.resolve_chain.busy_s": "s",
    "procedure.run_campaign.self_s": "s",
    "cli.load_config.busy_s": "s",
    "cli.report.busy_s": "s",
    "trace.campaign_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_share": "ratio",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, except the `trace.*_s` ones.

    Those are process wall times, which run.py measures around the child.
    """
    spans = trace["spans"]
    busy, own = busy_and_self(spans)
    calls: dict[str, int] = defaultdict(int)
    bits: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span["name"]] += 1
        bits[span["name"]] += span["bits"]
    syncs = [s for s in spans if s["name"] == "prbs.synchronize"]
    top = sum(
        s["end"] - s["start"] for s in spans if s["parent"] is None and s["name"] in TOP_LEVEL
    )
    out = {
        "channel.flipped_bits": sum(s.get("flipped", 0) for s in spans),
        "framing.align_failures": sum(
            1 for s in spans if s["name"] == "framing.g704_align" and "raised" in s
        ),
        "prbs.lock_ratio": sum(s["locked"] for s in syncs) / len(syncs),
        "meter.measure.calls": calls["meter.measure"],
        "meter.measure.self_s": own["meter.measure"],
        "meter.segments": sum(
            1 for s in spans
            if s["name"] == "testbed.loopback"
            and spans[s["parent"]]["name"] == "meter.measure"
        ),
        "testbed.loopback.self_s": own["testbed.loopback"],
        "testbed.line_expansion": bits["channel.apply"] / bits["testbed.loopback"],
        "testbed.dut_open_session.calls": calls["testbed.dut_open_session"],
        "testbed.resolve_chain.busy_s": busy["testbed.resolve_chain"],
        "procedure.run_campaign.self_s": own["procedure.run_campaign"],
        "cli.load_config.busy_s": busy["cli.load_config"],
        "cli.report.busy_s": busy["cli.report"],
        "meter.analyzer_self_test.busy_s": busy["meter.analyzer_self_test"],
        "trace.top_level_share": top / trace["wall_s"],
    }
    for name in ("channel.apply", "prbs.generate", "prbs.synchronize", "prbs.count_errors",
                 "framing.hdb3_encode", "framing.hdb3_decode",
                 "framing.build_multiframes", "framing.g704_align"):
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.bits"] = bits[name]
        if f"{name}.mbit_s" in UNITS:
            out[f"{name}.mbit_s"] = bits[name] / busy[name] / 1e6 if busy[name] else 0.0
    return out


def busy_and_self(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Busy and self seconds per span name."""
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["end"] is None:
            raise ValueError(f"span {span['name']} never ended")
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        own[span["name"]] += duration
        if span["parent"] is not None:
            own[spans[span["parent"]]["name"]] -= duration
    return busy, own
