"""Operator front end: measurement plans, campaign runs, report rendering.

Commands
--------
plan     timing table for a rate list at a given resolution
run      execute a campaign and emit JSON + text reports
catalog  list converters and the resolved chain per interface
report   re-render a saved JSON report as text

Exit codes: 0 all interfaces pass, 1 some interface fails, 2 some
interface has no connector, 3 configuration error, a bad command line or
an unwritable output (3 beats 2 beats 1).

Human tables group thousands with a space ("15 625"); JSON carries plain
integers.  Text rendering is a pure function of the JSON report, so a
saved report re-renders byte-identically.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import channel as channel_mod
from .core import (
    BerValue,
    Outcome,
    REPORT_ORDER,
    check_int,
    check_json,
    check_keys,
    check_real,
    exact_fraction,
    format_ber,
    format_duration,
    json_type,
    parse_interface,
)
from .meter import required_duration
from .prbs import PrbsSpec
from .procedure import (
    CampaignConfig,
    CampaignReport,
    VerdictPolicy,
    run_campaign,
)
from .testbed import (
    analyzer_from_dict,
    analyzer_to_dict,
    catalog_from_list,
    profile_from_dict,
    rate_map_from_dict,
    resolve_chain,
)

CONFIG_SCHEMA = "ber-campaign-config/1"
REPORT_SCHEMA = "ber-campaign-report/1"
PLAN_SCHEMA = "ber-plan/1"

#: Rate families shown by the default plan.
PLAN_FAMILIES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("V.35", (64, 128, 192, 256, 320, 384, 448, 512)),
    ("G.703, G.704 (others)", (256, 512, 1024, 2048)),
)


class ConfigError(Exception):
    """Anything wrong with a config document or command arguments."""


def group_thousands(n: int) -> str:
    return f"{n:,}".replace(",", " ")


def _format_resolution(value: Fraction) -> str:
    return format_ber(BerValue(value, is_bound=True))[2:]  # strip "< "


# ---------------------------------------------------------------------------
# plan


def plan_rows(rates: Sequence[int], ber0, family: str | None = None) -> list[dict]:
    rows = []
    for rate in rates:
        seconds = required_duration(rate, ber0)
        rows.append(
            {
                "family": family,
                "rate_kbps": int(rate),
                "seconds": seconds,
                "duration": format_duration(seconds),
            }
        )
    return rows


def build_plan(rates: Sequence[int] | None, ber0) -> dict:
    ber0 = exact_fraction(ber0)
    if rates is None:
        rows = []
        for family, family_rates in PLAN_FAMILIES:
            rows.extend(plan_rows(family_rates, ber0, family))
    else:
        rows = plan_rows(rates, ber0)
    return {"schema": PLAN_SCHEMA, "ber0": float(ber0), "rows": rows}


def render_plan_text(plan: dict) -> str:
    ber0 = exact_fraction(plan["ber0"])
    rows = plan["rows"]
    with_family = any(r.get("family") for r in rows)
    header = ["B (kbit/s)", "t0 (s)", "t0 (h:min:s)"]
    table = [
        [group_thousands(r["rate_kbps"]), group_thousands(r["seconds"]), r["duration"]]
        for r in rows
    ]
    if with_family:
        header.insert(0, "Interface family")
        for row, r in zip(table, rows):
            row.insert(0, r["family"] or "")
    widths = [max(len(header[c]), *(len(row[c]) for row in table)) if table else len(header[c])
              for c in range(len(header))]
    lines = [f"BER measurement plan (resolution {_format_resolution(ber0)})", ""]
    aligned = ["<"] + [">"] * 3 if with_family else [">"] * 3
    lines.append("  ".join(f"{h:{a}{w}}" for h, a, w in zip(header, aligned, widths)))
    for row in table:
        lines.append("  ".join(f"{v:{a}{w}}" for v, a, w in zip(row, aligned, widths)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# campaign configuration


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path} nests too deeply to read") from None


def _channel_from_config(data: dict) -> channel_mod.ChannelModel:
    if "seed" not in data:  # a ValueError, so that `load_config` names the file
        raise ValueError(f"channel {json.dumps(data)} has no seed; seeds must be explicit")
    return channel_mod.model_from_dict(data)


def _load_document(path: Path, schema: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {json_type(data)}")
    if data.get("schema") != schema:
        raise ConfigError(f"{path}: expected schema {schema!r}, got {data.get('schema')!r}")
    return data


#: Sections that may be inline or the name of a file of their own, with
#: the JSON type each holds.
_BENCH_SECTIONS = (
    ("dut", profile_from_dict, dict),
    ("analyzer", analyzer_from_dict, dict),
    ("catalog", catalog_from_list, list),
)


def _resolve_section(data: dict, key: str, base: Path, loader, kind: type):
    value = data[key]
    if isinstance(value, str):  # a file name; an absolute one replaces `base`
        value = _load_json(base / value)
    return loader(check_json(value, repr(key), kind))


def load_config(path: str | Path) -> CampaignConfig:
    path = Path(path)
    data = _load_document(path, CONFIG_SCHEMA)
    base = path.parent
    cfg = CampaignConfig()
    try:
        sections = (key for key, _, _ in _BENCH_SECTIONS)
        keys = ("interfaces", "rates", "ber0", "ber_max", "pattern", "channel")
        check_keys(data, "the config", "schema", *sections, *keys)
        for key, loader, kind in _BENCH_SECTIONS:
            if key in data:
                cfg = replace(cfg, **{key: _resolve_section(data, key, base, loader, kind)})
        if "interfaces" in data:
            names = check_json(data["interfaces"], "'interfaces'", list)
            cfg = replace(cfg, interfaces=tuple(parse_interface(n) for n in names))
        if "rates" in data:
            rates = check_json(data["rates"], "'rates'", list, dict)
            if isinstance(rates, list):  # one list for every interface
                rates = {kind.value: rates for kind in cfg.interfaces}
            cfg = replace(cfg, rates=rate_map_from_dict(rates))
        if "ber0" in data:
            cfg = replace(cfg, measurement=replace(cfg.measurement, ber0=data["ber0"]))
        if "ber_max" in data:
            cfg = replace(cfg, policy=VerdictPolicy(ber_max=data["ber_max"]))
        if "pattern" in data:
            p = check_json(data["pattern"], "'pattern'", dict)
            check_keys(p, "'pattern'", "order", "taps", "seed")
            pattern = PrbsSpec(
                order=p.get("order", 15),
                taps=tuple(check_json(p["taps"], "'taps'", list)) if "taps" in p else None,
                seed=p["seed"] if "seed" in p else None,
            )
            cfg = replace(cfg, measurement=replace(cfg.measurement, pattern=pattern))
        if "channel" in data:
            model = _channel_from_config(check_json(data["channel"], "'channel'", dict))
            cfg = replace(cfg, dut=replace(cfg.dut, loopback_channel=model))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def parse_channel_spec(spec: str, seed: int) -> channel_mod.ChannelModel:
    try:
        return channel_mod.model_from_spec(spec, seed)
    except ValueError as exc:
        raise ConfigError(f"bad channel spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# report serialization and rendering


def _measurement_to_dict(m) -> dict:
    return {
        "rate_kbps": m.rate_kbps,
        "freq_hz": m.freq_hz,
        "transmitted_bits": m.transmitted_bits,
        "errored_bits": m.errored_bits,
        "ber": {
            "kind": "upper_bound" if m.ber.is_bound else "point",
            "value": float(m.ber.value),
        },
        "duration_s": m.duration_s,
        "sync_failed": m.sync_failed,
    }


def report_to_dict(report: CampaignReport) -> dict:
    cfg = report.config
    pattern = cfg.measurement.pattern
    return {
        "schema": REPORT_SCHEMA,
        "dut": cfg.dut.name,
        "analyzer": analyzer_to_dict(cfg.analyzer),
        "config": {
            "ber0": float(cfg.measurement.ber0),
            "ber_max": float(cfg.policy.ber_max),
            "pattern": {
                "order": pattern.order,
                "taps": list(pattern.taps),
                "seed": pattern.seed,
            },
            "channel": channel_mod.model_to_dict(cfg.dut.loopback_channel),
            "rates": {kind.value: list(cfg.rates_for(kind)) for kind in cfg.interfaces},
        },
        "frequencies_hz": report.frequencies._asdict(),
        "results": [
            {
                "interface": r.iface.value,
                "verdict": r.verdict.outcome.value,
                "note": r.verdict.note,
                "converter_used": bool(r.chain),
                "chain": [c.name for c in r.chain] if r.chain is not None else None,
                "measurements": [_measurement_to_dict(m) for m in r.measurements],
            }
            for r in report.results
        ],
        "timestamps": {
            "virtual_start_s": 0,
            "virtual_end_s": report.virtual_end_s,
        },
        "log": [[t, msg] for t, msg in report.log],
    }


def _measurement_ber(m, at: str) -> BerValue:
    m = check_json(m, at, dict)
    ber = check_json(m["ber"], f"{at}.ber", dict)
    kind = check_json(ber["kind"], f"{at}.ber.kind", str)
    check_real(ber["value"], f"{at}.ber.value")
    counts = [check_int(m[key], f"{at}.{key}") for key in ("errored_bits", "transmitted_bits")]
    if kind == "upper_bound":
        return BerValue.upper_bound(ber["value"])
    if kind != "point":
        raise ValueError(f"{at}.ber.kind must be point or upper_bound, got {json.dumps(kind)}")
    return BerValue.point(*counts)


def _worst_ber(measurements, at: str) -> BerValue | None:
    rows = enumerate(check_json(measurements, at, list))
    bers = [_measurement_ber(m, f"{at}[{i}]") for i, m in rows]  # checks every row
    return max(bers, key=lambda b: (b.value, not b.is_bound), default=None)


def render_report_text(report: dict) -> str:
    """The text table of a report, refusing, in JSON terms, any value it
    reads whose JSON type `report_to_dict` does not write there."""
    cfg = check_json(report["config"], "config", dict)
    ber0, ber_max = (exact_fraction(check_real(cfg[k], f"config.{k}")) for k in ("ber0", "ber_max"))
    pattern = check_json(cfg["pattern"], "config.pattern", dict)
    order, seed = (check_int(pattern[key], f"config.pattern.{key}") for key in ("order", "seed"))
    taps = enumerate(check_json(pattern["taps"], "config.pattern.taps", list))
    taps = [check_int(tap, f"config.pattern.taps[{i}]") for i, tap in taps]
    freqs = check_json(report["frequencies_hz"], "frequencies_hz", dict)
    f0, f1, f2 = (check_real(freqs[f], f"frequencies_hz.{f}") / 1e6 for f in ("f0", "f1", "f2"))
    chan = check_json(cfg["channel"], "config.channel", dict)
    channel_mod.model_from_dict(chan)  # refuses a parameter or seed of the wrong type
    params = (f"{k}={chan[k]}" for k in channel_mod.param_names(chan["kind"]))
    chan_text = " ".join([chan["kind"], *params]) + f" (seed {chan['seed']})"

    lines = [
        "BER campaign report",
        "===================",
        f"DUT:        {check_json(report['dut'], 'dut', str)}",
        f"Pattern:    PRBS-{order}, taps ({taps[0]}, {taps[1]}), seed {seed}",
        f"Resolution: BER_0 = {_format_resolution(ber0)}    "
        f"Pass threshold: BER_max = {_format_resolution(ber_max)}",
        f"Channel:    {chan_text}",
        f"Tuning:     f0 = {f0:g} MHz, f1 = {f1:g} MHz, f2 = {f2:g} MHz",
        "",
    ]
    header = ["Traffic interface", "BER result", "Converter used", "Verdict"]
    rows, notes = [], []
    verdicts = [o.value for o in Outcome]
    for i, result in enumerate(check_json(report["results"], "results", list)):
        at = f"results[{i}]"
        result = check_json(result, at, dict)
        iface = check_json(result["interface"], f"{at}.interface", str)
        verdict = check_json(result["verdict"], f"{at}.verdict", str)
        if verdict not in verdicts:
            got = json.dumps(verdict)
            raise ValueError(f"{at}.verdict must be one of {', '.join(verdicts)}, got {got}")
        note = check_json(result.get("note"), f"{at}.note", str, type(None))
        used = check_json(result["converter_used"], f"{at}.converter_used", bool)
        worst = _worst_ber(result["measurements"], f"{at}.measurements")
        if verdict == Outcome.NO_CONNECTOR.value:
            rows.append([iface, "-", "-", verdict])
        else:
            best = "-" if worst is None else format_ber(worst)
            rows.append([iface, best, "YES" if used else "NO", verdict])
        if note:
            notes.append(f"  {iface}: {note}")
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines.append("  ".join(f"{h:<{w}}" for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(f"{v:<{w}}" for v, w in zip(row, widths)).rstrip())
    if notes:
        lines += ["", "notes:", *notes]
    return "\n".join(lines) + "\n"


def exit_code_for(report: dict) -> int:
    verdicts = {r["verdict"] for r in report["results"]}
    return 2 if Outcome.NO_CONNECTOR.value in verdicts else int(Outcome.FAIL.value in verdicts)


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _emit(out: str | None, text: str) -> None:
    """Write `text` to the `--out` path, or to stdout when there is none."""
    if out:
        _write_text(Path(out), text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _parse_rates_arg(text: str) -> tuple[int, ...]:
    try:
        rates = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad rate list {text!r}; expected comma-separated integers") from None
    return rates


def cmd_plan(args) -> int:
    rates = _parse_rates_arg(args.rates) if args.rates is not None else None
    plan = build_plan(rates, exact_fraction(args.ber0))  # `main` reports a refusal
    _emit(args.out, _dump_json(plan) if args.format == "json" else render_plan_text(plan))
    return 0


def _configure(args) -> CampaignConfig:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    if args.ber0 is not None:
        cfg = replace(cfg, measurement=replace(cfg.measurement, ber0=args.ber0))
    if args.bermax is not None:
        cfg = replace(cfg, policy=VerdictPolicy(ber_max=args.bermax))
    model = cfg.dut.loopback_channel
    if args.channel is not None:
        model = parse_channel_spec(args.channel, model.seed)
    if args.seed is not None:
        model = replace(model, seed=args.seed)
    return replace(cfg, dut=replace(cfg.dut, loopback_channel=model))


def cmd_run(args) -> int:
    config = _configure(args)
    base = Path(args.out) if args.out else Path("ber_campaign")
    json_path, text_path = (base.with_name(base.name + suffix) for suffix in (".json", ".txt"))
    if not base.parent.is_dir():  # fail before the campaign, not after it
        raise ConfigError(f"cannot write {json_path}: no directory {base.parent}")
    for path in (json_path, text_path):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
    report = run_campaign(config)
    report_dict = report_to_dict(report)
    json_text = _dump_json(report_dict)
    table_text = render_report_text(report_dict)
    _write_text(json_path, json_text)
    _write_text(text_path, table_text)
    sys.stdout.write(json_text if args.format == "json" else table_text)
    return exit_code_for(report_dict)


def cmd_catalog(args) -> int:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    rate = args.rate
    lines = [f"Converter catalog ({len(cfg.catalog)} converters)", ""]
    name_w = max((len(c.name) for c in cfg.catalog), default=0)
    for conv in cfg.catalog:
        limit = f", up to {conv.max_rate_kbps} kbit/s" if conv.max_rate_kbps else ""
        note = f"  [{conv.notes}]" if conv.notes else ""
        lines.append(f"  {conv.name:<{name_w}}  {conv.describe()}{limit}{note}")
    lines.append("")
    lines.append(f"Chain preview at {rate} kbit/s:")
    kind_w = max(len(k.value) for k in REPORT_ORDER)
    for kind in REPORT_ORDER:
        chain = resolve_chain(cfg.analyzer, kind, cfg.catalog, rate)
        if chain is None:
            text = "no path (no connector)"
        elif not chain:
            text = "native (no converter)"
        else:
            text = " + ".join(c.name for c in chain)
        lines.append(f"  {kind.value:<{kind_w}}  {text}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_report(args) -> int:
    data = _load_document(Path(args.in_path), REPORT_SCHEMA)
    try:
        text = render_report_text(data)
        code = exit_code_for(data)
    except LookupError as exc:  # a key or a list entry is missing
        raise ConfigError(f"{args.in_path}: incomplete report: {exc}") from None
    except (TypeError, ValueError) as exc:  # a value of the wrong type or form
        raise ConfigError(f"{args.in_path}: {exc}") from None
    _emit(args.out, text)
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are configuration errors: one line and exit code 3."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="berbench",
        description="Deterministic BER test campaigns for modem traffic interfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="measurement timing table")
    p_plan.add_argument("--rates", help="comma-separated bit rates in kbit/s")
    p_plan.add_argument("--ber0", default="1e-8", help="measurement resolution (default 1e-8)")
    p_plan.add_argument("--format", choices=("text", "json"), default="text")
    p_plan.add_argument("--out", help="write output to this path instead of stdout")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="execute a campaign")
    p_run.add_argument("--config", help="campaign config JSON (defaults are built in)")
    p_run.add_argument("--ber0", help="override measurement resolution")
    p_run.add_argument("--bermax", help="override pass threshold")
    p_run.add_argument("--seed", type=int, help="override channel seed")
    p_run.add_argument(
        "--channel", help="override channel: " + channel_mod.spec_usage()
    )
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument(
        "--out", help="base path for <out>.json and <out>.txt (default ber_campaign)"
    )
    p_run.set_defaults(func=cmd_run)

    p_cat = sub.add_parser("catalog", help="list converters and chain previews")
    p_cat.add_argument("--config", help="campaign config JSON")
    p_cat.add_argument("--rate", type=int, default=2048, help="preview rate (default 2048)")
    p_cat.add_argument("--out", help="write output to this path instead of stdout")
    p_cat.set_defaults(func=cmd_catalog)

    p_rep = sub.add_parser("report", help="re-render a saved JSON report")
    p_rep.add_argument("--in", dest="in_path", required=True, help="saved JSON report")
    p_rep.add_argument("--out", help="write text to this path instead of stdout")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The process entry of the `berbench` script and `python -m berbench.cli`.

    Freezes the heap the imports left before `main` runs: the run's
    collections and the one at exit then skip it, and a forked worker's
    collections leave the pages it shares with its parent alone.  `main`
    itself does not, because tests call it in their own process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
