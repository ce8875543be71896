"""The traced benchmark run stays faithful to the program it wraps.

`perfbench/traced.py` replaces layer functions at the module paths their
callers look them up under, so a refactor that moves a name would leave a
layer without spans, or break the traced run.  This runs it on a G.704 +
V.35 campaign in a child process, next to an untraced `berbench run`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = {
    "schema": "ber-campaign-config/1",
    "interfaces": ["G.704", "V.35"],
    "rates": {"G.704": [256], "V.35": [2048]},
    "ber0": 1e-4,
    "channel": {"kind": "bsc", "p": 1e-5, "seed": 3},
}

#: Every layer that runs on CONFIG (no session uses the HDB3 codec).
LAYERS = {
    "setup",
    "cli.load_config",
    "procedure.run_campaign",
    "cli.report",
    "meter.analyzer_self_test",
    "testbed.resolve_chain",
    "testbed.dut_open_session",
    "meter.measure",
    "testbed.loopback",
    "channel.apply",
    "framing.build_multiframes",
    "framing.g704_align",
    "prbs.generate",
    "prbs.synchronize",
    "prbs.count_errors",
}


def _python(tmp_path, *args):
    pythonpath = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, timeout=300
    )


def test_traced_run_matches_untraced_run_and_spans_every_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    run = ("run", "--config", str(config), "--out")
    plain = _python(tmp_path, "-m", "berbench.cli", *run, str(tmp_path / "plain"))
    spans_path = tmp_path / "spans.json"
    traced = _python(
        tmp_path, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "run-0", "--",
        *run, str(tmp_path / "traced"),
    )
    assert plain.stderr == traced.stderr == b""
    assert plain.returncode == traced.returncode
    assert plain.stdout == traced.stdout
    for suffix in (".json", ".txt"):
        plain_bytes = (tmp_path / ("plain" + suffix)).read_bytes()
        assert plain_bytes == (tmp_path / ("traced" + suffix)).read_bytes()

    spans = json.loads(spans_path.read_text())["spans"]
    assert LAYERS <= {span["name"] for span in spans}
    assert all(span["end"] is not None and "raised" not in span for span in spans)
