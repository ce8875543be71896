"""The benchmark's pinned reports hold for the checkout's program.

`perfbench/pins.json` pins the SHA-256 of the JSON report and the exit
code of `berbench run` on each workload of `perfbench/workloads.py`, per
seed.  A change that moves a report would otherwise show only in a
benchmark run.  This builds the config of every pinned seed of every
workload and runs the campaign on it; it only reads those two files.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from berbench import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(16)


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclass looks its module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_pinned_report_holds(tmp_path, capsys, name, seed):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(WORKLOADS[name].config(seed), indent=2), encoding="utf-8")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report")])
    assert capsys.readouterr().err == ""
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    pin = PINS[name][str(seed)]
    assert (digest, code) == (pin["report_sha256"], pin["exit_code"])
