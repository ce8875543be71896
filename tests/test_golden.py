"""Golden report digests: the bytes of `berbench run` for fixed configs.

Each case pins the SHA-256 of the JSON report, of the text report, of
what the run writes to stdout and to stderr, and the exit code.  A change that alters the noise stream, the line
path or the renderer moves a digest; one that only makes the program
smaller or faster does not.  Record new values only for a change that
alters the reports on purpose, and say so where the change is described.

The multi-segment cases shrink `meter.SEGMENT_BITS` so that one 10^6-bit
measurement spans four segments, which pins pattern generation from a
nonzero start and a receiver lock inside a later segment.
"""
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from berbench import cli, meter

CONFIG_SCHEMA = "ber-campaign-config/1"

#: The SHA-256 of no bytes: a run that writes nothing to stderr.
EMPTY = hashlib.sha256(b"").hexdigest()

#: (case id, extra argv, config document or None, json sha256, txt sha256,
#:  stdout sha256, stderr sha256, exit code, segment size or None for the default)
CASES = [
    (
        "ideal",
        ("--ber0", "1e-5"),
        None,
        "a38f36c0ec973d1d3adb6001b6707f8c82e2f94086b71b45ddb1ad1bb951c50e",
        "293b63666b297936fe779961c2a54ebb4efbb05b444ca3bae7793cc66509522f",
        "293b63666b297936fe779961c2a54ebb4efbb05b444ca3bae7793cc66509522f",
        EMPTY,
        0,
        None,
    ),
    (
        "bsc",
        ("--ber0", "1e-5", "--channel", "bsc:1e-6", "--seed", "7"),
        None,
        "a6a152795dddb70919015b75430bb40334545feb157104f417e8583c9f0f5023",
        "1f1e4e1b61689c7ce464a036606fcfb6661ac38d50fa3458faa4e124d404da65",
        "1f1e4e1b61689c7ce464a036606fcfb6661ac38d50fa3458faa4e124d404da65",
        EMPTY,
        0,
        None,
    ),
    (
        "ge-v35-stanag",
        ("--channel", "ge:0.05,0.3,1.0,0.9995", "--seed", "11"),
        {
            "interfaces": ["V.35", "STANAG 4210"],
            "rates": {"V.35": [512], "STANAG 4210": [2048]},
            "ber0": 1e-4,
            "ber_max": 1e-4,
        },
        "ec43315418d6f86181276e8d1dd502b0ed14f9d90203713cbff0589be35a852e",
        "a74ea1f43ba4f87d4c66a5f16164ab76fe44fbd18297da0c87a68d25cd9c7ccb",
        "a74ea1f43ba4f87d4c66a5f16164ab76fe44fbd18297da0c87a68d25cd9c7ccb",
        EMPTY,
        1,
        None,
    ),
    (
        # A short-dwell bad state between long good dwells: most calls of
        # the stream lie inside one dwell, at either of two nonzero thresholds.
        "ge-two-threshold",
        ("--channel", "ge:1e-6,1e-3,0.9999,0.9", "--seed", "13"),
        {
            "interfaces": ["V.35", "STANAG 4210"],
            "rates": {"V.35": [512], "STANAG 4210": [2048]},
            "ber0": 1e-5,
        },
        "f06685dd467deb7536a64f5106a761a78220bc8ba389f3e8e6b509638b370921",
        "aa0cd6928af4bf2426e6bafb6e6dc67d3a7362dea187ba201a29aa8c3e608cd2",
        "aa0cd6928af4bf2426e6bafb6e6dc67d3a7362dea187ba201a29aa8c3e608cd2",
        EMPTY,
        1,
        None,
    ),
    (
        # Short dwells in both states near BER_0 1e-6: each of the three
        # 10^7-bit jobs draws hundreds of thousands of dwells, over many
        # schedules.
        "ge-v35-1e-6",
        ("--channel", "ge:0.05,0.3,1.0,0.9995", "--seed", "17"),
        {"interfaces": ["V.35"], "rates": {"V.35": [512]}, "ber0": 1e-6},
        "e62f624ffc18897e6ee8f15313222f004c455d0893e4f7e9ec25e9eed0b36d45",
        "d8f7e6ca40349340d3b733479a8455f0fe13cf04e40d6309d6e621d0f69b7a04",
        "d8f7e6ca40349340d3b733479a8455f0fe13cf04e40d6309d6e621d0f69b7a04",
        EMPTY,
        1,
        None,
    ),
    (
        "mask-g703-g704",
        ("--channel", "mask:9000,12345,50000,400003,777777", "--seed", "5"),
        {"interfaces": ["G.703", "G.704"], "ber0": 1e-5},
        "232623c8550d38fe77705c6f2e3f6a057103781e58d73077af28fa038860df07",
        "685acdd4b8d14a65b91aa8b3c6c4a2c9ce442a0a37927315dd45543c00482c33",
        "685acdd4b8d14a65b91aa8b3c6c4a2c9ce442a0a37927315dd45543c00482c33",
        EMPTY,
        0,
        None,
    ),
    (
        "g704-256",
        ("--channel", "bsc:1e-6", "--seed", "3"),
        {"interfaces": ["G.704"], "rates": {"G.704": [256]}, "ber0": 1e-5},
        "e4d94d008e98aa14d50a62fd5c6685b3863c643ae62b0f067d67fac400c7c5dd",
        "a40ebb7142e211b5bf0f50248cdeef861e58e541b5742d46e2b93bf7fc6c6248",
        "a40ebb7142e211b5bf0f50248cdeef861e58e541b5742d46e2b93bf7fc6c6248",
        EMPTY,
        0,
        None,
    ),
    (
        # So many flips that 7% of the alignment signals are errored: each
        # line loses frame alignment four to six times, at three errored
        # signals in a row, and the frames until it is found again read as
        # zeros.
        "g704-256-noisy",
        ("--channel", "bsc:1e-2", "--seed", "3"),
        {"interfaces": ["G.704"], "rates": {"G.704": [256]}, "ber0": 1e-5},
        "796221bf15ef7dd244549aa3bcb0e20b124faf9aa2f71741da9484f8517c000f",
        "eb937a60b53528ffdf31ca9d1aa5a35e28c2f1c7a21a480704f542c5d61f48ff",
        "eb937a60b53528ffdf31ca9d1aa5a35e28c2f1c7a21a480704f542c5d61f48ff",
        EMPTY,
        1,
        None,
    ),
    (
        "prbs23",
        ("--channel", "bsc:1e-5", "--seed", "23"),
        {"interfaces": ["G.703", "V.35"], "pattern": {"order": 23}, "ber0": 1e-5},
        "21ecf86d6f4f3b4ded9e22dc8655df82597263eb06f4e2e07e9147ead83ce762",
        "0ad15e324a3edf2e907478feb42ab147d17153de23be8ce5cd44e895359e303f",
        "0ad15e324a3edf2e907478feb42ab147d17153de23be8ce5cd44e895359e303f",
        EMPTY,
        1,
        None,
    ),
    (
        "prbs23-segments",
        ("--channel", "bsc:1e-5", "--seed", "29"),
        {
            "interfaces": ["V.35"],
            "rates": {"V.35": [512]},
            "pattern": {"order": 23},
            "ber0": 1e-5,
        },
        "7baea91f106baadbc7c5b0dd1e0ac29453710debde714c52c3c57635eb38e8d7",
        "00a79eb02b476e2082686ba8458783ddda9081608cbbebf3c9ea71f5b5757626",
        "00a79eb02b476e2082686ba8458783ddda9081608cbbebf3c9ea71f5b5757626",
        EMPTY,
        1,
        300_000,
    ),
    (
        # 300301 falls inside the lock window of the second segment, which
        # starts at stream bit 300_000 + 15 + 4 * 64; 650000 is a counted error.
        "mask-segments",
        ("--channel", "mask:12345,300301,650000", "--seed", "5"),
        {"interfaces": ["V.35"], "rates": {"V.35": [512]}, "ber0": 1e-5},
        "b6154fafc2f77f7961b49e365bbd3bfba3d41cf185208fc9030ce580970f4062",
        "21db6ab9eb73444d7581e6d31705183f7e033ec8818108f6f7dc4b1d12224d5d",
        "21db6ab9eb73444d7581e6d31705183f7e033ec8818108f6f7dc4b1d12224d5d",
        EMPTY,
        0,
        300_000,
    ),
    (
        # Four G.704 segments of unequal line length through one session.
        "g704-256-segments",
        ("--channel", "bsc:1e-5", "--seed", "31"),
        {"interfaces": ["G.704"], "rates": {"G.704": [256]}, "ber0": 1e-5},
        "0e2ebd4540b04d15aeaf535657b8a07849fbae78c553b4923b01ff31882559e4",
        "3734ca1788a39e448c41538ce5ca3b474be7349b77e87068d85ca60b01f8cf53",
        "3734ca1788a39e448c41538ce5ca3b474be7349b77e87068d85ca60b01f8cf53",
        EMPTY,
        1,
        300_000,
    ),
    (
        # Every measurement of this G.704 line loses frame alignment.
        "g704-256-lost",
        ("--channel", "bsc:0.5", "--seed", "3"),
        {"interfaces": ["G.704"], "rates": {"G.704": [256]}, "ber0": 1e-5},
        "707efbd86e82d20591fecdd920ff3c012e1f1f07f6e9669c93d3d012097fc0a8",
        "71228ec637722f0d3e8b9c420ee5a940ca62da5df4f3406acff087e9afd3a7ab",
        "71228ec637722f0d3e8b9c420ee5a940ca62da5df4f3406acff087e9afd3a7ab",
        EMPTY,
        1,
        None,
    ),
]

#: The default campaign at full resolution: ideal channel, BER_0 1e-8.
FULL_RESOLUTION = (
    "full-resolution",
    (),
    None,
    "c0c04bb3bd15c039a865ac6e8161db59a48da2f54863a9a3207a82ede9389e73",
    "0d41800a9dab7e97a0d7cb7c2fed598bc24b2eb888ffd78c1da3b14caedbdf82",
    "0d41800a9dab7e97a0d7cb7c2fed598bc24b2eb888ffd78c1da3b14caedbdf82",
    EMPTY,
    0,
    None,
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256(path) -> str:
    return _digest(path.read_bytes())


@pytest.mark.parametrize(
    "argv, config, json_sha, txt_sha, out_sha, err_sha, code, segment_bits",
    [pytest.param(*c[1:], id=c[0]) for c in CASES]
    + [pytest.param(*FULL_RESOLUTION[1:], id=FULL_RESOLUTION[0], marks=pytest.mark.full_resolution)],
)
def test_report_digests(
    tmp_path, capsys, monkeypatch, argv, config, json_sha, txt_sha, out_sha, err_sha, code,
    segment_bits,
):
    if segment_bits is not None:
        monkeypatch.setattr(meter, "SEGMENT_BITS", segment_bits)
    args = ["run", *argv, "--out", str(tmp_path / "report")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": CONFIG_SCHEMA, **config}))
        args += ["--config", str(path)]
    frozen = gc.get_freeze_count()
    assert cli.main(args) == code
    assert gc.get_freeze_count() == frozen  # only the process entry freezes
    out, err = capsys.readouterr()
    assert (_digest(out.encode()), _digest(err.encode())) == (out_sha, err_sha)
    assert (_sha256(tmp_path / "report.json"), _sha256(tmp_path / "report.txt")) == (
        json_sha,
        txt_sha,
    )
    # `report --in` accepts the JSON and renders the same text.
    rendered = tmp_path / "rendered.txt"
    args = ["report", "--in", str(tmp_path / "report.json"), "--out", str(rendered)]
    assert cli.main(args) == code
    assert _sha256(rendered) == txt_sha


def _python(tmp_path, *args) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, timeout=300,
    )


def test_the_process_entry_freezes_the_heap_before_main(tmp_path):
    code = "import gc; from berbench import cli; cli.main = lambda: print(gc.get_freeze_count())"
    child = _python(tmp_path, "-c", f"{code}; cli.entry()")
    assert (child.returncode, child.stderr) == (0, b"")
    assert int(child.stdout) > 0


def test_a_child_process_writes_the_golden_report(tmp_path):
    [(argv, _, json_sha, txt_sha, out_sha, err_sha, code, _)] = [
        c[1:] for c in CASES if c[0] == "bsc"
    ]
    child = _python(tmp_path, "-m", "berbench.cli", "run", *argv, "--out", str(tmp_path / "report"))
    assert child.returncode == code
    assert (_digest(child.stdout), _digest(child.stderr)) == (out_sha, err_sha)
    assert (_sha256(tmp_path / "report.json"), _sha256(tmp_path / "report.txt")) == (
        json_sha,
        txt_sha,
    )
