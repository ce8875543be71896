"""The benchmark's workloads: campaign config documents made from a seed.

The seed derives the channel seed and, for the masked workload, the flip
positions.  The program sees only the generated config files.  Sizes are
chosen so that one campaign takes one to seven seconds on a 2-core
machine, which leaves room for several timed samples per run.

Why each workload exists (also in BENCHMARK.json):

* campaign-bsc: the built-in nine-interface campaign users run, with a
  seeded binary symmetric channel.  Host time splits between per-bit
  channel draws and the HDB3 round trip on the G.703/G.704 paths; its 27
  independent jobs are where parallel jobs would show.
* burst-ge: a short-dwell Gilbert-Elliott channel, where the channel's
  per-dwell Python loop is almost all host time.  V.35 and STANAG 4210
  are transparent pipes, so framing is absent.  The verdicts are mixed.
  It is not listed in BENCHMARK.json: `berbench report --in` does not
  re-render a Gilbert-Elliott report byte-identically (the saved JSON
  sorts the channel's parameters, the first rendering does not), so every
  run of it fails the gate until the program is fixed.
* framed-prbs23: G.704 at four rates (line expansion up to 8 at 256
  kbit/s) plus G.703, with PRBS-23 and a 40-position fixed mask.  Framing
  and the period-bound PRBS receiver dominate; the channel is almost free.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

CONFIG_SCHEMA = "ber-campaign-config/1"

#: Flip positions of framed-prbs23 are drawn from this range of line-stream
#: positions.  Starting past the first frames keeps the receiver's lock
#: window clean, so each measurement's error count is known beforehand.
MASK_POSITIONS = 40
MASK_RANGE = (8192, 1_000_000)


def derive(workload: str, seed: int, label: str, index: int = 0) -> int:
    """A 32-bit value fixed by (workload, seed, label, index)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def mask_positions(workload: str, seed: int) -> list[int]:
    lo, hi = MASK_RANGE
    chosen: set[int] = set()
    index = 0
    while len(chosen) < MASK_POSITIONS:
        chosen.add(lo + derive(workload, seed, "mask", index) % (hi - lo))
        index += 1
    return sorted(chosen)


def _campaign_bsc(seed: int) -> dict:
    return {
        "schema": CONFIG_SCHEMA,
        "ber0": 1e-5,
        "channel": {"kind": "bsc", "p": 1e-6, "seed": derive("campaign-bsc", seed, "channel")},
    }


def _burst_ge(seed: int) -> dict:
    # The full-size setting is ge:0.05,0.3,1.0,0.99995 at BER_0 1e-5.  Here
    # the resolution and the bad-state flip rate are both ten times coarser,
    # so a job has the same expected errors against a threshold of the same
    # size, with a tenth of the bits.
    return {
        "schema": CONFIG_SCHEMA,
        "interfaces": ["V.35", "STANAG 4210"],
        "ber0": 1e-4,
        "ber_max": 1e-4,
        "channel": {
            "kind": "gilbert_elliott",
            "p_gb": 0.05,
            "p_bg": 0.3,
            "p_good": 1.0,
            "p_bad": 0.9995,
            "seed": derive("burst-ge", seed, "channel"),
        },
    }


def _framed_prbs23(seed: int) -> dict:
    return {
        "schema": CONFIG_SCHEMA,
        "interfaces": ["G.704", "G.703"],
        "rates": {"G.704": [256, 512, 1024, 2048], "G.703": [2048]},
        "pattern": {"order": 23},
        "ber0": 1e-5,
        "channel": {
            "kind": "fixed_mask",
            "indices": mask_positions("framed-prbs23", seed),
            "seed": derive("framed-prbs23", seed, "channel"),
        },
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]

    def setup_config(self, seed: int) -> dict:
        """The same document with no interfaces: start-up and self-test only."""
        return dict(self.config(seed), interfaces=[])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-bsc",
            "the nine-interface campaign users run; channel draws and HDB3 share the time",
            _campaign_bsc,
        ),
        Workload(
            "burst-ge",
            "short-dwell burst channel: the per-dwell loop is almost all time; mixed verdicts",
            _burst_ge,
        ),
        Workload(
            "framed-prbs23",
            "G.704 line expansion and the period-bound PRBS-23 receiver; channel almost free",
            _framed_prbs23,
        ),
    )
}
