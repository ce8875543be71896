"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a `criterion N (...): PASS/FAIL` line (visible with
pytest -s or in captured output).  The full-resolution campaign is tagged
`full_resolution`: it pushes 1e9 bits per measurement, the paper's own
resolution, and takes seconds where the other criteria take a fraction.
"""
import dataclasses
import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from berbench import cli
from berbench.channel import Bsc, derive_seed
from berbench.core import BerValue, InterfaceKind as IK, Outcome, REPORT_ORDER
from berbench.framing import (
    HALF_BITS,
    _crc4_octets,
    build_multiframes,
    g704_align,
    hdb3_decode,
    hdb3_encode,
)
from berbench.meter import MeasurementConfig, measure
from berbench.prbs import PrbsSpec, generate
from berbench.procedure import (
    CampaignConfig,
    VerdictPolicy,
    apply_verdict,
    compute_frequencies,
    run_campaign,
)
from berbench.testbed import (
    DEFAULT_ANALYZER,
    default_catalog,
    default_profile,
    dut_open_session,
    resolve_chain,
)
from oracles import step_register

F0 = 1450e6


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


TIMING_TABLE = {
    64: (15625, "04:20:25"),
    128: (7813, "02:10:13"),
    192: (5208, "01:26:48"),
    256: (3906, "01:05:06"),
    320: (3125, "00:52:05"),
    384: (2604, "00:43:24"),
    448: (2232, "00:37:12"),
    512: (1953, "00:32:33"),
    1024: (977, "00:16:17"),
    2048: (488, "00:08:08"),
}


def test_criterion_1_timing_table_reproduction():
    with criterion(1, "timing-table reproduction"):
        started = time.perf_counter()
        serial_rates = (64, 128, 192, 256, 320, 384, 448, 512)
        e1_rates = (256, 512, 1024, 2048)
        pairs = []
        for rates in (serial_rates, e1_rates):
            plan = cli.build_plan(rates, "1e-8")
            pairs.extend((r["rate_kbps"], r["seconds"], r["duration"]) for r in plan["rows"])
        assert len(pairs) == 12
        for rate, seconds, duration in pairs:
            assert (seconds, duration) == TIMING_TABLE[rate], rate
        assert time.perf_counter() - started < 1.0


def _assert_reference_campaign(base, ber0_arg: list[str], bound_text: str):
    code = cli.main(["run", *ber0_arg, "--out", str(base)])
    assert code == 0
    report = json.loads(base.with_suffix(".json").read_text())
    results = report["results"]
    assert [r["interface"] for r in results] == [k.value for k in REPORT_ORDER]
    assert all(r["verdict"] == "PASS" for r in results)
    assert [r["converter_used"] for r in results] == [
        False, False, True, True, True, True, True, True, True,
    ]
    assert sum(len(r["measurements"]) for r in results) == 27
    for r in results:
        for m in r["measurements"]:
            assert m["ber"]["kind"] == "upper_bound"
            assert m["errored_bits"] == 0
    text = base.with_suffix(".txt").read_text()
    rows = [l for l in text.splitlines() if any(l.startswith(k.value) for k in REPORT_ORDER)]
    assert len(rows) == 9
    assert all(bound_text in row for row in rows)


def test_criterion_2_result_table_shape_desk_scale(tmp_path):
    with criterion(2, "result-table shape, desk scale"):
        started = time.perf_counter()
        _assert_reference_campaign(tmp_path / "desk", ["--ber0", "1e-5"], "< 10^-5")
        assert time.perf_counter() - started < 60.0


@pytest.mark.full_resolution
def test_criterion_2_result_table_shape_full_resolution(tmp_path):
    with criterion(2, "result-table shape, full resolution"):
        _assert_reference_campaign(tmp_path / "full", [], "< 10^-8")


def test_criterion_3_frequency_point_equations():
    with criterion(3, "frequency-point equations"):
        started = time.perf_counter()
        rng = np.random.default_rng(314159)
        tol = Fraction(1, 10**12)
        for _ in range(1000):
            f_min = float(rng.uniform(1e6, 3e9))
            f_max = f_min * float(rng.uniform(1.05, 3.0))
            pts = compute_frequencies(f_min, f_max)
            lo, hi = Fraction(f_min), Fraction(f_max)
            exact = ((lo + hi) / 2, Fraction(19, 20) * hi, Fraction(21, 20) * lo)
            for got, want in zip((pts.f0, pts.f1, pts.f2), exact):
                assert abs(Fraction(got) - want) <= tol * want
        assert time.perf_counter() - started < 1.0


def test_criterion_4_threshold_boundary():
    with criterion(4, "pass-threshold boundary"):
        policy = VerdictPolicy()  # 1e-5
        at = BerValue(policy.ber_max)
        above = BerValue(policy.ber_max * (1 + Fraction(1, 10**9)))
        assert apply_verdict(at, policy) is Outcome.PASS
        assert apply_verdict(above, policy) is Outcome.FAIL


def test_criterion_5_estimator_calibration():
    with criterion(5, "BER estimator calibration"):
        started = time.perf_counter()
        config = MeasurementConfig(ber0=1e-5)  # 1e6 compared bits
        for p in (1e-3, 1e-4):
            sigma = math.sqrt(p * (1 - p) / 10**6)
            estimates = []
            for i in range(100):
                prof = default_profile(channel=Bsc(p=p, seed=derive_seed(97, i)))
                session = dut_open_session(prof, IK.V35, 2048, F0)
                m = measure(session, config)
                assert not m.sync_failed
                estimates.append(m.errored_bits / m.transmitted_bits)
            mean = sum(estimates) / len(estimates)
            assert abs(mean - p) <= 3 * sigma / math.sqrt(100), (p, mean)
            within = sum(abs(e - p) <= 4 * sigma for e in estimates)
            assert within >= 99, (p, within)
        assert time.perf_counter() - started < 120.0


def test_criterion_6_pattern_period_and_balance():
    with criterion(6, "pattern period and balance"):
        started = time.perf_counter()
        spec = PrbsSpec(order=15)
        state, steps = spec.seed, 0
        while True:
            state, _ = step_register(state, spec.order, spec.taps[1])
            steps += 1
            if state == spec.seed or steps > spec.period:
                break
        assert steps == 32767
        period = np.unpackbits(generate(spec, spec.period), count=spec.period)
        ones = int(period.sum())
        assert (ones, spec.period - ones) == (16384, 16383)
        assert time.perf_counter() - started < 1.0


def test_criterion_7_framing_roundtrips_and_crc_detection():
    with criterion(7, "framing roundtrips and check-bit detection"):
        started = time.perf_counter()
        rng = np.random.default_rng(271828)
        payload = rng.integers(0, 256, size=(10_000, 16, 31)).astype(np.uint8).reshape(-1)
        line = build_multiframes(payload)
        offset, recovered = g704_align(line)
        assert offset == 0
        assert np.array_equal(recovered, payload)
        stream = np.unpackbits(line)
        assert np.array_equal(hdb3_decode(hdb3_encode(stream)), stream)

        def long_division(bits) -> int:
            reg = 0
            for b in bits:
                reg = ((reg << 1) | int(b)) & 0x1F
                if reg & 0x10:
                    reg ^= 0x13
            for _ in range(4):
                reg = (reg << 1) & 0x1F
                if reg & 0x10:
                    reg ^= 0x13
            return reg & 0xF

        def crc4(half) -> int:
            return int(_crc4_octets(np.packbits(half)))

        half = rng.integers(0, 2, HALF_BITS).astype(np.uint8)
        base = long_division(half)
        assert base == crc4(half)
        for i in range(HALF_BITS):
            half[i] ^= 1
            assert crc4(half) != base, i
            half[i] ^= 1
        assert time.perf_counter() - started < 30.0


def test_criterion_8_chain_resolution_oracle_equivalence():
    from test_testbed import enumerate_best_chain

    with criterion(8, "chain resolution vs exhaustive enumeration"):
        started = time.perf_counter()
        catalog = default_catalog()
        for kind, rate in itertools.product(REPORT_ORDER, (512, 1024, 2048)):
            chain = resolve_chain(DEFAULT_ANALYZER, kind, catalog, rate)
            got = None if chain is None else tuple(c.name for c in chain)
            assert got == enumerate_best_chain(DEFAULT_ANALYZER, kind, catalog, rate), (kind, rate)
        assert time.perf_counter() - started < 1.0


def test_criterion_9_negative_path_no_connector(tmp_path):
    with criterion(9, "missing-connector negative path"):
        prof = default_profile()
        prof = dataclasses.replace(
            prof, ports=tuple(p for p in prof.ports if p[0] is not IK.V35)
        )
        catalog = tuple(c for c in default_catalog() if c.name != "Tahoe 235")
        config = CampaignConfig(
            dut=prof,
            catalog=catalog,
            interfaces=(IK.V35,),
            measurement=MeasurementConfig(ber0=1e-5),
        )
        result = run_campaign(config).results[0]
        assert result.verdict.outcome is Outcome.NO_CONNECTOR
        assert result.verdict.note
        assert result.measurements == ()

        config = {
            "schema": "ber-campaign-config/1",
            "ber0": 1e-05,
            "interfaces": ["V.35"],
            "dut": {
                "name": "no V.35 fitted",
                "ports": [{"interface": "G.703", "connector": "BNC"}],
                "rates": {"G.703": [2048]},
                "if_range_hz": [950e6, 1950e6],
                "channel": {"kind": "ideal", "seed": 1},
            },
            "catalog": [
                {
                    "name": "Tahoe 284",
                    "side_a": ["G.703", "G.704"],
                    "side_b": ["10/100BASE-T"],
                    "max_rate_kbps": 2048,
                }
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "nc")])
        assert code == 2


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "byte-identical reports"):
        a, b = tmp_path / "a", tmp_path / "b"
        for base in (a, b):
            assert cli.main(["run", "--ber0", "1e-5", "--out", str(base)]) == 0
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
