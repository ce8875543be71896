import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench import meter
from berbench.channel import Bsc, FixedMask, GilbertElliott, Ideal
from berbench.core import InterfaceKind as IK
from berbench.core import format_duration
from berbench.meter import (
    BerMeasurement,
    MeasurementConfig,
    SelfTestError,
    analyzer_self_test,
    measure,
    required_bits,
    required_duration,
)
from berbench import prbs
from berbench.prbs import LOCK_THRESHOLD, MAXIMAL_TAPS, PrbsSpec, SyncState
from berbench.testbed import default_profile, dut_open_session
import oracles
from oracles import payload_line_positions

F0 = 1450e6

# (rate kbit/s, whole seconds, rendering) for the standard resolution.
TIMING_TABLE = [
    (64, 15625, "04:20:25"),
    (128, 7813, "02:10:13"),
    (192, 5208, "01:26:48"),
    (256, 3906, "01:05:06"),
    (320, 3125, "00:52:05"),
    (384, 2604, "00:43:24"),
    (448, 2232, "00:37:12"),
    (512, 1953, "00:32:33"),
    (1024, 977, "00:16:17"),
    (2048, 488, "00:08:08"),
]


@pytest.mark.parametrize("rate,seconds,rendered", TIMING_TABLE)
def test_required_duration_reproduces_timing_table(rate, seconds, rendered):
    got = required_duration(rate, 1e-8)
    assert got == seconds
    assert format_duration(got) == rendered


def test_required_duration_rounds_half_up():
    # 128 kbit/s: exactly 7812.5 s -> 7813; 256 kbit/s: 3906.25 -> 3906.
    assert required_duration(128, Fraction(1, 10**8)) == 7813
    assert required_duration(256, Fraction(1, 10**8)) == 3906


def test_required_duration_input_validation():
    with pytest.raises(ValueError):
        required_duration(0, 1e-8)
    with pytest.raises(ValueError):
        required_duration(64, 0)


def test_required_bits():
    assert required_bits(1e-8) == 10**9
    assert required_bits(1e-5) == 10**6
    assert required_bits("0.3") == 34  # ceil(33.3...)
    with pytest.raises(ValueError):
        required_bits(0)


@pytest.mark.parametrize("ber0", [0, -1e-8, 1, 2])
def test_every_sizing_refuses_a_resolution_outside_0_1(ber0):
    message = r"resolution must be in \(0, 1\)"
    with pytest.raises(ValueError, match=message):
        required_bits(ber0)
    with pytest.raises(ValueError, match=message):
        required_duration(64, ber0)
    with pytest.raises(ValueError, match=message):
        MeasurementConfig(ber0=ber0)


def test_measurement_config_validation():
    assert MeasurementConfig(ber0=1e-5).ber0 == Fraction(1, 10**5)
    with pytest.raises(ValueError):
        MeasurementConfig(ber0=0)


def test_ber_measurement_invariant():
    with pytest.raises(ValueError):
        BerMeasurement(10, 11, None, 1, 64, F0)


def test_measure_clean_loop_reports_upper_bound():
    config = MeasurementConfig(ber0=1e-5)
    session = dut_open_session(default_profile(), IK.V35, 2048, F0)
    m = measure(session, config)
    assert m.transmitted_bits == 10**6
    assert m.errored_bits == 0
    assert m.ber.is_bound and m.ber.value == Fraction(1, 10**5)
    assert m.duration_s == required_duration(2048, 1e-5)
    assert not m.sync_failed


def test_measure_counts_masked_flips_exactly():
    config = MeasurementConfig(ber0=1e-5)
    pattern = config.pattern
    start = pattern.order + 4 * LOCK_THRESHOLD + 100  # clear of the lock window
    positions = tuple(range(start, start + 10 * 977, 977))
    prof = default_profile(channel=FixedMask(indices=positions))
    session = dut_open_session(prof, IK.V35, 2048, F0)
    m = measure(session, config)
    assert m.errored_bits == 10
    assert m.transmitted_bits == 10**6
    assert not m.ber.is_bound
    assert m.ber.value == Fraction(10, 10**6) == Fraction(1, 10**5)


def test_measure_masked_flips_on_framed_path():
    config = MeasurementConfig(ber0=1e-5)
    probe = dut_open_session(default_profile(), IK.G704, 2048, F0)
    payload_hits = np.arange(2_000, 2_000 + 7 * 1_111, 1_111)
    line = payload_line_positions(probe, payload_hits)
    prof = default_profile(channel=FixedMask(indices=tuple(int(p) for p in line)))
    session = dut_open_session(prof, IK.G704, 2048, F0)
    m = measure(session, config)
    assert m.errored_bits == 7


def test_measure_point_estimate_tracks_bsc_rate():
    p = 1e-4
    config = MeasurementConfig(ber0=1e-5)
    prof = default_profile(channel=Bsc(p=p, seed=20260809))
    session = dut_open_session(prof, IK.STANAG4210, 2048, F0)
    m = measure(session, config)
    n = m.transmitted_bits
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(float(m.ber.value) - p) <= 3 * sigma
    assert not m.ber.is_bound


def test_measure_is_deterministic():
    config = MeasurementConfig(ber0=1e-5)
    prof = default_profile(channel=Bsc(p=1e-3, seed=4242))
    m1 = measure(dut_open_session(prof, IK.G703, 2048, F0), config)
    m2 = measure(dut_open_session(prof, IK.G703, 2048, F0), config)
    assert m1 == m2


def test_measure_sync_failure_counts_full_budget():
    config = MeasurementConfig(ber0=Fraction(1, 10**4))  # budget 10/ber0 = 1e5 bits
    prof = default_profile(channel=Bsc(p=0.5, seed=8))
    session = dut_open_session(prof, IK.V35, 2048, F0)
    m = measure(session, config)
    assert m.sync_failed
    assert m.errored_bits == m.transmitted_bits == 10**5
    assert m.ber.value == 1


def test_measure_spans_segments():
    import berbench.meter as meter_mod

    config = MeasurementConfig(ber0=Fraction(1, 200_000))  # 2e6 bits
    old = meter_mod.SEGMENT_BITS
    meter_mod.SEGMENT_BITS = 600_000
    try:
        session = dut_open_session(default_profile(), IK.V35, 2048, F0)
        m = measure(session, config)
    finally:
        meter_mod.SEGMENT_BITS = old
    assert m.transmitted_bits == 2_000_000
    assert m.errored_bits == 0


def _channels(line_bits: int, edges: list[int]):
    """Every channel kind; masks hit anywhere in the line and at `edges`."""
    return st.one_of(
        st.builds(Ideal),
        # Up to 0.5, where the receiver locks late or never.
        st.builds(Bsc, p=st.sampled_from([1e-4, 2e-3, 0.02, 0.04, 0.06, 0.3, 0.5])),
        st.builds(
            GilbertElliott,
            p_gb=st.sampled_from([1e-3, 0.05]),
            p_bg=st.sampled_from([0.1, 0.3]),
            p_good=st.sampled_from([1.0, 0.999]),
            p_bad=st.sampled_from([0.5, 0.9]),
        ),
        st.builds(
            FixedMask,
            indices=st.sets(st.integers(0, line_bits) | st.sampled_from(edges), max_size=30)
            .map(sorted)
            .map(tuple),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    order=st.sampled_from(sorted(MAXIMAL_TAPS)),
    segment_bits=st.sampled_from([1 << 10, 1 << 12, 1 << 14]),
    segments=st.integers(1, 4),
    session=st.sampled_from([(IK.G704, 64), (IK.G704, 256), (IK.G704, 2048), (IK.V35, 512)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_measure_matches_the_unpacked_oracle(data, order, segment_bits, segments, session, seed):
    # Many segments a measurement; the last one short or whole.
    tap = data.draw(st.sampled_from(MAXIMAL_TAPS[order]))
    pattern = PrbsSpec(order, (order, tap), data.draw(st.integers(1, (1 << order) - 1)))
    last = data.draw(st.integers(11 if segments == 1 else 1, segment_bits))
    budget = (segments - 1) * segment_bits + last
    config = MeasurementConfig(ber0=Fraction(10, budget), pattern=pattern)
    assert required_bits(config.ber0) == budget
    # Stream positions around each segment's lock window and compared bits,
    # as sent off G.704.
    span = segment_bits + order + 4 * LOCK_THRESHOLD
    edges = [
        j * span + d
        for j in range(segments)
        for d in (0, order - 1, order, order + LOCK_THRESHOLD, segment_bits + order - 1,
                  segment_bits + order, span - 1)
    ]
    kind, rate = session
    channel = data.draw(_channels(segments * span * (32 if kind is IK.G704 else 1), edges))
    prof = default_profile(channel=dataclasses.replace(channel, seed=seed))
    rates = {**prof.supported_rates, IK.G704: frozenset({64, 256, 2048})}
    prof = dataclasses.replace(prof, supported_rates=rates)
    program, reference = (dut_open_session(prof, kind, rate, F0, seed_tag=5) for _ in "ab")
    sent = []  # the pattern bits of each segment, unpacked

    def sending(session, payload, n_bits):
        sent.append(np.unpackbits(payload, count=n_bits))
        return loopback(session, payload, n_bits)

    saved, loopback = meter.SEGMENT_BITS, meter.loopback
    meter.SEGMENT_BITS, meter.loopback = segment_bits, sending
    try:
        assert measure(program, config) == oracles.measure(reference, config)
    finally:
        meter.SEGMENT_BITS, meter.loopback = saved, loopback
    # The segments send one pattern, each continuing the one before it.
    sent = np.concatenate(sent)
    assert np.array_equal(sent, oracles.generate(pattern, len(sent)))


def test_self_test_passes_and_detects_breakage():
    analyzer_self_test()
    analyzer_self_test(PrbsSpec(order=9, seed=17))
    for name, result, message in [
        ("synchronize", SyncState(locked=False), "failed to lock"),
        ("synchronize", SyncState(locked=True, offset=3), "failed to lock"),
        ("count_errors", (1000, 2), "^self-loop produced 2 errors$"),
    ]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prbs, name, lambda *args, result=result, **kwargs: result)
            with pytest.raises(SelfTestError, match=message):
                analyzer_self_test()
