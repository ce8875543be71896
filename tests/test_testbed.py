import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench import channel as channel_mod, framing, testbed
from berbench.channel import _CHUNK, Bsc, FixedMask, GilbertElliott, Ideal, _flips
from berbench.framing import MULTIFRAME_BITS
from berbench.core import InterfaceKind as IK
from berbench.core import REPORT_ORDER
from berbench.meter import MeasurementConfig, measure
from berbench.prbs import PrbsSpec
from berbench.testbed import (
    AnalyzerProfile,
    ConverterSpec,
    DEFAULT_ANALYZER,
    FrequencyRangeError,
    NoPortError,
    UnsupportedRateError,
    analyzer_from_dict,
    analyzer_to_dict,
    catalog_from_list,
    default_catalog,
    default_profile,
    dut_open_session,
    loopback,
    profile_from_dict,
    resolve_chain,
)
import oracles
from oracles import generate, payload_line_positions

F0 = 1450e6


def loop_bits(session, bits):
    """`loopback` on unpacked bits, read back unpacked."""
    return np.unpackbits(loopback(session, np.packbits(bits), len(bits)), count=len(bits))


def names(chain):
    """Converter names of a resolved chain; None stays None."""
    return None if chain is None else tuple(c.name for c in chain)


def enumerate_best_chain(analyzer, target, catalog, rate):
    """Oracle: exhaustive simple-path enumeration with the documented key."""
    kind_order = {k: i for i, k in enumerate(IK)}
    best = None
    if analyzer.admissible(target, rate):
        return ()
    usable = [c for c in catalog if c.admits(rate)]

    def walk(kind, path, start_idx):
        nonlocal best
        if kind is target:
            key = (len(path), tuple(c.name for c in path), start_idx)
            if best is None or key < best[0]:
                best = (key, tuple(path))
            return
        for conv in usable:
            if conv in path:
                continue
            if kind in conv.side_a or kind in conv.side_b:
                for nxt in conv.other_side(kind):
                    walk(nxt, path + [conv], start_idx)

    for kind, limit in analyzer.native:
        if limit is None or rate <= limit:
            walk(kind, [], kind_order[kind])
    return None if best is None else tuple(c.name for c in best[1])


# ---------------------------------------------------------------------------
# chain resolution


def test_native_interface_needs_no_converter():
    assert resolve_chain(DEFAULT_ANALYZER, IK.G703, default_catalog(), 2048) == ()


def test_tactical_gateway_interface_uses_its_converter():
    chain = resolve_chain(DEFAULT_ANALYZER, IK.STANAG4210, default_catalog(), 2048)
    assert names(chain) == ("EUROCOM B/e1",)


def test_fiber_ethernet_needs_two_converters():
    chain = resolve_chain(DEFAULT_ANALYZER, IK.BASE10_FL, default_catalog(), 2048)
    assert names(chain) == ("Tahoe 284", "APP EC100")


def test_v35_above_native_cap_goes_through_converter():
    for rate in (1024, 2048):
        chain = resolve_chain(DEFAULT_ANALYZER, IK.V35, default_catalog(), rate)
        assert names(chain) == ("Tahoe 235",)
    assert resolve_chain(DEFAULT_ANALYZER, IK.V35, default_catalog(), 4096) is None


def test_v35_within_native_cap_is_native():
    assert resolve_chain(DEFAULT_ANALYZER, IK.V35, default_catalog(), 512) == ()


def test_removed_converter_breaks_the_only_path():
    catalog = [c for c in default_catalog() if c.name != "Tahoe 235"]
    assert resolve_chain(DEFAULT_ANALYZER, IK.V35, catalog, 2048) is None


def test_resolution_matches_exhaustive_enumeration():
    catalog = default_catalog()
    for kind, rate in itertools.product(REPORT_ORDER, (512, 2048)):
        chain = resolve_chain(DEFAULT_ANALYZER, kind, catalog, rate)
        oracle = enumerate_best_chain(DEFAULT_ANALYZER, kind, catalog, rate)
        assert names(chain) == oracle, (kind, rate)


#: Interfaces and rate caps the random catalogs below draw from.
_KINDS = st.sampled_from(list(IK))
_CAPS = st.sampled_from([None, 512, 2048])


@st.composite
def _converters(draw):
    kinds = draw(st.lists(_KINDS, min_size=2, max_size=5, unique=True))
    cut = draw(st.integers(min_value=1, max_value=len(kinds) - 1))
    return ConverterSpec(
        draw(st.sampled_from("ABC")), frozenset(kinds[:cut]), frozenset(kinds[cut:]),
        max_rate_kbps=draw(_CAPS),
    )


@settings(max_examples=150, deadline=None)
@given(
    catalog=st.lists(_converters(), min_size=1, max_size=6),
    native=st.lists(st.tuples(_KINDS, _CAPS), min_size=1, max_size=3),
)
def test_resolution_matches_exhaustive_enumeration_on_random_catalogs(catalog, native):
    analyzer = AnalyzerProfile(native=tuple(native))
    for kind, rate in itertools.product(REPORT_ORDER, (256, 1024)):
        chain = resolve_chain(analyzer, kind, catalog, rate)
        oracle = enumerate_best_chain(analyzer, kind, catalog, rate)
        assert names(chain) == oracle, (kind, rate)


def test_chain_may_pass_through_converters_the_first_route_skipped():
    # The first chain to reach G.703 (A + B) has used up B, the only
    # converter onward to 10BASE-FL; going round through C and D reaches
    # G.703 with B still free.
    analyzer = AnalyzerProfile(native=((IK.STANAG4210, None),))
    catalog = (
        ConverterSpec("A", IK.STANAG4210, IK.BASE10_T),
        ConverterSpec("B", frozenset({IK.BASE10_T, IK.BASE10_FL}), IK.G703),
        ConverterSpec("C", IK.BASE10_T, IK.BASE100_TX),
        ConverterSpec("D", IK.BASE100_TX, IK.G703),
    )
    chain = resolve_chain(analyzer, IK.BASE10_FL, catalog, 2048)
    assert names(chain) == ("A", "C", "D", "B")
    assert names(chain) == enumerate_best_chain(analyzer, IK.BASE10_FL, catalog, 2048)


def test_repeated_names_compare_whole_chains():
    # Name order first reaches STANAG 4210 through A then B, but the chain
    # through the other two converters named A reads (A, A), which is less.
    analyzer = AnalyzerProfile(native=((IK.G703, None),))
    catalog = (
        ConverterSpec("A", IK.G703, IK.G704),
        ConverterSpec("B", IK.G704, IK.STANAG4210),
        ConverterSpec("A", IK.V35, IK.G703),
        ConverterSpec("A", IK.V35, IK.STANAG4210),
    )
    chain = resolve_chain(analyzer, IK.STANAG4210, catalog, 2048)
    assert names(chain) == ("A", "A")
    assert names(chain) == enumerate_best_chain(analyzer, IK.STANAG4210, catalog, 2048)
    assert chain == catalog[2:]


def test_interchangeable_converters_resolve_quickly():
    # Sixteen converters with the same two sides, and no chain to the
    # target.  A search keyed on the set of converters used visits every
    # subset of them; one that tries every order of them on the longer
    # chains the three-interface sides allow visits every arrangement.
    analyzer = AnalyzerProfile(native=((IK.G703, None),))
    pairs = [ConverterSpec(f"C{i:02d}", IK.G703, IK.V35) for i in range(16)]
    triples = [
        ConverterSpec(
            f"C{i:02d}",
            frozenset({IK.G703, IK.G704, IK.V35}),
            frozenset({IK.BASE10_T, IK.BASE100_TX, IK.BASE10_FL}),
        )
        for i in range(16)
    ]
    started = time.perf_counter()
    for catalog in (pairs, triples):
        assert resolve_chain(analyzer, IK.STANAG4210, catalog, 2048) is None
    assert names(resolve_chain(analyzer, IK.V35, pairs[::-1], 2048)) == ("C00",)
    assert names(resolve_chain(analyzer, IK.V35, triples[::-1], 2048)) == ("C00", "C01")
    assert time.perf_counter() - started < 0.1


def test_tie_break_is_lexicographic_by_name():
    analyzer = AnalyzerProfile(native=((IK.G703, None),))
    slow = ConverterSpec("B box", IK.G703, IK.V35)
    fast = ConverterSpec("A box", IK.G703, IK.V35)
    chain = resolve_chain(analyzer, IK.V35, (slow, fast), 2048)
    assert names(chain) == ("A box",)


def test_converter_sides_must_differ():
    with pytest.raises(ValueError):
        ConverterSpec("loop", IK.G703, IK.G703)


def test_converter_side_must_name_an_interface():
    with pytest.raises(ValueError, match="at least one interface"):
        ConverterSpec("empty", frozenset(), IK.G703)
    with pytest.raises(ValueError, match="at least one interface"):
        catalog_from_list([{"name": "empty", "side_a": [], "side_b": ["G.703"]}])


def test_other_side_refuses_a_kind_on_neither_side():
    conv = ConverterSpec("E1/V.35", IK.G703, IK.V35)
    assert conv.other_side(IK.V35) == frozenset({IK.G703})
    with pytest.raises(ValueError, match="neither side"):
        conv.other_side(IK.STANAG4210)


# ---------------------------------------------------------------------------
# sessions


def test_open_session_happy_path():
    prof = default_profile()
    session = dut_open_session(prof, IK.G703, 2048, F0)
    assert session.iface is IK.G703 and session.rate_kbps == 2048


def test_open_session_rejections():
    prof = default_profile()
    ports = tuple(p for p in prof.ports if p[0] is not IK.V35)
    import dataclasses

    no_v35 = dataclasses.replace(prof, ports=ports)
    with pytest.raises(NoPortError):
        dut_open_session(no_v35, IK.V35, 512, F0)
    with pytest.raises(UnsupportedRateError):
        dut_open_session(prof, IK.G703, 192, F0)
    with pytest.raises(FrequencyRangeError):
        dut_open_session(prof, IK.G703, 2048, 1.01 * 1950e6)


def test_session_seed_tags_fork_error_streams():
    prof = default_profile(channel=Bsc(p=1e-3, seed=5))
    bits = generate(PrbsSpec(), 200_000)
    out1 = loop_bits(dut_open_session(prof, IK.V35, 2048, F0, seed_tag=1), bits)
    out2 = loop_bits(dut_open_session(prof, IK.V35, 2048, F0, seed_tag=2), bits)
    same = loop_bits(dut_open_session(prof, IK.V35, 2048, F0, seed_tag=1), bits)
    assert not np.array_equal(out1, out2)
    assert np.array_equal(out1, same)


# ---------------------------------------------------------------------------
# loopback


@pytest.mark.parametrize("kind", list(REPORT_ORDER))
def test_loopback_is_identity_on_ideal_channel(kind):
    prof = default_profile()
    session = dut_open_session(prof, kind, 2048, F0)
    bits = generate(PrbsSpec(), 30_000)
    assert np.array_equal(loop_bits(session, bits), bits)


@pytest.mark.parametrize("kind", [IK.G704, IK.V35])
@pytest.mark.parametrize("n_bits", [-8, -5, 25])
def test_loopback_refuses_a_bit_count_its_octets_cannot_hold(kind, n_bits):
    session = dut_open_session(default_profile(), kind, 2048, F0)
    with pytest.raises(ValueError, match=f"^3 octets cannot hold {n_bits} bits$"):
        loopback(session, np.zeros(3, np.uint8), n_bits)


@pytest.mark.parametrize("rate", [256, 512, 1024, 2048])
def test_framed_loopback_identity_at_fractional_rates(rate):
    prof = default_profile()
    session = dut_open_session(prof, IK.G704, rate, F0)
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(loop_bits(session, bits), bits)


@pytest.mark.parametrize("kind", [IK.G703, IK.V35])
def test_fixed_mask_flips_exact_payload_positions_unframed(kind):
    payload_hits = np.array([100, 5_000, 29_999])
    prof = default_profile(channel=FixedMask(indices=tuple(payload_hits)))
    session = dut_open_session(prof, kind, 2048, F0)
    bits = np.zeros(30_000, np.uint8)
    out = loop_bits(session, bits)
    assert np.flatnonzero(out).tolist() == payload_hits.tolist()


@pytest.mark.parametrize("rate", [256, 512, 1024, 2048])
def test_fixed_mask_flips_exact_payload_positions_framed(rate):
    payload_hits = np.array([0, 777, 9_000, 19_839])
    prof = default_profile()
    session = dut_open_session(prof, IK.G704, rate, F0)
    line_positions = payload_line_positions(session, payload_hits)
    prof = default_profile(channel=FixedMask(indices=tuple(int(p) for p in line_positions)))
    session = dut_open_session(prof, IK.G704, rate, F0)
    bits = np.zeros(19_840, np.uint8)
    out = loop_bits(session, bits)
    assert np.flatnonzero(out).tolist() == payload_hits.tolist()


def test_payload_positions_skip_overhead_slot():
    prof = default_profile()
    session = dut_open_session(prof, IK.G704, 2048, F0)
    line = payload_line_positions(session, np.arange(0, 600, 13))
    assert all(pos % 256 >= 8 for pos in line)
    raw = dut_open_session(prof, IK.V35, 2048, F0)
    assert np.array_equal(payload_line_positions(raw, np.array([5, 9])), [5, 9])


def test_bsc_on_framed_path_preserves_payload_error_rate():
    p = 1e-3
    n = 10**6
    prof = default_profile(channel=Bsc(p=p, seed=99))
    session = dut_open_session(prof, IK.G704, 2048, F0)
    bits = generate(PrbsSpec(), n)
    out = loop_bits(session, bits)
    flips = int(np.count_nonzero(out ^ bits))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(flips - n * p) <= 3 * sigma


def test_heavy_corruption_returns_worthless_payload_not_exception():
    prof = default_profile(channel=Bsc(p=0.5, seed=31))
    session = dut_open_session(prof, IK.G704, 2048, F0)
    bits = generate(PrbsSpec(), 50_000)
    out = loop_bits(session, bits)
    assert len(out) == len(bits)


def test_lost_frame_alignment_returns_all_zeros():
    # Every line bit flipped: no frame alignment signal survives.
    prof = default_profile(channel=Bsc(p=1.0, seed=1))
    session = dut_open_session(prof, IK.G704, 2048, F0)
    out = loop_bits(session, np.ones(100_000, np.uint8))
    assert len(out) == 100_000 and not out.any()


@pytest.mark.parametrize("rate", [256, 2048])
def test_lost_frame_alignment_measures_every_bit_errored(rate):
    prof = default_profile(channel=Bsc(p=1.0, seed=1))
    m = measure(dut_open_session(prof, IK.G704, rate, F0), MeasurementConfig(ber0=1e-4))
    assert m.sync_failed
    assert m.errored_bits == m.transmitted_bits == 100_000


@pytest.mark.parametrize(
    "channel",
    # At p = 1e-9 the draws of these few line bits hold no flip; the
    # long-dwell stream stays in its good state, drawing at 1e-9 too.
    [
        Ideal(), Bsc(p=0.0), Bsc(p=1e-9, seed=1), FixedMask(indices=(10**9,)),
        GilbertElliott(p_gb=0.1, p_bg=0.1, p_good=1.0, p_bad=1.0, seed=1),
        GilbertElliott(p_gb=1e-9, p_bg=1e-2, p_good=1 - 1e-9, p_bad=0.5, seed=1),
    ],
    ids=["ideal", "bsc0", "bsc-clean", "mask", "ge-flipless", "ge-long-dwell-clean"],
)
@pytest.mark.parametrize("kind, rate", [(IK.G704, 256), (IK.G704, 2048), (IK.V35, 512)])
def test_a_stream_that_cannot_flip_passes_the_octets_through(channel, kind, rate):
    session = dut_open_session(default_profile(channel=channel), kind, rate, F0)

    def apply(bits):
        raise AssertionError("a pass with no flip was applied")

    session._stream.apply = apply
    bits = generate(PrbsSpec(), 70_001)
    payload = np.packbits(bits)
    payload[-1] |= 0x7F  # set bits past the bit count are not sent
    assert np.array_equal(loopback(session, payload, len(bits)), np.packbits(bits))
    if kind is IK.G704:
        line = testbed.build_multiframes(np.packbits(bits), session.payload_timeslots)
        assert session._stream.position == 8 * len(line)
    else:
        assert session._stream.position == len(bits)


def test_an_off_g704_line_is_copied_only_when_a_bit_flips():
    # With no flip the line is the payload itself, read-only, as the meter
    # only reads it; with flips it is a copy, and the payload stays as sent.
    bits = generate(PrbsSpec(), 70_000)
    payload = np.packbits(bits)
    clean = dut_open_session(default_profile(channel=Ideal()), IK.V35, 512, F0)
    out = loopback(clean, payload, len(bits))
    assert np.shares_memory(out, payload) and not out.flags.writeable
    assert np.array_equal(out, np.packbits(bits)) and payload.flags.writeable
    dirty = dut_open_session(default_profile(channel=Bsc(p=1e-3, seed=1)), IK.V35, 512, F0)
    out = loopback(dirty, payload, len(bits))
    assert not np.shares_memory(out, payload) and not np.array_equal(out, payload)
    assert np.array_equal(payload, np.packbits(bits))


def test_a_late_frame_phase_returns_the_missing_octets_as_zeros():
    # The mask turns the line into itself delayed by 3 bits: alignment then
    # finds phase 3 and one frame fewer, whose payload octets read as zeros.
    session = dut_open_session(default_profile(), IK.G704, 256, F0)
    payload = np.packbits(generate(PrbsSpec(), 2 * 16 * 4 * 8))  # two whole multiframes
    line = np.unpackbits(testbed.build_multiframes(payload, session.payload_timeslots))
    flips = np.flatnonzero(line ^ np.roll(line, 3))
    session = dut_open_session(
        default_profile(channel=FixedMask(indices=tuple(flips.tolist()))), IK.G704, 256, F0
    )
    want = payload.copy()
    want[-session.payload_timeslots :] = 0
    assert np.array_equal(loopback(session, payload, 8 * len(payload)), want)


def framed_loopback_peak(rate):
    """Traced peak of one G.704 `loopback` of 2**22 + 271 bits at `rate` kbit/s."""
    prof = default_profile(channel=Bsc(p=1e-6, seed=5))
    rates = {**prof.supported_rates, IK.G704: frozenset({rate})}
    session = dut_open_session(dataclasses.replace(prof, supported_rates=rates), IK.G704, rate, F0)
    n = (1 << 22) + 271
    payload = np.packbits(generate(PrbsSpec(), n))
    # Built once per process: the kernels' scratch and framing's lookup tables.
    _flips(0, 0, 1, 1)
    framing._fas_table()
    framing._crc_table()
    tracemalloc.start()
    try:
        out = loopback(session, payload, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == len(payload)
    return peak


def test_framed_loopback_takes_no_line_sized_heap_memory():
    # The line (4 MiB here) is never whole: what tracemalloc sees is the
    # payload-sized result (512 KiB), the 32 KiB flips of one window and,
    # until the vote settles, the window built from them, and the larger
    # of the frame vote's pass temporaries (about 0.2 MiB) and the fault
    # model's (128 KiB on a pass with a flip).  A whole line, a second
    # payload-sized temporary, or passes of 2**17 bits (272 KiB) would
    # exceed the bound.  The kernels' scratch and framing's lookup tables
    # are built once per process, before tracing, so the peak is the same
    # in any test order.
    assert framed_loopback_peak(256) <= 768 * 2**10


def test_framed_loopback_memory_does_not_grow_with_line_expansion():
    # At 64 kbit/s (a custom profile: one timeslot, 32 line bits per payload
    # bit) the same payload makes a 16 MiB line, four times the line at 256.
    assert framed_loopback_peak(64) <= 768 * 2**10


def recording_offsets(monkeypatch):
    """Record the frame phase each G.704 `loopback` aligns to."""
    offsets = []
    align = testbed.g704_align

    def spy(line, timeslots):
        result = align(line, timeslots)
        offsets.append(result[0])
        return result

    monkeypatch.setattr(testbed, "g704_align", spy)
    return offsets


def shifted_mask(session, payload, shift, start=0, stop=None):
    """A mask that turns bits `start` to `stop` of the session's line into
    those of the line delayed by `shift` bits."""
    line = np.unpackbits(testbed.build_multiframes(payload, session.payload_timeslots))
    flips = np.flatnonzero(line ^ np.roll(line, shift))
    flips = flips[(flips >= start) & (flips < (len(line) if stop is None else stop))]
    return FixedMask(indices=tuple(flips.tolist()))


@pytest.mark.parametrize("case", ["bsc", "gilbert-elliott", "mask", "mask-late"])
def test_loopback_rereads_a_line_whose_phase_is_not_zero(monkeypatch, case):
    # The winner is not phase 0, or the vote settles on phase 0 and loses,
    # so the line is read again, the session's stream rewound to where the
    # first read found it: every read must see the flips of the first, and
    # the stream must end as one pass over the line leaves it, with the
    # `apply` set on it still in place.
    rate, multiframes = 256, 200  # four windows of the line
    bits = generate(PrbsSpec(), multiframes * 16 * 4 * 8)
    payload = np.packbits(bits)
    session = dut_open_session(default_profile(), IK.G704, rate, F0)
    channel = {
        "bsc": Bsc(p=0.5, seed=2),
        "gilbert-elliott": GilbertElliott(p_gb=0.5, p_bg=0.01, p_good=1.0, p_bad=0.5, seed=4),
        # The whole line delayed by 3 bits: phase 3 from the first pass on.
        "mask": shifted_mask(session, payload, 3),
        # Phase 0 for the first window and more, then phase 3 for longer:
        # the vote settles on phase 0 and loses, so it votes again in full
        # and extracts in a third read.
        "mask-late": shifted_mask(session, payload, 3, start=90 * MULTIFRAME_BITS),
    }[case]
    prof = default_profile(channel=channel)
    session, reference = (dut_open_session(prof, IK.G704, rate, F0, seed_tag=1) for _ in range(2))
    apply = session._stream.apply
    wrapper = session._stream.apply = lambda chunk: apply(chunk)  # on the instance, as a wrapper is
    offsets = recording_offsets(monkeypatch)
    reads = []  # per call
    iterate = testbed._ReceivedLine.__iter__

    def counting_iterate(line):
        reads[-1] += 1
        return iterate(line)

    monkeypatch.setattr(testbed._ReceivedLine, "__iter__", counting_iterate)
    windows = []
    build = testbed.build_multiframes

    def counting_build(payload, timeslots):
        windows.append(len(payload))
        return build(payload, timeslots)

    monkeypatch.setattr(testbed, "build_multiframes", counting_build)
    for _ in range(2):  # the second call starts where the first left the stream
        reads.append(0)
        got = np.unpackbits(loopback(session, payload, len(bits)), count=len(bits))
        assert np.array_equal(got, oracles.loopback(reference, bits))
        assert vars(session._stream) == {**vars(reference._stream), "apply": wrapper}
    assert reads[0] in (2, 3)
    if case.startswith("mask"):
        assert offsets == [3, 0]  # the mask lies in the first call's line
    else:
        assert 0 not in offsets
    if case == "mask-late":
        # The first read builds one window and takes the rest from their
        # flips, once the vote settles on phase 0; the full vote and the
        # extraction build all four; the second call settles after one.
        assert len(windows) == 1 + 2 * 4 + 1


_CHANNELS = st.one_of(
    st.builds(Ideal),
    st.builds(Bsc, p=st.sampled_from([0.0, 1e-3, 0.02, 0.3, 1.0])),
    st.builds(
        GilbertElliott,
        p_gb=st.sampled_from([0.01, 0.2]),
        p_bg=st.sampled_from([0.1, 0.5]),
        p_good=st.sampled_from([1.0, 0.999]),
        p_bad=st.sampled_from([0.5, 0.9]),
    ),
    st.builds(
        FixedMask, indices=st.sets(st.integers(0, 300_000), max_size=40).map(sorted).map(tuple)
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    channel=_CHANNELS,
    seed=st.integers(0, 2**32 - 1),
    session=st.sampled_from([(IK.G704, 256), (IK.G704, 1024), (IK.G704, 2048), (IK.V35, 512)]),
)
def test_packed_loopback_matches_unpacked_oracle(data, channel, seed, session):
    # Consecutive calls on one session, with short passes and payloads that
    # are not a whole pass, a whole multiframe or a whole octet; heavy flips
    # lose the frame alignment.
    prof = default_profile(channel=dataclasses.replace(channel, seed=seed))
    kind, rate = session
    packed, unpacked = (dut_open_session(prof, kind, rate, F0, seed_tag=3) for _ in range(2))
    rng = np.random.default_rng(seed)
    saved = channel_mod._LINE_PASS
    # The default pass, a longer one, and one that ends mid-pass of the kernels.
    channel_mod._LINE_PASS = data.draw(st.sampled_from([4096, 8192, saved, 1 << 19, _CHUNK + 24]))
    try:
        for n in data.draw(st.lists(st.integers(0, 40_000), min_size=1, max_size=3)):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            payload = np.packbits(bits)
            if n % 8:  # set bits past the bit count are not sent
                payload[-1] |= (1 << (8 - n % 8)) - 1
            got = loopback(packed, payload, n)
            assert np.array_equal(got, np.packbits(oracles.loopback(unpacked, bits)))
    finally:
        channel_mod._LINE_PASS = saved


def every_window_built(mp):
    """Have each `_ReceivedLine` hand `g704_align` its windows built and
    flipped, never as flips alone."""
    iterate = testbed._ReceivedLine.__iter__

    def built(line):
        for window in iterate(line):
            yield window.octets()

    mp.setattr(testbed._ReceivedLine, "__iter__", built)


def framed_session(channel, rate, seed_tag=0):
    """A G.704 session at any multiple of 64 kbit/s (a custom profile)."""
    prof = default_profile(channel=channel)
    rates = {**prof.supported_rates, IK.G704: frozenset({rate})}
    prof = dataclasses.replace(prof, supported_rates=rates)
    return dut_open_session(prof, IK.G704, rate, F0, seed_tag=seed_tag)


def line_flips(data, timeslots, payload_bits, multiframes, window_bits):
    """Line positions drawn where a flip matters to the frame vote or the
    payload in its own way."""
    line_bits = multiframes * MULTIFRAME_BITS
    pairs, frames = line_bits // 512, line_bits // 256
    capacity = multiframes * 16 * timeslots * 8  # payload bits, zero padding included
    where = {
        "fas": lambda: 512 * data.draw(st.integers(0, pairs - 1)) + data.draw(st.integers(1, 7)),
        "check": lambda: 512 * data.draw(st.integers(0, pairs - 1)),
        "not-fas": lambda: 512 * data.draw(st.integers(0, pairs - 1)) + 256
        + data.draw(st.integers(0, 7)),
        "payload": lambda: int(oracles.line_positions(
            data.draw(st.integers(0, payload_bits - 1)), timeslots)),
        "window-edge": lambda: data.draw(st.integers(1, -(-line_bits // window_bits)))
        * window_bits + data.draw(st.integers(-16, 15)),
        "anywhere": lambda: data.draw(st.integers(0, line_bits - 1)),
    }
    if timeslots < 31:
        where["idle"] = lambda: 256 * data.draw(st.integers(0, frames - 1)) + 8 * data.draw(
            st.integers(timeslots + 1, 31)) + data.draw(st.integers(0, 7))
    if payload_bits < capacity:
        where["padding"] = lambda: int(oracles.line_positions(
            data.draw(st.integers(payload_bits, capacity - 1)), timeslots))
    kinds = data.draw(st.lists(st.sampled_from(sorted(where)), max_size=12))
    return sorted({p for p in (where[k]() for k in kinds) if 0 <= p < line_bits})


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    rate=st.sampled_from([64, 256, 1024, 2048]),
    window_bits=st.sampled_from([MULTIFRAME_BITS, 3 * MULTIFRAME_BITS, 8 * MULTIFRAME_BITS]),
    shape=st.sampled_from(["ideal", "bsc", "gilbert-elliott", "mask", "shifted"]),
)
def test_loopback_from_flips_equals_every_window_built_and_the_oracle(data, rate, window_bits, shape):
    # Once the frame vote settles on phase 0, later windows come as flips
    # alone.  The payload, the stream left for the next segment and that
    # segment must be those of the loopback that builds every window.
    timeslots = min(31, rate // 64)
    multiframes = data.draw(st.integers(1, 48))
    per_mf = 16 * timeslots * 8
    n = data.draw(st.integers((multiframes - 1) * per_mf + 1, multiframes * per_mf))
    bits = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, 2, n)
    bits = bits.astype(np.uint8)
    seed = data.draw(st.integers(0, 2**32 - 1))
    if shape == "ideal":
        channel = Ideal()
    elif shape == "bsc":
        channel = Bsc(p=data.draw(st.sampled_from([1e-6, 1e-4, 1e-3, 1e-2])), seed=seed)
    elif shape == "gilbert-elliott":
        channel = GilbertElliott(p_gb=0.001, p_bg=0.1, p_good=1.0, p_bad=0.3, seed=seed)
    elif shape == "mask":
        flips = line_flips(data, timeslots, n, multiframes, window_bits)
        channel = FixedMask(indices=tuple(flips))
    else:
        # Part of the line is itself delayed, so the vote may settle on
        # phase 0 and lose it later, or choose a winner past phase 0.  A
        # shift of whole octets reads no octet past a frame pair.
        session = framed_session(Ideal(), rate)
        start, stop = sorted(data.draw(st.integers(0, multiframes * MULTIFRAME_BITS)) for _ in "ab")
        start = data.draw(st.sampled_from([0, start]))
        stop = data.draw(st.sampled_from([None, stop]))
        shift = data.draw(st.one_of(st.integers(1, 511), st.integers(1, 63).map(lambda k: 8 * k)))
        channel = shifted_mask(session, np.packbits(bits), shift, start, stop)
    sessions = [framed_session(channel, rate, seed_tag=5) for _ in range(3)]
    later = np.random.default_rng(seed).integers(0, 2, data.draw(st.integers(1, 3 * per_mf)))
    later = later.astype(np.uint8)
    saved = framing._ALIGN_PASS
    framing._ALIGN_PASS = window_bits
    try:
        got = [loop_bits(sessions[0], bits), loop_bits(sessions[0], later)]
        with pytest.MonkeyPatch.context() as mp:
            every_window_built(mp)
            want = [loop_bits(sessions[1], bits), loop_bits(sessions[1], later)]
    finally:
        framing._ALIGN_PASS = saved
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], oracles.loopback(sessions[2], bits))
    assert sessions[0]._stream.position == sessions[1]._stream.position


def test_a_leader_past_phase_0_never_counts_from_flips(monkeypatch):
    # The first of four windows is the line delayed by one octet, the rest
    # is framed at phase 0: phase 8 leads after the first window, so the
    # vote does not settle there, and only the octets of the others show
    # that phase 0 wins.
    rate, multiframes = 256, 4 * 64
    bits = generate(PrbsSpec(), multiframes * 16 * 4 * 8)
    session = dut_open_session(default_profile(), IK.G704, rate, F0)
    channel = shifted_mask(session, np.packbits(bits), 8, stop=64 * MULTIFRAME_BITS)
    session, reference = (
        dut_open_session(default_profile(channel=channel), IK.G704, rate, F0) for _ in range(2)
    )
    offsets = recording_offsets(monkeypatch)
    assert np.array_equal(loop_bits(session, bits), oracles.loopback(reference, bits))
    assert offsets == [0]


def test_the_rest_of_the_window_the_vote_settles_in_counts_from_its_flips(monkeypatch):
    # The vote settles on phase 0 at the end of the first window's pass,
    # two frame pairs before the window ends; those two count from the
    # window's flips.  The mask wipes the signal bits 2-8 of the last frame
    # pair of the window and flips a payload bit in its last frame.
    rate, multiframes = 256, 4 * 64  # four windows
    bits = generate(PrbsSpec(), multiframes * 16 * 4 * 8)
    pair = framing._ALIGN_PASS - 2 * framing.FRAME_BITS
    mask = FixedMask(indices=(*range(pair + 1, pair + 8), pair + framing.FRAME_BITS + 8 * 2 + 3))
    sessions = [dut_open_session(default_profile(channel=mask), IK.G704, rate, F0) for _ in range(3)]
    counts = []
    proven = framing._Vote.proven

    def counting_proven(vote):
        counts.append(vote.matches)
        return proven(vote)

    monkeypatch.setattr(framing._Vote, "proven", counting_proven)
    built = build_counts(monkeypatch)
    got = loop_bits(sessions[0], bits)
    assert len(built) == 1
    line = oracles.build_multiframes(bits, 4)
    line[list(mask.indices)] ^= 1
    signals = line.reshape(-1, 2 * framing.FRAME_BITS)[:, 1:8]  # at phase 0
    assert counts == [np.all(signals == framing.FAS_PATTERN, axis=1).sum()] == [8 * multiframes - 1]
    with pytest.MonkeyPatch.context() as mp:
        every_window_built(mp)
        assert np.array_equal(got, loop_bits(sessions[1], bits))
    assert np.array_equal(got, oracles.loopback(sessions[2], bits))
    assert np.count_nonzero(got ^ bits) == 1


def build_counts(monkeypatch):
    """Record the payload octets of each `build_multiframes` a loopback makes."""
    built = []
    build = testbed.build_multiframes

    def counting_build(payload, timeslots):
        built.append(len(payload))
        return build(payload, timeslots)

    monkeypatch.setattr(testbed, "build_multiframes", counting_build)
    return built


@pytest.mark.parametrize(
    "channel, fewest, most",
    [
        # 40 flips in the first 2**20 line bits.
        (FixedMask(indices=tuple(range(1000, 1 << 20, 26_227))), 1, 2),
        (Bsc(p=1e-6, seed=5), 1, 2),
        # A leader that misses 7% of its signals settles once about an
        # eighth of the line is seen: 17 windows.
        (Bsc(p=1e-2, seed=5), 8, 40),
        # 8% of the signals survive: the vote settles in the last windows.
        (Bsc(p=0.3, seed=5), 120, 128),
    ],
    ids=["sparse-mask", "bsc-1e-6", "bsc-1e-2", "bsc-0.3"],
)
def test_loopback_builds_only_the_windows_before_the_vote_settles(
    monkeypatch, channel, fewest, most
):
    # 2**22 payload bits at 256 kbit/s: a line of 2**25 bits, 128 windows,
    # read once.
    n = 1 << 22
    payload = np.packbits(generate(PrbsSpec(), n))
    session = dut_open_session(default_profile(channel=channel), IK.G704, 256, F0)
    built = build_counts(monkeypatch)
    loopback(session, payload, n)
    assert fewest <= len(built) <= most
    assert session._stream.position == 1 << 25


# ---------------------------------------------------------------------------
# profiles, documents


def test_default_profile_covers_all_report_kinds():
    prof = default_profile()
    port_kinds = [k for k, _ in prof.ports]
    assert port_kinds == list(REPORT_ORDER)
    assert all(2048 in prof.supported_rates[k] for k in port_kinds)
    f_min, f_max = prof.if_range_hz
    assert f_min < f_max


def test_profile_validation():
    with pytest.raises(ValueError):
        default_profile().__class__(
            name="bad",
            ports=((IK.G703, "BNC"),),
            supported_rates={},
            if_range_hz=(950e6, 1950e6),
        )
    with pytest.raises(ValueError):
        default_profile().__class__(
            name="bad",
            ports=(),
            supported_rates={},
            if_range_hz=(1950e6, 950e6),
        )


_E1_RATES = [256, 512, 1024, 2048]

#: The default modem as a DUT document, with a binary symmetric channel.
DEFAULT_PROFILE_DOC = {
    "name": "PD10L-class VSAT modem (simulated)",
    "ports": [
        {"interface": "G.703", "connector": "BNC 75 ohm unbalanced / EIA530 120 ohm balanced"},
        {"interface": "G.704", "connector": "RJ45 120 ohm balanced"},
        {"interface": "V.35", "connector": "EIA530 25-pin D-type female"},
        {"interface": "STANAG 4210", "connector": "balanced field-cable pair"},
        {"interface": "10/100BASE-T", "connector": "RJ45 (shared auto-negotiating port)"},
        {"interface": "10BASE-FL", "connector": "ST multimode fiber pair"},
        {"interface": "100BASE-FX", "connector": "SC duplex fiber"},
        {"interface": "100BASE-SX", "connector": "SC duplex multimode fiber"},
    ],
    "rates": {
        "G.703": _E1_RATES,
        "G.704": _E1_RATES,
        "V.35": [64, 128, 192, 256, 320, 384, 448, 512, 1024, 2048],
        "STANAG 4210": _E1_RATES,
        "10/100BASE-T": _E1_RATES,
        "10BASE-FL": _E1_RATES,
        "100BASE-FX": _E1_RATES,
        "100BASE-SX": _E1_RATES,
    },
    "if_range_hz": [950e6, 1950e6],
    "channel": {"kind": "bsc", "p": 0.25, "seed": 11},
    "warmup_s": 300,
}

#: The default converter catalog as a document.
DEFAULT_CATALOG_DOC = [
    {"name": "Tahoe 284", "side_a": ["G.703", "G.704"], "side_b": ["10/100BASE-T"],
     "max_rate_kbps": 2048, "notes": "managed E1/Ethernet bridge (framed or unframed)"},
    {"name": "Tahoe 235", "side_a": "G.703", "side_b": "V.35",
     "max_rate_kbps": 2048, "notes": "unframed E1 to V.35 DCE, up to 2 Mbit/s"},
    {"name": "APP EC100", "side_a": ["10BASE-T", "100BASE-TX"], "side_b": ["10BASE-FL"],
     "notes": "10 Mbit/s fiber Ethernet converter"},
    {"name": "APP EC101", "side_a": ["10/100BASE-T"], "side_b": ["100BASE-FX", "100BASE-SX"],
     "notes": "100 Mbit/s fiber Ethernet converter"},
    {"name": "EUROCOM B/e1", "side_a": ["G.703"], "side_b": ["STANAG 4210"],
     "max_rate_kbps": 2048, "notes": "E1 to tactical gateway line converter"},
]


def test_profile_document_roundtrip():
    prof = default_profile(channel=Bsc(p=0.25, seed=11))
    assert profile_from_dict(DEFAULT_PROFILE_DOC) == prof


def test_profile_document_still_reads_g704_crc4_true():
    doc = DEFAULT_PROFILE_DOC
    assert profile_from_dict({**doc, "g704_crc4": True}) == profile_from_dict(doc)


def test_catalog_document_roundtrip():
    assert catalog_from_list(DEFAULT_CATALOG_DOC) == default_catalog()


def test_analyzer_document_roundtrip():
    assert analyzer_from_dict(analyzer_to_dict(DEFAULT_ANALYZER)) == DEFAULT_ANALYZER


def test_combined_port_alias_expands_in_documents():
    doc = {
        "name": "alias test",
        "ports": [{"interface": "10/100BASE-T", "connector": "RJ45"}],
        "rates": {"10/100BASE-T": [2048]},
        "if_range_hz": [950e6, 1950e6],
        "channel": {"kind": "ideal", "seed": 0},
    }
    prof = profile_from_dict(doc)
    assert [k for k, _ in prof.ports] == [IK.BASE10_T, IK.BASE100_TX]
    assert prof.supported_rates[IK.BASE100_TX] == frozenset({2048})


def test_bad_documents_are_rejected():
    with pytest.raises(ValueError):
        profile_from_dict({"name": "x"})
    with pytest.raises(ValueError, match="warm-up time cannot be negative"):
        profile_from_dict({**DEFAULT_PROFILE_DOC, "warmup_s": -5})
    with pytest.raises(ValueError):
        catalog_from_list([{"name": "x", "side_a": ["G.703"]}])
    with pytest.raises(ValueError):
        analyzer_from_dict({"native": []})
