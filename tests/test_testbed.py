import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench import testbed
from berbench.channel import Bsc, FixedMask, GilbertElliott, Ideal
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
    "channel", [Ideal(), Bsc(p=0.0), FixedMask(indices=(10**9,))], ids=["ideal", "bsc0", "mask"]
)
@pytest.mark.parametrize("kind, rate", [(IK.G704, 256), (IK.G704, 2048), (IK.V35, 512)])
def test_a_stream_that_cannot_flip_passes_the_octets_through(channel, kind, rate):
    session = dut_open_session(default_profile(channel=channel), kind, rate, F0)

    def apply(bits):
        raise AssertionError("a stream that cannot flip was applied")

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
    saved = testbed._LINE_PASS
    testbed._LINE_PASS = data.draw(st.sampled_from([4096, 8192, 1 << 19]))
    try:
        for n in data.draw(st.lists(st.integers(0, 40_000), min_size=1, max_size=3)):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            payload = np.packbits(bits)
            if n % 8:  # set bits past the bit count are not sent
                payload[-1] |= (1 << (8 - n % 8)) - 1
            got = loopback(packed, payload, n)
            assert np.array_equal(got, np.packbits(oracles.loopback(unpacked, bits)))
    finally:
        testbed._LINE_PASS = saved


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
