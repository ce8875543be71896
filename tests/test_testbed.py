import itertools
import math

import numpy as np
import pytest

from berbench.channel import Bsc, FixedMask, Ideal
from berbench.core import InterfaceKind as IK
from berbench.core import REPORT_ORDER
from berbench.prbs import PrbsSpec, generate
from berbench.testbed import (
    AnalyzerProfile,
    ConverterChain,
    ConverterSpec,
    DEFAULT_ANALYZER,
    FrequencyRangeError,
    NoPortError,
    UnsupportedRateError,
    analyzer_from_dict,
    analyzer_to_dict,
    catalog_from_list,
    catalog_to_list,
    default_catalog,
    default_profile,
    dut_open_session,
    loopback,
    payload_line_positions,
    profile_from_dict,
    profile_to_dict,
    resolve_chain,
)

F0 = 1450e6


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
    chain = resolve_chain(DEFAULT_ANALYZER, IK.G703, default_catalog(), 2048)
    assert chain is not None and len(chain) == 0
    assert not chain.converters
    assert chain.analyzer_side is IK.G703 and chain.eut_side is IK.G703


def test_tactical_gateway_interface_uses_its_converter():
    chain = resolve_chain(DEFAULT_ANALYZER, IK.STANAG4210, default_catalog(), 2048)
    assert chain.names() == ("EUROCOM B/e1",)


def test_fiber_ethernet_needs_two_converters():
    chain = resolve_chain(DEFAULT_ANALYZER, IK.BASE10_FL, default_catalog(), 2048)
    assert chain.names() == ("Tahoe 284", "APP EC100")
    assert len(chain) == 2


def test_v35_above_native_cap_goes_through_converter():
    for rate in (1024, 2048):
        chain = resolve_chain(DEFAULT_ANALYZER, IK.V35, default_catalog(), rate)
        assert chain is not None and chain.names() == ("Tahoe 235",)
    assert resolve_chain(DEFAULT_ANALYZER, IK.V35, default_catalog(), 4096) is None


def test_v35_within_native_cap_is_native():
    chain = resolve_chain(DEFAULT_ANALYZER, IK.V35, default_catalog(), 512)
    assert chain is not None and len(chain) == 0


def test_removed_converter_breaks_the_only_path():
    catalog = [c for c in default_catalog() if c.name != "Tahoe 235"]
    assert resolve_chain(DEFAULT_ANALYZER, IK.V35, catalog, 2048) is None


def test_resolution_matches_exhaustive_enumeration():
    catalog = default_catalog()
    for kind, rate in itertools.product(REPORT_ORDER, (512, 2048)):
        chain = resolve_chain(DEFAULT_ANALYZER, kind, catalog, rate)
        oracle = enumerate_best_chain(DEFAULT_ANALYZER, kind, catalog, rate)
        got = None if chain is None else chain.names()
        assert got == oracle, (kind, rate)


def test_chain_rate_limit_is_minimum_of_members():
    chain = resolve_chain(DEFAULT_ANALYZER, IK.BASE10_FL, default_catalog(), 2048)
    assert chain.max_rate_kbps == 2048


def test_tie_break_is_lexicographic_by_name():
    analyzer = AnalyzerProfile(native=((IK.G703, None),))
    slow = ConverterSpec("B box", IK.G703, IK.V35)
    fast = ConverterSpec("A box", IK.G703, IK.V35)
    chain = resolve_chain(analyzer, IK.V35, (slow, fast), 2048)
    assert chain.names() == ("A box",)


def test_converter_sides_must_differ():
    with pytest.raises(ValueError):
        ConverterSpec("loop", IK.G703, IK.G703)


def test_chain_validates_adjacency():
    tahoe = default_catalog()[0]
    with pytest.raises(ValueError):
        ConverterChain((tahoe,), IK.V35, IK.BASE10_T)


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
    out1 = loopback(dut_open_session(prof, IK.V35, 2048, F0, seed_tag=1), bits)
    out2 = loopback(dut_open_session(prof, IK.V35, 2048, F0, seed_tag=2), bits)
    same = loopback(dut_open_session(prof, IK.V35, 2048, F0, seed_tag=1), bits)
    assert not np.array_equal(out1, out2)
    assert np.array_equal(out1, same)


# ---------------------------------------------------------------------------
# loopback


@pytest.mark.parametrize("kind", list(REPORT_ORDER))
def test_loopback_is_identity_on_ideal_channel(kind):
    prof = default_profile()
    session = dut_open_session(prof, kind, 2048, F0)
    bits = generate(PrbsSpec(), 30_000)
    assert np.array_equal(loopback(session, bits), bits)


@pytest.mark.parametrize("rate", [256, 512, 1024, 2048])
def test_framed_loopback_identity_at_fractional_rates(rate):
    prof = default_profile()
    session = dut_open_session(prof, IK.G704, rate, F0)
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(loopback(session, bits), bits)


@pytest.mark.parametrize("kind", [IK.G703, IK.V35])
def test_fixed_mask_flips_exact_payload_positions_unframed(kind):
    payload_hits = np.array([100, 5_000, 29_999])
    prof = default_profile(channel=FixedMask(indices=tuple(payload_hits)))
    session = dut_open_session(prof, kind, 2048, F0)
    bits = np.zeros(30_000, np.uint8)
    out = loopback(session, bits)
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
    out = loopback(session, bits)
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
    out = loopback(session, bits)
    flips = int(np.count_nonzero(out ^ bits))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(flips - n * p) <= 3 * sigma


def test_heavy_corruption_returns_worthless_payload_not_exception():
    prof = default_profile(channel=Bsc(p=0.5, seed=31))
    session = dut_open_session(prof, IK.G704, 2048, F0)
    bits = generate(PrbsSpec(), 50_000)
    out = loopback(session, bits)
    assert len(out) == len(bits)


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


def test_profile_document_roundtrip():
    prof = default_profile(channel=Bsc(p=0.25, seed=11))
    assert profile_from_dict(profile_to_dict(prof)) == prof


def test_profile_document_still_reads_g704_crc4_true():
    doc = profile_to_dict(default_profile())
    assert "g704_crc4" not in doc
    assert profile_from_dict({**doc, "g704_crc4": True}) == profile_from_dict(doc)


def test_catalog_document_roundtrip():
    catalog = default_catalog()
    assert catalog_from_list(catalog_to_list(catalog)) == catalog


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
    with pytest.raises(ValueError):
        catalog_from_list([{"name": "x", "side_a": ["G.703"]}])
    with pytest.raises(ValueError):
        analyzer_from_dict({"native": []})
