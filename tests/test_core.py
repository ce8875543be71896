import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berbench.core import (
    BerValue,
    InterfaceKind,
    Outcome,
    REPORT_ORDER,
    Verdict,
    check_bit_count,
    exact_fraction,
    format_ber,
    format_duration,
    parse_interface,
)


def test_format_duration_known_values():
    assert format_duration(15625) == "04:20:25"
    assert format_duration(0) == "00:00:00"
    assert format_duration(488) == "00:08:08"


def test_format_duration_rejects_out_of_range():
    with pytest.raises(ValueError):
        format_duration(-1)
    with pytest.raises(ValueError):
        format_duration(360_000)


def test_format_duration_hours_can_exceed_23():
    assert format_duration(359_999) == "99:59:59"


@given(st.integers(min_value=0, max_value=359_999))
def test_format_duration_roundtrips(seconds):
    text = format_duration(seconds)
    h, m, s = (int(part) for part in text.split(":"))
    assert len(text) == 8
    assert h * 3600 + m * 60 + s == seconds


def test_report_order_matches_result_table():
    assert [k.value for k in REPORT_ORDER] == [
        "G.703",
        "G.704",
        "V.35",
        "STANAG 4210",
        "10BASE-T",
        "100BASE-TX",
        "10BASE-FL",
        "100BASE-FX",
        "100BASE-SX",
    ]


def test_each_kind_appears_once_in_report_order():
    assert len(set(REPORT_ORDER)) == len(REPORT_ORDER) == len(InterfaceKind)


@pytest.mark.parametrize("kind", list(InterfaceKind))
def test_parse_roundtrips_display_names(kind):
    assert parse_interface(kind.value) is kind


@pytest.mark.parametrize(
    "alias,kind",
    [
        ("G.703", InterfaceKind.G703),
        ("G703", InterfaceKind.G703),
        ("g.703", InterfaceKind.G703),
        ("100BASE-FX", InterfaceKind.BASE100_FX),
        ("10base-fl", InterfaceKind.BASE10_FL),
        ("stanag 4210", InterfaceKind.STANAG4210),
        ("STANAG-4210", InterfaceKind.STANAG4210),
        ("v35", InterfaceKind.V35),
    ],
)
def test_parse_aliases(alias, kind):
    assert parse_interface(alias) is kind


def test_parse_unknown_lists_valid_kinds():
    with pytest.raises(ValueError, match="G.703"):
        parse_interface("RS-232")


def test_parse_combined_port_is_guided():
    with pytest.raises(ValueError, match="10BASE-T"):
        parse_interface("10/100BASE-T")


def test_exact_fraction_reads_decimal_repr():
    assert exact_fraction(1e-8) == Fraction(1, 10**8)
    assert exact_fraction(1e-5) == Fraction(1, 10**5)
    assert exact_fraction("1e-8") == Fraction(1, 10**8)
    assert exact_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert exact_fraction(2) == Fraction(2)


def test_exact_fraction_rejects_junk():
    for junk in (float("nan"), "abc", "", "inf", "-Infinity", "NaN"):
        with pytest.raises(ValueError):
            exact_fraction(junk)
    with pytest.raises(TypeError):
        exact_fraction(True)


@pytest.mark.parametrize("text", ["1e-99999999", "1e99999999", "-7.5e-4001", "1e4001"])
def test_exact_fraction_refuses_a_huge_exponent_at_once(text):
    # Building 10**99999999 exactly took minutes; the bound refuses first.
    started = time.perf_counter()
    for value in (text, Decimal(text)):
        with pytest.raises(ValueError, match="exponents beyond"):
            exact_fraction(value)
    assert time.perf_counter() - started < 1.0


def test_exact_fraction_reads_exponents_up_to_the_bound():
    assert exact_fraction("1e-400") == Fraction(1, 10**400)
    assert exact_fraction("2.5e-4000") == Fraction(25, 10**4001)
    assert exact_fraction("1e4000") == 10**4000
    assert exact_fraction("0e-99999999") == 0  # zero has no magnitude to bound


def test_ber_point_is_exact_division():
    v = BerValue.point(1, 3)
    assert v.value == Fraction(1, 3)
    assert not v.is_bound


def test_ber_upper_bound_only_for_positive_resolution():
    assert BerValue.upper_bound(1e-8).value == Fraction(1, 10**8)
    with pytest.raises(ValueError):
        BerValue(Fraction(0), is_bound=True)


def test_ber_value_range_checked():
    with pytest.raises(ValueError):
        BerValue(Fraction(3, 2))


def test_format_ber():
    assert format_ber(BerValue.upper_bound(1e-8)) == "< 10^-8"
    assert format_ber(BerValue.upper_bound(1e-5)) == "< 10^-5"
    assert format_ber(BerValue.point(10, 10**6)) == "10^-5"
    assert format_ber(BerValue.point(13, 10**6)) == "1.3e-05"


def test_no_connector_requires_note():
    with pytest.raises(ValueError):
        Verdict(Outcome.NO_CONNECTOR)
    assert Verdict(Outcome.NO_CONNECTOR, "missing port").note == "missing port"
    assert Verdict(Outcome.PASS).note is None


def test_bit_count_must_fit_the_octets():
    octets = np.zeros(3, np.uint8)
    for n_bits in (0, 1, 24):
        check_bit_count(octets, n_bits)
    for n_bits in (-1, 25):
        with pytest.raises(ValueError, match=f"^3 octets cannot hold {n_bits} bits$"):
            check_bit_count(octets, n_bits)
