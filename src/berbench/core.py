"""Shared vocabulary for the traffic-interface BER bench.

Bit rates are integers in kbit/s and frequencies are floats in hertz.
BER figures are carried as exact fractions: threshold comparisons and
measurement-time rounding must not depend on binary floating point.

Pattern and line bits travel packed: a uint8 array holds eight bits per
octet, most significant bit first (the order of `np.packbits`), and an
explicit bit count says how many of them are meant.  Bits past the count
in the last octet are zero.  A count must lie in 0 .. 8 x the octets:
`check_bit_count` refuses any other, and the loopback, the frame
alignment and the receiver call it on what they are given.
"""
from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np


class InterfaceKind(enum.Enum):
    """Traffic interfaces under test, in canonical report order."""

    G703 = "G.703"
    G704 = "G.704"
    V35 = "V.35"
    STANAG4210 = "STANAG 4210"
    BASE10_T = "10BASE-T"
    BASE100_TX = "100BASE-TX"
    BASE10_FL = "10BASE-FL"
    BASE100_FX = "100BASE-FX"
    BASE100_SX = "100BASE-SX"

    def __str__(self) -> str:
        return self.value


#: Canonical ordering used by every report emitter.
REPORT_ORDER: tuple[InterfaceKind, ...] = tuple(InterfaceKind)

#: A combined 10/100 copper port serves both copper Ethernet kinds; reports
#: keep them as two separate rows.  `parse_port_kinds` expands this alias,
#: `parse_interface` rejects it with guidance.
COMBINED_10_100_NAME = "10/100BASE-T"
COMBINED_10_100: tuple[InterfaceKind, InterfaceKind] = (
    InterfaceKind.BASE10_T,
    InterfaceKind.BASE100_TX,
)


def _normalize(name: str) -> str:
    if not isinstance(name, str):
        raise TypeError(f"interface name must be a string, got {json_type(name)}")
    return "".join(ch for ch in name.upper() if ch not in " .-_")


_BY_KEY = {_normalize(kind.value): kind for kind in InterfaceKind}


def parse_interface(name: str) -> InterfaceKind:
    """Parse a canonical or alias spelling ("G703", "10base-fl", ...)."""
    key = _normalize(name)
    if key == _normalize(COMBINED_10_100_NAME):
        raise ValueError(
            f"{name!r} is a combined port, not a single interface; "
            "use '10BASE-T' or '100BASE-TX' (profile port lists may use "
            f"{COMBINED_10_100_NAME!r}, which expands to both)"
        )
    try:
        return _BY_KEY[key]
    except KeyError:
        valid = ", ".join(kind.value for kind in InterfaceKind)
        raise ValueError(f"unknown interface {name!r}; valid kinds: {valid}") from None


def parse_port_kinds(name: str) -> tuple[InterfaceKind, ...]:
    """Parse an interface name; the combined copper port expands to both kinds."""
    if _normalize(name) == _normalize(COMBINED_10_100_NAME):
        return COMBINED_10_100
    return (parse_interface(name),)


def json_type(value) -> str:
    """A document value's JSON type: null, true, false, string, number, object or array."""
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    names = {str: "string", int: "number", float: "number", list: "array", dict: "object"}
    return names.get(type(value), type(value).__name__)


def check_int(value, what: str) -> int:
    """A document integer: a JSON integer, never a float, a string or a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        got = repr(value) if isinstance(value, float) else json_type(value)
        raise TypeError(f"{what} must be an integer, got {got}")
    return value


def check_json(value, what: str, *types: type):
    """A JSON array (`list`), object (`dict`), string (`str`), true or false
    (`bool`) or null (`type(None)`), as `types` allow."""
    if not isinstance(value, types):
        want = " or ".join("true or false" if t is bool else json_type(t()) for t in types)
        raise TypeError(f"{what} must be a JSON {want}, got {json_type(value)}")
    return value


def check_keys(data: dict, what: str, *known: str) -> dict:
    """A document object holding no key outside `known`: a misspelled key is
    refused, not read as absent."""
    for key in data:
        if key not in known:
            raise ValueError(f"{what} has unknown key {json.dumps(key)}")
    return data


def check_real(value, what: str) -> float:
    """A document real number: a JSON integer or float, never a string or a bool."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{what} must be a number, got {json_type(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond any float
        raise ValueError(f"{what} is out of range") from None


def unpack_bits(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Bits start..stop-1 of a packed stream, one uint8 0/1 per bit."""
    first = start // 8
    bits = np.unpackbits(packed[first : -(-stop // 8)])
    return bits[start - 8 * first : stop - 8 * first]


def check_bit_count(packed: np.ndarray, n_bits: int) -> None:
    """Refuse a bit count that the octets of `packed` cannot hold."""
    if not 0 <= n_bits <= 8 * len(packed):
        raise ValueError(f"{len(packed)} octets cannot hold {n_bits} bits")


def clear_tail(packed: np.ndarray, n_bits: int) -> None:
    """Zero, in place, the bits past `n_bits` in the octet that holds bit `n_bits`."""
    if n_bits % 8:
        packed[n_bits // 8] &= (0xFF << (8 - n_bits % 8)) & 0xFF


def check_rate_kbps(rate: int) -> int:
    if not isinstance(rate, int) or isinstance(rate, bool) or rate <= 0:
        raise ValueError(f"bit rate must be a positive integer in kbit/s, got {rate!r}")
    return rate


def check_freq_hz(freq: float) -> float:
    freq = float(freq)
    if not math.isfinite(freq) or freq <= 0.0:
        raise ValueError(f"frequency must be a positive finite value in Hz, got {freq!r}")
    return freq


#: Largest decimal exponent, up or down, that `exact_fraction` reads.  The
#: exact value of 1e-99999999 takes minutes to build; no measurement can
#: resolve anything near 10**-4000, and every float lies well inside.
_MAX_EXPONENT = 4000


def exact_fraction(value) -> Fraction:
    """Read a number as the decimal it prints as.

    Floats go through their shortest decimal repr, so 1e-8 means exactly
    10**-8 rather than the nearest binary double.  Measurement sizing and
    pass/fail boundaries rely on this.  A string or Decimal whose exponent
    lies beyond `_MAX_EXPONENT` either way is refused before it is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot interpret {value!r} as an exact number")
        return Fraction(Decimal(repr(value)))
    if isinstance(value, (str, Decimal)):
        try:
            decimal = Decimal(value)
        except InvalidOperation:
            decimal = None
        if decimal is None or not decimal.is_finite():
            raise ValueError(f"cannot interpret {value!r} as an exact number")
        if decimal and abs(decimal.adjusted()) > _MAX_EXPONENT:
            raise ValueError(
                f"cannot interpret {value!r}: decimal exponents beyond "
                f"+-{_MAX_EXPONENT} are refused"
            )
        return Fraction(decimal)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact number")


@dataclass(frozen=True)
class BerValue:
    """A bit error ratio: exact point estimate, or an upper bound.

    Zero observed errors does not license BER = 0; such a measurement only
    proves BER below the configured resolution, so it is reported as an
    upper bound at that resolution.
    """

    value: Fraction
    is_bound: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", exact_fraction(self.value))
        if not 0 <= self.value <= 1:
            raise ValueError(f"BER value {self.value} outside [0, 1]")
        if self.is_bound and self.value == 0:
            raise ValueError("an upper bound of 0 is meaningless")

    @classmethod
    def point(cls, errored_bits: int, transmitted_bits: int) -> "BerValue":
        if transmitted_bits <= 0:
            raise ValueError("point estimate needs a positive bit count")
        return cls(Fraction(errored_bits, transmitted_bits))

    @classmethod
    def upper_bound(cls, resolution) -> "BerValue":
        return cls(exact_fraction(resolution), is_bound=True)


def _power_of_ten_exponent(value: Fraction) -> int | None:
    if value.numerator != 1:
        return None
    exp = round(math.log10(value.denominator))
    return -exp if 10**exp == value.denominator else None


def format_ber(ber: BerValue) -> str:
    """Render a BER for the text report ("< 10^-8", "1.3e-05", ...)."""
    exp = _power_of_ten_exponent(ber.value)
    text = f"10^{exp}" if exp is not None else repr(float(ber.value))
    return f"< {text}" if ber.is_bound else text


class Outcome(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NO_CONNECTOR = "NO CONNECTOR"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    note: str | None = None

    def __post_init__(self):
        if self.outcome is Outcome.NO_CONNECTOR and not self.note:
            raise ValueError("a NO CONNECTOR verdict must carry a note")


#: `format_duration` covers test plans up to (not including) 100 hours.
MAX_DURATION_S = 360_000


def format_duration(seconds: int) -> str:
    """Render whole seconds as zero-padded hh:mm:ss."""
    seconds = operator.index(seconds)
    if not 0 <= seconds < MAX_DURATION_S:
        raise ValueError(f"duration {seconds} s outside [0, {MAX_DURATION_S})")
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"
