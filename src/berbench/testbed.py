"""The simulated bench: analyzer, converter catalog, device under test.

The analyzer drives one of its native interfaces; when the interface
under test is not among them, a chain of bidirectional media converters
bridges the gap.  Chain resolution is a shortest-path search over the
converter graph, so reports can state whether a converter was needed.

A session binds the device to one (interface, bit rate, tuning frequency)
triple and exposes `loopback`, which pushes a bit stream through the
line discipline of the interface under test and the device's fault model,
which flips bits (no session uses the HDB3 codec in `framing`):

* G.704 paths build CRC-4 check multiframes and recover the payload by
  frame alignment;
* everything else (G.703, V.35, STANAG 4210, Ethernet family) is a
  transparent bit pipe, since the converters bridge raw test patterns.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .channel import ChannelModel, Ideal, derive_seed, model_from_dict, model_to_dict, open_stream
from .core import (
    COMBINED_10_100,
    COMBINED_10_100_NAME,
    InterfaceKind,
    check_freq_hz,
    check_rate_kbps,
    parse_interface,
)
from .framing import (
    PAYLOAD_SLOTS,
    FrameAlignmentError,
    build_multiframes,
    g704_align,
    line_positions,
    # Not called here; perfbench/traced.py counts calls made under these two names.
    hdb3_decode,
    hdb3_encode,
)


class NoPortError(Exception):
    """The device has no port for the requested interface."""


class UnsupportedRateError(Exception):
    """The device does not run the requested interface at this bit rate."""


class FrequencyRangeError(Exception):
    """Requested tuning frequency outside the device's IF range."""


_KIND_ORDER = {kind: i for i, kind in enumerate(InterfaceKind)}


def _as_kind_set(value) -> frozenset[InterfaceKind]:
    if isinstance(value, InterfaceKind):
        return frozenset((value,))
    kinds = frozenset(value)
    if not kinds or not all(isinstance(k, InterfaceKind) for k in kinds):
        raise ValueError(f"converter side must name at least one interface, got {value!r}")
    return kinds


def _kind_set_name(kinds: frozenset[InterfaceKind]) -> str:
    if kinds == frozenset(COMBINED_10_100):
        return COMBINED_10_100_NAME
    return "/".join(k.value for k in sorted(kinds, key=_KIND_ORDER.get))


@dataclass(frozen=True)
class ConverterSpec:
    """A bidirectional media converter between two interface families.

    Sides are sets because real devices expose combined ports (a single
    RJ45 that is both 10BASE-T and 100BASE-TX, an E1 port that runs framed
    or unframed).
    """

    name: str
    side_a: frozenset[InterfaceKind]
    side_b: frozenset[InterfaceKind]
    max_rate_kbps: int | None = None
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "side_a", _as_kind_set(self.side_a))
        object.__setattr__(self, "side_b", _as_kind_set(self.side_b))
        if self.side_a & self.side_b:
            raise ValueError(f"converter {self.name!r} has overlapping sides")
        if self.max_rate_kbps is not None:
            check_rate_kbps(self.max_rate_kbps)

    def admits(self, rate_kbps: int) -> bool:
        return self.max_rate_kbps is None or rate_kbps <= self.max_rate_kbps

    def other_side(self, kind: InterfaceKind) -> frozenset[InterfaceKind]:
        if kind in self.side_a:
            return self.side_b
        if kind in self.side_b:
            return self.side_a
        raise ValueError(f"{kind} is on neither side of {self.name}")

    def describe(self) -> str:
        return f"{_kind_set_name(self.side_a)} <-> {_kind_set_name(self.side_b)}"


@dataclass(frozen=True)
class AnalyzerProfile:
    """Interfaces the analyzer speaks directly, with optional rate caps."""

    native: tuple[tuple[InterfaceKind, int | None], ...]

    def __post_init__(self):
        native = tuple((kind, limit) for kind, limit in self.native)
        if not native:
            raise ValueError("analyzer must speak at least one interface")
        object.__setattr__(self, "native", native)

    def admissible(self, kind: InterfaceKind, rate_kbps: int) -> bool:
        for native_kind, limit in self.native:
            if native_kind is kind and (limit is None or rate_kbps <= limit):
                return True
        return False

    def kinds(self) -> tuple[InterfaceKind, ...]:
        return tuple(kind for kind, _ in self.native)


@dataclass(frozen=True)
class ConverterChain:
    """A resolved analyzer-to-device path; empty means a native connection."""

    converters: tuple[ConverterSpec, ...]
    analyzer_side: InterfaceKind
    eut_side: InterfaceKind

    def __post_init__(self):
        reachable = {self.analyzer_side}
        for conv in self.converters:
            touching = reachable & (conv.side_a | conv.side_b)
            if not touching:
                raise ValueError(f"chain breaks before {conv.name}")
            reachable = set().union(*(conv.other_side(k) for k in touching))
        if self.eut_side not in (reachable if self.converters else {self.analyzer_side}):
            raise ValueError("chain endpoints do not match its converters")

    def __len__(self) -> int:
        return len(self.converters)

    @property
    def max_rate_kbps(self) -> int | None:
        limits = [c.max_rate_kbps for c in self.converters if c.max_rate_kbps is not None]
        return min(limits) if limits else None

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.converters)


def resolve_chain(
    analyzer: AnalyzerProfile,
    target: InterfaceKind,
    catalog: Iterable[ConverterSpec],
    rate_kbps: int,
) -> ConverterChain | None:
    """Shortest converter chain from any analyzer interface to `target`.

    Every converter on the chain (and the analyzer port itself) must admit
    `rate_kbps`.  Returns the empty chain when the analyzer speaks the
    target natively at that rate, and None when no path exists - which is
    the no-connector case, not an error.  Ties between equal-length chains
    break on converter names, then on the analyzer-side interface order.
    """
    check_rate_kbps(rate_kbps)
    if analyzer.admissible(target, rate_kbps):
        return ConverterChain((), target, target)
    catalog = [c for c in catalog if c.admits(rate_kbps)]
    heap = []
    tie = itertools.count()  # keeps heap entries comparable on equal keys
    for kind, limit in analyzer.native:
        if limit is None or rate_kbps <= limit:
            heapq.heappush(heap, ((0, (), _KIND_ORDER[kind]), next(tie), kind, kind, ()))
    best: dict[InterfaceKind, tuple] = {}
    while heap:
        key, _, kind, start, path = heapq.heappop(heap)
        if kind is target:
            return ConverterChain(path, start, target)
        if kind in best and best[kind] <= key:
            continue
        best[kind] = key
        depth, names, start_idx = key
        for conv in catalog:
            if conv in path or (kind not in conv.side_a and kind not in conv.side_b):
                continue
            next_key = (depth + 1, names + (conv.name,), start_idx)
            for nxt in conv.other_side(kind):
                if nxt not in best or best[nxt] > next_key:
                    heapq.heappush(heap, (next_key, next(tie), nxt, start, path + (conv,)))
    return None


@dataclass(frozen=True)
class DutProfile:
    """The simulated modem: ports, rates, tuning range, fault model.

    G.704 rates are whole 64 kbit/s timeslots, up to 2048; the framed path
    always runs CRC-4 check multiframes.
    """

    name: str
    ports: tuple[tuple[InterfaceKind, str], ...]
    supported_rates: Mapping[InterfaceKind, frozenset[int]]
    if_range_hz: tuple[float, float]
    loopback_channel: ChannelModel = field(default_factory=Ideal)
    warmup_s: int = 0

    def __post_init__(self):
        f_min, f_max = (check_freq_hz(f) for f in self.if_range_hz)
        if not f_min < f_max:
            raise ValueError(f"IF range must satisfy f_min < f_max, got {self.if_range_hz}")
        object.__setattr__(self, "if_range_hz", (f_min, f_max))
        ports = tuple((kind, str(note)) for kind, note in self.ports)
        object.__setattr__(self, "ports", ports)
        rates = {
            kind: frozenset(check_rate_kbps(r) for r in rs)
            for kind, rs in dict(self.supported_rates).items()
        }
        for kind, _ in ports:
            if not rates.get(kind):
                raise ValueError(f"port {kind} has no supported rates")
        bad = sorted(r for r in rates.get(InterfaceKind.G704, ()) if r % 64 or r > 2048)
        if bad:
            raise ValueError(f"G.704 rates must be multiples of 64 up to 2048 kbit/s, got {bad}")
        object.__setattr__(self, "supported_rates", rates)
        if self.warmup_s < 0:
            raise ValueError("warm-up time cannot be negative")

    def port_note(self, kind: InterfaceKind) -> str | None:
        for port_kind, note in self.ports:
            if port_kind is kind:
                return note
        return None


@dataclass
class Session:
    """An open connection at a fixed (interface, rate, frequency)."""

    profile: DutProfile
    iface: InterfaceKind
    rate_kbps: int
    freq_hz: float
    _stream: object = field(default=None, repr=False, compare=False)

    @property
    def payload_timeslots(self) -> int:
        # Fractional G.704 occupies the first n timeslots; the full 2048
        # rate fills all 31 payload slots.
        return min(PAYLOAD_SLOTS, self.rate_kbps // 64)


def dut_open_session(
    profile: DutProfile,
    iface: InterfaceKind,
    rate_kbps: int,
    freq_hz: float,
    *,
    seed_tag: int = 0,
) -> Session:
    """Bind the device to (iface, rate, freq) or refuse with a typed error.

    A missing port is the no-connector outcome; a bad rate or frequency is
    a configuration error.  `seed_tag` forks the profile's channel seed so
    independent measurements see independent error streams.
    """
    if profile.port_note(iface) is None:
        raise NoPortError(f"{profile.name} has no {iface} connector")
    check_rate_kbps(rate_kbps)
    if rate_kbps not in profile.supported_rates.get(iface, frozenset()):
        raise UnsupportedRateError(f"{profile.name} does not run {iface} at {rate_kbps} kbit/s")
    freq_hz = check_freq_hz(freq_hz)
    f_min, f_max = profile.if_range_hz
    if not f_min <= freq_hz <= f_max:
        raise FrequencyRangeError(
            f"{freq_hz:.1f} Hz outside {profile.name} IF range [{f_min:.1f}, {f_max:.1f}] Hz"
        )
    model = profile.loopback_channel
    if seed_tag:
        model = dataclasses.replace(model, seed=derive_seed(model.seed, seed_tag))
    return Session(profile, iface, rate_kbps, freq_hz, open_stream(model))


def payload_line_positions(session: Session, payload_indices: np.ndarray) -> np.ndarray:
    """Map payload bit indices to line-stream positions for this session.

    Useful for building fault masks that hit (or avoid) specific payload
    bits.  On unframed paths the mapping is the identity.
    """
    if session.iface is not InterfaceKind.G704:
        return np.array(payload_indices, dtype=np.int64)
    return line_positions(payload_indices, session.payload_timeslots)


def loopback(session: Session, bits: np.ndarray) -> np.ndarray:
    """Push payload bits through the session's line path and fault model.

    Length-preserving.  Loss of frame alignment caused by the fault model
    comes back as a worthless payload (all zeros), never as an exception:
    the meter sees it as a massive error count.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if session.iface is not InterfaceKind.G704:
        return session._stream.apply(bits)
    n_ts = session.payload_timeslots
    rx_line = session._stream.apply(build_multiframes(bits, n_ts))
    try:
        recovered = g704_align(rx_line, n_ts)[1][: len(bits)]
    except FrameAlignmentError:
        recovered = np.zeros(0, dtype=np.uint8)
    return np.pad(recovered, (0, len(bits) - len(recovered)))


# ---------------------------------------------------------------------------
# Built-in bench: the analyzer, the five-converter catalog, a default DUT.

DEFAULT_ANALYZER = AnalyzerProfile(
    native=(
        (InterfaceKind.G703, None),
        (InterfaceKind.G704, None),
        (InterfaceKind.V35, 512),
    )
)

_ETH_COPPER = frozenset(COMBINED_10_100)


def default_catalog() -> tuple[ConverterSpec, ...]:
    """The embedded converter set of the bench."""
    return (
        ConverterSpec(
            "Tahoe 284",
            frozenset({InterfaceKind.G703, InterfaceKind.G704}),
            _ETH_COPPER,
            max_rate_kbps=2048,
            notes="managed E1/Ethernet bridge (framed or unframed)",
        ),
        ConverterSpec(
            "Tahoe 235",
            frozenset({InterfaceKind.G703}),
            frozenset({InterfaceKind.V35}),
            max_rate_kbps=2048,
            notes="unframed E1 to V.35 DCE, up to 2 Mbit/s",
        ),
        ConverterSpec(
            "APP EC100",
            _ETH_COPPER,
            frozenset({InterfaceKind.BASE10_FL}),
            notes="10 Mbit/s fiber Ethernet converter",
        ),
        ConverterSpec(
            "APP EC101",
            _ETH_COPPER,
            frozenset({InterfaceKind.BASE100_FX, InterfaceKind.BASE100_SX}),
            notes="100 Mbit/s fiber Ethernet converter",
        ),
        ConverterSpec(
            "EUROCOM B/e1",
            frozenset({InterfaceKind.G703}),
            frozenset({InterfaceKind.STANAG4210}),
            max_rate_kbps=2048,
            notes="E1 to tactical gateway line converter",
        ),
    )


#: Explicit seed for the default fault model; campaigns never draw entropy.
DEFAULT_CHANNEL_SEED = 0xB5EED

_E1_FAMILY_RATES = frozenset({256, 512, 1024, 2048})
_V35_RATES = frozenset({64, 128, 192, 256, 320, 384, 448, 512, 1024, 2048})


def default_profile(channel: ChannelModel | None = None) -> DutProfile:
    """A PD10L-class modem as equipped for the full interface campaign.

    The 950-1950 MHz IF range is a datasheet-style assumption, not a
    measured fact; override it in a profile document if yours differs.
    """
    if channel is None:
        channel = Ideal(seed=DEFAULT_CHANNEL_SEED)
    ports = (
        (InterfaceKind.G703, "BNC 75 ohm unbalanced / EIA530 120 ohm balanced"),
        (InterfaceKind.G704, "RJ45 120 ohm balanced"),
        (InterfaceKind.V35, "EIA530 25-pin D-type female"),
        (InterfaceKind.STANAG4210, "balanced field-cable pair"),
        (InterfaceKind.BASE10_T, "RJ45 (shared auto-negotiating port)"),
        (InterfaceKind.BASE100_TX, "RJ45 (shared auto-negotiating port)"),
        (InterfaceKind.BASE10_FL, "ST multimode fiber pair"),
        (InterfaceKind.BASE100_FX, "SC duplex fiber"),
        (InterfaceKind.BASE100_SX, "SC duplex multimode fiber"),
    )
    rates = {kind: _E1_FAMILY_RATES for kind, _ in ports}
    rates[InterfaceKind.V35] = _V35_RATES
    return DutProfile(
        name="PD10L-class VSAT modem (simulated)",
        ports=ports,
        supported_rates=rates,
        if_range_hz=(950e6, 1950e6),
        loopback_channel=channel,
        warmup_s=300,
    )


# ---------------------------------------------------------------------------
# JSON document loaders (schemas documented in the README).


def _parse_port_kinds(name: str) -> tuple[InterfaceKind, ...]:
    from .core import _normalize  # local: alias expansion shares the normalizer

    if _normalize(name) == _normalize(COMBINED_10_100_NAME):
        return COMBINED_10_100
    return (parse_interface(name),)


def profile_to_dict(profile: DutProfile) -> dict:
    return {
        "name": profile.name,
        "ports": [{"interface": k.value, "connector": note} for k, note in profile.ports],
        "rates": {k.value: sorted(rs) for k, rs in sorted(
            profile.supported_rates.items(), key=lambda kv: _KIND_ORDER[kv[0]]
        )},
        "if_range_hz": list(profile.if_range_hz),
        "channel": model_to_dict(profile.loopback_channel),
        "warmup_s": profile.warmup_s,
    }


def profile_from_dict(data: dict) -> DutProfile:
    try:
        ports = []
        for entry in data["ports"]:
            for kind in _parse_port_kinds(entry["interface"]):
                ports.append((kind, entry.get("connector", "")))
        rates: dict[InterfaceKind, frozenset[int]] = {}
        if not isinstance(data["rates"], dict):
            raise TypeError(f"'rates' must be a JSON object, got {type(data['rates']).__name__}")
        for name, values in data["rates"].items():
            for kind in _parse_port_kinds(name):
                rates[kind] = frozenset(int(v) for v in values)
        if data.get("g704_crc4", True) is not True:
            # Older documents carry the key; CRC-4 is the only framed mode.
            raise ValueError(f"'g704_crc4' may only be true, got {data['g704_crc4']!r}")
        return DutProfile(
            name=str(data["name"]),
            ports=tuple(ports),
            supported_rates=rates,
            if_range_hz=tuple(float(f) for f in data["if_range_hz"]),
            loopback_channel=model_from_dict(data["channel"]) if "channel" in data else Ideal(),
            warmup_s=int(data.get("warmup_s", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad DUT profile document: {exc}") from None


def catalog_to_list(catalog: Iterable[ConverterSpec]) -> list[dict]:
    out = []
    for conv in catalog:
        entry = {
            "name": conv.name,
            "side_a": sorted((k.value for k in conv.side_a), key=str),
            "side_b": sorted((k.value for k in conv.side_b), key=str),
            "notes": conv.notes,
        }
        if conv.max_rate_kbps is not None:
            entry["max_rate_kbps"] = conv.max_rate_kbps
        out.append(entry)
    return out


def catalog_from_list(entries: Iterable[dict]) -> tuple[ConverterSpec, ...]:
    converters = []
    try:
        for entry in entries:
            sides = []
            for side in ("side_a", "side_b"):
                kinds: set[InterfaceKind] = set()
                names = entry[side]
                for name in [names] if isinstance(names, str) else names:
                    kinds.update(_parse_port_kinds(name))
                sides.append(frozenset(kinds))
            converters.append(
                ConverterSpec(
                    name=str(entry["name"]),
                    side_a=sides[0],
                    side_b=sides[1],
                    max_rate_kbps=(
                        int(entry["max_rate_kbps"]) if "max_rate_kbps" in entry else None
                    ),
                    notes=str(entry.get("notes", "")),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad converter catalog document: {exc}") from None
    return tuple(converters)


def analyzer_to_dict(analyzer: AnalyzerProfile) -> dict:
    native = []
    for kind, limit in analyzer.native:
        entry: dict = {"interface": kind.value}
        if limit is not None:
            entry["max_rate_kbps"] = limit
        native.append(entry)
    return {"native": native}


def analyzer_from_dict(data: dict) -> AnalyzerProfile:
    try:
        native = tuple(
            (
                parse_interface(entry["interface"]),
                int(entry["max_rate_kbps"]) if "max_rate_kbps" in entry else None,
            )
            for entry in data["native"]
        )
        return AnalyzerProfile(native=native)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad analyzer document: {exc}") from None