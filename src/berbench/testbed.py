"""The simulated bench: analyzer, converter catalog, device under test.

The analyzer drives one of its native interfaces; when the interface
under test is not among them, a chain of bidirectional media converters
bridges the gap.  A chain is a plain tuple of converters, each used at
most once, so reports can state whether a converter was needed.
Resolution deepens a depth-first search one converter at a time and
returns the shortest chain; among equally short ones, the chain whose
converter names compare least, name by name, wins.

A session binds the device to one (interface, bit rate, tuning frequency)
triple and exposes `loopback`, which pushes a packed bit stream (uint8
octets, most significant bit first as in `np.packbits`, with a bit count;
see `berbench.core`) through the line discipline of the interface under
test and the device's fault model, which flips bits (no session uses the
HDB3 codec in `framing`):

* G.704 paths build CRC-4 check multiframes and recover the payload by
  frame alignment;
* everything else (G.703, V.35, STANAG 4210, Ethernet family) is a
  transparent bit pipe, since the converters bridge raw test patterns.

Off G.704 the line is a copy of the payload.  The fault model flips it
in place, in passes of `_LINE_PASS` bits: each pass is unpacked for the
model's per-bit stream and packed again, unless the stream finds no flip
in it (`skip_clean`), when its octets stay as they are.  Fault draws are
keyed by stream position, so the passes flip the same bits as one call
would.  A pass's unpacked bits and the model's copy of them are 64 KiB
each, below glibc's default mmap threshold, so they come from the heap
rather than fresh zero-filled pages.  On G.704 the line is never whole:
`g704_align` reads it as a `_ReceivedLine`, whose windows (`framing`
sizes them) come in stream order, each with the bits that flip in it:
the stream flips zeros in the same passes.  A window is built from its
share of the payload, and those flips applied, only until the frame vote
settles on phase 0; from there on alignment takes its count and its
payload from the flips and the payload share.  The frame phase is voted over the
whole received line; when the line must be read again, the stream is
first set back to where the first read found it, so every read sees the
same flips.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .channel import ChannelModel, Ideal, derive_seed, model_from_dict, open_stream
from .core import (
    COMBINED_10_100,
    COMBINED_10_100_NAME,
    InterfaceKind,
    check_bit_count,
    check_freq_hz,
    check_int,
    check_json,
    check_keys,
    check_rate_kbps,
    check_real,
    clear_tail,
    json_type,
    parse_interface,
    parse_port_kinds,
)
from .framing import (
    PAYLOAD_SLOTS,
    FrameAlignmentError,
    build_multiframes,
    g704_align,
    line_octets,
    window_payload_octets,
    # Not called here; perfbench/traced.py counts calls made under these two names.
    hdb3_decode,
    hdb3_encode,
)


class NoPortError(Exception):
    """The device has no port for the requested interface."""


class UnsupportedRateError(ValueError):
    """The device does not run the requested interface at this bit rate."""


class FrequencyRangeError(ValueError):
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


def resolve_chain(
    analyzer: AnalyzerProfile,
    target: InterfaceKind,
    catalog: Iterable[ConverterSpec],
    rate_kbps: int,
) -> tuple[ConverterSpec, ...] | None:
    """Shortest converter chain from any analyzer interface to `target`.

    Every converter on the chain (and the analyzer port itself) must admit
    `rate_kbps`, and a converter appears at most once.  Returns `()` when
    the analyzer speaks the target natively at that rate, and None when no
    chain exists - which is the no-connector case, not an error.  Among
    the shortest chains, the one whose converter names compare least, name
    by name, wins.

    The search is depth first and keeps only the chain being built; it
    tries one converter, then two, and so on, and the first length with a
    chain returns.  A shortest chain never re-enters an analyzer interface
    or an interface it already reached, since it would contain a shorter
    chain; so it has fewer converters than there are interfaces.
    Converters are tried in name order, and of the unused ones with the
    same two sides only the least-named: putting it in place of a
    later-named one leaves a chain, with names no greater.  A branch stops
    once its names exceed those of the best chain found.
    """
    check_rate_kbps(rate_kbps)
    if analyzer.admissible(target, rate_kbps):
        return ()
    usable = [c for c in catalog if c.admits(rate_kbps)]
    usable = sorted(dict.fromkeys(usable), key=lambda c: c.name)  # equal converters are one
    starts = [k for k, _ in analyzer.native if analyzer.admissible(k, rate_kbps)]
    chain: list[ConverterSpec] = []
    names: list[str] = []  # the converter names of `chain`
    best: tuple[ConverterSpec, ...] | None = None
    best_names: tuple[str, ...] = ()

    def extend(kind: InterfaceKind, reached: frozenset[InterfaceKind], depth: int) -> None:
        nonlocal best, best_names
        tried = set()
        for conv in usable:
            if best_names and (*names, conv.name) > best_names[: len(names) + 1]:
                break  # so does every later converter, whose name is no less
            if kind not in conv.side_a and kind not in conv.side_b:
                continue
            sides = frozenset((conv.side_a, conv.side_b))
            if sides in tried or conv in chain:
                continue
            tried.add(sides)
            chain.append(conv)
            names.append(conv.name)
            for nxt in sorted(conv.other_side(kind) - reached, key=_KIND_ORDER.get):
                if len(chain) < depth:
                    extend(nxt, reached | {nxt}, depth)
                elif nxt is target and (not best_names or tuple(names) < best_names):
                    best, best_names = tuple(chain), tuple(names)
            chain.pop()
            names.pop()

    for depth in range(1, len(InterfaceKind)):
        for kind in starts:
            extend(kind, frozenset(starts), depth)
        if best_names:
            return best
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


def check_port_rate(profile: DutProfile, iface: InterfaceKind, rate_kbps: int) -> None:
    """Refuse a rate the device does not run on its `iface` port."""
    check_rate_kbps(rate_kbps)
    if rate_kbps not in profile.supported_rates.get(iface, frozenset()):
        raise UnsupportedRateError(f"{profile.name} does not run {iface} at {rate_kbps} kbit/s")


def check_port(profile: DutProfile, iface: InterfaceKind) -> None:
    """Refuse an interface the device has no port for: the no-connector case."""
    if profile.port_note(iface) is None:
        raise NoPortError(f"{profile.name} has no {iface} connector")


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
    check_port(profile, iface)
    check_port_rate(profile, iface, rate_kbps)
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


#: Line bits per pass of `loopback`'s fault model, a multiple of the octet;
#: bounds the unpacked bits and the model's draws.  A pass with a flip
#: allocates 64 KiB twice, the unpacked bits and the model's copy: below
#: glibc's default mmap threshold, above which each pass would map fresh
#: pages, and small enough to sit beside a G.704 window and a segment's
#: payload in `test_framed_loopback_takes_no_line_sized_heap_memory`.
_LINE_PASS = 1 << 16


def _flip(stream, line: np.ndarray, line_bits: int | None = None) -> bool:
    """Flip the first `line_bits` bits of packed `line` (all when None) in
    place, pass by pass; return whether any pass went through the model."""
    if line_bits is None:
        line_bits = 8 * len(line)
    applied = False
    for lo in range(0, line_bits, _LINE_PASS):
        count = min(line_bits - lo, _LINE_PASS)
        if not stream.skip_clean(count):
            chunk = line[lo // 8 : -(-(lo + count) // 8)]
            chunk[:] = np.packbits(stream.apply(np.unpackbits(chunk, count=count)))
            applied = True
    return applied


class _Window:
    """Whole check multiframes of a received line, carrying `payload`.

    Made when the fault model's `stream` reaches it, which flips zeros in
    the window's passes: `flips` are the bits that flip, packed as the
    window's octets, or None when the stream skips every pass clean.
    `octets` builds the window and applies them.
    """

    def __init__(self, payload: np.ndarray, timeslots: int, stream):
        self.payload = payload
        self.timeslots = timeslots
        flips = np.zeros(len(self), dtype=np.uint8)
        self.flips = flips if _flip(stream, flips) else None

    def __len__(self) -> int:
        return line_octets(len(self.payload), self.timeslots)

    def octets(self) -> np.ndarray:
        line = build_multiframes(self.payload, self.timeslots)
        if self.flips is not None:
            line ^= self.flips
        return line


class _ReceivedLine:
    """The G.704 line of one payload as it comes back, window by window.

    Each iteration yields `_Window`s, each with its share of the payload
    and the flips of the session's stream, in stream order.  Every
    iteration first sets the stream's attributes back to those it had
    when the line was made (as a shallow copy would hold them), so all
    see the same flips.  `len` is the line's octets, as for the whole
    line in an array.
    """

    def __init__(self, payload: np.ndarray, timeslots: int, stream):
        self.payload = payload
        self.timeslots = timeslots
        self.stream = stream
        self.start = dict(vars(stream))

    def __len__(self) -> int:
        return line_octets(len(self.payload), self.timeslots)

    def __iter__(self):
        state = vars(self.stream)
        state.clear()
        state.update(self.start)
        share = window_payload_octets(self.timeslots)
        for lo in range(0, max(len(self.payload), 1), share):
            yield _Window(self.payload[lo : lo + share], self.timeslots, self.stream)


def loopback(session: Session, payload: np.ndarray, n_bits: int) -> np.ndarray:
    """Push packed payload bits through the session's line path and fault model.

    `payload` holds `n_bits` bits, packed; the result holds the same
    number, packed the same way.  Loss of frame alignment caused by the
    fault model comes back as a worthless payload (all zeros), never as
    an exception: the meter sees it as a massive error count.
    """
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    check_bit_count(payload, n_bits)
    size = -(-n_bits // 8)
    payload = payload[:size]
    g704 = session.iface is InterfaceKind.G704
    if not g704 or n_bits % 8 and payload[-1] & (0xFF >> n_bits % 8):
        payload = payload.copy()  # off G.704, the line itself
        clear_tail(payload, n_bits)  # send no bit past n_bits
    if not g704:
        _flip(session._stream, payload, n_bits)
        return payload
    timeslots = session.payload_timeslots
    line = _ReceivedLine(payload, timeslots, session._stream)
    try:
        recovered = g704_align(line, timeslots)[1][:size]
    except FrameAlignmentError:
        return np.zeros(size, dtype=np.uint8)
    if len(recovered) < size:  # a frame phase past 0 extracts one frame less
        recovered = np.pad(recovered, (0, size - len(recovered)))
    clear_tail(recovered, n_bits)
    return recovered


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


def rate_map_from_dict(data: dict) -> dict[InterfaceKind, tuple[int, ...]]:
    """Bit rates per interface; the combined copper port sets both kinds."""
    return {
        kind: tuple(check_int(r, "a bit rate") for r in check_json(values, repr(name), list))
        for name, values in check_json(data, "'rates'", dict).items()
        for kind in parse_port_kinds(name)
    }


def _objects(entries: Iterable, key: str, *known: str) -> list[dict]:
    """The entries of a document's `key` array, each a JSON object of `known` keys."""
    what = f"an entry of {key!r}"
    return [check_keys(check_json(entry, what, dict), what, *known) for entry in entries]


def profile_from_dict(data: dict) -> DutProfile:
    try:
        keys = ("name", "ports", "rates", "if_range_hz", "channel", "warmup_s", "g704_crc4")
        check_keys(data, "'dut'", *keys)
        ports = []
        entries = check_json(data["ports"], "'ports'", list)
        for entry in _objects(entries, "ports", "interface", "connector"):
            for kind in parse_port_kinds(entry["interface"]):
                ports.append((kind, entry.get("connector", "")))
        if data.get("g704_crc4", True) is not True:
            # Older documents carry the key; CRC-4 is the only framed mode.
            raise ValueError(f"'g704_crc4' may only be true, got {json_type(data['g704_crc4'])}")
        return DutProfile(
            name=str(data["name"]),
            ports=tuple(ports),
            supported_rates=rate_map_from_dict(data["rates"]),
            if_range_hz=tuple(
                check_real(f, "'if_range_hz'")
                for f in check_json(data["if_range_hz"], "'if_range_hz'", list)
            ),
            loopback_channel=(
                model_from_dict(check_json(data["channel"], "'channel'", dict))
                if "channel" in data
                else Ideal()
            ),
            warmup_s=check_int(data.get("warmup_s", 0), "'warmup_s'"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad DUT profile document: {exc}") from None


def _rate_cap(entry: dict) -> int | None:
    if "max_rate_kbps" not in entry:
        return None
    return check_int(entry["max_rate_kbps"], "'max_rate_kbps'")


def catalog_from_list(entries: Iterable[dict]) -> tuple[ConverterSpec, ...]:
    converters = []
    try:
        known = ("name", "side_a", "side_b", "max_rate_kbps", "notes")
        for entry in _objects(entries, "catalog", *known):
            sides = []
            for side in ("side_a", "side_b"):
                kinds: set[InterfaceKind] = set()
                names = check_json(entry[side], repr(side), str, list)
                for name in [names] if isinstance(names, str) else names:
                    kinds.update(parse_port_kinds(name))
                sides.append(frozenset(kinds))
            converters.append(
                ConverterSpec(
                    name=str(entry["name"]),
                    side_a=sides[0],
                    side_b=sides[1],
                    max_rate_kbps=_rate_cap(entry),
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
        check_keys(data, "'analyzer'", "native")
        entries = check_json(data["native"], "'native'", list)
        native = tuple(
            (parse_interface(entry["interface"]), _rate_cap(entry))
            for entry in _objects(entries, "native", "interface", "max_rate_kbps")
        )
        return AnalyzerProfile(native=native)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad analyzer document: {exc}") from None