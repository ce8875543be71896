"""Campaign orchestration: frequency points, verdicts, interface sweeps.

A campaign walks the requested interfaces in order.  For each one it
checks connector availability (native analyzer port or converter chain),
then measures at every configured bit rate and at three tuning points of
the device's IF range:

    f0 = (f_max + f_min) / 2      midband
    f1 = 0.95 * f_max             upper edge, backed off 5%
    f2 = 1.05 * f_min             lower edge, backed off 5%

A measurement passes when its BER does not exceed the policy threshold;
an interface passes only when every measurement does.  A missing
connector is a recorded outcome, not an error.  All bookkeeping runs on a
virtual clock so reports are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .core import (
    BerValue,
    InterfaceKind,
    Outcome,
    REPORT_ORDER,
    Verdict,
    check_freq_hz,
    check_rate_kbps,
    exact_fraction,
)
from .meter import BerMeasurement, MeasurementConfig, analyzer_self_test, measure
from .testbed import (
    AnalyzerProfile,
    ConverterSpec,
    DEFAULT_ANALYZER,
    DutProfile,
    NoPortError,
    check_port_rate,
    default_catalog,
    default_profile,
    dut_open_session,
    resolve_chain,
)

#: Analyzer stabilization time charged to the virtual clock at campaign
#: start; unquantified by instrument documentation, fixed for determinism.
ANALYZER_WARMUP_S = 900

#: Default bit rate tested on every interface: the top rate every bench
#: path carries end to end.
DEFAULT_RATE_KBPS = 2048


class CampaignPreconditionError(Exception):
    """The tuning range cannot host the three frequency points."""


class FrequencyPoints(NamedTuple):
    f0: float
    f1: float
    f2: float


def compute_frequencies(f_min_hz: float, f_max_hz: float) -> FrequencyPoints:
    """The three tuning points for a device IF range."""
    f_min = check_freq_hz(f_min_hz)
    f_max = check_freq_hz(f_max_hz)
    if f_min > f_max:
        raise ValueError(f"inverted IF range: {f_min} > {f_max}")
    return FrequencyPoints(0.5 * (f_max + f_min), 0.95 * f_max, 1.05 * f_min)


@dataclass(frozen=True)
class VerdictPolicy:
    """Pass threshold for a single BER result."""

    ber_max: Fraction = Fraction(1, 10**5)

    def __post_init__(self):
        ber_max = exact_fraction(self.ber_max)
        if not 0 < ber_max < 1:
            raise ValueError(f"threshold must be in (0, 1), got {ber_max}")
        object.__setattr__(self, "ber_max", ber_max)


def apply_verdict(ber: BerValue, policy: VerdictPolicy) -> Outcome:
    """Non-strict comparison: a result exactly at the threshold passes.

    An upper bound passes only when the bound itself clears the threshold;
    a resolution coarser than the threshold can never prove compliance.
    """
    return Outcome.PASS if ber.value <= policy.ber_max else Outcome.FAIL


@dataclass(frozen=True)
class InterfaceResult:
    iface: InterfaceKind
    verdict: Verdict
    chain: tuple[ConverterSpec, ...] | None
    measurements: tuple[BerMeasurement, ...]


@dataclass(frozen=True)
class CampaignConfig:
    """The test plan: bench, interfaces, bit rates, resolution and threshold.

    `rates` maps an interface to the rates it is measured at; an interface
    it does not list runs at `DEFAULT_RATE_KBPS`.  The defaults are the
    built-in bench over every interface.
    """

    dut: DutProfile = field(default_factory=default_profile)
    analyzer: AnalyzerProfile = DEFAULT_ANALYZER
    catalog: tuple[ConverterSpec, ...] = field(default_factory=default_catalog)
    interfaces: tuple[InterfaceKind, ...] = REPORT_ORDER
    rates: Mapping[InterfaceKind, tuple[int, ...]] = field(default_factory=dict)
    measurement: MeasurementConfig = MeasurementConfig()
    policy: VerdictPolicy = VerdictPolicy()

    def rates_for(self, iface: InterfaceKind) -> tuple[int, ...]:
        return tuple(self.rates.get(iface, (DEFAULT_RATE_KBPS,)))


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    results: tuple[InterfaceResult, ...]
    frequencies: FrequencyPoints
    virtual_end_s: int
    log: tuple[tuple[int, str], ...]


@dataclass
class _Clock:
    now_s: int = 0
    log: list[tuple[int, str]] = field(default_factory=list)
    measurement_index: int = 0

    def note(self, message: str) -> None:
        self.log.append((self.now_s, message))

    def advance(self, seconds: int, message: str) -> None:
        self.note(message)
        self.now_s += int(seconds)


def _mhz(freq_hz: float) -> str:
    return f"{freq_hz / 1e6:g} MHz"


def _run_interface(
    config: CampaignConfig, iface: InterfaceKind, points: FrequencyPoints, clock: _Clock
) -> InterfaceResult:
    """Connector check, rate/frequency sweep, and verdict for one interface."""
    rates = config.rates_for(iface)
    chain = resolve_chain(config.analyzer, iface, config.catalog, max(rates))
    if chain is None:
        note = (
            f"no appropriate {iface} connector: analyzer has no native port "
            f"at {max(rates)} kbit/s and no converter chain exists"
        )
        clock.note(f"{iface}: {note}")
        return InterfaceResult(iface, Verdict(Outcome.NO_CONNECTOR, note), None, ())
    if chain:
        clock.note(f"{iface}: connected via {' + '.join(c.name for c in chain)}")
    else:
        clock.note(f"{iface}: connected natively")

    measurements: list[BerMeasurement] = []
    for rate in rates:
        for freq in points:
            clock.measurement_index += 1
            try:
                session = dut_open_session(
                    config.dut, iface, rate, freq, seed_tag=clock.measurement_index
                )
            except NoPortError as exc:
                note = f"no appropriate interface connector: {exc}"
                clock.note(f"{iface}: {note}")
                return InterfaceResult(iface, Verdict(Outcome.NO_CONNECTOR, note), chain, ())
            m = measure(session, config.measurement)
            measurements.append(m)
            clock.advance(
                m.duration_s,
                f"{iface} @ {rate} kbit/s, {_mhz(freq)}: "
                f"{m.errored_bits} errors / {m.transmitted_bits} bits",
            )
    ok = all(apply_verdict(m.ber, config.policy) is Outcome.PASS for m in measurements)
    verdict = Verdict(Outcome.PASS if ok else Outcome.FAIL)
    return InterfaceResult(iface, verdict, chain, tuple(measurements))


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """The full procedure over the config's ordered interface list.

    Results come back in request order, one per requested interface
    (duplicates measured twice).
    """
    dut = config.dut
    f_min, f_max = dut.if_range_hz
    points = compute_frequencies(f_min, f_max)
    # The same comparison `dut_open_session` makes, before any warm-up.
    outside = [f for f in points if not f_min <= f <= f_max]
    if outside:
        raise CampaignPreconditionError(
            f"IF range [{f_min:g}, {f_max:g}] Hz too narrow: tuning point "
            f"{outside[0]:.1f} Hz falls outside it"
        )
    # Every rate is checked before the warm-up, not when its interface comes up.
    for iface in config.interfaces:
        rates = config.rates_for(iface)
        if not rates:
            raise ValueError(f"no bit rates configured for {iface}")
        for rate in rates:
            if dut.port_note(iface) is None:  # no port: a no-connector outcome later
                check_rate_kbps(rate)
            else:
                check_port_rate(dut, iface, rate)
    clock = _Clock()
    clock.advance(ANALYZER_WARMUP_S, "analyzer powered, waiting for stability")
    analyzer_self_test(config.measurement.pattern)
    clock.note("analyzer self-test: pattern self-loop clean")
    clock.note(f"EUT '{dut.name}' set up per its manual")
    clock.advance(dut.warmup_s, "EUT powered, waiting for stability")
    results = tuple(_run_interface(config, iface, points, clock) for iface in config.interfaces)
    clock.note("campaign complete")
    return CampaignReport(config, results, points, clock.now_s, tuple(clock.log))
