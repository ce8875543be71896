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

A campaign runs in three steps.  `_plan`, before the warm-up, refuses a
plan the device cannot run and decides every interface's connector
outcome and its measurement jobs, each with the seed tag that forks its
channel stream.  `_execute` measures the jobs on every CPU the process
may use, worker `w` of `W` taking jobs `w`, `w + W`, …; each job opens
its own session, so where it runs changes no result.  A worker hands back
measurements only, and every job none reported (it failed, its worker
died or was never forked) is measured again in this process, in plan
order, where the first that raises raises.  `_fold` then rebuilds the
clock, the log and the verdicts in plan order, so the report is the same
byte for byte whatever ran where.
"""
from __future__ import annotations

import os
import pickle
import warnings
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
    format_duration,
)
from .meter import (
    BerMeasurement,
    MeasurementConfig,
    analyzer_self_test,
    measure,
    required_duration,
)
from .testbed import (
    AnalyzerProfile,
    ConverterSpec,
    DEFAULT_ANALYZER,
    DutProfile,
    NoPortError,
    check_port,
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


class CampaignPreconditionError(ValueError):
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


def interface_verdict(note: str | None, measurements, policy: VerdictPolicy) -> Verdict:
    """No connector when the plan gave the interface a note, else a pass
    exactly when every measurement passes."""
    if note is not None:
        return Verdict(Outcome.NO_CONNECTOR, note)
    ok = all(apply_verdict(m.ber, policy) is Outcome.PASS for m in measurements)
    return Verdict(Outcome.PASS if ok else Outcome.FAIL)


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

    def note(self, message: str) -> None:
        self.log.append((self.now_s, message))

    def advance(self, seconds: int, message: str) -> None:
        self.note(message)
        self.now_s += int(seconds)


def _mhz(freq_hz: float) -> str:
    return f"{freq_hz / 1e6:g} MHz"


class _Job(NamedTuple):
    """One measurement: `measure` on the session these values open."""

    iface: InterfaceKind
    rate_kbps: int
    freq_hz: float
    seed_tag: int


class _Step(NamedTuple):
    """One requested interface, as decided before any measurement.

    `chain` is None when no converter chain exists.  `note` is the
    no-connector note, or None when `jobs` measure the interface.
    """

    iface: InterfaceKind
    chain: tuple[ConverterSpec, ...] | None
    note: str | None
    jobs: tuple[_Job, ...]


def _plan(config: CampaignConfig, points: FrequencyPoints) -> list[_Step]:
    """The campaign's interfaces in request order, with their measurement jobs.

    The one walk over them, made before the warm-up, so it refuses what the
    device cannot run before any measurement: an interface with no rate,
    and a rate that is not a positive integer or, where the device has the
    port, one it does not run or whose duration `berbench plan` refuses.

    Each job gets the next seed tag, counting from 1 over the campaign.  An
    interface without a port spends one too: earlier versions opened its
    first session before the refusal, and the tags, so the reports, stay
    theirs.
    """
    steps = []
    tag = 0
    for iface in config.interfaces:
        rates = config.rates_for(iface)
        if not rates:
            raise ValueError(f"no bit rates configured for {iface}")
        try:
            check_port(config.dut, iface)
            note = None
        except NoPortError as exc:
            note = f"no appropriate interface connector: {exc}"
        for rate in rates:
            if note is not None:  # no port: a no-connector outcome at any rate
                check_rate_kbps(rate)
                continue
            check_port_rate(config.dut, iface, rate)
            try:
                format_duration(required_duration(rate, config.measurement.ber0))
            except ValueError as exc:
                raise ValueError(f"{iface} at {rate} kbit/s: {exc}") from None
        chain = resolve_chain(config.analyzer, iface, config.catalog, max(rates))
        jobs = []
        if chain is None:
            note = (
                f"no appropriate {iface} connector: analyzer has no native port "
                f"at {max(rates)} kbit/s and no converter chain exists"
            )
        elif note is not None:
            tag += 1
        else:
            for rate in rates:
                for freq in points:
                    tag += 1
                    jobs.append(_Job(iface, rate, freq, tag))
        steps.append(_Step(iface, chain, note, tuple(jobs)))
    return steps


def _measure_job(config: CampaignConfig, job: _Job) -> BerMeasurement:
    session = dut_open_session(
        config.dut, job.iface, job.rate_kbps, job.freq_hz, seed_tag=job.seed_tag
    )
    return measure(session, config.measurement)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute(config: CampaignConfig, jobs: list[_Job]) -> list[BerMeasurement]:
    """Every job's measurement, in plan order.

    With more than one CPU and `os.fork`, the jobs run in this process and
    in forked children first (see `_measure_forked`).  Then every job no
    worker reported is measured here, in plan order, so the first job in
    plan order that raises raises here, as in one process, and no later
    job's result is used.
    """
    workers = min(_cpu_count(), len(jobs))
    forked = workers > 1 and hasattr(os, "fork")
    measured = _measure_forked(config, jobs, workers) if forked else {}
    return [
        measured[i] if i in measured else _measure_job(config, job) for i, job in enumerate(jobs)
    ]


def _work(
    config: CampaignConfig, jobs: list[_Job], first: int, step: int
) -> dict[int, BerMeasurement]:
    """Measure jobs `first`, `first + step`, … until one raises.

    Returns the measurements by job index.  A job that raises is the last
    one this worker starts and has none: `_execute` measures it again.
    """
    measured = {}
    for index in range(first, len(jobs), step):
        try:
            measured[index] = _measure_job(config, jobs[index])
        except Exception:  # raised again where `_execute` measures it
            break
    return measured


def _fork() -> int:
    with warnings.catch_warnings():
        # numpy's BLAS keeps threads of its own, and Python 3.12 and later
        # warn that forking a process with threads may deadlock the child.
        # The children call no BLAS, only the measurement, and a warning on
        # stderr would break the one-line error contract of the CLI.
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded, use of fork", DeprecationWarning
        )
        return os.fork()


def _measure_forked(
    config: CampaignConfig, jobs: list[_Job], workers: int
) -> dict[int, BerMeasurement]:
    """Run the jobs in this process and `workers - 1` forked children.

    Worker `w` measures jobs `w`, `w + workers`, … (`_work`), this process
    being worker 0; a failure ends only its own worker's stride.  A child
    then pickles its measurements into a pipe of its own and leaves with
    `os._exit`, so no stdio buffer or exit handler runs twice.  Returns the
    measurements that arrived, by job index: none from a child that died
    or from the stride of a worker that could not be forked.  Every child
    is reaped before this returns or raises.
    """
    children: list[tuple[int, int]] = []  # each child's pid and its pipe's read end
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = _fork()
            except OSError:  # no more processes: the later strides go to `_execute`
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _child(config, jobs, first, workers, write_end)
            children.append((pid, read_end))
            os.close(write_end)
        measured = _work(config, jobs, 0, workers)
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as stream:
                try:
                    measured.update(pickle.load(stream))
                except (EOFError, pickle.UnpicklingError):  # cut short: the child died
                    pass
        return measured
    except BaseException:
        import signal  # only here: a campaign that ends well never loads it

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_end in children:
            os.close(read_end)  # a child still writing gets EPIPE and exits
            os.waitpid(pid, 0)


def _child(config: CampaignConfig, jobs: list[_Job], first: int, step: int, write_end: int):
    """A forked worker's whole life: it never returns."""
    code = 1
    try:
        measured = _work(config, jobs, first, step)
        with open(write_end, "wb") as out:
            pickle.dump(measured, out)
        code = 0
    finally:
        os._exit(code)


def _fold(
    config: CampaignConfig, steps: list[_Step], measured: list[BerMeasurement], clock: _Clock
) -> tuple[InterfaceResult, ...]:
    """Log and verdict of every interface, in plan order, as it is measured."""
    remaining = iter(measured)
    results = []
    for step in steps:
        iface, chain = step.iface, step.chain
        if chain:
            clock.note(f"{iface}: connected via {' + '.join(c.name for c in chain)}")
        elif chain is not None:
            clock.note(f"{iface}: connected natively")
        if step.note is not None:  # no connector: the step has no jobs
            clock.note(f"{iface}: {step.note}")
        measurements = []
        for job in step.jobs:
            m = next(remaining)
            measurements.append(m)
            clock.advance(
                m.duration_s,
                f"{iface} @ {job.rate_kbps} kbit/s, {_mhz(job.freq_hz)}: "
                f"{m.errored_bits} errors / {m.transmitted_bits} bits",
            )
        verdict = interface_verdict(step.note, measurements, config.policy)
        results.append(InterfaceResult(iface, verdict, chain, tuple(measurements)))
    return tuple(results)


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
    steps = _plan(config, points)
    clock = _Clock()
    clock.advance(ANALYZER_WARMUP_S, "analyzer powered, waiting for stability")
    analyzer_self_test(config.measurement.pattern)
    clock.note("analyzer self-test: pattern self-loop clean")
    clock.note(f"EUT '{dut.name}' set up per its manual")
    clock.advance(dut.warmup_s, "EUT powered, waiting for stability")
    measured = _execute(config, [job for step in steps for job in step.jobs])
    results = _fold(config, steps, measured, clock)
    clock.note("campaign complete")
    return CampaignReport(config, results, points, clock.now_s, tuple(clock.log))
