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
may use, each worker taking the next job from one shared counter; each
job opens its own session, so where it runs changes no result.  `_fold`
then rebuilds the clock, the log and the verdicts in plan order, so the
report is the same byte for byte whatever ran where.
"""
from __future__ import annotations

import os
import pickle
import tempfile
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


#: Each job's measurement or the exception it raised, by job index.
_Outcomes = dict[int, BerMeasurement | Exception]


def _execute(config: CampaignConfig, jobs: list[_Job]) -> list[BerMeasurement]:
    """Every job's measurement, in plan order.

    With more than one CPU and `os.fork`, the jobs run in this process and
    in forked children (see `_measure_forked`); a job none of them
    reported is measured here afterwards.  Either way the first job in plan
    order that raises raises here, and no later job's result is used.
    """
    workers = min(_cpu_count(), len(jobs))
    forked = workers > 1 and hasattr(os, "fork")
    outcomes = _measure_forked(config, jobs, workers) if forked else {}
    measured = []
    for index, job in enumerate(jobs):
        outcome = outcomes[index] if index in outcomes else _measure_job(config, job)
        if isinstance(outcome, Exception):
            raise outcome
        measured.append(outcome)
    return measured


def _take(counter: int, stop: int | None = None) -> int:
    """The job index the `counter` file holds, leaving it one more (or `stop`).

    A POSIX record lock (`lockf`) holds the file from the read to the
    write.  It is per process, where a `flock` is shared with every child
    through the inherited descriptor, and the kernel drops it when its
    holder dies, so a worker killed inside blocks no other.
    """
    import fcntl  # only here: POSIX alone, and only a forked campaign counts

    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        index = int.from_bytes(os.pread(counter, 8, 0), "little")  # empty: 0
        os.pwrite(counter, (index + 1 if stop is None else stop).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)
    return index


def _work(config: CampaignConfig, jobs: list[_Job], counter: int, index: int) -> _Outcomes:
    """Measure job `index`, then each job `_take` hands out, until none is left.

    Returns the outcomes by job index.  A job that raises has its exception
    as outcome and moves the counter to the end: no worker starts another.
    """
    outcomes: _Outcomes = {}
    while index < len(jobs):
        try:
            outcomes[index] = _measure_job(config, jobs[index])
        except Exception as exc:  # carried to the plan-order check in `_execute`
            outcomes[index] = exc
            _take(counter, stop=len(jobs))
            break
        index = _take(counter)
    return outcomes


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


def _measure_forked(config: CampaignConfig, jobs: list[_Job], workers: int) -> _Outcomes:
    """Run the jobs in this process and `workers - 1` forked children.

    Each worker takes the next job index from one counter in an unlinked
    file (`_take`) when it is free, so a slow job holds up no other; this
    process takes job 0.  Once no job is left, a child pickles its
    measurements, then its failure if any, into a pipe of its own, and
    leaves with `os._exit`, so no stdio buffer or exit handler runs twice.
    Returns the outcomes that arrived, by job index: none if the counter
    cannot be made.  Every child is reaped before this returns or raises.
    """
    try:
        file = tempfile.TemporaryFile()
    except OSError:  # no counter: `_execute` measures every job in this process
        return {}
    counter = file.fileno()
    pids: list[int] = []
    results: list[int] = []  # the read end of each child's pipe
    try:
        _take(counter)  # job 0, this process's own: the counter holds 1 now
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = _fork()
            except OSError:  # no more processes: the workers running so far share the jobs
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _child(config, jobs, counter, write_end)
            pids.append(pid)
            results.append(read_end)
            os.close(write_end)
        outcomes = _work(config, jobs, counter, 0)
        for read_end in results:
            with open(read_end, "rb", closefd=False) as stream:
                try:
                    outcomes.update(pickle.load(stream))  # the measurements
                    outcomes.update(pickle.load(stream))  # the failure, if any
                except Exception:
                    # Cut short (the child died) or not loadable (an exception
                    # whose constructor takes other arguments): `_execute`
                    # measures the missing jobs again, and a failing one raises.
                    pass
        return outcomes
    except BaseException:
        import signal  # only here: a campaign that ends well never loads it

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in results:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
        file.close()


def _child(config: CampaignConfig, jobs: list[_Job], counter: int, write_end: int):
    """A forked worker's whole life: it never returns."""
    code = 1
    try:
        outcomes = _work(config, jobs, counter, _take(counter))
        errors = {i: o for i, o in outcomes.items() if isinstance(o, Exception)}
        with open(write_end, "wb") as out:  # the failure apart: it may not load
            pickle.dump({i: o for i, o in outcomes.items() if i not in errors}, out)
            pickle.dump(errors, out)
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
        if step.note is not None:
            clock.note(f"{iface}: {step.note}")
            verdict = Verdict(Outcome.NO_CONNECTOR, step.note)
            results.append(InterfaceResult(iface, verdict, chain, ()))
            continue
        measurements = []
        for job in step.jobs:
            m = next(remaining)
            measurements.append(m)
            clock.advance(
                m.duration_s,
                f"{iface} @ {job.rate_kbps} kbit/s, {_mhz(job.freq_hz)}: "
                f"{m.errored_bits} errors / {m.transmitted_bits} bits",
            )
        ok = all(apply_verdict(m.ber, config.policy) is Outcome.PASS for m in measurements)
        verdict = Verdict(Outcome.PASS if ok else Outcome.FAIL)
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
