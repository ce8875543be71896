import contextlib
import dataclasses
import json
import os
import pickle
import signal
import tempfile
import time
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest

from berbench.channel import Bsc, FixedMask, GilbertElliott, Ideal
from berbench.cli import load_config, main as cli_main, report_to_dict
from berbench.core import BerValue, InterfaceKind as IK, Outcome, REPORT_ORDER
from berbench import procedure
from berbench.meter import MeasurementConfig
from berbench.procedure import (
    CampaignConfig,
    CampaignPreconditionError,
    VerdictPolicy,
    apply_verdict,
    compute_frequencies,
    run_campaign,
)
from berbench.testbed import UnsupportedRateError, default_catalog, default_profile

DESK = MeasurementConfig(ber0=1e-5)
POLICY = VerdictPolicy()


def desk_profile(channel=None):
    return default_profile(channel=channel)


# ---------------------------------------------------------------------------
# frequency points


def test_frequency_points_simple_range():
    pts = compute_frequencies(100e6, 200e6)
    assert (pts.f0, pts.f1, pts.f2) == (150e6, 190e6, 105e6)


def test_frequency_points_default_range():
    pts = compute_frequencies(950e6, 1950e6)
    assert (pts.f0, pts.f1, pts.f2) == (1450e6, 1852.5e6, 997.5e6)


def test_frequency_points_degenerate_range_midpoint():
    # Equal endpoints are tolerated by the computation itself; the campaign
    # precondition rejects them separately.
    pts = compute_frequencies(1e9, 1e9)
    assert pts.f0 == 1e9


def test_frequency_points_rejects_inverted_or_nonpositive():
    with pytest.raises(ValueError):
        compute_frequencies(2e9, 1e9)
    with pytest.raises(ValueError):
        compute_frequencies(0, 1e9)


# ---------------------------------------------------------------------------
# verdict rule


def test_verdict_below_threshold_passes():
    assert apply_verdict(BerValue.point(1, 10**6), POLICY) is Outcome.PASS


def test_verdict_boundary_is_inclusive():
    assert apply_verdict(BerValue(Fraction(1, 10**5)), POLICY) is Outcome.PASS


def test_verdict_above_threshold_fails():
    assert apply_verdict(BerValue(Fraction(2, 10**5)), POLICY) is Outcome.FAIL


def test_verdict_upper_bound_uses_the_bound():
    assert apply_verdict(BerValue.upper_bound(1e-8), POLICY) is Outcome.PASS
    # A resolution coarser than the threshold cannot prove compliance.
    assert apply_verdict(BerValue.upper_bound(1e-3), POLICY) is Outcome.FAIL


def test_policy_validation():
    with pytest.raises(ValueError):
        VerdictPolicy(ber_max=0)
    with pytest.raises(ValueError):
        VerdictPolicy(ber_max=1)


# ---------------------------------------------------------------------------
# one interface


def run_one(iface, rates=(2048,), **config):
    """The result of a one-interface campaign at desk resolution."""
    config = CampaignConfig(interfaces=(iface,), rates={iface: rates}, measurement=DESK, **config)
    return run_campaign(config).results[0]


def without_v35_port():
    prof = desk_profile()
    return dataclasses.replace(prof, ports=tuple(p for p in prof.ports if p[0] is not IK.V35))


def test_native_interface_passes_with_three_clean_measurements():
    result = run_one(IK.G703)
    assert result.verdict.outcome is Outcome.PASS
    assert result.chain == ()
    assert len(result.measurements) == 3
    assert all(m.ber.is_bound for m in result.measurements)
    freqs = [m.freq_hz for m in result.measurements]
    assert freqs == [1450e6, 1852.5e6, 997.5e6]


def test_missing_connector_yields_no_connector_with_note():
    catalog = tuple(c for c in default_catalog() if c.name != "Tahoe 235")
    result = run_one(IK.V35, dut=without_v35_port(), catalog=catalog)
    assert result.verdict.outcome is Outcome.NO_CONNECTOR
    assert result.verdict.note
    assert result.measurements == ()


def test_port_present_but_no_analyzer_path_is_no_connector():
    catalog = tuple(c for c in default_catalog() if c.name != "EUROCOM B/e1")
    result = run_one(IK.STANAG4210, catalog=catalog)
    assert result.verdict.outcome is Outcome.NO_CONNECTOR


def test_chain_exists_but_port_missing_is_no_connector():
    result = run_one(IK.V35, dut=without_v35_port())
    assert result.verdict.outcome is Outcome.NO_CONNECTOR
    assert result.measurements == ()


def test_noisy_channel_fails():
    result = run_one(IK.G703, dut=desk_profile(channel=Bsc(p=1e-3, seed=13)))
    assert result.verdict.outcome is Outcome.FAIL
    assert any(not m.ber.is_bound for m in result.measurements)


def test_rate_sweep_multiplies_measurements():
    result = run_one(IK.G704, rates=(512, 2048))
    assert len(result.measurements) == 6
    assert [m.rate_kbps for m in result.measurements] == [512, 512, 512, 2048, 2048, 2048]


def test_unsupported_rate_aborts_with_diagnostic():
    with pytest.raises(UnsupportedRateError):
        run_one(IK.G703, rates=(192,))


def _no_gateway_converter():
    return tuple(c for c in default_catalog() if c.name != "EUROCOM B/e1")


@pytest.mark.parametrize(
    "rates, extra, error, message",
    [
        ({IK.BASE100_SX: (1000,)}, {}, UnsupportedRateError, "does not run 100BASE-SX at 1000"),
        ({IK.BASE100_SX: ()}, {}, ValueError, "no bit rates configured for 100BASE-SX"),
        ({IK.BASE100_SX: (0,)}, {}, ValueError, "bit rate must be a positive integer"),
        # No port for V.35: still a configuration error, not a no-connector row.
        ({IK.V35: (-64,)}, {"dut": without_v35_port()}, ValueError, "positive integer"),
        # A port but no converter chain: the bad rate wins over "no connector".
        ({IK.STANAG4210: (1000,)}, {"catalog": _no_gateway_converter()},
         UnsupportedRateError, "does not run STANAG 4210 at 1000"),
    ],
    ids=["unsupported", "empty", "zero", "no-port", "no-connector"],
)
def test_bad_rates_abort_before_any_measurement(monkeypatch, rates, extra, error, message):
    def measure(*args):
        raise AssertionError("measured before the rates were checked")

    monkeypatch.setattr(procedure, "measure", measure)
    with pytest.raises(error, match=message):
        run_campaign(CampaignConfig(rates=rates, measurement=DESK, **extra))


def test_verdict_is_total_over_outcomes():
    for kind in REPORT_ORDER:
        result = run_one(kind)
        assert result.verdict.outcome in (Outcome.PASS, Outcome.FAIL, Outcome.NO_CONNECTOR)


def test_verdict_monotonic_in_mask_size():
    base = tuple(range(20_000, 20_000 + 400 * 977, 977))  # 400 flips > 1e-5 over 1e6 bits
    small = base[:2]
    r_small = run_one(IK.V35, dut=desk_profile(channel=FixedMask(indices=small)))
    r_large = run_one(IK.V35, dut=desk_profile(channel=FixedMask(indices=base)))
    assert r_small.verdict.outcome is Outcome.PASS
    assert r_large.verdict.outcome is Outcome.FAIL
    small_errors = sum(m.errored_bits for m in r_small.measurements)
    large_errors = sum(m.errored_bits for m in r_large.measurements)
    assert small_errors <= large_errors


# ---------------------------------------------------------------------------
# whole campaign


def test_default_campaign_matches_published_shape():
    report = run_campaign(CampaignConfig(measurement=DESK))
    assert [r.iface for r in report.results] == list(REPORT_ORDER)
    assert all(r.verdict.outcome is Outcome.PASS for r in report.results)
    assert [bool(r.chain) for r in report.results] == [
        False, False, True, True, True, True, True, True, True,
    ]
    assert all(m.ber.is_bound for r in report.results for m in r.measurements)
    assert sum(len(r.measurements) for r in report.results) == 27


def test_campaign_empty_interface_list():
    report = run_campaign(CampaignConfig(interfaces=(), measurement=DESK))
    assert report.results == ()


def test_campaign_duplicate_interface_measured_twice():
    report = run_campaign(CampaignConfig(interfaces=(IK.G703, IK.G703), measurement=DESK))
    assert len(report.results) == 2
    assert all(r.iface is IK.G703 for r in report.results)
    # Independent seeds per measurement keep results independent objects.
    assert report.results[0].verdict == report.results[1].verdict


def test_campaign_narrow_range_aborts():
    # 1051 MHz clears 1.05x the lower edge, but 0.95 * 1051 MHz is below it.
    for if_range in ((1000e6, 1040e6), (1000e6, 1051e6)):
        prof = dataclasses.replace(desk_profile(), if_range_hz=if_range)
        with pytest.raises(CampaignPreconditionError):
            run_campaign(CampaignConfig(dut=prof, measurement=DESK))


def test_campaign_logs_and_virtual_clock():
    config = CampaignConfig(interfaces=(IK.G703,), measurement=DESK)
    report = run_campaign(config)
    assert report.config is config
    messages = [msg for _, msg in report.log]
    assert any("self-test" in m for m in messages)
    assert any("waiting for stability" in m for m in messages)
    # 900 s analyzer + 300 s EUT warm-up; desk-scale measurements round to 0 s.
    assert report.virtual_end_s == 900 + config.dut.warmup_s


def test_campaign_rates_mapping_and_shared_list(tmp_path):
    report = run_campaign(
        CampaignConfig(
            interfaces=(IK.G703, IK.G704), rates={IK.G703: (512, 2048)}, measurement=DESK
        )
    )
    assert len(report.results[0].measurements) == 6
    assert len(report.results[1].measurements) == 3  # falls back to the default rate
    # A document's shared rate list becomes a map when the config is read.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"schema": "ber-campaign-config/1", "interfaces": ["G.703", "G.704"], "rates": [1024]}
    ))
    shared = run_campaign(dataclasses.replace(load_config(path), measurement=DESK))
    assert all(m.rate_kbps == 1024 for r in shared.results for m in r.measurements)


def test_campaign_is_deterministic():
    def config():
        channel = Bsc(p=1e-4, seed=5)
        return CampaignConfig(
            dut=desk_profile(channel=channel), interfaces=REPORT_ORDER[:3], measurement=DESK
        )

    assert run_campaign(config()) == run_campaign(config())


# ---------------------------------------------------------------------------
# plan, execute, fold


def _jobs(config):
    """(iface, rate, frequency, seed tag) of every planned job, in plan order."""
    points = compute_frequencies(*config.dut.if_range_hz)
    steps = procedure._plan(config, points)
    return [(j.iface, j.rate_kbps, j.freq_hz, j.seed_tag) for s in steps for j in s.jobs]


def test_plan_orders_jobs_and_seed_tags_as_the_sequential_walk(monkeypatch):
    interfaces = (IK.G703, IK.V35, IK.STANAG4210, IK.G703, IK.BASE10_T)
    config = CampaignConfig(
        dut=without_v35_port(),
        catalog=_no_gateway_converter(),
        interfaces=interfaces,
        rates={IK.BASE10_T: (256, 2048)},
        measurement=DESK,
    )
    points = compute_frequencies(*config.dut.if_range_hz)
    steps = procedure._plan(config, points)
    assert [s.iface for s in steps] == list(interfaces)
    # No port: a chain and a note.  No chain: a note alone.
    assert [(s.chain is None, s.note is None) for s in steps] == [
        (False, True), (False, False), (True, False), (False, True), (False, True),
    ]
    # The V.35 interface, with no port, spends tag 4; STANAG 4210 spends none.
    want = [(IK.G703, 2048, f, t) for f, t in zip(points, (1, 2, 3))]
    want += [(IK.G703, 2048, f, t) for f, t in zip(points, (5, 6, 7))]
    want += [(IK.BASE10_T, 256, f, t) for f, t in zip(points, (8, 9, 10))]
    want += [(IK.BASE10_T, 2048, f, t) for f, t in zip(points, (11, 12, 13))]
    assert _jobs(config) == want

    # The sessions a one-process run opens are the plan's, in its order.
    opened = []
    open_session = procedure.dut_open_session

    def spy(profile, iface, rate, freq, *, seed_tag):
        opened.append((iface, rate, freq, seed_tag))
        return open_session(profile, iface, rate, freq, seed_tag=seed_tag)

    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    monkeypatch.setattr(procedure, "dut_open_session", spy)
    report = run_campaign(config)
    assert opened == want
    assert [r.verdict.outcome for r in report.results] == [
        Outcome.PASS, Outcome.NO_CONNECTOR, Outcome.NO_CONNECTOR, Outcome.PASS, Outcome.PASS,
    ]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "channel",
    [
        Ideal(seed=3),
        Bsc(p=2e-5, seed=3),
        GilbertElliott(p_gb=0.001, p_bg=0.05, p_good=1.0, p_bad=0.9, seed=3),
        FixedMask(indices=tuple(range(20_000, 900_000, 43_331)), seed=3),
    ],
    ids=["ideal", "bsc", "ge", "mask"],
)
def test_report_is_the_same_with_one_or_two_workers(monkeypatch, channel):
    config = CampaignConfig(
        dut=desk_profile(channel=channel),
        interfaces=(IK.G704, IK.V35, IK.G703, IK.V35, IK.BASE100_FX),
        rates={IK.G704: (256, 2048), IK.V35: (512,)},
        measurement=DESK,
    )
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(procedure, "_cpu_count", lambda: workers)
        reports.append(report_to_dict(run_campaign(config)))
        assert_no_children()
    assert reports[0] == reports[1]


def test_one_worker_or_no_job_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(procedure, "_fork", no_fork)
    run_campaign(CampaignConfig(interfaces=(), measurement=DESK))
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    run_campaign(CampaignConfig(interfaces=(IK.G703,), measurement=DESK))


#: The warning Python 3.12 and later give when a process with threads forks.
FORK_WARNING = (
    "This process (pid=1) is multi-threaded, use of fork() may lead to deadlocks in the child."
)


def test_fork_silences_only_the_multithreaded_fork_warning(monkeypatch):
    def fork_warning(message):
        def fork():
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return 4321

        return fork

    monkeypatch.setattr(os, "fork", fork_warning(FORK_WARNING))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert procedure._fork() == 4321
    assert caught == []
    monkeypatch.setattr(os, "fork", fork_warning("some other deprecation"))
    with pytest.warns(DeprecationWarning, match="^some other deprecation$"):
        assert procedure._fork() == 4321


#: Nine jobs, one interface: G.703 at three rates.
FAILING = CampaignConfig(interfaces=(IK.G703,), rates={IK.G703: (256, 512, 2048)}, measurement=DESK)


def _wait_for(path):
    deadline = time.monotonic() + 60
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"no worker wrote {path}")
        time.sleep(0.005)


def patch_jobs(monkeypatch, tmp_path, act):
    """Two workers; `act(index, in_child)` runs before each job's measurement.

    Returns a function that lists the (index, "parent" or "child") of every
    job started so far.
    """
    keys = [(rate, freq) for _, rate, freq, _ in _jobs(FAILING)]
    parent = os.getpid()
    measure = procedure.measure
    starts = tmp_path / "starts"
    starts.mkdir()

    def patched(session, config):
        index = keys.index((session.rate_kbps, session.freq_hz))
        in_child = os.getpid() != parent
        (starts / f"{index}-{'child' if in_child else 'parent'}").touch()
        act(index, in_child)
        return measure(session, config)

    monkeypatch.setattr(procedure, "_cpu_count", lambda: 2)
    monkeypatch.setattr(procedure, "measure", patched)
    return lambda: sorted((int(i), who) for i, who in (p.name.split("-") for p in starts.iterdir()))


def fail_in_child_first(monkeypatch, tmp_path, parent_fails=False):
    """Jobs 2 and 3 raise; job 0, which the parent takes, waits until a child raised.

    The child measures jobs 1 and 2, so its failure at job 2 reaches the
    parent first; with `parent_fails`, job 0 then raises too.
    """
    marker = tmp_path / "raised"

    def act(index, in_child):
        if index == 0 and not in_child:
            _wait_for(marker)
            if parent_fails:
                raise ValueError("job 0 failed")
        if index in (2, 3):
            if in_child:
                marker.touch()
            raise ValueError(f"job {index} failed")

    return patch_jobs(monkeypatch, tmp_path, act)


@pytest.mark.parametrize("parent_fails, first", [(False, 2), (True, 0)])
def test_first_failing_job_in_plan_order_raises(monkeypatch, tmp_path, parent_fails, first):
    started = fail_in_child_first(monkeypatch, tmp_path, parent_fails)
    with pytest.raises(ValueError, match=f"^job {first} failed$"):
        run_campaign(FAILING)
    assert_no_children()
    # After its failure the child starts no job, and leaves the parent none.
    assert [i for i, who in started() if who == "child"] == [1, 2]


def test_an_earlier_job_that_fails_later_still_raises(monkeypatch, tmp_path):
    # The parent's job 2 fails first; the child's job 1, earlier in plan
    # order, fails after it and is the one raised.
    claimed, parent_failed = tmp_path / "claimed", tmp_path / "parent-failed"

    def act(index, in_child):
        if index == 0:
            _wait_for(claimed)
        elif index == 1:
            claimed.touch()
            _wait_for(parent_failed)
            raise ValueError("job 1 failed")
        elif index == 2:
            parent_failed.touch()
            raise ValueError("job 2 failed")

    started = patch_jobs(monkeypatch, tmp_path, act)
    with pytest.raises(ValueError, match="^job 1 failed$"):
        run_campaign(FAILING)
    assert_no_children()
    assert started() == [(0, "parent"), (1, "child"), (2, "parent")]


def test_cli_exits_3_when_a_child_job_fails(monkeypatch, tmp_path, capsys):
    fail_in_child_first(monkeypatch, tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema": "ber-campaign-config/1", "interfaces": ["G.703"],
        "rates": {"G.703": [256, 512, 2048]}, "ber0": 1e-5,
    }))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == "error: job 2 failed\n"
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.txt").exists()
    assert_no_children()


class _TwoPartError(Exception):
    """Pickles, but does not load: its constructor takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def test_a_failure_that_does_not_load_is_measured_again(monkeypatch, tmp_path):
    marker = tmp_path / "raised"

    def act(index, in_child):
        if index == 0 and not in_child:
            _wait_for(marker)
        if index == 2:
            if in_child:
                marker.touch()
            raise _TwoPartError("job", 2)

    started = patch_jobs(monkeypatch, tmp_path, act)
    with pytest.raises(_TwoPartError, match="^job 2$"):
        run_campaign(FAILING)
    assert_no_children()
    assert (2, "parent") in started()  # measured again
    assert (1, "parent") not in started()  # the child's measurement arrived


def test_jobs_of_a_child_that_dies_are_measured_in_the_parent(monkeypatch, tmp_path):
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    want = report_to_dict(run_campaign(FAILING))
    marker = tmp_path / "died"

    def act(index, in_child):
        if in_child:
            marker.touch()
            os._exit(0)
        if index == 0:
            _wait_for(marker)

    started = patch_jobs(monkeypatch, tmp_path, act)
    assert report_to_dict(run_campaign(FAILING)) == want
    assert_no_children()
    [(died, _)] = [s for s in started() if s[1] == "child"]
    assert (died, "parent") in started()


def test_a_failed_fork_leaves_every_job_to_this_process(monkeypatch):
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    want = report_to_dict(run_campaign(FAILING))

    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(procedure, "_cpu_count", lambda: 2)
    monkeypatch.setattr(procedure, "_fork", no_fork)
    assert report_to_dict(run_campaign(FAILING)) == want
    assert_no_children()


class _Abort(BaseException):
    """Not an `Exception`, so no worker keeps it as a job's outcome."""


def test_a_base_exception_in_the_parents_job_kills_and_reaps_the_children(monkeypatch):
    parent = os.getpid()

    def measure_job(config, job):
        if os.getpid() == parent:
            raise _Abort
        time.sleep(60)  # a child ends early only when it is killed

    monkeypatch.setattr(procedure, "_measure_job", measure_job)
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 3)
    jobs = [procedure._Job(IK.G703, 2048, 1e9, i) for i in range(9)]
    began = time.monotonic()
    with pytest.raises(_Abort):
        procedure._execute(CampaignConfig(), jobs)
    assert_no_children()
    assert time.monotonic() - began < 30


def test_each_job_runs_once_with_more_workers_than_cpus(monkeypatch, tmp_path):
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    want = report_to_dict(run_campaign(FAILING))
    started = patch_jobs(monkeypatch, tmp_path, lambda index, in_child: None)
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 6)
    assert report_to_dict(run_campaign(FAILING)) == want
    assert_no_children()
    assert [i for i, _ in started()] == list(range(9))


def test_a_child_is_not_held_up_by_its_results(monkeypatch):
    # Each outcome pickles to over 1 KiB, so a few dozen fill a pipe; the
    # child must keep measuring while the parent is busy with its own jobs.
    def measure_job(config, job):
        time.sleep(0.001)
        return os.getpid(), bytes(1024)

    monkeypatch.setattr(procedure, "_measure_job", measure_job)
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 2)
    jobs = [procedure._Job(IK.G703, 2048, 1e9, i) for i in range(400)]
    outcomes = procedure._execute(CampaignConfig(), jobs)
    assert_no_children()
    assert sum(pid != os.getpid() for pid, _ in outcomes) >= 100


#: Job indices enough for workers that race for them to interleave.
LARGE_PLAN = 20_000


def test_the_counter_hands_out_every_index_of_a_large_plan_once():
    # Three processes race for one counter; each sends what it took through a pipe.
    with tempfile.TemporaryFile() as file:
        counter = file.fileno()
        pids, pipes = [], []
        for _ in range(3):
            read_end, write_end = os.pipe()
            pid = procedure._fork()
            if pid == 0:
                code = 1
                try:
                    taken = []
                    while (index := procedure._take(counter)) < LARGE_PLAN:
                        taken.append(index)
                    with open(write_end, "wb") as out:
                        pickle.dump(taken, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            pids.append(pid)
            pipes.append(read_end)
        taken = []
        try:
            for read_end in pipes:
                with open(read_end, "rb") as stream:
                    taken.append(pickle.load(stream))
        finally:
            for pid in pids:
                os.waitpid(pid, 0)
    assert all(t == sorted(t) for t in taken)
    assert sorted(i for t in taken for i in t) == list(range(LARGE_PLAN))


def test_every_job_of_a_large_plan_reaches_the_parent(monkeypatch):
    monkeypatch.setattr(procedure, "_measure_job", lambda config, job: job.seed_tag)
    jobs = [procedure._Job(IK.G703, 2048, 1e9, i) for i in range(LARGE_PLAN)]
    outcomes = procedure._measure_forked(CampaignConfig(), jobs, 2)
    assert_no_children()
    assert outcomes == {i: i for i in range(LARGE_PLAN)}


def test_no_worker_starts_a_job_once_a_job_raised(monkeypatch):
    started = []

    def measure_job(config, job):
        started.append(job.seed_tag)
        if job.seed_tag == 1002:
            raise ValueError("job 1002 failed")
        return job.seed_tag

    monkeypatch.setattr(procedure, "_measure_job", measure_job)
    jobs = [procedure._Job(IK.G703, 2048, 1e9, i) for i in range(LARGE_PLAN)]
    with tempfile.TemporaryFile() as file:
        counter = file.fileno()
        procedure._take(counter, stop=1002)  # the next job handed out is 1002
        # Mid-plan, the failure ends this worker; a second one then starts nothing.
        outcomes = procedure._work(CampaignConfig(), jobs, counter, 1001)
        assert procedure._work(CampaignConfig(), jobs, counter, procedure._take(counter)) == {}
    assert started == [1001, 1002]
    assert outcomes[1001] == 1001 and str(outcomes[1002]) == "job 1002 failed"


class _Timeout(BaseException):
    """Raised in the parent by `deadline`: `_measure_forked` then kills its children."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, a block that runs longer than `seconds`."""

    def expire(signum, frame):
        raise _Timeout(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# A counter held in a pipe would hang before the write: the dead child read
# the index out of the pipe and never put the next one back.
@pytest.mark.parametrize("after_write", [False, True], ids=["before-write", "after-write"])
def test_a_child_killed_while_it_holds_the_counter_hangs_nothing(monkeypatch, tmp_path, after_write):
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    want = report_to_dict(run_campaign(FAILING))
    parent, pwrite, measure_job = os.getpid(), os.pwrite, procedure._measure_job
    dying = tmp_path / "dying"

    def locked_pwrite(fd, data, offset):
        # Only `_take` writes here, between its lock and its unlock.
        in_child = os.getpid() != parent
        if after_write or not in_child:
            written = pwrite(fd, data, offset)
        if in_child:  # the child dies holding the lock
            dying.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return written

    def parent_waits(config, job):
        if os.getpid() == parent and job.seed_tag == 1:  # job 0
            _wait_for(dying)
        return measure_job(config, job)

    monkeypatch.setattr(os, "pwrite", locked_pwrite)
    monkeypatch.setattr(procedure, "_measure_job", parent_waits)
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 2)
    with deadline(60):
        assert report_to_dict(run_campaign(FAILING)) == want
    assert_no_children()


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_no_counter_file_leaves_every_job_to_this_process(monkeypatch):
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    want = report_to_dict(run_campaign(FAILING))

    def no_file():
        raise OSError("no space left on device")

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(procedure, "tempfile", SimpleNamespace(TemporaryFile=no_file))
    monkeypatch.setattr(procedure, "_fork", no_fork)
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 2)
    assert report_to_dict(run_campaign(FAILING)) == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
@pytest.mark.parametrize("path", ["normal", "failed-fork", "dead-child", "base-exception"])
def test_execute_leaves_no_descriptor_open(monkeypatch, path):
    parent = os.getpid()

    def measure_job(config, job):
        if path == "dead-child" and os.getpid() != parent:
            os._exit(0)
        if path == "base-exception" and os.getpid() == parent:
            raise _Abort
        return job.seed_tag

    def failed_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(procedure, "_measure_job", measure_job)
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 3)
    if path == "failed-fork":
        monkeypatch.setattr(procedure, "_fork", failed_fork)
    jobs = [procedure._Job(IK.G703, 2048, 1e9, i) for i in range(9)]
    before = open_fds()
    if path == "base-exception":
        with pytest.raises(_Abort):
            procedure._execute(CampaignConfig(), jobs)
    else:
        assert procedure._execute(CampaignConfig(), jobs) == list(range(9))
    assert_no_children()
    assert open_fds() == before
