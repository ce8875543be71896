import dataclasses
import json
from fractions import Fraction

import pytest

from berbench.channel import Bsc, FixedMask
from berbench.cli import load_config
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
