import contextlib
import functools
import io
import json
import re
import tempfile
import time
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from berbench import cli
from berbench.channel import param_names
from berbench.core import json_type


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# plan


def test_plan_default_emits_both_rate_families(capsys):
    assert run_cli("plan") == 0
    out = capsys.readouterr().out
    assert "V.35" in out and "G.703, G.704 (others)" in out
    assert "15 625" in out and "04:20:25" in out
    assert "7 813" in out and "02:10:13" in out
    assert "488" in out and "00:08:08" in out


def test_plan_explicit_rates_json(capsys):
    assert run_cli("plan", "--rates", "64,128,2048", "--format", "json") == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["schema"] == "ber-plan/1"
    assert plan["ber0"] == 1e-08
    rows = {r["rate_kbps"]: (r["seconds"], r["duration"]) for r in plan["rows"]}
    assert rows == {
        64: (15625, "04:20:25"),
        128: (7813, "02:10:13"),
        2048: (488, "00:08:08"),
    }


def test_plan_coarse_resolution_rounds_half_up(capsys):
    assert run_cli("plan", "--rates", "1024", "--ber0", "1e-5", "--format", "json") == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["rows"][0]["seconds"] == 1  # 10/(1.024e6 * 1e-5) = 0.98 -> 1
    assert plan["rows"][0]["duration"] == "00:00:01"


def test_plan_golden_text():
    plan = cli.build_plan([64, 2048], "1e-8")
    assert cli.render_plan_text(plan) == (
        "BER measurement plan (resolution 10^-8)\n"
        "\n"
        "B (kbit/s)  t0 (s)  t0 (h:min:s)\n"
        "        64  15 625      04:20:25\n"
        "     2 048     488      00:08:08\n"
    )


def test_plan_rejects_bad_rates(capsys):
    assert run_cli("plan", "--rates", "64,fast") == 3
    assert "error:" in capsys.readouterr().err
    assert run_cli("plan", "--rates", "-64") == 3
    capsys.readouterr()
    # An empty list is a bad list, not the default table.
    assert run_cli("plan", "--rates", "") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bad rate list ''; expected comma-separated integers\n"


@pytest.mark.parametrize(
    "command, ber0",
    [("plan", "abc"), ("run", "abc"), ("plan", "1"), ("run", "1"), ("plan", "2"), ("run", "2")],
    ids=["plan", "run", "plan-1", "run-1", "plan-2", "run-2"],
)
def test_bad_ber0_is_config_error(tmp_path, capsys, command, ber0):
    assert run_cli(command, "--ber0", ber0, "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if ber0 != "abc":  # plan and run share one resolution rule
        assert err == f"error: resolution must be in (0, 1), got {ber0}\n"


@pytest.mark.parametrize("ber0", ["1e-99999999", "1e99999999"])
@pytest.mark.parametrize("source", ["plan", "run", "config"])
def test_ber0_with_a_huge_exponent_exits_3_at_once(tmp_path, capsys, source, ber0):
    # These ran past a 5 s timeout when the exact value was built first.
    started = time.perf_counter()
    if source == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": "ber-campaign-config/1", "ber0": ber0}))
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "x"))
    else:
        code = run_cli(source, "--ber0", ber0, "--out", str(tmp_path / "x"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exponents beyond" in err
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("ber0", ["1e-30", "1e-400"])
def test_run_refuses_a_duration_plan_refuses_before_measuring(tmp_path, capsys, ber0):
    # `run --ber0 1e-30` used to start 10^31-bit measurements.
    started = time.perf_counter()
    assert run_cli("plan", "--ber0", ber0, "--rates", "2048") == 3
    assert run_cli("run", "--ber0", ber0, "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[1].startswith("error: G.703 at 2048 kbit/s: duration ")
    assert err[1].endswith(err[0].removeprefix("error: "))  # the rule `plan` applies
    assert not list(tmp_path.iterdir())
    assert time.perf_counter() - started < 1.0


def _run_quietly(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    return code, err.getvalue()


def _is_finite_number(text):
    try:
        return Decimal(text).is_finite()
    except InvalidOperation:
        return False


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=50, deadline=None)
@given(doc=_JSON.filter(lambda v: not isinstance(v, dict)))
def test_config_that_is_not_an_object_exits_3(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code, err = _run_quietly("run", "--config", str(path), "--out", str(Path(tmp) / "x"))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(text=st.text())
def test_ber0_that_is_not_a_number_exits_3(text):
    assume(not _is_finite_number(text))
    code, err = _run_quietly("plan", f"--ber0={text}")
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


#: Config sections and the JSON types each one may take.
_SECTION_TYPES = {
    "dut": (dict, str),
    "analyzer": (dict, str),
    "catalog": (list, str),
    "interfaces": (list,),
    "rates": (list, dict),
    "ber_max": (int, float, str),
    "pattern": (dict,),
    "channel": (dict,),
}


def _run_config(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"schema": "ber-campaign-config/1", "ber0": 1e-3, **doc}))
        return _run_quietly("run", "--config", str(path), "--out", str(Path(tmp) / "x"))


@pytest.mark.parametrize(
    "doc",
    [
        {"pattern": []},
        {"pattern": 5},
        {"rates": "x"},
        {"channel": [1]},
        {"channel": "bsc"},
        {
            "dut": {
                "name": "x",
                "ports": [{"interface": "V.35"}],
                "rates": "x",
                "if_range_hz": [950e6, 2150e6],
            }
        },
        {"analyzer": {"native": [{"interface": 5}]}},
        {"interfaces": {"G.703": 5}},
        {"interfaces": "G.703"},
        {"catalog": {}},
    ],
    ids=["pattern-list", "pattern-number", "rates-string", "channel-list", "channel-string",
         "dut-rates-string", "analyzer-interface-number", "interfaces-object",
         "interfaces-string", "catalog-object"],
)
def test_config_section_of_wrong_type_exits_3(doc):
    code, err = _run_config(doc)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert " must be a " in err  # the type check, not a later symptom


@pytest.mark.parametrize("command", ["run --config", "report --in"])
def test_deeply_nested_json_exits_3(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, err = _run_quietly(*command.split(), str(path), "--out", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=80, deadline=None)
@given(data=st.data(), section=st.sampled_from(sorted(_SECTION_TYPES)))
def test_config_section_replaced_by_any_json_never_tracebacks(data, section):
    wrong = _JSON.filter(
        lambda v: not isinstance(v, _SECTION_TYPES[section])
        or (isinstance(v, bool) and bool not in _SECTION_TYPES[section])
    )
    code, err = _run_config({section: data.draw(wrong)})
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1, 2) and err == ""


# ---------------------------------------------------------------------------
# run


def test_run_default_campaign_desk_scale(tmp_path, capsys):
    base = tmp_path / "camp"
    code = run_cli("run", "--ber0", "1e-5", "--out", str(base))
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    table = [l for l in lines if l.startswith(("G.7", "V.35", "STANAG", "10", "100"))]
    assert len(table) == 9
    assert "< 10^-5" in out
    report = json.loads((base.with_suffix(".json")).read_text())
    assert report["schema"] == "ber-campaign-report/1"
    assert [r["converter_used"] for r in report["results"]] == [
        False, False, True, True, True, True, True, True, True,
    ]
    assert (base.with_suffix(".txt")).read_text() == out


def test_run_exit_code_failure(tmp_path):
    code = run_cli(
        "run", "--ber0", "1e-4", "--channel", "bsc:1e-3", "--seed", "7",
        "--out", str(tmp_path / "fail"),
    )
    assert code == 1


def test_denormal_burst_leave_probability_runs(tmp_path, capsys):
    # log1p(-1e-310) is denormal, so a good-state dwell overflows to an
    # endless one instead of ending the run in an OverflowError traceback.
    code = run_cli(
        "run", "--ber0", "1e-4", "--channel", "ge:1e-310,0.5,1,0.5",
        "--out", str(tmp_path / "denormal"),
    )
    assert code in (0, 1)
    assert capsys.readouterr().err == ""


def test_run_exit_code_no_connector(tmp_path, capsys):
    config = {
        "schema": "ber-campaign-config/1",
        "ber0": 1e-05,
        "interfaces": ["V.35"],
        "dut": {
            "name": "no V.35 fitted",
            "ports": [{"interface": "G.703", "connector": "BNC"}],
            "rates": {"G.703": [2048]},
            "if_range_hz": [950e6, 1950e6],
            "channel": {"kind": "ideal", "seed": 1},
        },
        "catalog": [
            {"name": "Tahoe 284", "side_a": ["G.703", "G.704"], "side_b": ["10/100BASE-T"],
             "max_rate_kbps": 2048},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "nc"))
    assert code == 2
    out = capsys.readouterr().out
    assert "NO CONNECTOR" in out
    assert "no appropriate" in out


def test_no_connector_beats_failure_in_exit_code(tmp_path):
    config = {
        "schema": "ber-campaign-config/1",
        "ber0": 1e-04,
        "interfaces": ["G.703", "V.35"],
        "dut": {
            "name": "mixed outcome",
            "ports": [{"interface": "G.703", "connector": "BNC"}],
            "rates": {"G.703": [2048]},
            "if_range_hz": [950e6, 1950e6],
            "channel": {"kind": "bsc", "p": 1e-3, "seed": 3},
        },
        "catalog": [],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "mix"))
    assert code == 2


def test_run_config_error_paths(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "missing.json")) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", str(bad)) == 3
    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps({"schema": "nope"}))
    assert run_cli("run", "--config", str(wrong_schema)) == 3
    no_seed = tmp_path / "noseed.json"
    no_seed.write_text(
        json.dumps({"schema": "ber-campaign-config/1", "channel": {"kind": "bsc", "p": 0.1}})
    )
    assert run_cli("run", "--config", str(no_seed)) == 3
    capsys.readouterr()


def test_run_bad_rate_is_config_error(tmp_path):
    config = {
        "schema": "ber-campaign-config/1",
        "ber0": 1e-05,
        "interfaces": ["G.703"],
        "rates": {"G.703": [192]},  # not supported by the default device
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "x")) == 3


def test_run_rate_error_exits_3_before_the_campaign(tmp_path, capsys, monkeypatch):
    def measure(*args):
        raise AssertionError("measured before the rates were checked")

    monkeypatch.setattr("berbench.procedure.measure", measure)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"schema": "ber-campaign-config/1", "ber0": 1e-05, "rates": {"100BASE-SX": [1000]}}
    ))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not run 100BASE-SX at 1000 kbit/s" in err
    assert not (tmp_path / "x.json").exists()


def test_run_reads_sections_from_files_and_a_top_level_channel(tmp_path):
    analyzer = {"native": [{"interface": "G.703"}, {"interface": "V.35", "max_rate_kbps": 512}]}
    catalog = [{"name": "gateway", "side_a": ["G.703"], "side_b": ["STANAG 4210"]}]
    channel = {"kind": "bsc", "p": 1e-3, "seed": 99}
    (tmp_path / "an.json").write_text(json.dumps(analyzer))
    (tmp_path / "cat.json").write_text(json.dumps(catalog))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema": "ber-campaign-config/1",
        "ber0": 1e-04,
        "interfaces": ["STANAG 4210"],
        "analyzer": "an.json",
        "catalog": "cat.json",
        "channel": channel,
    }))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "files")) == 1
    report = json.loads((tmp_path / "files.json").read_text())
    assert report["config"]["channel"] == channel
    assert report["analyzer"] == analyzer
    assert report["results"][0]["chain"] == ["gateway"]


@pytest.mark.parametrize("rate", [100, 4096])
def test_g704_rate_off_the_timeslot_grid_is_config_error(tmp_path, capsys, rate):
    config = {
        "schema": "ber-campaign-config/1",
        "ber0": 1e-05,
        "interfaces": ["G.704"],
        "rates": {"G.704": [rate]},
        "dut": {
            "name": "fractional E1",
            "ports": [{"interface": "G.704", "connector": "RJ45"}],
            "rates": {"G.704": [64, rate, 2048]},
            "if_range_hz": [950e6, 1950e6],
            "channel": {"kind": "ideal", "seed": 1},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "x")) == 3
    assert f"G.704 rates must be multiples of 64 up to 2048 kbit/s, got [{rate}]" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("value", [False, 1, None])
def test_g704_crc4_other_than_true_exits_3(value):
    dut = {
        "name": "E1 modem",
        "ports": [{"interface": "G.704", "connector": "RJ45"}],
        "rates": {"G.704": [2048]},
        "if_range_hz": [950e6, 1950e6],
        "g704_crc4": value,
    }
    code, err = _run_config({"dut": dut, "interfaces": ["G.704"]})
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1 and "g704_crc4" in err


def test_run_narrow_if_range_is_config_error(tmp_path):
    config = {
        "schema": "ber-campaign-config/1",
        "ber0": 1e-05,
        "dut": {
            "name": "narrow",
            "ports": [{"interface": "G.703", "connector": "BNC"}],
            "rates": {"G.703": [2048]},
            "if_range_hz": [1000e6, 1020e6],
            "channel": {"kind": "ideal", "seed": 1},
        },
        "interfaces": ["G.703"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "x")) == 3


_DUT = {
    "name": "E1 modem",
    "ports": [{"interface": "G.703", "connector": "BNC"}],
    "rates": {"G.703": [2048]},
    "if_range_hz": [950e6, 1950e6],
}


@pytest.mark.parametrize(
    "doc",
    [
        {"pattern": {"seed": 1.9}},
        {"pattern": {"seed": True}},
        {"pattern": {"order": 15.0}},
        {"pattern": {"taps": [15, 14.0]}},
        {"rates": [True]},
        {"rates": ["512"]},
        {"rates": {"V.35": [512.0]}},
        {"dut": {**_DUT, "rates": {"G.703": [True]}}},
        {"dut": {**_DUT, "warmup_s": 1.5}},
        {"dut": {**_DUT, "if_range_hz": [True, 1950e6]}},
        {"analyzer": {"native": [{"interface": "G.703", "max_rate_kbps": 2048.0}]}},
        {"catalog": [{"name": "c", "side_a": "G.703", "side_b": "V.35", "max_rate_kbps": True}]},
        {"channel": {"kind": "ideal", "seed": 1.9}},
        {"channel": {"kind": "bsc", "p": True, "seed": 1}},
        {"channel": {"kind": "bsc", "p": "0.1", "seed": 1}},
        {"channel": {"kind": "fixed_mask", "indices": [10.7], "seed": 1}},
    ],
    ids=[
        "pattern-seed-float", "pattern-seed-bool", "pattern-order-float", "pattern-tap-float",
        "rates-bool", "rates-string", "rate-map-float", "dut-rate-bool", "dut-warmup-float",
        "dut-if-range-bool", "analyzer-max-rate-float", "catalog-max-rate-bool",
        "channel-seed-float", "channel-p-bool", "channel-p-string", "mask-index-float",
    ],
)
def test_document_number_of_the_wrong_kind_exits_3(doc):
    code, err = _run_config(doc)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"rates": {"V.35": "64"}}, "V.35"),
        ({"pattern": {"taps": None}}, "taps"),
        ({"pattern": {"taps": "15,14"}}, "taps"),
        ({"dut": {**_DUT, "ports": "V.35"}}, "ports"),
        # Read as no ports at all.
        ({"dut": {**_DUT, "ports": ""}}, "ports"),
        ({"dut": {**_DUT, "if_range_hz": "950e6"}}, "if_range_hz"),
        ({"dut": {**_DUT, "rates": {"V.35": "64"}}}, "V.35"),
        ({"analyzer": {"native": "V.35"}}, "native"),
        ({"channel": {"kind": "fixed_mask", "indices": "12", "seed": 1}}, "indices"),
    ],
    ids=["rates-string", "taps-null", "taps-string", "dut-ports-string", "dut-ports-empty",
         "dut-if-range-string", "dut-rates-string", "analyzer-native-string",
         "mask-indices-string"],
)
def test_a_string_where_an_array_belongs_exits_3_naming_the_key(doc, key):
    # Iterated, a string would be read one character at a time, and the
    # message would name a character or a Python type.
    code, err = _run_config(doc)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}' must be a JSON array" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"pattern": {"taps": None}}, "'taps' must be a JSON array, got null"),
        ({"channel": None}, "'channel' must be a JSON object, got null"),
        ({"interfaces": "G.703"}, "'interfaces' must be a JSON array, got string"),
        ({"rates": {"V.35": [True]}}, "a bit rate must be an integer, got true"),
        ({"pattern": {"order": None}}, "the pattern order must be an integer, got null"),
        (
            {"channel": {"kind": "bsc", "p": 0.1, "seed": None}},
            'bad channel description {"kind": "bsc", "p": 0.1, "seed": null}: '
            "the seed must be an integer, got null",
        ),
        (
            {"channel": {"kind": None, "p": 0.1}},
            'channel {"kind": null, "p": 0.1} has no seed; seeds must be explicit',
        ),
        ({"interfaces": [None]}, "interface name must be a string, got null"),
        (
            {"catalog": [{"name": "c", "side_a": 5, "side_b": "V.35"}]},
            "bad converter catalog document: 'side_a' must be a JSON string or array, got number",
        ),
        (
            {"catalog": ["Tahoe 235"]},
            "bad converter catalog document: an entry of 'catalog' must be a JSON object, "
            "got string",
        ),
        (
            {"dut": {**_DUT, "ports": ["G.703"]}},
            "bad DUT profile document: an entry of 'ports' must be a JSON object, got string",
        ),
        (
            {"analyzer": {"native": [None]}},
            "bad analyzer document: an entry of 'native' must be a JSON object, got null",
        ),
        (
            {"dut": {**_DUT, "channel": "x"}},
            "bad DUT profile document: 'channel' must be a JSON object, got string",
        ),
        # A key berbench does not read, such as a misspelling, is refused.
        ({"bermax": 1e-2}, 'the config has unknown key "bermax"'),
        ({"pattern": {"order": 15, "sed": 1}}, '\'pattern\' has unknown key "sed"'),
        (
            {"channel": {"kind": "bsc", "p": 0.1, "q": 0.2, "seed": 1}},
            'bad channel description {"kind": "bsc", "p": 0.1, "q": 0.2, "seed": 1}: '
            '\'channel\' has unknown key "q"',
        ),
        (
            {"dut": {**_DUT, "warmup": 300}},
            'bad DUT profile document: \'dut\' has unknown key "warmup"',
        ),
        (
            {"dut": {**_DUT, "ports": [{"interface": "G.703", "conector": "BNC"}]}},
            'bad DUT profile document: an entry of \'ports\' has unknown key "conector"',
        ),
        (
            {"analyzer": {"native": [], "ports": []}},
            'bad analyzer document: \'analyzer\' has unknown key "ports"',
        ),
        (
            {"analyzer": {"native": [{"interface": "V.35", "max_rate": 512}]}},
            'bad analyzer document: an entry of \'native\' has unknown key "max_rate"',
        ),
        (
            {"catalog": [{"name": "c", "side_a": "G.703", "side_b": "V.35", "note": ""}]},
            'bad converter catalog document: an entry of \'catalog\' has unknown key "note"',
        ),
    ],
    ids=["taps-null", "channel-null", "interfaces-string", "rate-true", "order-null",
         "channel-seed-null", "channel-no-seed", "interface-null", "catalog-side-number",
         "catalog-entry-string", "dut-port-string", "analyzer-native-null",
         "dut-channel-string", "config-unknown-key", "pattern-unknown-key",
         "channel-unknown-key", "dut-unknown-key", "port-unknown-key", "analyzer-unknown-key",
         "native-unknown-key", "catalog-unknown-key"],
)
def test_a_config_refusal_names_json_types(tmp_path, doc, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "ber-campaign-config/1", "ber0": 1e-3, **doc}))
    code, err = _run_quietly("run", "--config", str(path), "--out", str(tmp_path / "x"))
    assert (code, err) == (3, f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "section, doc, key",
    [
        ("dut", {**_DUT, "warmup": 300}, "warmup"),
        ("analyzer", {"native": [{"interface": "G.703", "max_rate": 512}]}, "max_rate"),
        ("catalog", [{"name": "c", "side_a": "G.703", "side_b": "V.35", "note": ""}], "note"),
    ],
)
def test_a_section_file_with_an_unknown_key_exits_3(tmp_path, section, doc, key):
    (tmp_path / "section.json").write_text(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "ber-campaign-config/1", section: "section.json"}))
    code, err = _run_quietly("run", "--config", str(path), "--out", str(tmp_path / "x"))
    assert code == 3 and err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert err.endswith(f' has unknown key "{key}"\n')


@pytest.mark.parametrize(
    "channel",
    [
        {"kind": "bsc", "p": 10**400, "seed": 1},
        {"kind": "fixed_mask", "indices": [2**63], "seed": 1},
    ],
    ids=["p-beyond-float", "mask-index-beyond-int64"],
)
def test_document_number_out_of_range_exits_3(channel):
    code, err = _run_config({"channel": channel})
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def test_burst_probability_outside_0_1_exits_3(tmp_path, capsys):
    channel = {"kind": "gilbert_elliott", "p_gb": 1.5, "p_bg": 0.1, "p_good": 1.0,
               "p_bad": 0.5, "seed": 1}
    code, err = _run_config({"channel": channel})
    assert code == 3 and err.count("\n") == 1
    assert "p_gb=1.5 outside [0, 1]" in err
    assert run_cli("run", "--channel", "ge:1.5,0.1,1,0.5", "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "p_gb=1.5 outside [0, 1]" in err


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
@pytest.mark.parametrize("source", ["config", "dut-profile", "option"])
def test_channel_seed_outside_0_to_2_64_exits_3(tmp_path, monkeypatch, source, seed):
    # 2**64 + 5 would draw seed 5's stream and print another seed.
    def no_campaign(config):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", no_campaign)
    channel = {"kind": "bsc", "p": 1e-3, "seed": seed}
    if source == "option":
        argv = ("--channel", "bsc:1e-3", "--seed", str(seed))
    else:
        doc = {"channel": channel} if source == "config" else {"dut": {**_DUT, "channel": channel}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": "ber-campaign-config/1", **doc}))
        argv = ("--config", str(path))
    code, err = _run_quietly("run", "--ber0", "1e-4", *argv, "--out", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"channel seed {seed} outside [0, 2**64)" in err


def test_combined_port_name_in_the_rate_map_but_not_in_interfaces(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema": "ber-campaign-config/1",
        "ber0": 1e-5,
        "interfaces": ["10BASE-T", "100BASE-TX"],
        "rates": {"10/100BASE-T": [1024]},
    }))
    args = ("run", "--config", str(path), "--format", "json", "--out", str(tmp_path / "r"))
    assert run_cli(*args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["rates"] == {"10BASE-T": [1024], "100BASE-TX": [1024]}
    assert {m["rate_kbps"] for r in report["results"] for m in r["measurements"]} == {1024}

    code, err = _run_config({"interfaces": ["10/100BASE-T"]})
    assert code == 3
    assert "combined port" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# catalog


def test_catalog_lists_five_converters_and_previews(capsys):
    assert run_cli("catalog") == 0
    out = capsys.readouterr().out
    assert "5 converters" in out
    for name in ("Tahoe 284", "Tahoe 235", "APP EC100", "APP EC101", "EUROCOM B/e1"):
        assert name in out
    lines = out.splitlines()
    preview = {
        line.split("  ")[1]: line.split("  ")[-1].strip()
        for line in lines
        if line.startswith("  ") and "<->" not in line and line.strip()
    }
    assert "native (no converter)" in out
    assert "Tahoe 284 + APP EC101" in out
    assert "Tahoe 284 + APP EC100" in out


def test_catalog_of_an_empty_converter_list(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "ber-campaign-config/1", "catalog": []}))
    assert run_cli("catalog", "--config", str(path)) == 0
    out, err = capsys.readouterr()
    assert out.startswith("Converter catalog (0 converters)") and err == ""


def test_catalog_chain_preview_respects_rate(capsys):
    assert run_cli("catalog", "--rate", "512") == 0
    out = capsys.readouterr().out
    # At 512 kbit/s the analyzer's own V.35 port suffices.
    v35_line = next(l for l in out.splitlines() if l.strip().startswith("V.35"))
    assert "native" in v35_line


# ---------------------------------------------------------------------------
# report rendering


@pytest.mark.parametrize(
    "channel, code", [("ideal", 0), ("ge:1e-4,1e-2,1.0,0.99", 1)], ids=["ideal", "ge"]
)
def test_report_rerender_is_byte_identical(tmp_path, capsys, channel, code):
    base = tmp_path / "camp"
    argv = ("--ber0", "1e-4", "--bermax", "1e-4", "--channel", channel, "--out", str(base))
    assert run_cli("run", *argv) == code
    capsys.readouterr()
    text_path = tmp_path / "rendered.txt"
    assert run_cli("report", "--in", str(base.with_suffix(".json")), "--out", str(text_path)) == code
    assert text_path.read_bytes() == base.with_suffix(".txt").read_bytes()


def test_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema": "other"}))
    assert run_cli("report", "--in", str(path)) == 3


@pytest.mark.parametrize(
    "doc", [{}, {"config": {}}], ids=["schema-only", "empty-config"]
)
def test_report_lacking_a_key_exits_3(tmp_path, capsys, doc):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema": "ber-campaign-report/1", **doc}))
    assert run_cli("report", "--in", str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _with_measurement(result_index, measurement_index, **fields):
    report = json.loads(_saved_report())
    report["results"][result_index]["measurements"][measurement_index].update(fields)
    return report


@pytest.mark.parametrize(
    "fields",
    [
        {"transmitted_bits": 0},
        # Not the row's worst BER, so it is never rendered.
        {"errored_bits": -1},
    ],
    ids=["zero-bits", "negative-errors"],
)
def test_report_with_impossible_counts_exits_3(tmp_path, capsys, fields):
    report = _with_measurement(0, 0, **fields)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    assert run_cli("report", "--in", str(path)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _set(*keys_and_value):
    """A change to the saved report: the value at the path the keys give."""
    *keys, last, value = keys_and_value

    def change(report):
        for key in keys:
            report = report[key]
        report[last] = value

    return change


#: A change to the saved report, and the message that names what is wrong.
WRONG_FORMS = {
    "config-array": (_set("config", []), "config must be a JSON object, got array"),
    "results-string": (_set("results", "abc"), "results must be a JSON array, got string"),
    "f0-string": (_set("frequencies_hz", "f0", "a"), "frequencies_hz.f0 must be a number, got string"),
    "errored-bits-string": (
        _set("results", 0, "measurements", 0, "errored_bits", "1"),
        "results[0].measurements[0].errored_bits must be an integer, got string",
    ),
    "ber0-string": (_set("config", "ber0", "x"), "config.ber0 must be a number, got string"),
    "channel-kind-unknown": (
        _set("config", "channel", "kind", "nope"), 'unknown channel kind "nope"'
    ),
    "verdict-unknown": (
        _set("results", 0, "verdict", "MAYBE"),
        'results[0].verdict must be one of PASS, FAIL, NO CONNECTOR, got "MAYBE"',
    ),
    "results-object": (_set("results", {}), "results must be a JSON array, got object"),
    "note-array": (
        _set("results", 0, "note", [1]), "results[0].note must be a JSON string or null, got array"
    ),
    "result-number": (_set("results", [1]), "results[0] must be a JSON object, got number"),
    "measurements-string": (
        _set("results", 0, "measurements", "x"),
        "results[0].measurements must be a JSON array, got string",
    ),
    "measurement-number": (
        _set("results", 0, "measurements", [1]),
        "results[0].measurements[0] must be a JSON object, got number",
    ),
    "interface-number": (
        _set("results", 0, "interface", 5), "results[0].interface must be a JSON string, got number"
    ),
    "taps-number": (
        _set("config", "pattern", "taps", 5), "config.pattern.taps must be a JSON array, got number"
    ),
    "f0-null": (_set("frequencies_hz", "f0", None), "frequencies_hz.f0 must be a number, got null"),
    "ber-string": (
        _set("results", 0, "measurements", 0, "ber", "x"),
        "results[0].measurements[0].ber must be a JSON object, got string",
    ),
    "converter-used-string": (
        _set("results", 0, "converter_used", "x"),
        "results[0].converter_used must be a JSON true or false, got string",
    ),
    "dut-number": (_set("dut", 5), "dut must be a JSON string, got number"),
    "ber-kind-number": (
        _set("results", 0, "measurements", 0, "ber", "kind", 5),
        "results[0].measurements[0].ber.kind must be a JSON string, got number",
    ),
    "ber-kind-unknown": (
        _set("results", 0, "measurements", 0, "ber", "kind", "guess"),
        'results[0].measurements[0].ber.kind must be point or upper_bound, got "guess"',
    ),
    "channel-seed-string": (
        _set("config", "channel", "seed", "x"), "the seed must be an integer, got string"
    ),
    "channel-p-array": (_set("config", "channel", "p", [1]), "'p' must be a number, got array"),
}


@pytest.mark.parametrize("change, message", WRONG_FORMS.values(), ids=WRONG_FORMS)
def test_a_report_of_the_wrong_form_exits_3_naming_the_file(tmp_path, change, message):
    report = json.loads(_saved_report())
    change(report)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    code, err = _run_quietly("report", "--in", str(path))
    assert code == 3
    assert err.startswith(f"error: {path}: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1


@functools.cache
def _saved_report() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "camp"
        _run_quietly("run", "--ber0", "1e-3", "--channel", "bsc:1e-3", "--out", str(base))
        return base.with_suffix(".json").read_text()


def _key_paths(node, prefix=()):
    """Every path to a value inside the JSON `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_report_with_a_key_removed_or_replaced_never_tracebacks(data):
    report = json.loads(_saved_report())
    path = data.draw(st.sampled_from(sorted(_key_paths(report), key=repr)))
    assume(path != ("schema",))
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON)
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "r.json"
        doc.write_text(json.dumps(report))
        code, err = _run_quietly("report", "--in", str(doc))
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1, 2) and err == ""


def _json_class(value) -> str:
    """A value's JSON type, true and false being one type."""
    return "boolean" if isinstance(value, bool) else json_type(value)


def _read_values(report) -> list[tuple[tuple, set[str]]]:
    """(path, JSON types) of every value the renderer reads in `report`, with
    the types `berbench run` writes there.  A note may be null; the renderer
    never reads a result's `chain`."""
    paths = {
        ("dut",): "string",
        ("config",): "object",
        ("config", "ber0"): "number",
        ("config", "ber_max"): "number",
        ("config", "pattern"): "object",
        ("config", "pattern", "order"): "number",
        ("config", "pattern", "seed"): "number",
        ("config", "pattern", "taps"): "array",
        ("config", "channel"): "object",
        ("config", "channel", "kind"): "string",
        ("config", "channel", "seed"): "number",
        ("frequencies_hz",): "object",
        **{("frequencies_hz", f): "number" for f in ("f0", "f1", "f2")},
        ("results",): "array",
    }
    for i, _ in enumerate(report["config"]["pattern"]["taps"]):
        paths["config", "pattern", "taps", i] = "number"
    channel = report["config"]["channel"]
    for key in param_names(channel["kind"]):
        paths["config", "channel", key] = _json_class(channel[key])
    for i, result in enumerate(report["results"]):
        at = ("results", i)
        paths.update({at: "object", (*at, "interface"): "string", (*at, "verdict"): "string"})
        paths.update({(*at, "note"): "string null", (*at, "converter_used"): "boolean"})
        paths[(*at, "measurements")] = "array"
        for j, _ in enumerate(result["measurements"]):
            m = (*at, "measurements", j)
            paths.update({m: "object", (*m, "ber"): "object", (*m, "ber", "kind"): "string"})
            paths[(*m, "ber", "value")] = "number"
            for key in ("errored_bits", "transmitted_bits"):
                paths[(*m, key)] = "number"
    return [(path, set(kinds.split())) for path, kinds in paths.items()]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_read_value_of_another_json_type_exits_3_in_json_terms(data):
    report = json.loads(_saved_report())
    path, kinds = data.draw(st.sampled_from(_read_values(report)))
    value = data.draw(_JSON.filter(lambda v: _json_class(v) not in kinds))
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "r.json"
        doc.write_text(json.dumps(report))
        code, err = _run_quietly("report", "--in", str(doc))
    assert code == 3
    assert err.startswith(f"error: {doc}: ") and err.count("\n") == 1
    # The value's JSON type, never a Python type or a Python error.
    assert err.endswith(f", got {json_type(value)}\n")
    assert not re.search(r"NoneType|'(int|float|str|bool|list|dict)'", err)


def test_two_runs_identical_json(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ("run", "--ber0", "1e-4", "--bermax", "1e-4", "--seed", "11")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()


# ---------------------------------------------------------------------------
# usage errors and unwritable outputs


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--seed", "1e3"),
        ("run", "--bogus"),
        ("plan", "--format", "xml"),
        ("catalog", "--rate", "x"),
        ("report",),
        ("report", "--in"),
        ("bogus",),
        (),
    ],
    ids=["run-seed", "run-unknown", "plan-format", "catalog-rate", "report-no-in",
         "report-in-no-value", "unknown-command", "no-command"],
)
def test_usage_error_exits_3_with_one_line(argv):
    code, err = _run_quietly(*argv)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "plan", "catalog", "report"])
def test_help_still_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "plan", "catalog", "report"])
def test_unwritable_output_exits_3_with_one_line(tmp_path, command):
    saved = tmp_path / "saved.json"
    saved.write_text(_saved_report())
    args = {
        "run": ("--ber0", "1e-3"),
        "plan": (),
        "catalog": (),
        "report": ("--in", str(saved)),
    }[command]
    code, err = _run_quietly(command, *args, "--out", str(tmp_path / "missing" / "x"))
    assert code == 3
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_run_to_a_missing_directory_fails_before_the_campaign(tmp_path, monkeypatch):
    def no_campaign(config):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", no_campaign)
    # A missing directory, and a directory where one of the outputs belongs.
    (tmp_path / "j.json").mkdir()
    (tmp_path / "t.txt").mkdir()
    before = sorted(tmp_path.iterdir())
    for out in (tmp_path / "missing" / "x", tmp_path / "j", tmp_path / "t"):
        code, err = _run_quietly("run", "--ber0", "1e-3", "--out", str(out))
        assert code == 3
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before


def test_run_appends_the_suffixes_to_a_dotted_out(tmp_path):
    # `--out run-0.1` must not write run-0.json, nor share it with run-0.3.
    args = ("run", "--ber0", "1e-3", "--bermax", "1e-3", "--out")
    for name in ("run-0.1", "run-0.3"):
        assert _run_quietly(*args, str(tmp_path / name)) == (0, "")
    names = ["run-0.1.json", "run-0.1.txt", "run-0.3.json", "run-0.3.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert json.loads((tmp_path / "run-0.3.json").read_text())["schema"] == "ber-campaign-report/1"
    missing = tmp_path / "missing" / "run-0.1"
    message = f"error: cannot write {missing}.json: no directory {missing.parent}\n"
    assert _run_quietly(*args, str(missing)) == (3, message)


# ---------------------------------------------------------------------------
# channel spec parsing


def test_parse_channel_specs():
    from berbench.channel import Bsc, FixedMask, GilbertElliott, Ideal

    assert cli.parse_channel_spec("ideal", 5) == Ideal(seed=5)
    assert cli.parse_channel_spec("bsc:0.01", 5) == Bsc(p=0.01, seed=5)
    assert cli.parse_channel_spec("ge:0.1,0.2,0.99,0.5", 5) == GilbertElliott(
        0.1, 0.2, 0.99, 0.5, seed=5
    )
    assert cli.parse_channel_spec("mask:1,2,3", 5) == FixedMask(indices=(1, 2, 3), seed=5)
    with pytest.raises(cli.ConfigError):
        cli.parse_channel_spec("awgn:1", 5)
    assert cli.parse_channel_spec("mask", 5) == FixedMask(indices=(), seed=5)
    for bad in ("bsc:fast", "bsc", "ge:0.1,0.2", "ideal:1", "mask:1,x"):
        with pytest.raises(cli.ConfigError):
            cli.parse_channel_spec(bad, 5)
