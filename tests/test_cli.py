import csv
import errno
import filecmp
import json
import math
import os
import shlex
import stat
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh_python
from dyncal import cli
from dyncal.simulators import EASOM_SPEC, easom, get_simulator, target_series
from dyncal.spline_dps import TargetSeries, build_dps


def write_series_csv(path, values, times=None):
    times = times if times is not None else range(1, len(values) + 1)
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write(f"{t},{float(v)!r}\n")
    return str(path)


@pytest.fixture()
def easom_target_csv(tmp_path):
    return write_series_csv(tmp_path / "target.csv", target_series("easom"))


DROP = object()  # an override that removes its key


class Twice(tuple):
    """An override that writes its key twice, with these two values in turn."""


def _config_text(value) -> str:
    """json.dumps, except that a Twice value writes its key twice at any depth."""
    if not isinstance(value, dict):
        return json.dumps(value)
    return "{" + ", ".join(f"{json.dumps(key)}: {_config_text(one)}"
                           for key, each in value.items()
                           for one in (each if isinstance(each, Twice) else (each,))) + "}"


def toy_calibrate_config(tmp_path, **overrides):
    cfg = {
        "simulator": "easom",
        "n0": 6, "N": 12, "seed": 9, "M": 150, "grid_size": 300,
        "design_iterations": 200, "k_max": 3,
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not DROP}
    path = tmp_path / "config.json"
    path.write_text(_config_text(cfg))
    return str(path)


def test_dps_subcommand(tmp_path, easom_target_csv):
    out = tmp_path / "dps_out"
    rc = cli.main(["dps", easom_target_csv, "--k-max", "4", "--out-dir", str(out)])
    assert rc == 0
    text = (out / "dps.json").read_text()
    payload = json.loads(text)
    assert payload["dps"] == [145, 37, 132]
    assert payload["k_selected"] == 3
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    expected = build_dps(TargetSeries(target_series("easom")), k_max=4)
    assert payload == expected.to_dict()
    lines = (out / "mse_path.csv").read_text().splitlines()
    assert lines[0] == "knots,mse"
    assert len(lines) == 6
    for i, mse in enumerate(expected.mse_path.tolist()):
        assert lines[i + 1] == f"{i},{mse!r}"


@pytest.mark.parametrize("length", [8, 10, 14])
def test_dps_default_k_max_fits_short_series(tmp_path, length):
    values = np.sin(np.linspace(0.0, 5.0, length))
    out = tmp_path / "dps_out"
    rc = cli.main(["dps", write_series_csv(tmp_path / "s.csv", values),
                   "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "dps.json").read_text())
    assert len(payload["ordered_knots"]) == length - 5
    assert payload == build_dps(TargetSeries(values), k_max=length - 5).to_dict()


def test_dps_default_k_max_is_ten_on_long_series(tmp_path, easom_target_csv):
    out = tmp_path / "dps_out"
    assert cli.main(["dps", easom_target_csv, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "dps.json").read_text())
    assert payload == build_dps(TargetSeries(target_series("easom")), k_max=10).to_dict()


@pytest.mark.parametrize("length,flags,code,message", [
    (10, ["--k-max", "10"], cli.EXIT_CONFIG, "k_max=10 exceeds 5, the fit limit for length 10"),
    (10, ["--k-max", "1"], cli.EXIT_CONFIG, "k_max must be at least 2, got 1"),
    (10, ["--k-max", "0"], cli.EXIT_CONFIG, "k_max must be at least 2, got 0"),
    (6, [], cli.EXIT_PARSE, "s.csv: a DPS needs a series of at least 7 points, got 6"),
    (5, ["--k-max", "2"], cli.EXIT_PARSE,
     "s.csv: a DPS needs a series of at least 7 points, got 5"),
], ids=["above-limit", "one", "zero", "six-rows", "five-rows"])
def test_dps_unusable_k_max_or_length(tmp_path, capsys, length, flags, code, message):
    path = write_series_csv(tmp_path / "s.csv", np.sin(np.linspace(0.0, 5.0, length)))
    rc = cli.main(["dps", path, *flags, "--out-dir", str(tmp_path / "out")])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dps_malformed_csv_names_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n1,1.0\n2,huh\n3,2.0\n4,2.0\n5,2.0\n")
    rc = cli.main(["dps", str(bad)])
    assert rc == cli.EXIT_PARSE
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,content,message", [
    ("simulate", b"x1,x2\n0.1,0.2\n0.3\n", "row 3 has 1 fields, expected 2"),
    ("simulate", b"x1,x2\n0.1,0.2\nnan,0.5\n", "row 3 is not finite"),
    ("simulate", b"x1,x2\ninf,0.5\n", "row 2 is not finite"),
    ("simulate", b"x1,x2\n\n0.1,abc\n", "row 3 is not numeric"),
    ("dps", b"t,value\n1,1.0\n2,nan\n3,2.0\n4,2.0\n5,2.0\n", "row 3 is not finite"),
    ("dps", b"t,value\n1,1.0\n\n3,1e999\n4,2.0\n5,2.0\n6,1.0\n", "row 4 is not finite"),
    ("dps", b"t,value\n1,\xff\n", "cannot read"),
    ("dps", b"t,value\n1,1.0\n2,1_000\n3,2.0\n4,2.0\n5,2.0\n", "row 3 is not numeric"),
    ("simulate", "x1,x2\n0.1,0.2\n0.3,\u0663\n".encode(), "row 3 is not numeric"),
    ("simulate", b"x1,x2\n0.1,0.2\n0.3,0.4\n0.5,0.6,0.7\n0.8,0.9\n",
     "row 4 has 3 fields, expected 2"),
    ("dps", b't,value\n1,1.0\n2,2.0\n3,"abc"\n4,2.0\n5,2.0\n', "row 4 is not numeric"),
    ("simulate", b"x1,x2\n0.1,0.2\x1c\n", "row 2 is not numeric"),
    ("simulate", b'x1,x2\n"0.1\n",0.2\n', "row 2 has 1 fields, expected 2"),
], ids=["ragged", "nan", "inf", "blank-before-bad", "series-nan", "series-overflow",
        "not-utf8", "digit-group-underscore", "arabic-indic-digit", "widening-row",
        "quoted-word", "ascii-separator", "quote-across-lines"])
def test_malformed_csv_is_input_error(tmp_path, capsys, cmd, content, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = (["simulate", "--simulator", "easom", str(bad), "--out", str(out)]
            if cmd == "simulate" else ["dps", str(bad), "--out-dir", str(out)])
    assert cli.main(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert message in err and str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_blank_first_line_is_not_data(tmp_path, easom_target_csv):
    text = Path(easom_target_csv).read_text()
    blank = tmp_path / "blank.csv"
    blank.write_text("\n" + text)
    for name, path in (("plain", easom_target_csv), ("blank", blank)):
        assert cli.main(["dps", str(path), "--k-max", "3", "--out-dir",
                         str(tmp_path / f"dps_{name}")]) == 0
    assert ((tmp_path / "dps_plain" / "dps.json").read_bytes()
            == (tmp_path / "dps_blank" / "dps.json").read_bytes())
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("\nx1,x2\n0.8,0.2\n")
    out = tmp_path / "responses.csv"
    assert cli.main(["simulate", "--simulator", "easom", str(inputs), "--out", str(out)]) == 0
    col1 = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert col1 == target_series("easom").tolist()


def test_byte_order_mark_is_dropped(tmp_path, easom_target_csv):
    """Excel's "CSV UTF-8" starts a file with a UTF-8 byte-order mark: a target
    or a config with one reads as it does without."""
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(easom_target_csv).read_bytes())
    for name, path in (("plain", easom_target_csv), ("bom", bom)):
        assert cli.main(["dps", str(path), "--k-max", "3", "--out-dir",
                         str(tmp_path / f"dps_{name}")]) == 0
    assert ((tmp_path / "dps_plain" / "dps.json").read_bytes()
            == (tmp_path / "dps_bom" / "dps.json").read_bytes())
    cfg = Path(toy_calibrate_config(tmp_path))
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert cli.main(["calibrate", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "config.json").read_text())["N"] == 12


def test_hm_target_length_checked_before_the_knot_scan(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_dps reached")
    monkeypatch.setattr(cli, "build_dps", unreachable)
    cfg = toy_calibrate_config(tmp_path, cutoff=2.0, target=[0.0] * 10)
    rc = cli.main(["hm", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "target length 10 does not match simulator L=200" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode", ["calibrate", "hm"])
@pytest.mark.parametrize("target, message", [
    ([3.0] * 200, "config error: target series is constant"),
    ([0.5 * t for t in range(200)], "config error: target series is fit exactly by a cubic"),
], ids=["constant", "linear"])
def test_target_without_a_knot_to_place_spends_no_run(tmp_path, capsys, monkeypatch,
                                                      mode, target, message):
    made = []
    monkeypatch.setattr(cli, "get_simulator", lambda name: made.append(get_simulator(name))
                        or made[-1])
    extra = {"cutoff": 0.5} if mode == "hm" else {}
    cfg = toy_calibrate_config(tmp_path, n0=15, N=50, k_max=10, target=target, **extra)
    rc = cli.main([mode, cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert [sim.calls for sim in made] == [0]
    assert not (tmp_path / "run").exists()


def test_calibrate_run_dir(tmp_path):
    cfg = toy_calibrate_config(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["calibrate", cfg, "--out-dir", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["budget_used"] == 12
    assert len(result["x_opt"]) == 2
    assert (out / "trace.csv").exists()
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["mode"] == "calibrate"
    assert resolved["seed"] == 9


def test_calibrate_deterministic_result_json(tmp_path):
    cfg = toy_calibrate_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["calibrate", cfg, "--out-dir", str(out1)]) == 0
    assert cli.main(["calibrate", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_calibrate_seed_override_changes_result(tmp_path):
    cfg = toy_calibrate_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["calibrate", cfg, "--out-dir", str(out1)]) == 0
    assert cli.main(["calibrate", cfg, "--seed", "77", "--out-dir", str(out2)]) == 0
    a = json.loads((out1 / "result.json").read_text())
    b = json.loads((out2 / "result.json").read_text())
    assert a["x_opt"] != b["x_opt"]


def test_calibrate_budget_error_exit_code(tmp_path, capsys):
    cfg = toy_calibrate_config(tmp_path, N=5)  # N < n0
    rc = cli.main(["calibrate", cfg])
    assert rc == cli.EXIT_CONFIG
    assert "budget" in capsys.readouterr().err.lower()


def test_calibrate_accepts_the_largest_alpha(tmp_path):
    """alpha = 10, the top of its range, runs without an overflowing EI."""
    cfg = toy_calibrate_config(tmp_path, alpha=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")]) == cli.EXIT_OK


@pytest.mark.parametrize("field,value,message", [
    ("design_iterations", 1.5, "must be an integer"), ("n0", 6.0, "must be an integer"),
    ("M", 5000.0, "must be an integer"), ("k_max", True, "must be an integer"),
    ("epsilon", "1e-5", "must be a number"), ("alpha", None, "must be a number"),
])
def test_calibrate_mistyped_field_is_config_error(tmp_path, capsys, field, value, message):
    cfg = toy_calibrate_config(tmp_path, **{field: value})
    rc = cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert f"{field} {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_calibrate_negative_design_iterations_is_config_error(tmp_path, capsys):
    cfg = toy_calibrate_config(tmp_path, design_iterations=-1)
    rc = cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "design_iterations must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("mode, field, value", [
    ("calibrate", "grid_size", 0), ("hm", "hm_stage_cap", -3), ("hm", "hm_stage_limit", 0),
])
def test_count_below_one_is_refused_before_any_run(tmp_path, capsys, monkeypatch,
                                                   mode, field, value):
    made = []
    monkeypatch.setattr(cli, "get_simulator", lambda name: made.append(get_simulator(name))
                        or made[-1])
    cfg = toy_calibrate_config(tmp_path, cutoff=0.5, **{field: value})
    rc = cli.main([mode, cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {field} must be >= 1, got {value}" in capsys.readouterr().err
    assert [sim.calls for sim in made] == [0]
    assert not (tmp_path / "run").exists()


def test_runtime_error_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dyncal.calibrate._is_duplicate", lambda x, X: True)
    cfg = toy_calibrate_config(tmp_path)
    rc = cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


def test_external_simulator_without_target_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "simulator": {"command": ["true"], "d": 2, "L": 10,
                      "bounds": [[0, 1], [0, 1]]},
        "n0": 4, "N": 8,
    }))
    rc = cli.main(["calibrate", str(path), "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "target" in capsys.readouterr().err


def _external_spec(**overrides):
    spec = {"command": ["true"], "d": 2, "L": 10, "bounds": [[0, 1], [0, 1]]}
    spec.update(overrides)
    return {key: value for key, value in spec.items() if value is not DROP}


@pytest.mark.parametrize("mode,overrides,message", [
    ("hm", {"cutoff": [0.5]}, "cutoff must be a number"),
    ("calibrate", {"simulator": _external_spec(d=[2]), "target": [0.0] * 10},
     "simulator d must be an integer"),
    ("calibrate", {"simulator": _external_spec(bounds=3), "target": [0.0] * 10},
     "simulator bounds must be 2 [low, high] pairs"),
    ("calibrate", {"simulator": _external_spec(command=[]), "target": [0.0] * 10},
     "simulator command must not be empty"),
    ("calibrate", {"alpha": math.nan}, "alpha must be finite, got nan"),
    ("calibrate", {"epsilon": math.inf}, "epsilon must be finite, got inf"),
    ("hm", {"cutoff": math.nan}, "cutoff must be finite, got nan"),
    ("calibrate", {"simulator": _external_spec(bounds=[[0, math.inf], [0, 1]]),
                   "target": [0.0] * 10}, "simulator bound must be finite, got inf"),
    ("calibrate", {"simulator": _external_spec(timeout=math.nan), "target": [0.0] * 10},
     "simulator timeout must be finite, got nan"),
    ("calibrate", {"simulator": _external_spec(time_grid=list(range(1, 10)) + [math.nan]),
                   "target": [0.0] * 10}, "time grid must be finite"),
    ("calibrate", {"epsilon": 10 ** 400}, "epsilon must be finite, got 1000"),
    ("calibrate", {"alpha": 1e308}, "alpha must be in (0, 10], got 1e+308"),
    ("calibrate", {"simulator": _external_spec(timeout=-1.0), "target": [0.0] * 10},
     "simulator timeout must be positive, got -1.0"),
    ("calibrate", {"seed": -1}, "seed must be >= 0, got -1"),
    ("hm", {"seed": -2, "cutoff": 0.5}, "seed must be >= 0, got -2"),
    ("calibrate", {"simulator": _external_spec(command=7), "target": [0.0] * 10},
     "simulator command must be a string or a list of strings, got 7"),
    ("calibrate", {"simulator": _external_spec(command=["true", 7]), "target": [0.0] * 10},
     "simulator command must be a string or a list of strings, got ['true', 7]"),
    ("calibrate", {"simulator": _external_spec(command="'./my sim"), "target": [0.0] * 10},
     "No closing quotation"),
])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, mode, overrides, message):
    cfg = toy_calibrate_config(tmp_path, **overrides)
    rc = cli.main([mode, cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode,overrides,message", [
    ("calibrate", {"target_csv": 3.5}, "target_csv must be a path string, got 3.5"),
    ("calibrate", {"target_csv": True}, "target_csv must be a path string, got True"),
    ("calibrate", {"out_dir": 5}, "out_dir must be a path string, got 5"),
    ("calibrate", {"simulator": _external_spec(exchange_dir=7), "target": [0.0] * 10},
     "exchange_dir must be a path string, got 7"),
    ("calibrate", {"grid-size": 100}, "unknown config key 'grid-size'"),
    ("hm", {"sead": 1, "cutoff": 0.5}, "unknown config key 'sead'"),
    ("calibrate", {"mode": "hm"}, "config mode 'hm' does not match the 'calibrate' subcommand"),
    ("calibrate", {"simulator": _external_spec(timout=5), "target": [0.0] * 10},
     "unknown simulator key 'timout'"),
    ("calibrate", {"n0": DROP}, "missing config key 'n0'"),
    ("calibrate", {"N": DROP}, "missing config key 'N'"),
    ("hm", {"n0": DROP, "cutoff": 0.5}, "missing config key 'n0'"),
    ("hm", {"N": DROP, "cutoff": 0.5}, "missing config key 'N'"),
    ("hm", {}, "missing config key 'cutoff'"),
    ("calibrate", {"simulator": _external_spec(d=DROP), "target": [0.0] * 10},
     "missing simulator key 'd'"),
    ("calibrate", {"simulator": _external_spec(L=DROP), "target": [0.0] * 10},
     "missing simulator key 'L'"),
    ("calibrate", {"simulator": _external_spec(bounds=DROP), "target": [0.0] * 10},
     "missing simulator key 'bounds'"),
    ("calibrate", {"simulator": _external_spec(command=DROP), "target": [0.0] * 10},
     "missing simulator key 'command'"),
    ("calibrate", {"initial_design": "maxpro"}, "unknown config key 'initial_design'"),
    ("calibrate", {"dps_order": "selection"}, "unknown config key 'dps_order'"),
    ("calibrate", {"N": Twice((50, 12))}, "duplicate config key 'N'"),
    ("calibrate", {"simulator": _external_spec(d=Twice((2, 2))), "target": [0.0] * 10},
     "duplicate config key 'd'"),
])
def test_config_key_error_is_config_error(tmp_path, capsys, mode, overrides, message):
    cfg = toy_calibrate_config(tmp_path, **overrides)
    rc = cli.main([mode, cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode,overrides", [
    ("calibrate", {}),
    ("calibrate", {"target": easom(np.array([0.6, 0.4]), EASOM_SPEC.time_grid).tolist()}),
    ("hm", {"cutoff": 2.0, "hm_stage_cap": 4, "hm_stage_limit": 2}),
])
def test_config_json_replays_the_run(tmp_path, mode, overrides):
    cfg = toy_calibrate_config(tmp_path, **overrides)
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main([mode, cfg, "--out-dir", str(first)]) == 0
    assert cli.main([mode, str(first / "config.json"), "--out-dir", str(replay)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in replay.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, replay, names, shallow=False)
    assert (mismatch, errors) == ([], [])


def test_negative_seed_flag_is_config_error(tmp_path, capsys, monkeypatch):
    made = []
    monkeypatch.setattr(cli, "get_simulator", lambda name: made.append(get_simulator(name))
                        or made[-1])
    cfg = toy_calibrate_config(tmp_path)
    rc = cli.main(["calibrate", cfg, "--seed", "-1", "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert [sim.calls for sim in made] == [0]
    assert not (tmp_path / "run").exists()


def test_config_command_string_is_split_like_a_shell(tmp_path, monkeypatch):
    """A config's command string is split as `simulate --command` splits it:
    an interpreter and a quoted script path with a space are two words."""
    monkeypatch.delenv(cli.EXCHANGE_DIR_ENV, raising=False)
    script = tmp_path / "my sims" / "const_sim.py"
    script.parent.mkdir()
    script.write_text('open("output.csv", "w").write("t,value\\n1,2.5\\n2,-1.5\\n")\n')
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    sim = cli._build_simulator({"command": command, "d": 1, "L": 2, "bounds": [[0, 1]],
                                "exchange_dir": str(tmp_path / "xchg")})
    assert sim.command == [sys.executable, str(script)]
    assert sim.run([0.5]).tolist() == [2.5, -1.5]
    assert list((tmp_path / "xchg").iterdir()) == []


def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    rc = cli.main(["calibrate", str(path)])
    assert rc == cli.EXIT_CONFIG
    assert "config error: the config must be a JSON object" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff{}")
    rc = cli.main(["calibrate", str(path)])
    assert rc == cli.EXIT_PARSE
    assert f"error: cannot read {path}" in capsys.readouterr().err


def _short_external_config(tmp_path, length, **overrides):
    """A config without k_max for an external toy simulator of series length
    `length`, whose target is its series at (0.3, 0.7)."""
    exe = tmp_path / "toy_sim.py"
    exe.write_text(f"#!{sys.executable}\n" + textwrap.dedent(f"""
        import csv, math
        with open("input.csv", newline="") as fh:
            x1, x2 = (float(v) for v in list(csv.reader(fh))[1])
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range({length}):
                t = i / {length - 1}
                fh.write(f"{{t!r}},{{math.exp(x1 * t) * math.cos(4 * x2 * t + 1)!r}}\\n")
    """))
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    t = np.linspace(0.0, 1.0, length)
    target = (np.exp(0.3 * t) * np.cos(2.8 * t + 1.0)).tolist()
    return toy_calibrate_config(
        tmp_path, k_max=DROP, N=14, target=target, **overrides,
        simulator=_external_spec(command=[str(exe)], L=length,
                                 exchange_dir=str(tmp_path / "xchg")))


@pytest.mark.parametrize("mode", ["calibrate", "hm"])
def test_short_target_takes_the_dps_default_k_max(tmp_path, monkeypatch, mode):
    """A 10-point target without k_max runs with the knot budget of dps, 5,
    gets the DPS of dps and records that budget."""
    monkeypatch.delenv(cli.EXCHANGE_DIR_ENV, raising=False)
    extra = {"cutoff": 3.0, "hm_stage_cap": 3, "hm_stage_limit": 2} if mode == "hm" else {}
    cfg = _short_external_config(tmp_path, 10, **extra)
    target = write_series_csv(tmp_path / "target.csv",
                              json.loads(Path(cfg).read_text())["target"])
    assert cli.main(["dps", target, "--out-dir", str(tmp_path / "dps_out")]) == 0
    assert cli.main([mode, cfg, "--out-dir", str(tmp_path / "run")]) == 0
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    assert result["dps"] == json.loads((tmp_path / "dps_out" / "dps.json").read_text())
    assert json.loads((tmp_path / "run" / "config.json").read_text())["k_max"] == 5


@pytest.mark.parametrize("mode", ["calibrate", "hm"])
def test_six_point_target_is_refused_before_any_launch(tmp_path, capsys, monkeypatch, mode):
    monkeypatch.delenv(cli.EXCHANGE_DIR_ENV, raising=False)
    cfg = _short_external_config(tmp_path, 6, **({"cutoff": 3.0} if mode == "hm" else {}))
    rc = cli.main([mode, cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert ("config error: a DPS needs a series of at least 7 points, got 6"
            in capsys.readouterr().err)
    assert not (tmp_path / "xchg").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("cutoff, message", [
    ("x", "cutoff must be a number, got 'x'"),
    ([0.5], "cutoff must be a number, got [0.5]"),
    (0, "implausibility cutoff must be positive, got 0.0"),
], ids=["string", "list", "zero"])
def test_hm_cutoff_is_refused_before_the_knot_scan(tmp_path, capsys, monkeypatch,
                                                   cutoff, message):
    scans = []
    monkeypatch.setattr(cli, "build_dps", lambda *a, **k: scans.append(a) or build_dps(*a, **k))
    cfg = toy_calibrate_config(tmp_path, cutoff=cutoff)
    rc = cli.main(["hm", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert scans == []


def test_hm_requires_positive_cutoff(tmp_path, capsys):
    cfg = toy_calibrate_config(tmp_path, cutoff=-1.0)
    rc = cli.main(["hm", cfg])
    assert rc == cli.EXIT_CONFIG


def test_hm_run_dir_and_audit(tmp_path):
    cfg = toy_calibrate_config(tmp_path, cutoff=2.0, hm_stage_cap=4,
                               hm_stage_limit=2)
    out = tmp_path / "hm_run"
    rc = cli.main(["hm", cfg, "--out-dir", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["flags"]["cutoff"] == 2.0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("stage,im_max")
    for line in trace[1:]:
        assert float(line.split(",")[1]) <= 2.0
    assert result["budget_used"] == 6 + len(trace) - 1


@pytest.mark.parametrize("mode, overrides", [
    ("calibrate", {}),
    ("hm", {"cutoff": 2.0, "hm_stage_cap": 4, "hm_stage_limit": 2}),
])
def test_trace_lines_up_with_training_rows(tmp_path, mode, overrides):
    """Trace line i is the paid run at training row n0 + i: the same x
    columns, byte for byte, and its problem (calibrate) or stage (hm) is
    that row's origin."""
    cfg = toy_calibrate_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert cli.main([mode, cfg, "--out-dir", str(out)]) == 0
    n0 = 6
    budget = json.loads((out / "result.json").read_text())["budget_used"]
    with open(out / "training.csv", newline="") as fh:
        training = list(csv.DictReader(fh))
    with open(out / "trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    assert len(training) == budget
    assert 0 < len(trace) == budget - n0
    for i, rec in enumerate(trace):
        row = training[n0 + i]
        assert [rec["x1"], rec["x2"]] == [row["x1"], row["x2"]]
        if mode == "calibrate":
            assert rec["iteration"] == row["order"] and rec["problem"] == row["origin"]
        else:
            assert rec["stage"] == row["origin"]


def test_simulate_bundled(tmp_path):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1,x2\n0.8,0.2\n0.5,0.5\n")
    out = tmp_path / "responses.csv"
    rc = cli.main(["simulate", "--simulator", "easom", str(inputs), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,y1,y2"
    assert len(lines) == 201
    col1 = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(col1, target_series("easom"))


def test_simulate_empty_inputs(tmp_path):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1,x2\n")
    out = tmp_path / "responses.csv"
    rc = cli.main(["simulate", "--simulator", "easom", str(inputs), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "t\n"


def test_simulate_dimension_mismatch(tmp_path, capsys):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.5\n")
    rc = cli.main(["simulate", "--simulator", "easom", str(inputs)])
    assert rc == cli.EXIT_PARSE


def test_simulate_external_command(tmp_path):
    exe = tmp_path / "echo_sim.py"
    exe.write_text(f"#!{sys.executable}\n" + textwrap.dedent("""
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(5):
                fh.write(f"{i+1},3.5\\n")
    """))
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.25\n")
    out = tmp_path / "resp.csv"
    rc = cli.main(["simulate", "--command", str(exe), str(inputs), "--scaled",
                   "--d", "1", "--L", "5", "--exchange-dir",
                   str(tmp_path / "xchg"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith("3.5") for line in lines[1:])


@pytest.mark.parametrize("flags, inputs, field", [
    (["--d", "2", "--L", "0"], "x1,x2\n0.5,0.5\n", "L"),
    (["--d", "0", "--L", "3"], "", "d"),
])
def test_simulate_refuses_a_dimension_or_length_below_one_before_any_launch(
        tmp_path, capsys, flags, inputs, field):
    exe = tmp_path / "logging_sim.py"
    exe.write_text(f"#!{sys.executable}\n" + textwrap.dedent(f"""
        with open({str(tmp_path / "launches.log")!r}, "a") as fh:
            fh.write("launch\\n")
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n1,0.5\\n2,0.5\\n3,0.5\\n")
    """))
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    (tmp_path / "inputs.csv").write_text(inputs)
    out = tmp_path / "resp.csv"
    rc = cli.main(["simulate", "--command", str(exe), str(tmp_path / "inputs.csv"), *flags,
                   "--exchange-dir", str(tmp_path / "xchg"), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: simulator {field} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "launches.log").exists()
    assert not out.exists()


@pytest.mark.parametrize("env", ["", "from_env"])
def test_simulate_external_exchange_dir_precedence(tmp_path, monkeypatch, env):
    """A non-empty DYNCAL_EXCHANGE_DIR wins over --exchange-dir; an empty one is unset."""
    log = tmp_path / "cwd.txt"
    exe = tmp_path / "cwd_sim.py"
    exe.write_text(f"#!{sys.executable}\n" + textwrap.dedent(f"""
        import os
        with open({str(log)!r}, "w") as fh:
            fh.write(os.getcwd())
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n1,0.0\\n2,0.0\\n")
    """))
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.25\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv(cli.EXCHANGE_DIR_ENV, str(tmp_path / env) if env else "")
    rc = cli.main(["simulate", "--command", str(exe), str(inputs), "--d", "1", "--L", "2",
                   "--exchange-dir", str(tmp_path / "from_flag"), "--out", "resp.csv"])
    assert rc == 0
    assert Path(log.read_text()).parent == (tmp_path / (env or "from_flag")).resolve()
    assert sorted(p.name for p in work.iterdir()) == ["resp.csv"]


def test_simulate_command_is_split_like_a_shell(tmp_path):
    """A quoted executable path with a space in it stays one word, and the
    words after it reach the executable as its arguments."""
    exe = tmp_path / "my sims" / "const_sim.py"
    exe.parent.mkdir()
    exe.write_text(f"#!{sys.executable}\n" + textwrap.dedent("""
        import sys
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n1," + sys.argv[1] + "\\n2," + sys.argv[2] + "\\n")
    """))
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.25\n")
    out = tmp_path / "resp.csv"
    rc = cli.main(["simulate", "--command", f"{shlex.quote(str(exe))} 2.5 '-1.5'",
                   str(inputs), "--d", "1", "--L", "2", "--exchange-dir",
                   str(tmp_path / "xchg"), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "t,y1\n1.0,2.5\n2.0,-1.5\n"


def test_simulate_unbalanced_quote_is_config_error(tmp_path, capsys):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.25\n")
    rc = cli.main(["simulate", "--command", "'./my sim", str(inputs), "--d", "1",
                   "--exchange-dir", str(tmp_path / "x")])
    assert rc == cli.EXIT_CONFIG
    assert "config error: No closing quotation" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_simulate_empty_command_is_config_error(tmp_path, capsys):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.25\n")
    rc = cli.main(["simulate", "--command", "", str(inputs), "--d", "1", "--L", "5",
                   "--exchange-dir", str(tmp_path / "x")])
    assert rc == cli.EXIT_CONFIG
    assert "simulator command must not be empty" in capsys.readouterr().err


def test_simulate_external_protocol_error_exit(tmp_path, capsys):
    exe = tmp_path / "bad_sim.py"
    exe.write_text(f"#!{sys.executable}\nraise SystemExit(2)\n")
    exe.chmod(exe.stat().st_mode | stat.S_IEXEC)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1\n0.25\n")
    rc = cli.main(["simulate", "--command", str(exe), str(inputs), "--scaled",
                   "--d", "1", "--L", "5", "--exchange-dir", str(tmp_path / "x")])
    assert rc == cli.EXIT_PROCESS


def test_evaluate(tmp_path, capsys):
    g0 = np.sin(np.linspace(0, 3, 20))
    a = write_series_csv(tmp_path / "a.csv", g0 + 0.05)
    b = write_series_csv(tmp_path / "b.csv", g0)
    out = tmp_path / "metrics.json"
    rc = cli.main(["evaluate", a, b, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rmse"] == pytest.approx(0.05)
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_evaluate_missing_file(tmp_path, capsys):
    g0 = np.sin(np.linspace(0, 3, 20))
    a = write_series_csv(tmp_path / "a.csv", g0)
    rc = cli.main(["evaluate", a, str(tmp_path / "nope.csv")])
    assert rc == cli.EXIT_PARSE


def test_commands_without_a_fit_load_no_scipy(tmp_path):
    """`import dyncal.cli` and the dps, evaluate and simulate commands load no
    scipy module: scipy.linalg and scipy.special come in at the first
    surrogate fit, so only calibrate and hm pay for them."""
    target = write_series_csv(tmp_path / "target.csv", target_series("easom"))
    candidate = write_series_csv(tmp_path / "candidate.csv", target_series("easom") + 0.1)
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x1,x2\n0.8,0.2\n")
    runs = [
        ["dps", target, "--k-max", "3", "--out-dir", str(tmp_path / "dps")],
        ["evaluate", candidate, target, "--out", str(tmp_path / "metrics.json")],
        ["simulate", "--simulator", "easom", str(inputs),
         "--out", str(tmp_path / "responses.csv")],
    ]
    code = textwrap.dedent(f"""
        import contextlib, io, sys, dyncal.cli
        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]
        loaded = [scipy_modules()]
        for argv in {runs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert dyncal.cli.main(argv) == 0, argv
            loaded.append(scipy_modules())
        print(loaded)
    """)
    assert run_fresh_python(code).strip() == repr([[]] * 4)


@pytest.mark.parametrize("cmd,files,message", [
    ("evaluate", [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0]],
     "series lengths differ: 6 rows in"),
    ("evaluate", [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5], "b.csv: target series is constant"),
    ("evaluate", [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]],
     "a.csv: target series needs at least 5 points"),
    ("dps", [[1.0, 2.0, 3.0, 4.0]], "a.csv: target series needs at least 5 points"),
    ("dps", [[]], "a.csv: target series needs at least 5 points"),
    ("dps", [[0.25 * t for t in range(600)]], "a.csv: target series is fit exactly by a cubic"),
], ids=["evaluate-lengths", "evaluate-constant", "evaluate-short", "dps-short", "dps-empty",
        "dps-line"])
def test_unusable_series_file_is_input_error(tmp_path, capsys, cmd, files, message):
    paths = [write_series_csv(tmp_path / f"{name}.csv", values)
             for name, values in zip("ab", files)]
    rc = cli.main([cmd, *paths])
    assert rc == cli.EXIT_PARSE
    assert message in capsys.readouterr().err


def test_unknown_simulator_is_config_error(tmp_path, capsys):
    cfg = toy_calibrate_config(tmp_path, simulator="nope")
    rc = cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown simulator 'nope'; "
        "choose from ['bliznyuk', 'easom', 'harari_steinberg']"]


@pytest.mark.parametrize("value", [7, 0])
def test_exchange_dir_type_is_checked_when_the_environment_sets_one(tmp_path, capsys,
                                                                    monkeypatch, value):
    monkeypatch.setenv(cli.EXCHANGE_DIR_ENV, str(tmp_path / "from_env"))
    cfg = toy_calibrate_config(tmp_path, simulator=_external_spec(exchange_dir=value),
                               target=[0.0] * 10)
    rc = cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: exchange_dir must be a path string, got {value}" in (
        capsys.readouterr().err)


def _output_argv(cmd, tmp_path, out):
    """argv for cmd writing its output to out, with its inputs in tmp_path."""
    if cmd in ("calibrate", "hm"):
        cfg = toy_calibrate_config(tmp_path, cutoff=2.0) if cmd == "hm" else (
            toy_calibrate_config(tmp_path))
        return [cmd, cfg, "--out-dir", str(out)]
    target = write_series_csv(tmp_path / "target.csv", target_series("easom"))
    if cmd == "dps":
        return ["dps", target, "--k-max", "3", "--out-dir", str(out)]
    if cmd == "evaluate":
        return ["evaluate", target, target, "--out", str(out)]
    (tmp_path / "inputs.csv").write_text("x1,x2\n0.8,0.2\n")
    return ["simulate", "--simulator", "easom", str(tmp_path / "inputs.csv"), "--out", str(out)]


@pytest.mark.parametrize("cmd", ["dps", "calibrate", "hm", "simulate", "evaluate"])
@pytest.mark.parametrize("depth", [0, 1], ids=["file", "parent-file"])
def test_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                      cmd, depth):
    """An output directory that is a file (depth 0), or lies under one
    (depth 1), exits 5 before the first run or scan, and makes nothing. For
    simulate and evaluate the output is a file in that directory."""
    file_output = cmd in ("simulate", "evaluate")
    made = []
    monkeypatch.setattr(cli, "get_simulator", lambda name: made.append(get_simulator(name))
                        or made[-1])
    monkeypatch.setattr(cli, "build_dps", lambda *a, **k: pytest.fail("build_dps reached"))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out_dir = blocker / "run" if depth else blocker
    out = out_dir / "out.csv" if file_output else out_dir
    argv = _output_argv(cmd, tmp_path, out)
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_PARSE
    named = out_dir if file_output else blocker
    assert f"error: cannot write {out}: {named} is not a directory" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == ""
    assert [sim.calls for sim in made] == ([0] if cmd in ("calibrate", "hm", "simulate")
                                           else [])


@pytest.mark.parametrize("cmd", ["simulate", "evaluate"])
def test_output_file_in_a_missing_directory_is_refused(tmp_path, capsys, cmd):
    """An output file is written into an existing directory: one that is
    missing exits 5 before any run, where dps, calibrate and hm make theirs."""
    out = tmp_path / "new" / "out.csv"
    rc = cli.main(_output_argv(cmd, tmp_path, out))
    assert rc == cli.EXIT_PARSE
    assert f"error: cannot write {out}: {out.parent} is not a directory" in (
        capsys.readouterr().err)
    assert not out.parent.exists()


@pytest.mark.parametrize("cmd", ["simulate", "evaluate"])
def test_output_file_that_is_a_directory_is_refused(tmp_path, capsys, cmd):
    out = tmp_path / "out.csv"
    out.mkdir()
    rc = cli.main(_output_argv(cmd, tmp_path, out))
    assert rc == cli.EXIT_PARSE
    assert f"error: cannot write {out}: it is a directory" in capsys.readouterr().err


def test_output_write_error_exits_five_without_traceback(tmp_path, capsys, monkeypatch):
    """A write that fails after the checks (here a full disk) exits 5 with the
    system's message, not a traceback."""
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(tmp_path / "run"))
    monkeypatch.setattr(cli.cal, "write_run_artifacts", full)
    rc = cli.main(_output_argv("calibrate", tmp_path, tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == cli.EXIT_PARSE
    assert err == f"error: [Errno {errno.ENOSPC}] No space left on device: '{tmp_path / 'run'}'\n"


def test_exchange_dir_under_a_file_is_simulator_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.EXCHANGE_DIR_ENV, raising=False)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = toy_calibrate_config(tmp_path, k_max=2, target=np.sin(np.arange(10.0)).tolist(),
                               simulator=_external_spec(exchange_dir=str(blocker / "x")))
    rc = cli.main(["calibrate", cfg, "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_PROCESS
    assert f"simulator error: cannot make a run directory in {blocker / 'x'}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
