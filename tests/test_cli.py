import json
import stat
import sys
import textwrap

import numpy as np
import pytest

from dyncal import cli
from dyncal.simulators import target_series


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


def toy_calibrate_config(tmp_path, **overrides):
    cfg = {
        "simulator": "easom",
        "n0": 6, "N": 12, "seed": 9, "M": 150, "grid_size": 300,
        "design_iterations": 200, "k_max": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_dps_subcommand(tmp_path, easom_target_csv):
    out = tmp_path / "dps_out"
    rc = cli.main(["dps", easom_target_csv, "--k-max", "4", "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "dps.json").read_text())
    assert payload["dps"] == [145, 37, 132]
    assert payload["k_selected"] == 3
    lines = (out / "mse_path.csv").read_text().strip().splitlines()
    assert lines[0] == "knots,mse"
    assert len(lines) == 6


def test_dps_malformed_csv_names_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n1,1.0\n2,huh\n3,2.0\n4,2.0\n5,2.0\n")
    rc = cli.main(["dps", str(bad)])
    assert rc == cli.EXIT_PARSE
    assert "row 3" in capsys.readouterr().err


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
