import csv
import math
import os
import stat
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncal.simulators import (BLIZNYUK_SPEC, EASOM_SPEC, ExternalSimulator,
                               ProcessError, ProtocolError, SimulatorSpec,
                               SimulatorTimeout, bliznyuk, easom,
                               get_simulator, harari_steinberg, read_csv,
                               target_series)


def test_easom_at_origin():
    got = easom([0.0, 0.0], 0.0)
    assert got == pytest.approx(math.exp(-math.pi ** 2), rel=1e-14)


def test_easom_bump_aligned_with_time():
    t = 0.25
    x1 = math.pi * t
    x2 = 0.37
    got = easom([x1, x2], t)
    want = math.cos(x1) * math.cos(x2) * math.exp(-(x2 - math.pi) ** 2)
    assert got == pytest.approx(want, rel=1e-14)


def test_easom_target_series_matches_direct():
    got = target_series("easom")
    want = easom([0.8, 0.2], EASOM_SPEC.time_grid)
    assert np.array_equal(got, want)
    assert len(got) == 200


@pytest.mark.parametrize("lookup", [get_simulator, target_series])
def test_unknown_simulator_names_the_choices(lookup):
    with pytest.raises(ValueError, match=r"unknown simulator 'nope'; choose from "
                                         r"\['bliznyuk', 'easom', 'harari_steinberg'\]"):
        lookup("nope")


def test_harari_steinberg_at_origin():
    assert harari_steinberg([0.0, 0.0, 0.0], 0.0) == pytest.approx(math.cos(6.0), rel=1e-14)
    assert math.cos(6.0) == pytest.approx(0.96017, abs=1e-5)


def test_harari_steinberg_t_zero_depends_only_on_x3():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(size=3)
        assert harari_steinberg(x, 0.0) == pytest.approx(math.cos(-8 * x[2] - 6), rel=1e-14)


def test_bliznyuk_arithmetic_oracle():
    x = (7.0, 0.02, 0.01, 30.01, 0.0)
    t = 35.3
    first = 7.0 / math.sqrt(0.02 * t) * math.exp(0.0)
    dt = t - 30.01
    second = 7.0 / math.sqrt(0.02 * dt) * math.exp(-(0.0 - 0.01) ** 2 / (4 * 0.02 * dt))
    got = float(bliznyuk(x, t))
    assert got == pytest.approx(first + second, rel=1e-12)
    assert got == pytest.approx(29.85, abs=5e-3)


def test_bliznyuk_indicator_off():
    x = (7.0, 0.02, 0.01, 40.0, 0.0)  # spill time after t: second term gone
    t = 35.3
    assert float(bliznyuk(x, t)) == pytest.approx(7.0 / math.sqrt(0.02 * t), rel=1e-12)


def test_bliznyuk_indicator_guards_singularity():
    x = (7.0, 0.02, 0.01, 35.3, 0.0)  # spill exactly at t
    assert np.isfinite(bliznyuk(x, 35.3))


def test_bundled_simulators_deterministic():
    for name in ("easom", "harari_steinberg", "bliznyuk"):
        sim = get_simulator(name)
        x = np.full(sim.spec.d, 0.37)
        assert np.array_equal(sim.run(x), sim.run(x))


def test_unscale_scale_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(size=5)
        native = BLIZNYUK_SPEC.unscale(x)
        back = BLIZNYUK_SPEC.scale(native)
        assert np.allclose(back, x, atol=1e-15)
    lo = np.array([b[0] for b in BLIZNYUK_SPEC.native_bounds])
    hi = np.array([b[1] for b in BLIZNYUK_SPEC.native_bounds])
    assert np.array_equal(BLIZNYUK_SPEC.unscale(np.zeros(5)), lo)
    assert np.array_equal(BLIZNYUK_SPEC.unscale(np.ones(5)), hi)


def test_call_counting_and_peek():
    sim = get_simulator("easom")
    assert sim.calls == 0
    sim.run([0.5, 0.5])
    sim.run([0.2, 0.8])
    assert sim.calls == 2
    sim.peek([0.1, 0.1])
    assert sim.calls == 2


def test_unknown_simulator_name():
    with pytest.raises(ValueError, match=r"^unknown simulator 'rosenbrock'; choose from \["):
        get_simulator("rosenbrock")


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulatorSpec(name="bad", d=1, L=3, time_grid=[0.0, 1.0],
                      native_bounds=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        SimulatorSpec(name="bad", d=1, L=2, time_grid=[1.0, 0.5],
                      native_bounds=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        SimulatorSpec(name="bad", d=1, L=2, time_grid=[0.0, 1.0],
                      native_bounds=[(2.0, 1.0)])
    # one pair for two inputs, and an unbounded side, would unscale to nonsense
    with pytest.raises(ValueError, match=r"simulator bounds must be 2 \[low, high\] pairs"):
        SimulatorSpec(name="x", d=2, L=3, time_grid=[1, 2, 3], native_bounds=[(0.0, 1.0)])
    with pytest.raises(ValueError, match="simulator bound must be finite, got -inf"):
        SimulatorSpec(name="x", d=1, L=3, time_grid=[1, 2, 3],
                      native_bounds=[(-math.inf, 1.0)])


@pytest.mark.parametrize("overrides, message", [
    ({"d": True}, "simulator d must be an integer, got True"),
    ({"d": 2.0}, "simulator d must be an integer, got 2.0"),
    ({"native_bounds": [("0", "1")]}, "simulator bound must be a number, got '0'"),
    ({"native_bounds": [(0.0, 1.0, 2.0)]}, r"simulator bounds must be 1 \[low, high\] pairs"),
    ({"time_grid": [[1, 2, 3]]}, r"simulator time_grid must be a list of numbers, got \[\[1"),
    ({"time_grid": ["1", "2", "3"]}, "simulator time_grid must be a list of numbers"),
], ids=["d-bool", "d-float", "bound-string", "bound-triple", "grid-2d",
        "grid-strings"])
def test_spec_refuses_what_a_config_refuses(overrides, message):
    """The spec checks every field as the CLI reports it for a config."""
    fields = {"name": "x", "d": 1, "L": 3, "time_grid": [1, 2, 3],
              "native_bounds": [(0.0, 1.0)], **overrides}
    with pytest.raises(ValueError, match=message):
        SimulatorSpec(**fields)


def test_spec_time_grid_none_is_one_to_L():
    spec = SimulatorSpec(name="x", d=1, L=4, time_grid=None, native_bounds=[(0, 2)])
    assert spec.time_grid.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert spec.unscale([0.25]).tolist() == [0.5]


# -- external process adapter --------------------------------------------------

def _write_executable(path, body):
    script = f"#!{sys.executable}\n" + textwrap.dedent(body)
    path.write_text(script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def _tiny_spec(L=5):
    return SimulatorSpec(name="ext", d=2, L=L, time_grid=np.arange(1.0, L + 1.0),
                        native_bounds=[(0.0, 1.0), (0.0, 1.0)])


def test_external_constant_echo(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(5):
                fh.write(f"{i+1},7.25\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    out = sim.run([0.5, 0.5])
    assert np.array_equal(out, np.full(5, 7.25))
    assert sim.calls == 1
    assert list((tmp_path / "xchg").iterdir()) == []  # run directory removed


def test_external_wrong_row_count(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(4):
                fh.write(f"{i+1},1.0\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError, match="expected 5"):
        sim.run([0.5, 0.5])
    kept = list((tmp_path / "xchg").iterdir())  # failed run kept for diagnosis
    assert len(kept) == 1
    assert sorted(p.name for p in kept[0].iterdir()) == ["input.csv", "output.csv"]


def test_external_nonzero_exit(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        import sys
        sys.exit(3)
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProcessError, match="exited 3"):
        sim.run([0.5, 0.5])


def test_external_missing_output(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        pass
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError, match=r"cannot read .*output\.csv: .*No such file"):
        sim.run([0.5, 0.5])


def test_external_non_numeric_value(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            fh.write("1,1.0\\n2,oops\\n3,1.0\\n4,1.0\\n5,1.0\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError, match="row 3"):
        sim.run([0.5, 0.5])


@pytest.mark.parametrize("body", [
    b"t,value\n1,\xff\n",  # not UTF-8
    b"t,value\n1," + b"9" * 200_000 + b"\n",  # a field over the csv module's limit
], ids=["undecodable", "oversized-field"])
def test_external_unreadable_output_is_protocol_error(tmp_path, body):
    exe = _write_executable(tmp_path / "sim.py", f"""
        with open("output.csv", "wb") as fh:
            fh.write({body!r})
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError):
        sim.run([0.5, 0.5])


def test_external_bad_header(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        with open("output.csv", "w") as fh:
            fh.write("time,y\\n")
            for i in range(5):
                fh.write(f"{i+1},1.0\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError, match=r"output\.csv: row 1 is not numeric"):
        sim.run([0.5, 0.5])


@pytest.mark.parametrize("text", [
    "1,7.25\n2,7.25\n3,7.25\n4,7.25\n5,7.25\n",
    "T , Value\n\n1,7.25\n2,7.25\n3,7.25\n4,7.25\n5,7.25\n\n",
    "\ufefft,value\n1,7.25\n2,7.25\n3,7.25\n4,7.25\n5,7.25\n",
    "t,value\r\n1,7.25\r\n2,7.25\r\n3,7.25\r\n4,7.25\r\n5,7.25\r\n",
    "t,value\n 1 ,\t7.25\n2\t, 7.25 \n  3,7.25\t\t\n4 , 7.25\n5,7.25   \n",
    '"t","value"\n"1","7.25"\n2,"7.25"\n"3",7.25\n"4" ,"7.25"\t\n5,"7.25"\n',
], ids=["no-header", "blank-lines", "byte-order-mark", "crlf", "padded", "quoted"])
def test_external_output_is_read_like_every_csv(tmp_path, text):
    """The header is optional and case-insensitive, blank lines are skipped, a
    leading UTF-8 byte-order mark is dropped, lines may end in CRLF, and cells
    may be quoted or padded with spaces and tabs."""
    exe = _write_executable(tmp_path / "sim.py", f"""
        with open("output.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write({text!r})
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    assert np.array_equal(sim.run([0.5, 0.5]), np.full(5, 7.25))


def _cell(value, form, before, after, quote):
    return quote + before + form.format(value) + after + quote


_CELL = st.builds(
    _cell, st.floats(-1e300, 1e300),  # so that no format rounds up to infinity
    st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:.0f}", "{:+.20E}", "{:.8f}"]),
    st.sampled_from(["", " ", "\t", "  \t"]), st.sampled_from(["", " ", "\t "]),
    st.sampled_from(["", '"']))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(_CELL, min_size=3, max_size=3), max_size=12),
       end=st.sampled_from(["\n", "\r\n", "\r"]), header=st.booleans())
def test_read_csv_reads_what_float_reads(tmp_path_factory, rows, end, header):
    """Python's csv module and float, the reader's reference: the same values,
    bit for bit, whatever the number's format, padding, quotes or line ends."""
    lines = [",".join(row) for row in rows]
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text(end.join(["a,b,c"] * header + lines) + end, newline="")
    with open(path, newline="") as fh:
        want = [[float(v) for v in row] for row in list(csv.reader(fh))[header:]]
    got = read_csv(path, ["a", "b", "c"])
    assert got.shape == (len(rows), 3)
    assert got.tobytes() == np.array(want, dtype=float).reshape(-1, 3).tobytes()


def test_external_output_of_only_a_header_has_no_rows(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError, match="expected 5 output rows, got 0"):
        sim.run([0.5, 0.5])


@pytest.mark.parametrize("t3, message", [
    ("oops", "row 4 is not numeric"), ("nan", "row 4 is not finite"),
])
def test_external_output_times_must_be_finite_numbers(tmp_path, t3, message):
    exe = _write_executable(tmp_path / "sim.py", f"""
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n1,1.0\\n2,1.0\\n{t3},1.0\\n4,1.0\\n5,1.0\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    with pytest.raises(ProtocolError, match=rf"output\.csv: {message}"):
        sim.run([0.5, 0.5])


def test_external_input_holds_repr_numbers(tmp_path):
    """input.csv holds each native input as its repr: 0.1, not 0.10000000000000001."""
    log = tmp_path / "input-copy.csv"
    exe = _write_executable(tmp_path / "sim.py", f"""
        import shutil
        shutil.copy("input.csv", {str(log)!r})
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n1,0.0\\n2,0.0\\n3,0.0\\n4,0.0\\n5,0.0\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg")
    sim.run([0.1, 1 / 3])
    assert log.read_text() == f"x1,x2\n0.1,{1 / 3!r}\n"


@pytest.mark.parametrize("timeout, message", [
    (0.0, "simulator timeout must be positive, got 0.0"),
    (-1.0, "simulator timeout must be positive, got -1.0"),
    (math.nan, "simulator timeout must be finite, got nan"),
], ids=["0.0", "-1.0", "nan"])
def test_external_timeout_must_be_positive(tmp_path, timeout, message):
    with pytest.raises(ValueError, match=message):
        ExternalSimulator(_tiny_spec(), ["true"], tmp_path / "xchg", timeout=timeout)
    assert not (tmp_path / "xchg").exists()


@pytest.mark.parametrize("command, timeout, message", [
    ([], 60.0, "simulator command must not be empty"),
    ("", 60.0, "simulator command must not be empty"),
    (["true", 7], 60.0,
     r"simulator command must be a string or a list of strings, got \['true', 7\]"),
    (("true",), 60.0, "simulator command must be a string or a list of strings"),
    ("'./my sim", 60.0, "No closing quotation"),
    (["true"], "60", "simulator timeout must be a number, got '60'"),
    (["true"], math.inf, "simulator timeout must be finite, got inf"),
], ids=["empty-list", "empty-string", "not-a-string", "tuple", "open-quote",
        "timeout-string", "timeout-inf"])
def test_external_refuses_what_a_config_refuses(tmp_path, command, timeout, message):
    with pytest.raises(ValueError, match=message):
        ExternalSimulator(_tiny_spec(), command, tmp_path / "xchg", timeout=timeout)
    assert not (tmp_path / "xchg").exists()


def test_external_command_string_is_split_like_a_shell(tmp_path):
    """A quoted path with a space stays one word; the words after it are its
    arguments. The timeout is kept as a float."""
    (tmp_path / "my sims").mkdir()
    exe = _write_executable(tmp_path / "my sims" / "sim.py", """
        import sys
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(5):
                fh.write(f"{i + 1},{sys.argv[1]}\\n")
    """)
    sim = ExternalSimulator(_tiny_spec(), f"'{exe}' 2.5", tmp_path / "xchg", timeout=30)
    assert sim.command == [exe, "2.5"]
    assert sim.timeout == 30.0 and type(sim.timeout) is float
    assert sim.run([0.5, 0.5]).tolist() == [2.5] * 5


def test_external_exchange_dir_that_cannot_be_made_is_process_error(tmp_path):
    (tmp_path / "file").write_text("")
    sim = ExternalSimulator(_tiny_spec(), ["true"], tmp_path / "file" / "xchg")
    with pytest.raises(ProcessError, match="cannot make a run directory in"):
        sim.run([0.5, 0.5])


def test_external_timeout(tmp_path):
    exe = _write_executable(tmp_path / "sim.py", """
        import time
        time.sleep(30)
    """)
    sim = ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg", timeout=0.5)
    with pytest.raises(SimulatorTimeout):
        sim.run([0.5, 0.5])


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an unreaped zombie still answers kill(pid, 0)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_external_timeout_kills_process_group(tmp_path):
    sim = ExternalSimulator(_tiny_spec(), ["sh", "-c", "sleep 30 & echo $! > pid; wait"],
                            tmp_path / "xchg", timeout=0.5)
    start = time.monotonic()
    with pytest.raises(SimulatorTimeout):
        sim.run([0.5, 0.5])
    assert time.monotonic() - start < 10.0
    (run_dir,) = (tmp_path / "xchg").iterdir()
    pid = int((run_dir / "pid").read_text())
    deadline = time.monotonic() + 5.0
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)


def test_external_simulators_sharing_exchange_dir_stay_apart(tmp_path):
    # each run waits until both have started, so both inputs are written
    # before either is read
    barrier = tmp_path / "barrier"
    barrier.mkdir()
    exe = _write_executable(tmp_path / "sim.py", f"""
        import csv, os, time
        open(os.path.join({str(barrier)!r}, str(os.getpid())), "w").close()
        deadline = time.monotonic() + 10.0
        while len(os.listdir({str(barrier)!r})) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        with open("input.csv") as fh:
            x1 = float(list(csv.reader(fh))[1][0])
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(5):
                fh.write(f"{{i+1}},{{x1}}\\n")
    """)
    sims = [ExternalSimulator(_tiny_spec(), [exe], tmp_path / "xchg") for _ in range(2)]
    inputs = [0.25, 0.75]
    results = [None, None]

    def run(k):
        results[k] = sims[k].run([inputs[k], 0.5])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30.0)
        assert not th.is_alive()
    assert np.array_equal(results[0], np.full(5, 0.25))
    assert np.array_equal(results[1], np.full(5, 0.75))


def test_external_reads_native_inputs(tmp_path):
    # doubles x1 so we can verify the input row was unscaled correctly
    exe = _write_executable(tmp_path / "sim.py", """
        import csv
        with open("input.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2"]
        x1 = float(rows[1][0])
        with open("output.csv", "w") as fh:
            fh.write("t,value\\n")
            for i in range(5):
                fh.write(f"{i+1},{2.0 * x1}\\n")
    """)
    spec = SimulatorSpec(name="ext", d=2, L=5, time_grid=np.arange(1.0, 6.0),
                        native_bounds=[(10.0, 20.0), (0.0, 1.0)])
    sim = ExternalSimulator(spec, [exe], tmp_path / "xchg")
    out = sim.run([0.5, 0.5])  # native x1 = 15
    assert np.allclose(out, 30.0)
