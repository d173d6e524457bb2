"""End-to-end command-line flows, exercised in process through main()."""

import io
import re
import signal
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaramp import cli
from oaramp.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, input_text=""):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(input_text), stdout=out)
    return code, out.getvalue()


def test_construct_oa_rs_and_verify_pipe():
    code, text = run(["construct", "oa-rs", "--q", "3", "--t", "2"])
    assert code == 0
    assert text.splitlines()[0] == "OA 2 4 3"
    code, report = run(["verify"], text)
    assert code == 0
    assert report == "OA(2,4,3): VALID (9 rows, exhaustive)\n"


@pytest.mark.parametrize("argv", [
    ["construct", "oa-rs", "--q", "4", "--t", "3"],
    ["construct", "oa-rs", "--p", "2", "--j", "2", "--t", "3"],
    ["construct", "aoa-shamir", "--q", "5", "--s", "1", "--t", "3", "--k", "4"],
    ["construct", "aoa-shamir", "--q", "8", "--s", "2", "--t", "3", "--k", "5"],
    ["construct", "aoa-shamir", "--q", "9", "--s", "1", "--t", "2", "--n", "9"],
    ["construct", "aoa-dual", "--q", "3", "--s", "2", "--t", "4"],
    ["construct", "aoa-dual", "--q", "5", "--s", "1", "--t", "3"],
    ["construct", "aoa-dual", "--q", "2", "--s", "1", "--t", "3"],
])
def test_every_construct_output_verifies(argv):
    code, text = run(argv)
    assert code == 0
    code, report = run(["verify"], text)
    assert code == 0, report
    assert "VALID" in report


def test_construct_merge_pipe():
    _, oa_text = run(["construct", "oa-rs", "--q", "3", "--t", "2"])
    code, aoa_text = run(["construct", "aoa-merge", "--s", "1"], oa_text)
    assert code == 0
    assert aoa_text.splitlines()[0] == "AOA 1 2 3 3"
    code, report = run(["verify"], aoa_text)
    assert code == 0


def test_split_recovers_merged_oa_byte_identically():
    _, oa_text = run(["construct", "oa-rs", "--q", "3", "--t", "2"])
    _, aoa_text = run(["construct", "aoa-merge", "--s", "1"], oa_text)
    code, recovered = run(["split"], aoa_text)
    assert code == 0
    assert recovered == oa_text


def test_demo_example_4_3_verify_and_split():
    code, aoa_text = run(["demo", "example-4-3"])
    assert code == 0
    assert aoa_text.splitlines()[0] == "AOA 1 3 3 3"
    assert len(aoa_text.splitlines()) == 28

    code, report = run(["verify"], aoa_text)
    assert code == 0
    assert report == "AOA(1,3,3,3): VALID (27 rows, exhaustive)\n"

    code, report = run(["split"], aoa_text)
    assert code == 1
    assert "SPLIT INVALID" in report
    assert "dependency: column 4 = column 1 + column 2 over GF(3)" in report


def test_verify_reports_invalid_with_witness():
    _, text = run(["construct", "oa-rs", "--q", "2", "--t", "2"])
    lines = text.splitlines()
    head, rows = lines[0], lines[1:]
    rows[0] = "1 1 1"  # clobber a row
    code, report = run(["verify"], "\n".join([head] + rows) + "\n")
    assert code == 1
    assert report.splitlines()[0] == "OA(2,3,2): INVALID"
    assert report.splitlines()[1].startswith("witness:")


def test_bounds_output():
    code, text = run(["bounds", "bush", "--t", "4", "--v", "3"])
    assert code == 0
    assert text.splitlines()[0] == "max_k 5"
    assert text.splitlines()[1] == "case: t>=v (proven)"

    code, text = run(["bounds", "mds-max", "--t", "3", "--q", "4"])
    assert code == 0
    assert text.splitlines()[0] == "max_k 6"
    assert "proven" in text.splitlines()[1]


def test_demo_thm48_and_thm410():
    code, text = run(["demo", "thm48", "--q", "3", "--t", "3"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "AOA(1,3,3,3): VALID (27 rows, exhaustive)"
    assert lines[1] == "attempted OA columns k+t-s = 5"
    assert "bush_bound(t=3, v=3) = 4" in lines[2]
    assert "5 > 4" in lines[3]

    code, text = run(["demo", "thm410", "--q", "3", "--s", "2"])
    assert code == 0
    assert "AOA(2,4,4,3): VALID (81 rows, exhaustive)" in text
    assert "attempted OA columns k+t-s = 6" in text
    assert "6 > 5" in text


def test_ramp_deal_reconstruct_audit():
    _, aoa_text = run(["demo", "example-4-3"])
    code, bundle = run(["ramp", "deal", "--secret", "1,2", "--seed", "9"], aoa_text)
    assert code == 0
    code, again = run(["ramp", "deal", "--secret", "1,2", "--seed", "9"], aoa_text)
    assert bundle == again  # seed-deterministic

    code, secret_line = run(["ramp", "reconstruct", "--shares", bundle.strip()], aoa_text)
    assert code == 0
    assert secret_line == "secret 1,2\n"

    code, report = run(["ramp", "audit"], aoa_text)
    assert code == 0
    assert report.splitlines()[0] == "audit: PASS"


def test_ramp_reconstruct_inconsistent_exits_1():
    _, aoa_text = run(["construct", "aoa-shamir", "--q", "5", "--s", "1",
                       "--t", "2", "--k", "3"])
    code, report = run(["ramp", "reconstruct", "--shares", "1:0 2:0 3:1"], aoa_text)
    assert code == 1
    assert "inconsistent" in report


def test_byte_identical_output_across_runs():
    for argv in (["construct", "aoa-shamir", "--q", "5", "--s", "2", "--t", "4", "--k", "5"],
                 ["demo", "thm48", "--q", "5", "--t", "3"],
                 ["bounds", "mds-max", "--t", "6", "--q", "32"]):
        assert run(argv) == run(argv)


def test_parameter_errors_exit_2():
    assert run(["construct", "oa-rs", "--q", "6", "--t", "2"])[0] == 2
    assert run(["construct", "oa-rs", "--q", "5", "--t", "9"])[0] == 2
    assert run(["construct", "oa-rs", "--t", "2"])[0] == 2       # no field given
    assert run(["demo", "thm48", "--q", "4", "--t", "3"])[0] == 2
    assert run(["verify"], "garbage\n")[0] == 2
    assert run(["split"], "OA 2 3 2\n0 0 0\n")[0] == 2           # split wants an AOA
    assert run(["ramp", "deal", "--secret", "0", "--seed", "1"], "OA 2 3 2\n0 0 0\n")[0] == 2
    assert run(["bounds", "bush", "--t", "1", "--v", "3"])[0] == 2


def test_usage_errors_exit_2():
    assert run(["frobnicate"])[0] == 2
    assert run(["construct", "no-such-verb"])[0] == 2
    assert run(["construct", "oa-rs", "--q", "x", "--t", "2"])[0] == 2


def test_max_cells_is_downward_only():
    code, _ = run(["--max-cells", "10", "construct", "oa-rs", "--q", "5", "--t", "3"])
    assert code == 2  # cap hit -> parameter error
    code, _ = run(["--max-cells", "999999999999", "construct", "oa-rs", "--q", "3", "--t", "2"])
    assert code == 0  # clamped to the default, not raised


def test_max_cells_lowers_the_audit_cap(capsys):
    _, aoa_text = run(["construct", "aoa-shamir", "--q", "8", "--s", "2", "--t", "3",
                       "--k", "4"])
    code, report = run(["ramp", "audit"], aoa_text)
    assert code == 0 and report.splitlines()[0] == "audit: PASS"
    capsys.readouterr()
    code, report = run(["--max-cells", "5000", "ramp", "audit"], aoa_text)
    assert code == 2 and report == ""
    assert "audit needs ~11776 rule visits, cap is 5000" in capsys.readouterr().err


HUGE = 10**20
HUGE_ARRAYS = [
    f"OA 1 1 {HUGE}\n{HUGE - 1}\n",
    f"AOA 0 1 1 {HUGE}\n{HUGE - 1} {HUGE - 1}\n",
]


@pytest.mark.parametrize("text", HUGE_ARRAYS)
@pytest.mark.parametrize("argv", [["verify"], ["split"], ["ramp", "audit"]])
def test_huge_alphabet_exits_2_without_traceback(argv, text, capsys):
    code, out = run(argv, text)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def run_process(argv):
    return subprocess.run([sys.executable, "-m", "oaramp", *argv],
                          env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                          timeout=10)


@pytest.mark.parametrize("field", [["--q", "1000000000000000003"],
                                   ["--p", "1000000000000000003"]])
def test_huge_field_order_exits_2_before_any_primality_test(field):
    # trial division up to sqrt(10^18) would run for hours; the order cap comes first
    proc = run_process(["construct", "oa-rs", *field, "--t", "2"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exceeds cap 65536" in proc.stderr


@pytest.mark.parametrize("argv, cells", [
    (["construct", "oa-rs", "--q", "4096", "--t", "2"], 4096**2 * 4097),
    (["construct", "aoa-shamir", "--q", "1024", "--s", "1", "--t", "3", "--k", "1024"],
     1024**3 * 1026),
    (["--max-cells", "1000", "construct", "oa-rs", "--q", "64", "--t", "3"], 64**3 * 65),
])
def test_construction_caps_come_before_the_independence_checks(argv, cells):
    # without the caps first, these checked 8.4M, 178M and 43,680 column subsets
    proc = run_process(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and f"needs {cells} cells, cap is" in proc.stderr


@pytest.mark.parametrize("argv, shape, cells", [
    (["construct", "oa-rs", "--q", "65536", "--t", "65536"],
     "65536x65537 matrix over GF(65536)", "65536^65536*65537"),
    (["construct", "aoa-shamir", "--q", "65536", "--s", "1", "--t", "60000", "--k", "65536"],
     "60000x125535 matrix over GF(65536)", "65536^60000*125535"),
    (["construct", "aoa-dual", "--q", "65536", "--s", "1", "--t", "65537"],
     "65536x65537 matrix over GF(65536)", "65536^65536*65537"),
    (["demo", "thm48", "--q", "59049", "--t", "50000"],
     "50000x109048 matrix over GF(59049)", "59049^50000*109048"),
    (["demo", "thm410", "--q", "65536", "--s", "1"],
     "65536x65537 matrix over GF(65536)", "65536^65536*65537"),
    (["construct", "oa-rs", "--q", "4096", "--t", "4096"],
     "4096x4097 matrix over GF(4096)", "4096^4096*4097"),
    (["demo", "thm410", "--q", "4096", "--s", "1"],
     "4096x4097 matrix over GF(4096)", "4096^4096*4097"),
    (["construct", "oa-rs", "--q", "1024", "--t", "1024"],
     "1024x1025 matrix over GF(1024)", "1024^1024*1025"),
])
def test_the_cap_comes_before_the_generator_is_built(argv, shape, cells):
    # each of the first five built its t x (q+1) generator in Python for minutes,
    # and a count of thousands of digits could not be printed as an integer
    proc = run_process(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: row space of {shape} needs {cells} cells, cap is 10000000\n"


def test_parameter_errors_still_win_over_the_cap(capsys):
    # each is over the cell cap too, but its parameters are reported first
    for argv, message in [
        (["construct", "oa-rs", "--q", "5", "--t", "9"], "need 2 <= t <= q, got t=9, q=5"),
        (["construct", "aoa-shamir", "--q", "64", "--s", "1", "--t", "9", "--k", "65"],
         "need t <= k <= q, got t=9, k=65, q=64"),
        (["construct", "aoa-dual", "--q", "4096", "--s", "1", "--t", "2"],
         "need 2 <= t <= q, got t=1, q=4096"),
    ]:
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_mds_max_of_a_huge_order_answers_or_refuses_at_once():
    # trial division up to sqrt(q) would run for hours on either order
    proc = run_process(["bounds", "mds-max", "--t", "3", "--q", "1000000000000000003"])
    assert proc.returncode == 0
    assert proc.stdout == "max_k 1000000000000000004\ncase: 2<=t<q (proven)\n"
    proc = run_process(["bounds", "mds-max", "--t", "3", "--q", str(2**127 - 1)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot decide whether")


def test_one_parser_serves_every_command():
    _, oa_text = run(["construct", "oa-rs", "--q", "3", "--t", "2"])
    _, aoa_text = run(["demo", "example-4-3"])
    calls = [
        (["construct", "oa-rs", "--q", "4", "--t", "2"], ""),
        (["verify"], oa_text),
        (["construct", "no-such-verb"], ""),  # usage error
        (["--max-cells", "5000", "construct", "aoa-merge", "--s", "1"], oa_text),
        (["construct", "aoa-shamir", "--q", "5", "--s", "1", "--t", "2", "--n", "4"], ""),
        (["ramp", "deal", "--secret", "1,2", "--seed", "9"], aoa_text),
        (["bounds", "bush", "--t", "4"], ""),  # usage error: --v missing
        (["split"], aoa_text),
        (["--max-cells", "10", "ramp", "audit"], aoa_text),
        (["bounds", "mds-max", "--t", "3", "--q", "4"], ""),
    ]

    def run_all(fresh_parser):
        results = []
        for argv, text in calls:
            if fresh_parser:
                cli._build_parser.cache_clear()
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run(argv, text)
            results.append((code, out, err.getvalue()))
        return results

    fresh = run_all(fresh_parser=True)
    cli._build_parser.cache_clear()
    assert run_all(fresh_parser=False) == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 2, 1, 2, 0]


FLAG_VALUES = [-1, 0, 1, 2, 3, 4, 5, 9, 64, 4096, 65536, 65537, 10**18 + 3, 2**127 - 1]
FLAGGED_COMMANDS = [
    (["construct", "oa-rs"], ["--q", "--t"]),
    (["construct", "oa-rs"], ["--p", "--j", "--t"]),
    (["construct", "aoa-shamir"], ["--q", "--s", "--t", "--k"]),
    (["construct", "aoa-dual"], ["--q", "--s", "--t"]),
    (["demo", "thm48"], ["--q", "--t"]),
    (["demo", "thm410"], ["--q", "--s"]),
    (["bounds", "bush"], ["--t", "--v"]),
    (["bounds", "mds-max"], ["--t", "--q"]),
]
RUN_SECONDS = 5  # the slowest run within the default caps takes about 1 s


@st.composite
def flagged_commands(draw):
    words, flags = draw(st.sampled_from(FLAGGED_COMMANDS))
    argv = list(words)
    for flag in flags:
        argv += [flag, str(draw(st.sampled_from(FLAG_VALUES)))]
    if draw(st.booleans()):
        argv = ["--max-cells", str(draw(st.sampled_from(FLAG_VALUES)))] + argv
    return argv


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun(f"a run took more than {RUN_SECONDS} s")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flagged_commands())
def test_numeric_flags_exit_0_1_or_2_at_once(argv):
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            code, _ = run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert re.match(r"(error: |usage: )", err.getvalue())
