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

from oaramp import caps, cli, designs, gf
from oaramp.cli import main
from test_text_differential import DEFECTS, drawing, with_defect

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


def test_input_errors_exit_2_with_their_message(capsys):
    _, aoa_text = run(["demo", "example-4-3"])
    for argv, text, message in [
        (["ramp", "deal", "--secret", "1,x"], aoa_text,
         "malformed secret '1,x', expected comma-separated integers"),
        (["verify"], "", "expected an array on standard input"),
        (["split"], " \n\n", "expected an array on standard input"),
        (["construct", "aoa-merge", "--s", "1"], aoa_text,
         "aoa-merge expects an OA on standard input"),
        (["verify"], "AOA 1 3 3\n0 0 0 0,0\n", "malformed AOA header: 'AOA 1 3 3'"),
    ]:
        assert run(argv, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_entry_point_exits_with_the_status_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oaramp", "bounds", "bush", "--t", "2", "--v", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.entry_point()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "max_k 4\ncase: t=2 (proven)\n"


def test_split_failure_with_no_linear_relation_prints_no_dependency():
    """Swapping symbols 2 and 3 of plain column 2 keeps the dual AOA an AOA,
    but no linear relation over GF(4) explains its split's failing subset."""
    _, text = run(["construct", "aoa-dual", "--q", "4", "--s", "1", "--t", "4"])
    head, *rows = text.splitlines()
    swapped = []
    for row in rows:
        symbols = row.split(" ")
        symbols[1] = {"2": "3", "3": "2"}.get(symbols[1], symbols[1])
        swapped.append(" ".join(symbols))
    text = "\n".join([head, *swapped]) + "\n"
    assert run(["verify"], text) == (0, "AOA(1,4,4,4): VALID (256 rows, exhaustive)\n")
    assert run(["split"], text) == (1, (
        "SPLIT INVALID: expanding AOA(1,4,4,4) is not an OA(4,7,4)\n"
        "witness: columns 2,3,4,6 contain tuple (0, 0, 0, 0) 4 times (expected once)\n"))


def test_split_failure_over_a_non_prime_power_alphabet_prints_no_dependency():
    """Rows (a, b | b, a) over 6 symbols: an AOA(0,2,2,6), whose split repeats
    (a, a) on columns 1 and 4, with no field to state a relation over."""
    rows = [f"{a} {b} {b},{a}" for a in range(6) for b in range(6)]
    text = "\n".join(["AOA 0 2 2 6", *rows]) + "\n"
    assert run(["verify"], text) == (0, "AOA(0,2,2,6): VALID (36 rows, exhaustive)\n")
    assert run(["split"], text) == (1, (
        "SPLIT INVALID: expanding AOA(0,2,2,6) is not an OA(2,4,6)\n"
        "witness: columns 1,4 contain tuple (0, 0) 6 times (expected once)\n"))


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


def run_process(argv, input_text=""):
    return subprocess.run([sys.executable, "-m", "oaramp", *argv], input=input_text,
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=10)


BIG = 99999999999999999999  # 20 digits


@pytest.mark.parametrize("argv, text, err", [
    (["verify"], f"OA 1000000 1000000 {BIG}\n", f"{BIG}^1000000*1000000"),
    (["verify"], f"AOA 0 200000 200000 {BIG}\n", f"{BIG}^200000*200001"),
    (["split"], f"AOA 0 200000 200000 {BIG}\n", f"{BIG}^200000*200001"),
    (["ramp", "audit"], f"AOA 0 200000 200000 {BIG}\n", f"{BIG}^200000*200001"),
    (["verify"], "OA 1000000000 1000000000 2\n", "2^1000000000*1000000000"),
    (["verify"], "OA 500000 1000000 2\n", "2^500000*1000000"),
    (["verify"], f"OA 1 2 {BIG}\n", f"{BIG}^1*2"),
    # 2^10 * 9765 cells fit; the C(9765, 10) subsets, 34 digits, are written in full
    (["verify"], "OA 10 9765 2\n", "error: verification needs "
     "2162506576900359690002085914959128 column subsets, cap is 100000\n"),
])
def test_a_header_alone_meets_the_cell_cap_at_once(argv, text, err):
    # a subprocess, since an alarm cannot interrupt one long bigint operation:
    # the first six ran for 4.5 s to over 30 s, computing v^t, C(k, t) or
    # sort keys for every column of an empty body, or printing a count of 4300+
    # digits; any cell count of 20 digits or more is printed as its formula
    proc = run_process(argv, text)
    assert proc.returncode == 2 and proc.stdout == ""
    if not err.startswith("error: "):  # a cell count, for the cell cap's message
        err = f"error: verification needs {err} cells, cap is 10000000\n"
    assert proc.stderr == err


@pytest.mark.parametrize("field", [["--q", "1000000000000000003"],
                                   ["--p", "1000000000000000003"]])
def test_huge_field_order_exits_2_before_any_primality_test(field):
    # trial division up to sqrt(10^18) would run for hours; the order cap comes first
    proc = run_process(["construct", "oa-rs", *field, "--t", "2"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "exceeds cap 65536" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["demo", "thm48", "--q", str(2**89 - 1), "--t", "3"],
    ["demo", "thm48", "--q", str(10**18 + 3), "--t", "3"],
    ["demo", "thm48", "--q", str(10**30), "--t", "3"],
    ["demo", "thm410", "--q", str(2**89 - 1), "--s", "1"],
    ["demo", "thm410", "--q", str(10**18 + 3), "--s", "1"],
])
def test_the_demos_refuse_a_huge_field_order_before_any_primality_test(argv, monkeypatch,
                                                                       capsys):
    # 2^89 - 1 was "cannot decide whether ... is prime", and 10^18 + 3 spent
    # about 14 ms in Miller-Rabin before the cap
    def factor(q):
        raise AssertionError(f"{q} was factored")
    monkeypatch.setattr(designs, "factor_prime_power", factor)
    monkeypatch.setattr(gf, "factor_prime_power", factor)
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == f"error: field order {argv[3]} exceeds cap 65536\n"


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


def run_briefly(argv, input_text=""):
    """Run one command under a RUN_SECONDS alarm: its exit code and stderr."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            code, _ = run(argv, input_text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def run_counting_fields(argv):
    """``run_briefly``, and the orders of the fields it tabulated."""
    built = []
    tabulate = gf.GF._tabulate

    def counted(field):
        built.append(field.q)
        tabulate(field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf.GF, "_tabulate", counted)
        code, err = run_briefly(argv)
    return code, err, built


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flagged_commands())
def test_numeric_flags_exit_0_1_or_2_at_once(argv):
    code, err, built = run_counting_fields(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert re.match(r"(error: |usage: )", err)
    if code == 2 and "cap is" in err:
        assert built == [], "a cap refusal came after a field was built"


@pytest.mark.parametrize("argv,message", [
    (["--max-cells", "1000", "construct", "aoa-shamir", "--q", "65536", "--s", "1",
      "--t", "2", "--k", "8"],
     "row space of 2x9 matrix over GF(65536) needs 38654705664 cells, cap is 1000"),
    (["construct", "oa-rs", "--q", "4096", "--t", "4096"],
     "row space of 4096x4097 matrix over GF(4096) needs 4096^4096*4097 cells, "
     "cap is 10000000"),
    # the basis fits under the cap, the 3x5 generator of the AOA does not
    (["--max-cells", "100", "construct", "aoa-dual", "--q", "3", "--s", "1", "--t", "3"],
     "row space of 3x5 matrix over GF(3) needs 135 cells, cap is 100"),
    (["--max-cells", "5000", "demo", "thm410", "--q", "4", "--s", "1"],
     "row space of 5x9 matrix over GF(4) needs 9216 cells, cap is 5000"),
])
def test_a_cap_refusal_builds_no_field(argv, message):
    assert run_counting_fields(argv) == (2, f"error: {message}\n", [])


def _source_texts():
    """Canonical dumps the stdin fuzz draws rows from: an OA, and AOAs with
    augmented fields of one and two digits."""
    texts = []
    for argv in (["construct", "oa-rs", "--q", "3", "--t", "2"],
                 ["construct", "aoa-shamir", "--q", "5", "--s", "1", "--t", "2", "--n", "4"],
                 ["demo", "example-4-3"]):
        texts.append(run(argv)[1])
    return texts


SOURCE_TEXTS = _source_texts()
HEADER_VALUES = [0, 1, 2, 3, 4, 5, 9, 2**62]


@st.composite
def stdin_arrays(draw):
    """A header, kept from the source or drawn at random, over the rows of a
    canonical dump, shuffled and maybe cut short, with one defect of the text
    differential's."""
    source = draw(st.sampled_from(SOURCE_TEXTS)).splitlines()
    rows = draw(st.permutations(source[1:]))
    rows = rows[:draw(st.one_of(st.just(len(rows)), st.integers(1, len(rows))))]
    head = source[0]
    if draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["OA", "AOA"]))
        numbers = draw(st.lists(st.sampled_from(HEADER_VALUES), min_size=3 + (kind == "AOA"),
                                max_size=3 + (kind == "AOA")))
        head = " ".join([kind, *map(str, numbers)])
    text = "\n".join([head, *rows]) + "\n"
    return with_defect(text, draw(st.sampled_from(DEFECTS)), drawing(draw(st.data())))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stdin_arrays())
def test_stdin_arrays_exit_0_1_or_2_at_once(text):
    for argv in (["verify"], ["split"], ["ramp", "audit"]):
        code, err = run_briefly(argv, text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert re.match(r"error: ", err)


@pytest.mark.parametrize("text,message", [
    (f"OA 1 {2**62} 2\n0 1\n", f"row (0, 1) has length 2, expected {2**62}"),
    (f"AOA 0 {2**62} {2**62} 2\n0 1\n",
     f"row '0 1' does not have {2**62} symbols plus an augmented field"),
    (f"OA 1 {2**62} 2\n" + "0 1\n" * 10**4, f"row (0, 1) has length 2, expected {2**62}"),
])
def test_huge_header_widths_fail_at_once_with_the_line_loop_message(text, message):
    """The whole-array pass builds a header's separator pattern only when a
    chunk has that many separators, so these go to the line loop, and no
    grid is allocated for rows of the wrong width."""
    assert run_briefly(["verify"], text) == (2, f"error: {message}\n")


class Endless(io.TextIOBase):
    """A stdin that never ends: ``head``, then ``line`` over and over."""

    def __init__(self, head, line):
        self.pending, self.block = head, line * 2**12

    def read(self, n=-1):
        if n is None or n < 0:  # the whole of an endless text: never returns
            while True:
                pass
        out = self.pending
        while len(out) < n:
            out += self.block
        self.pending = out[n:]
        return out[:n]


CELLS_PAST = "error: array text holds more than {0} cells, cap is {0}\n"
CHARS_PAST = ("error: array text holds more than {} characters, "
              "cap is 20 per cell of the cell cap {}\n")


@pytest.mark.parametrize("argv, stdin, err", [
    (["verify"], Endless("OA 2 3 2\n", "0 1 1\n"), CELLS_PAST.format(10**7)),
    (["ramp", "audit"], Endless("AOA 1 2 2 2\n", "0 1 1\n"), CELLS_PAST.format(10**7)),
    (["--max-cells", "1000", "verify"], Endless("OA 2 3 2\n", "0 "), CELLS_PAST.format(1000)),
    (["--max-cells", "1000", "split"], Endless("AOA 1 2 2 2\n", "\n"),
     CHARS_PAST.format(20000, 1000)),
    (["--max-cells", "1000", "verify"], Endless("OA 2 3 2", " "), CHARS_PAST.format(20000, 1000)),
    (["split"], Endless("AOA 1 3 3 1000\n", "0 1 x\n"),
     "error: verification needs 4000000000 cells, cap is 10000000\n"),
    # a header past the cap is refused before a body long enough to count
    (["--max-cells", "100", "verify"], io.StringIO("OA 9 9 9\n" + "0 1 1\n" * 33 + "0 1 x\n"),
     "error: verification needs 3486784401 cells, cap is 100\n"),
    # bodies past the cap in both layouts; at the cap, the first is a row-count witness
    (["--max-cells", "100", "verify"], io.StringIO("OA 2 3 2\n" + "0 1 1\n" * 34),
     CELLS_PAST.format(100)),
    (["--max-cells", "100", "verify"], io.StringIO("OA 2 3 2\n" + "0 1  1\n" * 34),
     CELLS_PAST.format(100)),
    (["--max-cells", "102", "verify"], io.StringIO("OA 2 3 2\n" + "0 1 1\n" * 34), ""),
    # rows split from the header by "\r": no header alone to check first
    (["--max-cells", "5", "verify"], io.StringIO("OA 1 1 2\r0\r1\n" + "0\n1\n" * 3),
     CELLS_PAST.format(5)),
    # an error in the first piece does not end the read: the cap refuses a later piece
    (["--max-cells", "5000", "verify"], Endless("OA 2 3 2\n0 1 x\n", " "),
     CHARS_PAST.format(100000, 5000)),
    (["--max-cells", "50000", "verify"], Endless("XA 2 3 2\n", "0 1 1\n"),
     CELLS_PAST.format(50000)),
    (["verify"], io.StringIO(" \t\n" * 50000),
     "error: expected an array on standard input\n"),
], ids=["endless-rows", "endless-scheme", "endless-line", "endless-blank-lines",
        "endless-spaces", "endless-past-cap-header", "past-cap-header", "past-cap",
        "past-cap-line-loop", "at-cap", "rows-on-the-header-line", "bad-token-then-spaces",
        "unknown-header-then-rows", "three-pieces-of-whitespace"])
def test_a_long_or_endless_stdin_exits_2_at_the_cap(argv, stdin, err):
    """The body is read in pieces and refused once it holds more cells than
    the cap, or more than 20 characters per cell of the cap."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    out, got = io.StringIO(), io.StringIO()
    try:
        with redirect_stderr(got):
            code = main(argv, stdin=stdin, stdout=out)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if err:
        assert (code, out.getvalue(), got.getvalue()) == (2, "", err)
    else:
        assert (code, got.getvalue()) == (1, "")
        assert out.getvalue().endswith("witness: expected 4 rows, found 34\n")


@pytest.mark.parametrize("cap", [1000, 5000])  # one piece of stdin, and two
def test_a_body_of_20_characters_per_cell_of_the_cap_is_read_and_one_more_is_refused(cap):
    """The body after the header line is counted in characters: an OA(2,3,2)
    padded with spaces to exactly ``TEXT_CHARS * cap`` of them verifies, and
    one more space is refused with the characters message."""
    rows = "0 0 0\n0 1 1\n1 0 1\n1 1 0\n"
    body = rows + " " * (caps.TEXT_CHARS * cap - len(rows))
    argv = ["--max-cells", str(cap), "verify"]
    assert run(argv, "OA 2 3 2\n" + body) == (0, "OA(2,3,2): VALID (4 rows, exhaustive)\n")
    assert run_briefly(argv, "OA 2 3 2\n" + body + " ") == (
        2, CHARS_PAST.format(caps.TEXT_CHARS * cap, cap))


class CountingReads(io.StringIO):
    """A stdin that counts its ``read`` calls."""

    reads = 0

    def read(self, n=-1):
        self.reads += 1
        return super().read(n)


def test_a_header_past_the_cap_is_refused_after_one_read():
    stdin = CountingReads("OA 9 9 9\n" + "0 1 1\n" * 20000)  # three pieces
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["verify"], stdin=stdin, stdout=io.StringIO())
    assert (code, err.getvalue(), stdin.reads) == (
        2, "error: verification needs 3486784401 cells, cap is 10000000\n", 1)


def test_a_body_of_several_pieces_under_the_cap_is_read_whole():
    text = "OA 2 3 2\n" + "0 1 1\n" * 20000  # 120,009 characters, two pieces
    assert run(["verify"], text) == (1, "OA(2,3,2): INVALID\n"
                                        "witness: expected 4 rows, found 20000\n")


# A child that runs the CLI and writes its own peak RSS, in KiB, last on
# stderr.  Not its ru_maxrss: Linux carries the forking process's peak over
# exec into that, which read 102 MB here under the whole suite.
CHILD = ("import sys\n"
         "from oaramp import cli\n"
         "code = cli.main(sys.argv[1:])\n"
         "with open('/proc/self/status') as status:\n"
         "    print(next(ln.split()[1] for ln in status if ln.startswith('VmHWM:')),\n"
         "          file=sys.stderr)\n"
         "sys.exit(code)\n")
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def test_a_12_mb_body_under_the_cap_keeps_its_row_count_witness():
    body = "OA 2 3 2\n" + "0 1 1\n" * 2 * 10**6  # 6 * 10^6 cells
    proc = subprocess.run([sys.executable, "-c", CHILD, "verify"], input=body, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == "OA(2,3,2): INVALID\nwitness: expected 4 rows, found 2000000\n"
    assert re.fullmatch(r"\d+\n", proc.stderr)


def test_wide_symbols_cost_no_more_memory_than_narrow_ones():
    """The same 10^6 rows, spelled with 1-digit and with 18-digit symbols
    (6 MB and 57 MB of text), peak alike: stdin is parsed a piece at a time,
    not held whole.  Held whole and joined, the wide body peaked 50 MiB above
    the narrow one."""
    peaks = []
    for row in (b"0 1 1\n", b"000000000000000000 000000000000000001 000000000000000001\n"):
        proc = subprocess.run([sys.executable, "-c", CHILD, "verify"],
                              input=b"OA 2 3 2\n" + row * 10**6, env=CHILD_ENV,
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (
            1, b"OA(2,3,2): INVALID\nwitness: expected 4 rows, found 1000000\n")
        peaks.append(int(proc.stderr))
    narrow, wide = peaks
    assert wide <= 1.1 * narrow + 8 * 1024


def test_lone_carriage_returns_cost_no_more_memory_than_newlines():
    """The same 200,000 rows, each ended by a "\\n" and by a lone "\\r", peak
    alike: a body with no "\\n" is cut at its "\\r"s, a chunk at a time.  Cut
    only at "\\n", the "\\r" body was read as one chunk of Python ints and
    peaked 1.9 times as high."""
    peaks = []
    for end in (b"\n", b"\r"):
        proc = subprocess.run([sys.executable, "-c", CHILD, "verify"],
                              input=b"OA 2 3 2" + end + (b"0 1 1" + end) * 200000,
                              env=CHILD_ENV, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (
            1, b"OA(2,3,2): INVALID\nwitness: expected 4 rows, found 200000\n")
        peaks.append(int(proc.stderr))
    newline, carriage_return = peaks
    assert carriage_return <= 1.25 * newline


def test_an_endless_piped_stdin_exits_2_in_bounded_memory():
    """Read whole, the 39 MB fed here would peak near 1 GB before the verdict;
    the cap stops the read at 2 * 10^7 characters."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD, "verify"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    block = ("0 1 1\n" * 2**16).encode()
    try:
        proc.stdin.write(b"OA 2 3 2\n")
        for _ in range(100):  # 1.97 * 10^7 cells, twice the cap
            proc.stdin.write(block)
    except BrokenPipeError:
        pass
    out, err = proc.communicate(timeout=120)
    message, peak = err.decode().rsplit("error: ", 1)[-1].splitlines()
    assert (proc.returncode, out) == (2, b"")
    assert "error: " + message + "\n" == CELLS_PAST.format(10**7)
    assert int(peak) < 100 * 1024
