import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import GridReport, InternalInvariantError, Witness, WitnessTrace
from sumprod.cli import run


def run_cap(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witness_not_member(capsys):
    code, out, _ = run_cap(capsys, ["witness", "1", "1", "1", "1", "2", "7"])
    assert code == 1
    assert "not-member" in out


def test_check_identity(capsys):
    code, out, _ = run_cap(
        capsys, ["check", "3", "5", "2", "2", "19", "19", "3", "5", "2", "2"]
    )
    assert code == 0 and "valid" in out


def test_check_rejects(capsys):
    code, out, _ = run_cap(
        capsys, ["check", "3", "5", "2", "2", "19", "19", "3", "6", "2", "2"]
    )
    assert code == 1 and "invalid" in out


def test_witness_round_trip(capsys):
    code, out, _ = run_cap(
        capsys, ["--json", "witness", "2", "4", "6", "8", "10", "76"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "witness" and obj["delta"] == 2
    w = obj["witness"]
    code, _, _ = run_cap(
        capsys,
        [
            "check", "2", "4", "6", "8", "10", "76",
            str(w["a_prime"]), str(w["b_prime"]), str(w["c_prime"]), str(w["d_prime"]),
        ],
    )
    assert code == 0


def test_witness_human_round_trip(capsys):
    code, out, _ = run_cap(capsys, ["witness", "3", "5", "2", "2", "19", "152"])
    assert code == 0
    fields = dict(
        tok.split("=") for tok in out.splitlines()[1].split() if "=" in tok
    )
    code, _, _ = run_cap(
        capsys,
        ["check", "3", "5", "2", "2", "19", "152",
         fields["a'"], fields["b'"], fields["c'"], fields["d'"]],
    )
    assert code == 0


def test_witness_trace_fields(capsys):
    code, out, _ = run_cap(
        capsys, ["--json", "witness", "3", "5", "2", "2", "19", "152", "--trace"]
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj["trace"]) == [
        "instance", "m_prime", "k", "x", "y", "z", "x_prime", "y_prime",
        "q_x", "q_y", "a0", "c0", "u", "a1", "c1", "v",
        "a_prime", "c_prime", "ell", "r", "s",
    ]
    assert list(obj["trace"]) == [f.name for f in dataclasses.fields(WitnessTrace)]


def test_witness_human_trace_fields(capsys):
    code, out, _ = run_cap(
        capsys, ["witness", "3", "5", "2", "2", "19", "152", "--trace"]
    )
    assert code == 0
    names = [line.split("=", 1)[0] for line in out.splitlines()[2:]]
    assert names == [f.name for f in dataclasses.fields(WitnessTrace)]


def test_witness_builds_a_trace_only_under_trace(capsys, monkeypatch):
    def no_trace(*args):
        raise AssertionError("WitnessTrace built")

    argv = ["witness", "3", "5", "2", "2", "19", "152"]
    monkeypatch.setattr("sumprod.witness.WitnessTrace", no_trace)
    code, out, err = run_cap(capsys, argv)
    assert (code, out, err) == (0, "delta=1\na'=3 b'=24 c'=2 d'=40\n", "")
    # the patch does bite: --trace builds one
    code, out, err = run_cap(capsys, argv + ["--trace"])
    assert code == 3 and "WitnessTrace built" in err
    monkeypatch.undo()
    code, out, _ = run_cap(capsys, argv + ["--trace"])
    assert code == 0
    names = [line.split("=", 1)[0] for line in out.splitlines()[2:]]
    assert names == [f.name for f in dataclasses.fields(WitnessTrace)]


def test_json_flag_position(capsys):
    code, first, _ = run_cap(capsys, ["--json", "demo", "--bound", "100"])
    assert code == 0
    code, second, _ = run_cap(capsys, ["demo", "--bound", "100", "--json"])
    assert code == 0
    assert first == second
    obj = json.loads(first)
    assert obj["in_class"] is True and obj["in_product"] is False


def test_json_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cap(
            capsys, ["--json", "witness", "3", "5", "2", "2", "19", "190", "--trace"]
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_threshold(capsys):
    code, out, _ = run_cap(capsys, ["--json", "threshold", "1", "1", "1", "1", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"N0": 864, "a_hi": 9, "c_hi": 45, "instance": [1, 1, 1, 1, 2]}


@pytest.mark.parametrize("verb", ["threshold", "progression", "exceptions"])
def test_template_verbs_refuse_a_common_factor(capsys, verb):
    # (2, 2, 2, 2) mod 2: its one-sided sums are 4 times those of
    # (1, 1, 1, 1) mod 1, so the coprime threshold N0 = 2128 would be false
    extra = {"threshold": [], "progression": ["10"], "exceptions": ["--cap", "10"]}
    code, out, err = run_cap(capsys, [verb, "2", "2", "2", "2", "2", *extra[verb]])
    assert code == 2 and out == ""
    assert err == "error: gcd(a, b, c, d, m) must be 1\n"


def test_progression_statuses(capsys):
    code, out, _ = run_cap(
        capsys, ["--json", "progression", "1", "1", "1", "1", "2", "866"]
    )
    assert code == 0 and json.loads(out)["status"] == "witness"
    code, out, _ = run_cap(
        capsys, ["--json", "progression", "1", "1", "1", "1", "2", "3"]
    )
    assert code == 1 and json.loads(out)["status"] == "not-member"


def test_subgroup(capsys):
    code, out, _ = run_cap(capsys, ["--json", "subgroup", "2", "4", "6", "8", "10", "2"])
    assert code == 0
    obj = json.loads(out)
    w, x, y, z = obj["w"], obj["x"], obj["y"], obj["z"]
    assert 2 * w + 4 * x + 6 * y + 8 * z + 10 * (w * x + y * z) == 2
    code, _, _ = run_cap(capsys, ["subgroup", "2", "4", "6", "8", "10", "3"])
    assert code == 1


def test_iterate(capsys):
    code, out, _ = run_cap(capsys, ["--json", "iterate", "7", "21", "1:2", "2:3,4"])
    assert code == 0
    assert json.loads(out)["values"] == [[9], [3, 4]]
    code, _, _ = run_cap(capsys, ["iterate", "5", "9", "3:1,1,1", "3:2,1,2"])
    assert code == 1
    code, out, _ = run_cap(capsys, ["--json", "iterate", "5", "9", "3:1,1,1", "3:2,1,2"])
    assert json.loads(out)["status"] == "unsupported-shape"


def test_iterate_sorts_terms(capsys):
    # terms may arrive in any order; they are solved sorted by length
    code, out, _ = run_cap(capsys, ["--json", "iterate", "7", "21", "2:3,4", "1:2"])
    assert code == 0
    assert json.loads(out)["values"] == [[9], [3, 4]]


@pytest.mark.parametrize(
    "term, bad",
    [
        ("1:1_0", "'1_0'"),
        ("0:", "''"),
        ("1_0:1", "'1_0'"),
        ("1:0x1", "'0x1'"),
        ("1:\u00b2", "'\u00b2'"),  # a digit to str.isdigit, not to int()
    ],
)
def test_iterate_refuses_non_decimal_terms(capsys, term, bad):
    # the same rule as every other operand, in one stderr line
    start = time.perf_counter()
    code, out, err = run_cap(capsys, ["iterate", "3", "5", term, "1:1"])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: term {term!r}: not a decimal integer: {bad}\n"


def test_iterate_refuses_a_term_with_no_colon(capsys):
    code, out, err = run_cap(capsys, ["iterate", "3", "5", "1", "1:1"])
    assert code == 2 and out == ""
    assert err == "error: term must look like k:c1,c2,...  got '1'\n"

def test_exceptions_sorted(capsys):
    code, out, _ = run_cap(
        capsys, ["--json", "exceptions", "1", "1", "1", "1", "3", "--cap", "200"]
    )
    assert code == 0
    exc = json.loads(out)["exceptions"]
    assert exc == sorted(exc)


@pytest.mark.parametrize("m", ["0", "-2"])
def test_exceptions_refuses_nonpositive_modulus(capsys, m):
    code, out, err = run_cap(capsys, ["exceptions", "1", "1", "1", "1", m, "--cap", "10"])
    assert code == 2 and out == ""
    assert err == f"error: modulus must be >= 1, got {m}\n"


def test_exceptions_refuses_cap_over_budget(capsys):
    # 1,999,999 members to scan: refused before the sumset is built
    start = time.perf_counter()
    code, out, err = run_cap(
        capsys, ["exceptions", "1", "1", "1", "1", "1", "--cap", "2000000"]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == (
        "error: members to scan ((cap - ab - cd) // m + 1) must be <= 10**6\n"
    )


def test_grid(capsys):
    code, out, _ = run_cap(capsys, ["--json", "grid", "--m-max", "2", "--window", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["discrepancies"] == [] and obj["instances"] == 17


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m-max", "0"], "m_max must be >= 1, got 0"),
        (["--m-max", "2", "--window", "-3"], "k_window must be >= 0, got -3"),
    ],
    ids=["m-max-0", "window-negative"],
)
def test_grid_refuses_empty_sweep(capsys, flags, message):
    # a sweep that checks nothing must not report success
    code, out, err = run_cap(capsys, ["grid", *flags])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "m_max, window, targets",
    [("12", "100000", 12142060710), ("6", "3000", 13652275)],
)
def test_grid_refuses_over_budget(capsys, m_max, window, targets):
    # refused before any work, instead of a MemoryError or an unbounded run
    start = time.perf_counter()
    code, out, err = run_cap(capsys, ["grid", "--m-max", m_max, "--window", window])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: sweep targets must be <= 5*10**5, got {targets}\n"


@pytest.mark.parametrize("flag", ["--m-max", "--window"])
def test_grid_refuses_non_decimal_limits(capsys, flag):
    code, out, err = run_cap(capsys, ["grid", flag, "1_0"])
    assert code == 2 and out == ""
    assert f"argument {flag}: not a decimal integer: '1_0'" in err


def test_grid_discrepancy_json(capsys, monkeypatch):
    # a discrepancy that carries the failing witness prints it as an object
    bad = (1, 1, 1, 1, 1, 2, "verify-failed", Witness(1, 1, 1, 2))
    report = GridReport(m_max=1, k_window=0, instances=1, values=1,
                        discrepancies=[bad])
    monkeypatch.setattr("sumprod.cli.grid_verify_theorem", lambda **kw: report)
    code, out, err = run_cap(capsys, ["--json", "grid"])
    assert code == 1 and not err
    assert json.loads(out)["discrepancies"] == [[
        1, 1, 1, 1, 1, 2, "verify-failed",
        {"a_prime": 1, "b_prime": 1, "c_prime": 1, "d_prime": 2},
    ]]


def test_demo_contains_53(capsys):
    code, out, _ = run_cap(capsys, ["demo"])
    assert code == 0
    assert "53 in R_19(15): True" in out
    assert "53 in R_19(3)*R_19(5): False" in out


def test_demo_refuses_scan_bound_over_budget(capsys):
    # refused before any scanning or allocation
    start = time.perf_counter()
    code, out, err = run_cap(capsys, ["demo", "--bound", "10000001"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == "error: scan_bound must be <= 10**7, got 10000001\n"


def test_usage_errors(capsys):
    assert run(["witness", "1", "2"]) == 2
    assert run(["witness", "a", "b", "c", "d", "e", "f"]) == 2
    assert run(["nosuchverb"]) == 2
    assert run([]) == 2
    assert run(["witness", "1", "1", "1", "1", "0", "5"]) == 2  # m < 1
    assert run(["iterate", "7", "21", "2:3"]) == 2  # length mismatch
    assert run(["iterate", "7", "21", "1:2"]) == 2  # single term
    assert run(["witness", "1", "1", "1", "1", "2", "0x10"]) == 2  # no hex
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["witness", "--help"]) == 0
    capsys.readouterr()


def test_internal_invariant_exit_code(capsys, monkeypatch):
    def boom(*args):
        raise InternalInvariantError("injected")

    monkeypatch.setattr("sumprod.cli._solve", boom)
    code, out, err = run_cap(capsys, ["witness", "1", "1", "1", "1", "2", "4"])
    assert code == 3
    assert "invariant" in err


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    # a bug that is not an invariant check still exits 3, in one stderr line
    def boom(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr("sumprod.cli._solve", boom)
    code, out, err = run_cap(capsys, ["witness", "1", "1", "1", "1", "2", "4"])
    assert code == 3 and out == ""
    assert err == "internal error: ZeroDivisionError: injected\n"


def test_witness_longer_than_int_str_limit(capsys):
    # b' has 4501 digits, past the interpreter's default int-to-str limit.
    # N has 4503 digits, at or above the far-window threshold
    # m*c*(c + b*m*m) of 4502, so c' is about b*m*m and b' up to m*c'.
    limit = sys.get_int_max_str_digits()
    big_m = 10**1500 + 7
    n_target = 19 + big_m * 10**3002
    assert n_target >= big_m * 2 * (2 + 5 * big_m * big_m)
    sys.set_int_max_str_digits(0)  # for this test's own str(n_target)
    try:
        operands = ["3", "5", "2", "2", str(big_m), str(n_target)]
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run_cap(capsys, ["witness", *operands])
    assert code == 0
    fields = dict(tok.split("=") for tok in out.splitlines()[1].split())
    assert len(fields["b'"]) > 4300
    code, out, _ = run_cap(
        capsys,
        ["check", *operands, fields["a'"], fields["b'"], fields["c'"], fields["d'"]],
    )
    assert code == 0 and out == "valid\n"
    assert sys.get_int_max_str_digits() == limit  # lifted only for the call


@pytest.mark.parametrize("side", ["below", "at"])
def test_both_y_prime_windows_round_trip_on_a_5000_digit_modulus(capsys, side):
    # witness, then check, on (3, 5, 2, 2) mod 10**4999 + 7, at the largest
    # member below the far window's threshold m*c*(c + b*m*m) and at the
    # smallest member at or above it.  The near window leaves c' = c; the
    # far one makes c' about b*m*m.
    a, b, c, d, m = 3, 5, 2, 2, 10**4999 + 7
    far_from = m * c * (c + b * m * m)
    n_target = far_from + (a * b + c * d - far_from) % m
    if side == "below":
        n_target -= m
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)  # for this test's own str() of the operands
    try:
        operands = [str(x) for x in (a, b, c, d, m, n_target)]
    finally:
        set_limit(limit)
    code, out, _ = run_cap(capsys, ["witness", *operands])
    assert code == 0
    fields = dict(tok.split("=") for tok in out.splitlines()[1].split())
    assert len(fields["c'"]) == (1 if side == "below" else 9999)
    code, out, _ = run_cap(
        capsys,
        ["check", *operands, fields["a'"], fields["b'"], fields["c'"], fields["d'"]],
    )
    assert code == 0 and out == "valid\n"


def test_big_integer_arguments(capsys):
    code, out, _ = run_cap(
        capsys,
        ["--json", "witness", "1", str(10**20 + 1), "1", str(10**20 + 1), "1",
         str((10**20 + 1) ** 2 + 1)],
    )
    assert code == 0
    obj = json.loads(out)
    w = obj["witness"]
    assert (
        w["a_prime"] * w["b_prime"] + w["c_prime"] * w["d_prime"]
        == (10**20 + 1) ** 2 + 1
    )


GOLDEN = {
    # --json output, byte for byte: witnesses, trace fields and statuses are
    # part of the CLI contract, so any change to them must show up here
    ("witness", "3", "5", "2", "2", "19", "152", "--trace"): (
        '{"status": "witness", "delta": 1, "witness": {"a_prime": 3, '
        '"b_prime": 24, "c_prime": 2, "d_prime": 40}, "trace": '
        '{"instance": [3, 5, 2, 2, 19, 152], "m_prime": 1, "k": 7, "x": 0, '
        '"y": 0, "z": 7, "x_prime": 0, "y_prime": 0, "q_x": 0, "q_y": 0, '
        '"a0": 3, "c0": 2, "u": 0, "a1": 3, "c1": 2, "v": 0, '
        '"a_prime": 3, "c_prime": 2, "ell": 7, "r": 1, "s": 2}}'
    ),
    ("witness", "2", "4", "6", "8", "10", "76", "--trace"): (
        '{"status": "witness", "delta": 2, "witness": {"a_prime": 2, '
        '"b_prime": 14, "c_prime": 6, "d_prime": 8}, "trace": '
        '{"instance": [1, 2, 3, 4, 5, 19], "m_prime": 1, "k": 1, "x": 0, '
        '"y": 0, "z": 1, "x_prime": 0, "y_prime": 0, "q_x": 0, "q_y": 0, '
        '"a0": 1, "c0": 3, "u": 0, "a1": 1, "c1": 3, "v": 0, '
        '"a_prime": 1, "c_prime": 3, "ell": 1, "r": 1, "s": 0}}'
    ),
    ("progression", "1", "1", "1", "1", "2", "866"): (
        '{"status": "witness", "N0": 864, "witness": {"a_prime": 1, '
        '"b_prime": 1, "c_prime": 5, "d_prime": 173}}'
    ),
    ("progression", "1", "1", "1", "1", "2", "4"): (
        '{"status": "witness", "N0": 864, "witness": {"a_prime": 1, '
        '"b_prime": 1, "c_prime": 1, "d_prime": 3}}'
    ),
    # 11 is a member of P_3(8) with no one-sided decomposition at all
    ("progression", "2", "2", "2", "2", "3", "11"): (
        '{"status": "below-threshold-failure", "N0": 25868}'
    ),
    ("threshold", "1", "1", "1", "1", "2"): (
        '{"N0": 864, "a_hi": 9, "c_hi": 45, "instance": [1, 1, 1, 1, 2]}'
    ),
    ("subgroup", "2", "4", "6", "8", "10", "2"): (
        '{"status": "witness", "w": 1, "x": 0, "y": 0, "z": 0, "t": 2}'
    ),
    ("grid", "--m-max", "2", "--window", "4"): (
        '{"m_max": 2, "k_window": 4, "instances": 17, "values": 153, '
        '"discrepancies": []}'
    ),
    ("demo", "--bound", "100"): (
        '{"in_class": true, "in_product": false, "scan_bound": 100, '
        '"non_representable": [34, 53, 91], "primes_found": [53]}'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_json_golden(capsys, argv):
    code, out, err = run_cap(capsys, ["--json", *argv])
    assert out == GOLDEN[argv] + "\n" and not err
    assert code == (1 if "below-threshold-failure" in out else 0)


def test_closed_stdout_exits_quietly():
    # `sumprod ... | head -1`: once the reader is gone, the run ends without
    # a traceback, whether that happens before or after the first line
    argv = [sys.executable, "-m", "sumprod", "witness", "3", "5", "2", "2",
            "19", "152", "--trace"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}

    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline() == b"delta=1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert "Traceback" not in err and "Exception ignored" not in err

    # a reader gone before the first write makes that write fail every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    with subprocess.Popen(
        argv, stdout=write_end, stderr=subprocess.PIPE, env=env
    ) as proc:
        os.close(write_end)
        err = proc.stderr.read().decode()
    assert proc.returncode == 141 and err == ""


# ---------------------------------------------------------------- fuzz gate

# Operands as decimal strings: small values, zero, negatives and 5,000-digit
# integers (built as text, past the int-to-str limit).  Half the operand
# lists are all positive, and 1 is drawn often (m = 1 makes every target a
# member), so that most verbs answer rather than refuse.
def _big(sign):
    return st.integers(0, 999_999).map(lambda tail: sign + "9" * 4994 + f"{tail:06d}")


_POSITIVE = st.one_of(st.just("1"), st.integers(1, 40).map(str), _big(""))
_OPERAND = st.one_of(st.integers(-5, 40).map(str), st.just("0"), _big(""), _big("-"))


def _operands(n):
    return st.one_of(
        st.lists(_POSITIVE, min_size=n, max_size=n),
        st.lists(_OPERAND, min_size=n, max_size=n),
    )


_TERM = st.lists(_OPERAND, min_size=1, max_size=3).map(
    lambda coeffs: f"{len(coeffs)}:{','.join(coeffs)}"
)

# grid is left out: its budget admits runs over 2 s by design, and its
# refusals are tested above.
_VERB_ARGS = {
    "witness": st.tuples(_operands(6), st.sampled_from([[], ["--trace"]])).map(
        lambda t: t[0] + t[1]
    ),
    "check": _operands(10),
    "threshold": _operands(5),
    "progression": _operands(6),
    "subgroup": _operands(6),
    "exceptions": st.tuples(_operands(5), _OPERAND).map(
        lambda t: t[0] + ["--cap", t[1]]
    ),
    "iterate": st.tuples(_operands(2), st.lists(_TERM, min_size=2, max_size=3)).map(
        lambda t: t[0] + t[1]
    ),
    "demo": _OPERAND.map(lambda bound: ["--bound", bound]),
}


@pytest.mark.parametrize("verb", sorted(_VERB_ARGS))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_verb_answers_or_refuses_in_budget(verb, data):
    # every input either answers (0, 1) or is refused (2), never an internal
    # error (3), and within 2 s
    json_flag = data.draw(st.sampled_from([[], ["--json"]]))
    argv = json_flag + [verb] + data.draw(_VERB_ARGS[verb])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    elapsed = time.perf_counter() - start
    shown = [a if len(a) <= 12 else f"<{len(a)} chars>" for a in argv]
    assert code in (0, 1, 2), (shown, code, err.getvalue()[:300])
    assert elapsed < 2.0, (shown, elapsed)
