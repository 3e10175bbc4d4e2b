import dataclasses
import json

import pytest

from sumprod import InternalInvariantError, WitnessTrace
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


def test_exceptions_sorted(capsys):
    code, out, _ = run_cap(
        capsys, ["--json", "exceptions", "1", "1", "1", "1", "3", "--cap", "200"]
    )
    assert code == 0
    exc = json.loads(out)["exceptions"]
    assert exc == sorted(exc)


def test_grid(capsys):
    code, out, _ = run_cap(capsys, ["--json", "grid", "--m-max", "2", "--window", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["discrepancies"] == [] and obj["instances"] == 17


def test_demo_contains_53(capsys):
    code, out, _ = run_cap(capsys, ["demo"])
    assert code == 0
    assert "53 in R_19(15): True" in out
    assert "53 in R_19(3)*R_19(5): False" in out


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
    def boom(inst):
        raise InternalInvariantError("injected")

    monkeypatch.setattr("sumprod.cli._solve_dilated_traced", boom)
    code, out, err = run_cap(capsys, ["witness", "1", "1", "1", "1", "2", "4"])
    assert code == 3
    assert "invariant" in err


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
