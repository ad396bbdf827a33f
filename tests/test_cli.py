"""End-to-end command-line checks: output formats, JSON round-trips, and
the 0/1/2 exit-code contract."""

import json
import subprocess
import sys

import pytest

import braidrook.cellular as cellular_module
import braidrook.cli as cli_module
import braidrook.tensor as tensor_module
from braidrook.burau import BurauParams, generator_power
from braidrook.cli import main
from braidrook.diagrams import PartialPermutation, projection, transposition
from groupoid_oracle import bump_arrow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- burau -----------------------------------------------------------------


def test_burau_reduced_json(capsys):
    code, out, _ = run(capsys, "burau", "--n", "3", "--q1", "1", "--q2", "-2", "--reduced")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == "2" and data["reduced"] is True
    assert data["generators"][0] == [["-2", "2"], ["0", "1"]]


def test_burau_power_matches_closed_form(capsys):
    code, out, _ = run(
        capsys, "burau", "--n", "3", "--q1", "2", "--q2", "3", "--reduced", "--power", "4"
    )
    assert code == 0
    data = json.loads(out)
    want = generator_power(2, 4, BurauParams(3, 2, 3))
    assert data["generators"][1] == [
        [str(want[i, j]) for j in range(2)] for i in range(2)
    ]


def test_burau_rejects_bad_power(capsys):
    code, _, err = run(capsys, "burau", "--n", "3", "--q1", "1", "--q2", "-2", "--power", "0")
    assert code == 2 and "power" in err


def test_burau_gate_is_usage_error(capsys):
    code, _, err = run(capsys, "burau", "--n", "3", "--q1", "1", "--q2", "-1")
    assert code == 2 and "root of unity" in err


# -- rook ------------------------------------------------------------------


def test_rook_enumerate_json(capsys):
    code, out, _ = run(capsys, "rook", "--r", "2", "enumerate")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 7
    # top j is node j, bottom j is node r + j; blocks sorted by their minimum
    assert data["diagrams"] == [
        {"r": 2, "blocks": blocks}
        for blocks in [
            [[1], [2], [3], [4]],
            [[1, 3], [2], [4]],
            [[1, 4], [2], [3]],
            [[1], [2, 3], [4]],
            [[1], [2, 4], [3]],
            [[1, 3], [2, 4]],
            [[1, 4], [2, 3]],
        ]
    ]
    code, out, _ = run(capsys, "rook", "--r", "3", "enumerate", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 34 and len(data["diagrams"]) == 34
    assert data["diagrams"][0] == {"r": 3, "blocks": [[1], [2], [3], [4], [5], [6]]}
    assert data["diagrams"][-1] == {"r": 3, "blocks": [[1, 6], [2, 5], [3, 4]]}


def test_rook_enumerate_text(capsys):
    code, out, _ = run(capsys, "rook", "--r", "3", "enumerate", "--format", "text")
    assert code == 0
    assert out.strip().endswith("total 34")


def test_rook_enumerate_bound(capsys):
    code, _, err = run(capsys, "rook", "--r", "7", "enumerate")
    assert code == 2 and "bound" in err


def test_rook_present(capsys):
    code, out, _ = run(capsys, "rook", "--r", "2", "present", "--z", "3")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["presentation"]["all_pass"] and data["rescaling"]["all_pass"]


def test_rook_present_fails_on_extra_dropped_component(capsys, monkeypatch):
    # negative control: every product one power of z off breaks p_j^2 = z p_j
    real = PartialPermutation.compose

    def compose(self, other):
        prod, dropped = real(self, other)
        return prod, dropped + 1

    monkeypatch.setattr(PartialPermutation, "compose", compose)
    code, out, _ = run(capsys, "rook", "--r", "3", "present", "--z", "3")
    assert code == 1
    data = json.loads(out)
    assert data["all_pass"] is False and data["presentation"]["all_pass"] is False


def test_rook_present_degenerate_z(capsys):
    code, out, _ = run(capsys, "rook", "--r", "2", "present", "--z", "0")
    assert code == 0
    data = json.loads(out)
    assert data["presentation"]["degenerate_z"] is True
    assert data["rescaling"] == {"skipped": "z = 0"}


# -- dims ------------------------------------------------------------------


def test_dims_text_table(capsys):
    code, out, _ = run(capsys, "dims", "--r", "4")
    assert code == 0
    for r, total in enumerate([1, 2, 7, 34, 209]):
        assert f"r = {r}: sum of squares = {total}" in out


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--r", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [row["sum_of_squares"] for row in data["rows"]] == [1, 2, 7, 34, 209]
    top = data["rows"][4]["cells"]
    assert {"k": 2, "partition": [1, 1], "dim": 6} in top


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dims_exits_1_on_a_wrong_sum_of_squares(capsys, monkeypatch, fmt):
    # only level 2 is off: its line must deny the equality, the others keep it
    real = cellular_module.rook_dimension
    monkeypatch.setattr(cli_module, "rook_dimension", lambda r: real(r) + (r == 2))
    code, out, _ = run(capsys, "dims", "--r", "2", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert "r = 2: sum of squares = 7 != dim of the algebra 8" in out
        assert "r = 1: sum of squares = 2 = dim of the algebra" in out


# -- bratteli ---------------------------------------------------------------


def test_bratteli_dot_leaves(capsys):
    code, out, _ = run(capsys, "bratteli", "--r", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"L3_6"' in out and '"L3_7"' not in out
    assert 'label="2,1"' in out


def test_bratteli_text_and_json(capsys):
    code, out, _ = run(capsys, "bratteli", "--r", "2")
    assert code == 0 and "level 2: ()  1  2  1,1" in out
    code, out, _ = run(capsys, "bratteli", "--r", "2", "--format", "json")
    data = json.loads(out)
    assert data["path_counts"][-1] == [1, 2, 1, 1]
    assert data["rows"][2] == [[], [1], [2], [1, 1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--r", "-1"],
        ["bratteli", "--r", "-2"],
        ["duality", "--n", "3", "--r", "-1", "--q1", "1", "--q2", "-2"],
    ],
    ids=["dims", "bratteli", "duality"],
)
def test_negative_r_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: r must be nonnegative\n"


# -- duality ----------------------------------------------------------------


def test_duality_text_passes(capsys):
    code, out, _ = run(capsys, "duality", "--n", "2", "--r", "2", "--q1", "1", "--q2", "-2")
    assert code == 0
    assert "identities hold" in out and "faithful=False" in out
    assert "certificate: rook character, envelope closure mod " in out


def test_duality_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "duality", "--n", "3", "--r", "2", "--q1", "1", "--q2", "-2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True and data["faithful"] is True and data["z"] == "7"
    cert = data["certificate"]
    assert set(cert) == {"path", "prime", "primes_skipped", "bounds", "fallback_reason", "shapes"}
    assert cert["path"] == "character" and cert["fallback_reason"] is None
    assert cert["bounds"] == {"envelope_lower": 15, "rook_centralizer": 15, "rook_image": 7}
    assert json.dumps(data, indent=2) == out.strip()


def test_duality_out_of_memory_exit(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_module, "duality_report", exhausted)
    code, _, err = run(capsys, "duality", "--n", "2", "--r", "2", "--q1", "1", "--q2", "-2")
    assert code == 2 and "out of memory" in err


def test_duality_division_by_zero_is_not_an_identity_failure(capsys, monkeypatch):
    def divides_by_zero(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli_module, "duality_report", divides_by_zero)
    code, _, err = run(capsys, "duality", "--n", "2", "--r", "2", "--q1", "1", "--q2", "-2")
    assert code == 2 and "division by zero" in err


def test_malformed_scalar_exit(capsys):
    code, _, err = run(capsys, "duality", "--n", "2", "--r", "2", "--q1", "1.5", "--q2", "-2")
    assert code == 2 and "not an exact rational" in err


def test_duality_budget_exit(capsys):
    code, _, err = run(capsys, "duality", "--n", "9", "--r", "9", "--q1", "1", "--q2", "-2")
    assert code == 2 and "budget" in err
    assert tensor_module.MATRIX_SIZE_BUDGET == 256


def test_duality_budget_override_restores(capsys):
    code, _, err = run(
        capsys,
        "duality", "--n", "2", "--r", "2", "--q1", "1", "--q2", "-2", "--budget", "3",
    )
    assert code == 2 and "exceeds budget 3" in err
    assert tensor_module.MATRIX_SIZE_BUDGET == 256


def test_duality_gate_exit(capsys):
    code, _, err = run(capsys, "duality", "--n", "2", "--r", "2", "--q1", "1", "--q2", "-1")
    assert code == 2 and "root of unity" in err


# -- lie ---------------------------------------------------------------------


def test_lie_text(capsys):
    code, out, _ = run(capsys, "lie", "--n", "4", "--q", "1/2", "--generators", "v")
    assert code == 0
    assert "closure dimension 8 (expected 8)" in out
    assert "certificate: closure mod 67108859 fills the ceiling 8" in out


def test_lie_json(capsys):
    code, out, _ = run(capsys, "lie", "--n", "3", "--q", "2", "--json")
    data = json.loads(out)
    assert code == 0 and data["closure_dim"] == 4 and data["ok"] is True
    assert data["certificate"]["path"] == "modular"
    assert data["certificate"]["bounds"] == {"lower": 4, "ceiling": 4}


def test_lie_gate(capsys):
    code, _, err = run(capsys, "lie", "--n", "3", "--q", "1")
    assert code == 2 and "avoid" in err


# -- verify-all ---------------------------------------------------------------


FAST_CHECKS = (
    "dimension-table,rank-one-centralizer,degree-two-endomorphisms,"
    "classical-parameter,schur-dimensions,presentation-and-rescaling,"
    "tangent-closures"
)


def test_verify_all_subset_text(capsys):
    code, out, _ = run(capsys, "verify-all", "--only", FAST_CHECKS)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 7
    assert all(l.startswith("PASS") for l in lines)


def test_verify_all_json_schema_and_round_trip(capsys):
    code, out, _ = run(capsys, "verify-all", "--json", "--only", "dimension-table")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "verify-all"
    (check,) = data["checks"]
    assert set(check) == {"name", "paper_ref", "status", "detail", "elapsed_seconds"}
    assert check["status"] == "pass" and check["elapsed_seconds"] >= 0
    assert json.dumps(data, indent=2) == out.strip()


def test_verify_all_broken_identity_exits_1(capsys, monkeypatch):
    # N off by one on the generator row of s_1, before generator_rows
    # checks it, breaks the identity the rescaling to z = 1 rests on, which
    # rescale_iso_check checks: an identity failure, not a usage error
    real = cellular_module._code
    s1 = ((1, 2), (2, 1))

    def bumped(r, pairs):
        m, dom, im = real(r, pairs)
        return (m, dom, im | 1) if r == 2 and tuple(pairs) == s1 else (m, dom, im)

    monkeypatch.setattr(cellular_module, "_code", bumped)
    code, _, err = run(capsys, "verify-all", "--only", "presentation-and-rescaling")
    assert code == 1 and "breaks N = r + rank(ab)" in err


@pytest.mark.parametrize(
    "letter,relation",
    [(transposition(1, 2, 2), "s_1^2 = 1"), (projection(1, 2), "p_1^2 = z p_1")],
    ids=["s_1", "p_1"],
)
def test_verify_all_bumped_phi_arrow_exits_1(capsys, monkeypatch, letter, relation):
    # a bumped arrow of phi(s_1) or phi(p_1) at r = 2 fails a named relation
    # in the Gram certificate of cellular-structure
    bump_arrow(monkeypatch, letter)
    code, _, err = run(capsys, "verify-all", "--only", "cellular-structure")
    assert code == 1 and f"{relation} fails on phi of its letters" in err


def test_verify_all_unknown_name(capsys):
    code, _, err = run(capsys, "verify-all", "--only", "no-such-check")
    assert code == 2 and "unknown check names" in err


def test_verify_all_empty_only_is_a_usage_error(capsys):
    # an empty --only names no known check; it must not run all of them
    code, out, err = run(capsys, "verify-all", "--only", "")
    assert code == 2 and "unknown check names: ['']" in err
    assert "PASS" not in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "braidrook.cli", "dims", "--r", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "r = 2: sum of squares = 7" in proc.stdout
