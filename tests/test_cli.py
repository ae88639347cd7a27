"""End-to-end checks of the command-line interface, driving main() with
argv lists and asserting on exit codes and captured output."""

import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from galdual import verifier
from galdual.cli import main
from galdual.exactmat import format_matrix
from galdual.paramgroups import image_rho_A, image_rho_Adual_contragredient


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_verify_prints_report_and_succeeds(capsys):
    assert main(["verify", "lattice-examples"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check lattice-examples\n")
    assert "  status pass\n" in out
    assert "  count l7_examples=4\n" in out


def test_verify_with_params(capsys):
    assert main(["verify", "semisimp-charpoly", "--ell", "3", "--twist", "trivial"]) == 0
    out = capsys.readouterr().out
    assert "  param ell=3\n" in out
    assert "  param twist=trivial\n" in out
    assert "  count l3_trivial=486\n" in out


def test_verify_out_file_writes_report_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["verify", "type-1-ell", "--ell", "5", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.startswith("check type-1-ell\n")
    assert "  status pass\n" in text


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "no-such-check"]) == 2
    err = capsys.readouterr().err
    assert "unknown check id" in err


def test_verify_contract_violation_exits_2(capsys):
    assert main(["verify", "perm-conj", "--ell", "7"]) == 2
    assert "supports ell in (2, 3)" in capsys.readouterr().err


def test_verify_out_of_range_prime_is_skipped_not_an_error(capsys):
    assert main(["verify", "thm-main-rep-nonisomorphic", "--ell", "11"]) == 0
    assert "  status skipped\n" in capsys.readouterr().out


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    def fail(ells, twists):
        raise verifier._CheckFailed("forced mismatch", {"seen": 1})

    monkeypatch.setitem(
        verifier._REGISTRY,
        "lattice-examples",
        dataclasses.replace(verifier._REGISTRY["lattice-examples"], body=fail),
    )
    assert main(["verify", "lattice-examples"]) == 1
    out = capsys.readouterr().out
    assert "  status fail\n" in out
    assert "  witness <<< forced mismatch >>>\n" in out


FAST_IDS = (
    "fixed-points",
    "lattice-examples",
    "perm-char-distinct",
    "stable-lines",
    "thm-main-rep-nonisomorphic",
    "trivial-multiplicity",
    "type-1-ell",
)


@pytest.fixture
def fast_registry(monkeypatch):
    trimmed = {k: v for k, v in verifier._REGISTRY.items() if k in FAST_IDS}
    monkeypatch.setattr(verifier, "_REGISTRY", trimmed)
    return trimmed


def test_verify_all_quick_prints_sorted_blocks(capsys, fast_registry):
    assert main(["verify-all"]) == 0
    out = capsys.readouterr().out
    heads = [line for line in out.splitlines() if line.startswith("check ")]
    assert heads == [f"check {cid}" for cid in sorted(FAST_IDS)]
    assert out.count("  status pass") == len(FAST_IDS)


def test_verify_all_exit_1_on_any_failure(capsys, fast_registry, monkeypatch):
    def fail(ells, twists):
        raise verifier._CheckFailed("broken")

    monkeypatch.setitem(
        verifier._REGISTRY,
        "stable-lines",
        dataclasses.replace(verifier._REGISTRY["stable-lines"], body=fail),
    )
    assert main(["verify-all", "--profile", "full"]) == 1
    out = capsys.readouterr().out
    assert "  status fail" in out
    assert out.count("check ") == len(FAST_IDS)


def test_dump_group_is_sorted_and_complete(capsys):
    assert main(["dump-group", "--ell", "2", "--side", "A"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 32
    assert lines == sorted(lines)
    expected = sorted(format_matrix(m) for m in image_rho_A(2, "generic").elements)
    assert lines == expected


def test_dump_group_dual_side_and_twist(capsys):
    assert main(["dump-group", "--ell", "2", "--side", "Adual", "--twist", "trivial"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = sorted(
        format_matrix(m)
        for m in image_rho_Adual_contragredient(2, "trivial").elements
    )
    assert lines == expected


def test_dump_group_rejects_non_enumerable_prime(capsys):
    assert main(["dump-group", "--ell", "7", "--side", "A"]) == 2
    assert "only supported for ell in (2, 3, 5)" in capsys.readouterr().err


def lattice_output(capsys, *argv) -> str:
    assert main(["lattice", *argv]) == 0
    return capsys.readouterr().out


def test_lattice_change_basis_transformation(capsys):
    out = lattice_output(
        capsys, "change-basis-transformation", "--ell", "3", "--matrix", "3,0;0,3"
    )
    assert out == "1/l^1,0;0,1/l^1\n"


def test_lattice_change_basis_kernel(capsys):
    out = lattice_output(
        capsys, "change-basis-kernel", "--kernel", "ell=3 n=1 dim=2 gens=(1,0)"
    )
    assert out == "1/l^1,0;0,1\n"


def test_lattice_dual_is_transpose(capsys):
    out = lattice_output(capsys, "dual", "--ell", "3", "--matrix", "1,2;0,3")
    assert out == "1,0;2,3\n"


def test_lattice_pullback(capsys):
    out = lattice_output(
        capsys, "pullback", "--ell", "2", "--pol", "0,1;-1,0", "--iso", "2,0;0,1"
    )
    assert out == "0,2;-2,0\n"


def test_lattice_pushforward_reports_matrix_and_degree(capsys):
    out = lattice_output(
        capsys,
        "pushforward",
        "--ell", "3",
        "--pol", "0,1;-1,0",
        "--iso", "3,0;0,1",
        "--kernel", "ell=3 n=1 dim=2 gens=(1,0)",
    )
    assert out == "0,1;-1,0\ndegree=3\n"


def test_lattice_type_of_glued_pairing(capsys):
    out = lattice_output(
        capsys, "type", "--ell", "5",
        "--matrix", "0,5,0,0;-5,0,-1,0;0,1,0,1;0,0,-1,0",
    )
    assert out == "1,5\n"


def test_lattice_standard_pol(capsys):
    out = lattice_output(capsys, "standard-pol", "--ell", "3", "--type", "1,3")
    assert out == "0,0,1,0;0,0,0,3;-1,0,0,0;0,-3,0,0\n"


def test_lattice_conjugate_by_identity_is_trivial(capsys):
    out = lattice_output(
        capsys, "conjugate", "--ell", "2", "--basis", "1,0;0,1", "--matrix", "1,1;0,1"
    )
    assert out == "1,1;0,1\n"


def test_lattice_conjugate_rescales(capsys):
    # basis diag(l, 1) turns the shear x -> x + l*y into a unit shear
    out = lattice_output(
        capsys, "conjugate", "--ell", "3", "--basis", "3,0;0,1", "--matrix", "1,3;0,1"
    )
    assert out == "1,1;0,1\n"


def test_lattice_parse_error_exits_2(capsys):
    assert main(["lattice", "type", "--ell", "3", "--matrix", "0,1;x,0"]) == 2
    assert "bad matrix entry" in capsys.readouterr().err


def test_lattice_kernel_parse_error_exits_2(capsys):
    assert main(["lattice", "change-basis-kernel", "--kernel", "nonsense"]) == 2
    assert "bad kernel spec" in capsys.readouterr().err


@pytest.mark.parametrize("gens", ["(1,0", "(1,0)junk", "garbage"])
def test_lattice_malformed_kernel_generators_exit_2(capsys, gens):
    kernel = f"ell=3 n=1 dim=2 gens={gens}"
    assert main(["lattice", "change-basis-kernel", "--kernel", kernel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad kernel generators" in captured.err


def test_lattice_odd_size_type_rejected(capsys):
    assert main(["lattice", "type", "--ell", "3", "--matrix", "0"]) == 2
    assert "even size" in capsys.readouterr().err


def test_readme_lattice_examples_match_their_golden_output(capsys):
    """The README's eight `galdual lattice` lines, run in order, print exactly
    tests/golden/lattice_readme.txt (the CI smoke job runs them too)."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    commands = re.findall(r"^galdual (lattice [a-z-]+ --.*)$", readme, re.M)
    assert len(commands) == 8
    for command in commands:
        assert main(shlex.split(command)) == 0
    golden = (root / "tests" / "golden" / "lattice_readme.txt").read_text()
    assert capsys.readouterr().out == golden
