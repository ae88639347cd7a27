"""Checks for the verification registry: parameter contracts, report
grammar, determinism, and the pass/fail/skip mechanics."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galdual import constants, verifier
from galdual.exactmat import charpoly_rows
from galdual.verifier import (
    CheckReport,
    all_passed,
    check_ids,
    format_report,
    format_reports,
    run_all,
    run_check,
)

ALL_IDS = (
    "census-128",
    "census-576",
    "census-78-52",
    "dual-route-agreement",
    "fixed-points",
    "lattice-examples",
    "perm-char-distinct",
    "perm-conj",
    "semisimp-charpoly",
    "stable-lines",
    "thm-main-rep-nonisomorphic",
    "trivial-multiplicity",
    "type-1-ell",
)

CHECK_LINE = re.compile(r"^check [a-z0-9-]+$")
PARAM_LINE = re.compile(r"^  param [a-z]+=[^ =]+$")
STATUS_LINE = re.compile(r"^  status (pass|fail|skipped)$")
COUNT_LINE = re.compile(r"^  count [a-z0-9_]+=-?\d+$")
WITNESS_LINE = re.compile(r"^  witness <<< .* >>>$")
RUNTIME_LINE = re.compile(r"^  runtime_ms \d+$")


def strip_runtime(report: CheckReport) -> CheckReport:
    return dataclasses.replace(report, runtime_ms=0)


def test_registry_lists_all_checks_sorted():
    assert check_ids() == ALL_IDS


def test_unknown_check_id_raises():
    with pytest.raises(ValueError, match="unknown check id"):
        run_check("no-such-check")


def test_non_prime_ell_raises():
    with pytest.raises(ValueError, match="not a prime"):
        run_check("semisimp-charpoly", ell=4)


def test_prime_outside_range_is_skipped():
    report = run_check("semisimp-charpoly", ell=11)
    assert report.status == "skipped"
    assert report.witness == "outside paper range"
    assert report.counts == ()
    assert ("ell", "11") in report.params


def test_in_range_prime_unsupported_by_check_raises():
    with pytest.raises(ValueError, match=r"supports ell in \(2, 3\)"):
        run_check("perm-conj", ell=7)
    with pytest.raises(ValueError, match="supports ell"):
        run_check("stable-lines", ell=2)


def test_parameterless_checks_reject_ell_even_out_of_range():
    with pytest.raises(ValueError, match="takes no ell parameter"):
        run_check("census-576", ell=3)
    with pytest.raises(ValueError, match="takes no ell parameter"):
        run_check("census-128", ell=11)


def test_twist_contract():
    with pytest.raises(ValueError, match="unknown twist"):
        run_check("semisimp-charpoly", twist="weird")
    with pytest.raises(ValueError, match="takes no twist parameter"):
        run_check("lattice-examples", twist="generic")
    with pytest.raises(ValueError, match="supports twist"):
        run_check("perm-char-distinct", twist="generic")


def test_unknown_profile_raises():
    with pytest.raises(ValueError, match="unknown profile"):
        run_all("medium")


def test_lattice_examples_passes():
    report = run_check("lattice-examples")
    assert report.status == "pass"
    assert report.params == (("ells", "2,3,5,7"),)
    assert report.counts == tuple(
        (f"l{ell}_examples", 4) for ell in (2, 3, 5, 7)
    )
    assert report.witness is None


def test_type_1_ell_passes_for_single_prime():
    report = run_check("type-1-ell", ell=7)
    assert report.status == "pass"
    assert report.params == (("ell", "7"),)
    assert report.counts == (("l7_type_checks", 3),)


def test_fixed_points_default_params():
    report = run_check("fixed-points")
    assert report.params == (("ells", "3,5,7"), ("twists", "trivial"))
    assert report.status == "pass"
    assert dict(report.counts)["l5_surface_dim"] == 1
    assert dict(report.counts)["l5_dual_dim"] == 0


def test_explicit_params_echoed_singular():
    report = run_check("semisimp-charpoly", ell=3, twist="trivial")
    assert report.params == (("ell", "3"), ("twist", "trivial"))
    assert report.counts == (("l3_trivial", 486),)


def test_omitted_twist_covers_both():
    report = run_check("dual-route-agreement", ell=2)
    assert report.params == (("ell", "2"), ("twists", "generic,trivial"))
    assert dict(report.counts) == {"l2_generic": 32, "l2_trivial": 32}


def test_thm_main_counts_match_intertwiner_constants():
    report = run_check("thm-main-rep-nonisomorphic")
    counts = dict(report.counts)
    assert report.status == "pass"
    for ell, dim in constants.INTERTWINER_DIMENSIONS.items():
        assert counts[f"l{ell}_intertwiner_dim"] == dim
        assert counts[f"l{ell}_invertible_found"] == 0


def test_perm_char_distinct_carries_both_multisets():
    report = run_check("perm-char-distinct")
    assert report.status == "pass"
    assert "surface" in report.witness and "dual" in report.witness
    assert dict(report.counts)["multisets_equal"] == 0


def test_reports_reproducible_up_to_runtime():
    first = run_check("stable-lines")
    second = run_check("stable-lines")
    assert strip_runtime(first) == strip_runtime(second)


def test_sampled_check_reproducible():
    # l = 7 runs on seeded samples; the seed is derived from the check id
    # and parameters, so two runs see the same sample.
    first = run_check("semisimp-charpoly", ell=7, twist="trivial")
    second = run_check("semisimp-charpoly", ell=7, twist="trivial")
    assert strip_runtime(first) == strip_runtime(second)
    assert dict(first.counts) == {"l7_trivial": 10000}


def test_format_report_golden():
    report = CheckReport(
        check_id="demo-check",
        params=(("ell", "3"), ("twist", "generic")),
        status="fail",
        counts=(("bad", 1), ("seen", 42)),
        witness="first mismatch at x=2",
        runtime_ms=17,
    )
    assert format_report(report) == (
        "check demo-check\n"
        "  param ell=3\n"
        "  param twist=generic\n"
        "  status fail\n"
        "  count bad=1\n"
        "  count seen=42\n"
        "  witness <<< first mismatch at x=2 >>>\n"
        "  runtime_ms 17\n"
    )


def test_format_report_omits_empty_sections():
    report = CheckReport("census-128", (), "pass", (("classes", 128),), None, 3)
    text = format_report(report)
    assert "param" not in text
    assert "witness" not in text


def assert_report_grammar(text: str):
    lines = text.rstrip("\n").split("\n")
    assert CHECK_LINE.match(lines[0])
    assert RUNTIME_LINE.match(lines[-1])
    kinds = []
    for line in lines[1:-1]:
        for kind, rx in (
            ("param", PARAM_LINE),
            ("status", STATUS_LINE),
            ("count", COUNT_LINE),
            ("witness", WITNESS_LINE),
        ):
            if rx.match(line):
                kinds.append(kind)
                break
        else:
            raise AssertionError(f"unrecognized report line: {line!r}")
    # params, then exactly one status, then counts, then optional witness
    order = {"param": 0, "status": 1, "count": 2, "witness": 3}
    assert [order[k] for k in kinds] == sorted(order[k] for k in kinds)
    assert kinds.count("status") == 1
    assert kinds.count("witness") <= 1


def test_real_reports_match_grammar():
    for args in [
        ("lattice-examples",),
        ("type-1-ell",),
        ("perm-char-distinct",),
    ]:
        assert_report_grammar(format_report(run_check(*args)))
    assert_report_grammar(format_report(run_check("semisimp-charpoly", ell=11)))


def test_format_reports_joins_with_blank_line():
    a = CheckReport("census-128", (), "pass", (), None, 1)
    b = CheckReport("census-576", (), "pass", (), None, 2)
    text = format_reports([a, b])
    assert text == format_report(a) + "\n" + format_report(b)
    assert "\n\ncheck census-576\n" in text


def test_all_passed():
    ok = CheckReport("a", (), "pass", (), None, 0)
    skipped = CheckReport("b", (), "skipped", (), "outside paper range", 0)
    bad = CheckReport("c", (), "fail", (), "boom", 0)
    assert all_passed([])
    assert all_passed([ok, skipped])
    assert not all_passed([ok, bad])


def test_check_failure_surfaces_witness_and_partial_counts(monkeypatch):
    # Drift in a frozen constant must flip the check to fail, not raise.
    monkeypatch.setattr(constants, "TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE", 8)
    report = run_check("trivial-multiplicity")
    assert report.status == "fail"
    assert "drifted" in report.witness
    assert dict(report.counts) == {"surface": 9, "dual": 11}
    assert_report_grammar(format_report(report))


def test_perm_conj_fails_without_the_block_swap(monkeypatch):
    # The identity relabels nothing, and the surface and dual groups are
    # different sets, so the certificate must be refused.
    identity = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    monkeypatch.setattr(verifier, "_BLOCK_SWAP", identity)
    report = run_check("perm-conj", ell=3)
    assert report.status == "fail"
    assert "not conjugate" in report.witness
    assert dict(report.counts) == {"l3_degree": 81, "l3_order": 972, "l3_conjugate": 0}
    assert_report_grammar(format_report(report))


def test_unexpected_exceptions_propagate(monkeypatch):
    def explode(ells, twists):
        raise RuntimeError("infrastructure broke")

    monkeypatch.setitem(
        verifier._REGISTRY,
        "lattice-examples",
        dataclasses.replace(verifier._REGISTRY["lattice-examples"], body=explode),
    )
    with pytest.raises(RuntimeError, match="infrastructure broke"):
        run_check("lattice-examples")


def _fake_registry(calls):
    def body(name):
        def run(ells, twists):
            calls.append((name, ells, twists))
            return {"n": len(ells) + len(twists)}, None

        return run

    spec = verifier._CheckSpec
    return {
        "b-census": spec(body("b-census"), (), (), census=True),
        "a-ranged": spec(body("a-ranged"), (2, 3, 7), ("generic",)),
        "c-fixed": spec(body("c-fixed"), (3,), ()),
    }


def test_run_all_quick_skips_census_and_l7(monkeypatch):
    calls = []
    monkeypatch.setattr(verifier, "_REGISTRY", _fake_registry(calls))
    reports = run_all("quick")
    assert [r.check_id for r in reports] == ["a-ranged", "c-fixed"]
    assert calls == [
        ("a-ranged", (2, 3), ("generic",)),
        ("c-fixed", (3,), ()),
    ]
    assert reports[0].params == (("ells", "2,3"), ("twists", "generic"))


def test_run_all_full_runs_everything_in_id_order(monkeypatch):
    calls = []
    monkeypatch.setattr(verifier, "_REGISTRY", _fake_registry(calls))
    reports = run_all("full")
    assert [r.check_id for r in reports] == ["a-ranged", "b-census", "c-fixed"]
    assert calls[0] == ("a-ranged", (2, 3, 7), ("generic",))
    assert calls[1] == ("b-census", (), ())
    assert all_passed(reports)


def test_quick_profile_runs_real_fast_checks(monkeypatch):
    # Restrict the real registry to its cheap members so the profile
    # machinery is exercised end to end without the multi-second checks.
    slow = {"dual-route-agreement", "semisimp-charpoly"}
    trimmed = {
        k: v for k, v in verifier._REGISTRY.items() if k not in slow
    }
    monkeypatch.setattr(verifier, "_REGISTRY", trimmed)
    reports = run_all("quick")
    census = {"census-128", "census-576", "census-78-52"}
    assert [r.check_id for r in reports] == sorted(set(trimmed) - census)
    assert all_passed(reports)
    assert all(r.status == "pass" for r in reports)
    for r in reports:
        assert "7" not in dict(r.params).get("ells", "")


FAST_CHECKS = st.sampled_from(
    [
        ("lattice-examples", None, None),
        ("type-1-ell", None, None),
        ("type-1-ell", 5, None),
        ("stable-lines", None, None),
        ("stable-lines", 7, None),
        ("fixed-points", None, None),
        ("fixed-points", 5, "trivial"),
        ("thm-main-rep-nonisomorphic", None, None),
        ("thm-main-rep-nonisomorphic", 3, None),
        ("dual-route-agreement", 2, None),
        ("semisimp-charpoly", 2, "generic"),
        ("semisimp-charpoly", 11, None),
    ]
)


@settings(max_examples=100, deadline=None)
@given(FAST_CHECKS)
def test_every_report_is_well_formed(args):
    check_id, ell, twist = args
    report = run_check(check_id, ell=ell, twist=twist)
    assert report.status in ("pass", "skipped")
    assert report.check_id == check_id
    assert report.counts == tuple(sorted(report.counts))
    assert report.params == tuple(sorted(report.params))
    assert_report_grammar(format_report(report))


# -- the charpoly proof ------------------------------------------------------------


def _companion(e1, e2, e3, e4):
    """A flat 4x4 with det(xI - C) = x^4 - e1 x^3 + e2 x^2 - e3 x + e4."""
    return (0, 0, 0, -e4, 1, 0, 0, e3, 0, 1, 0, -e2, 0, 0, 1, e1)


def _squares_coefficients(a, d):
    """(e1, e2, e3, e4) of (x-a)^2 (x-d)^2."""
    return 2 * (a + d), a * a + 4 * a * d + d * d, 2 * a * d * (a + d), a * a * d * d


def _unit_pairs(ell):
    return [(a, d) for a in range(1, ell) for d in range(1, ell)]


def _rows(flat):
    return [list(flat[4 * i : 4 * i + 4]) for i in range(4)]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_charpoly_proof_accepts_the_squares(ell):
    for a, d in _unit_pairs(ell):
        flat = _companion(*_squares_coefficients(a, d))
        assert verifier._charpoly_matches_squares(flat, a, d, ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("middle", [1, 2])
def test_charpoly_proof_rejects_a_wrong_middle_coefficient(ell, middle):
    """Trace and determinant match (x-a)^2 (x-d)^2 and so does one middle
    coefficient; only the other one (the principal 2-minor sum for
    middle=1, the adjugate trace for middle=2) tells the quartics apart."""
    for a, d in _unit_pairs(ell):
        coeffs = list(_squares_coefficients(a, d))
        coeffs[middle] += 1
        flat = _companion(*coeffs)
        diag = [[a, 0, 0, 0], [0, a, 0, 0], [0, 0, d, 0], [0, 0, 0, d]]
        got, want = charpoly_rows(_rows(flat), ell), charpoly_rows(diag, ell)
        assert (got[1], got[4]) == (want[1], want[4])
        assert got != want
        assert not verifier._charpoly_matches_squares(flat, a, d, ell)


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.integers(0, 6), min_size=16, max_size=16),
    st.integers(1, 6),
    st.integers(1, 6),
)
@settings(max_examples=300, deadline=None)
def test_charpoly_proof_agrees_with_charpoly_rows(ell, flat, a, d):
    a, d = a % ell or 1, d % ell or 1
    diag = [[a, 0, 0, 0], [0, a, 0, 0], [0, 0, d, 0], [0, 0, 0, d]]
    want = charpoly_rows(_rows(flat), ell) == charpoly_rows(diag, ell)
    assert verifier._charpoly_matches_squares(tuple(flat), a, d, ell) == want
