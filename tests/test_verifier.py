"""Checks for the verification registry: parameter contracts, report
grammar, determinism, and the pass/fail/skip mechanics."""

import dataclasses
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galdual import constants, paramgroups, verifier
from galdual.exactmat import pack_flat, position_mask, unpack_flat
from galdual.verifier import (
    CheckReport,
    all_passed,
    check_ids,
    format_report,
    format_reports,
    run_all,
    run_check,
)
from oracles import charpoly_rows

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
    # The identity permutation relabels nothing, and the surface and dual
    # groups are different sets at l = 2 and at l = 3, so the certificate
    # must be refused.
    monkeypatch.setattr(verifier, "_BLOCK_SWAP", (0, 1, 2, 3))
    for ell, order in ((2, 32), (3, 972)):
        report = run_check("perm-conj", ell=ell)
        assert report.status == "fail"
        assert "not conjugate" in report.witness
        assert dict(report.counts) == {
            f"l{ell}_degree": ell**4,
            f"l{ell}_order": order,
            f"l{ell}_conjugate": 0,
        }
        assert_report_grammar(format_report(report))


def test_trivial_multiplicity_fails_when_the_orbit_count_disagrees(monkeypatch):
    # The Burnside average is cross-checked against an independent orbit count.
    monkeypatch.setattr(verifier, "_orbit_count", lambda group: 0)
    report = run_check("trivial-multiplicity")
    assert report.status == "fail"
    assert "disagrees with orbit count" in report.witness
    assert dict(report.counts) == {"surface": 9, "dual": 11}


def test_permutation_checks_share_one_set_of_fixed_point_counts(monkeypatch):
    """perm-char-distinct and trivial-multiplicity read one cached pair of
    fixed-point counts: one fixed_vectors call per element of each image."""
    calls = []
    real = verifier.fixed_vectors

    def counted(ell, generators):
        calls.append(ell)
        return real(ell, generators)

    monkeypatch.setattr(verifier, "fixed_vectors", counted)
    verifier._permutation_characters.cache_clear()
    try:
        assert run_check("perm-char-distinct").status == "pass"
        assert run_check("trivial-multiplicity").status == "pass"
    finally:
        verifier._permutation_characters.cache_clear()
    assert len(calls) == 2 * constants.IMAGE_GROUP_ORDERS[(3, "trivial")]  # 2 x 486


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


GOLDEN_FULL = Path(__file__).parent / "golden" / "verify_all_full.txt"


def test_full_profile_matches_the_golden_report():
    """The real full registry, every line but runtime_ms, against the
    committed report; CI's smoke job diffs the CLI output against it too."""
    text = format_reports(run_all("full"))
    kept = [line for line in text.split("\n") if not RUNTIME_LINE.match(line)]
    assert "\n".join(kept) == GOLDEN_FULL.read_text(encoding="utf-8")


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


def _block_companion(q1, q2, ell, upper=True, off=(1, 0, 2, 1)):
    """A flat block triangular 4x4 whose diagonal blocks are the companion
    matrices [[0, -n], [1, t]] of q = x^2 - t x + n, given as q = (t, n);
    ``off`` fills the upper-right block when ``upper``, else the lower-left."""
    (t1, n1), (t2, n2) = q1, q2
    z = (0, 0, 0, 0)
    b, c = (off, z) if upper else (z, off)
    flat = (0, -n1, b[0], b[1], 1, t1, b[2], b[3], c[0], c[1], 0, -n2, c[2], c[3], 1, t2)
    return tuple(v % ell for v in flat)


def _squares_coefficients(a, d):
    """(e1, e2, e3, e4) of (x-a)^2 (x-d)^2."""
    return 2 * (a + d), a * a + 4 * a * d + d * d, 2 * a * d * (a + d), a * a * d * d


def _block_coefficients(q1, q2):
    """(e1, e2, e3, e4) of q1 * q2 for q = x^2 - t x + n, given as (t, n)."""
    (t1, n1), (t2, n2) = q1, q2
    return t1 + t2, n1 + n2 + t1 * t2, t1 * n2 + t2 * n1, n1 * n2


def _unit_pairs(ell):
    return [(a, d) for a in range(1, ell) for d in range(1, ell)]


def _rows(flat):
    return [list(flat[4 * i : 4 * i + 4]) for i in range(4)]


def _diag_rows(a, d):
    return [[a, 0, 0, 0], [0, a, 0, 0], [0, 0, d, 0], [0, 0, 0, d]]


def _proves(flat, a, d, ell):
    """The charpoly proof's verdict on the flat, read as a packed flat."""
    return verifier._charpoly_prover(ell)(pack_flat(flat, ell), a, d)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_charpoly_proof_accepts_the_squares(ell):
    # (x-a)^2 times (x-d)^2 as well as (x-a)(x-d) twice: the claim is about
    # the quartic, not about each block.
    for a, d in _unit_pairs(ell):
        for q1, q2 in (
            ((2 * a, a * a), (2 * d, d * d)),
            ((a + d, a * d), (a + d, a * d)),
        ):
            for upper in (True, False):
                flat = _block_companion(q1, q2, ell, upper)
                assert _proves(flat, a, d, ell)


def _blocks_wrong_only_at(index, a, d, ell):
    """Pairs of quadratics whose product differs from (x-a)^2 (x-d)^2 mod l
    in the coefficient e_(index + 1) alone: the traces sum to 2(a + d) and
    the constant terms multiply to a^2 d^2."""
    want = [c % ell for c in _squares_coefficients(a, d)]
    found = []
    for t1, n1 in itertools.product(range(ell), range(1, ell)):
        q1 = (t1, n1)
        q2 = ((want[0] - t1) % ell, want[3] * pow(n1, -1, ell) % ell)
        got = [c % ell for c in _block_coefficients(q1, q2)]
        if [i for i in range(4) if got[i] != want[i]] == [index]:
            found.append((q1, q2))
    return found


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("middle", [1, 2])
def test_charpoly_proof_rejects_a_wrong_middle_coefficient(ell, middle):
    """Trace, determinant and one middle coefficient match (x-a)^2 (x-d)^2;
    only the other one (e2 = n1 + n2 + t1 t2 for middle=1, e3 = t1 n2 +
    t2 n1 for middle=2) tells the quartics apart.  Such blocks exist for
    e2 at every (a, d); for e3 at l = 2 and 3 they exist for no (a, d)."""
    cases = 0
    for a, d in _unit_pairs(ell):
        found = _blocks_wrong_only_at(middle, a, d, ell)
        assert found or middle == 2
        for q1, q2 in found:
            for upper in (True, False):
                flat = _block_companion(q1, q2, ell, upper)
                got, want = charpoly_rows(_rows(flat), ell), charpoly_rows(_diag_rows(a, d), ell)
                assert [i for i in range(5) if got[i] != want[i]] == [middle + 1]
                assert not _proves(flat, a, d, ell)
                cases += 1
    assert bool(cases) == (middle == 1 or ell > 3)


@st.composite
def block_triangular_case(draw):
    """(l, packed, a, d): a block upper or lower triangular flat of residues,
    packed as the records pack it, whose diagonal entries are often a or d,
    so both verdicts are common.  l = 11 and 13 take 4-bit fields."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    a, d = draw(st.integers(1, ell - 1)), draw(st.integers(1, ell - 1))
    residue = st.integers(0, ell - 1)
    near = st.one_of(st.sampled_from([a, d]), residue)
    sparse = st.one_of(st.just(0), residue)

    def block(diagonal, other):
        return draw(diagonal), draw(other), draw(other), draw(diagonal)

    (a0, a1, a2, a3), (d0, d1, d2, d3) = block(near, sparse), block(near, sparse)
    o0, o1, o2, o3 = block(residue, residue)
    if draw(st.booleans()):
        flat = (a0, a1, o0, o1, a2, a3, o2, o3, 0, 0, d0, d1, 0, 0, d2, d3)
    else:
        flat = (a0, a1, 0, 0, a2, a3, 0, 0, o0, o1, d0, d1, o2, o3, d2, d3)
    return ell, pack_flat(flat, ell), a, d


@given(block_triangular_case())
@settings(max_examples=400, deadline=None)
def test_charpoly_proof_agrees_with_charpoly_rows(case):
    ell, packed, a, d = case
    rows = _rows(unpack_flat(packed, ell))
    want = charpoly_rows(rows, ell) == charpoly_rows(_diag_rows(a, d), ell)
    assert verifier._charpoly_prover(ell)(packed, a, d) == want


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_charpoly_proof_masks_the_blocks_by_flat_position(ell):
    prove = verifier._charpoly_prover(ell)
    cells = dict(zip(prove.__code__.co_freevars, (c.cell_contents for c in prove.__closure__)))
    assert (cells["lower_left"], cells["upper_right"], cells["diagonal"]) == tuple(
        position_mask(block, ell)
        for block in ((8, 9, 12, 13), (2, 3, 6, 7), (0, 1, 4, 5, 10, 11, 14, 15))
    )


def test_charpoly_proof_refuses_a_flat_that_is_not_block_triangular():
    # P diag(1, 1, 2, 2) P^-1 mod 5 for P = [[1, 0, 1, 0], [0, 1, 0, 0],
    # [1, 0, 2, 0], [0, 0, 0, 1]] has the squares as its charpoly, but both
    # off-diagonal blocks are nonzero: there is no block proof.
    ell, a, d = 5, 1, 2
    flat = (0, 0, 1, 0, 0, 1, 0, 0, 3, 0, 3, 0, 0, 0, 0, 2)
    assert charpoly_rows(_rows(flat), ell) == charpoly_rows(_diag_rows(a, d), ell)
    assert not _proves(flat, a, d, ell)


@pytest.fixture
def one_changed_record(monkeypatch):
    """``patch(change)`` makes the slab walk yield the first record whose
    unpacked image ``change(image, l)`` alters with the altered image, which
    it appends to the returned list.  The slab cache is cleared around it."""
    kernel = paramgroups._record_kernel
    changed = []

    def patch(change):
        def patched_kernel(ell):
            walk = kernel(ell).walk

            def changed_walk(a_range):
                for rec in walk(a_range):
                    flat = unpack_flat(rec.image, ell)
                    image = change(flat, ell)
                    if changed or image == flat:
                        yield rec
                    else:
                        changed.append(image)
                        yield rec._replace(image=pack_flat(image, ell))

            return kernel(ell)._replace(walk=changed_walk)

        monkeypatch.setattr(paramgroups, "_record_kernel", patched_kernel)
        return changed

    paramgroups.slab_records.cache_clear()
    yield patch
    paramgroups.slab_records.cache_clear()


def test_semisimp_charpoly_fails_on_a_changed_diagonal_entry(one_changed_record):
    changed = one_changed_record(
        lambda image, ell: (*image[:5], (image[5] + 1) % ell, *image[6:])
    )
    report = run_check("semisimp-charpoly", ell=3, twist="generic")
    assert report.status == "fail"
    assert f"image {changed[0]}" in report.witness
    assert report.counts == ()
    assert_report_grammar(format_report(report))


def test_semisimp_charpoly_fails_when_no_block_is_zero(one_changed_record):
    def fill_lower_left(image, ell):
        if not any(image[k] for k in (2, 3, 6, 7)):
            return image
        return (*image[:8], 1, *image[9:])

    changed = one_changed_record(fill_lower_left)
    report = run_check("semisimp-charpoly", ell=5, twist="trivial")
    assert report.status == "fail"
    assert "block-triangular" in report.witness
    assert f"image {changed[0]}" in report.witness
    assert_report_grammar(format_report(report))


@pytest.mark.parametrize("twist", ["generic", "trivial"])
@pytest.mark.parametrize("check_id", ["dual-route-agreement", "semisimp-charpoly"])
def test_l7_sampled_checks_fail_on_one_changed_record(check_id, twist, monkeypatch):
    """The kernel's sample, patched to move the diagonal entry d of its
    first image and to give that record the moved image as its isogeny
    dual, fails both sampled checks at l = 7, named by the moved image."""
    kernel = paramgroups._record_kernel
    changed = []

    def patched_kernel(ell):
        sample = kernel(ell).sample

        def changed_sample(bits, count, trivial):
            first, *rest = sample(bits, count, trivial)
            image = unpack_flat(first.image, ell)
            image = (*image[:5], (image[5] + 1) % ell, *image[6:])
            changed.append(image)
            packed = pack_flat(image, ell)
            return [first._replace(image=packed, dual_isogeny=packed), *rest]

        return kernel(ell)._replace(sample=changed_sample)

    monkeypatch.setattr(paramgroups, "_record_kernel", patched_kernel)
    report = run_check(check_id, ell=7, twist=twist)
    assert report.status == "fail"
    assert len(changed) == 1
    assert f"l=7 {twist}: " in report.witness
    assert f"image {changed[0]}" in report.witness
    assert report.counts == ()
    assert_report_grammar(format_report(report))
