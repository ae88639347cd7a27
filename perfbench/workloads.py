"""The three workloads, each with its correctness gate.

A workload is ``prepare(seed) -> inputs`` (untimed, plain data turned into
galdual objects) and ``body(rec, inputs)`` (timed).  The body calls only
public galdual functions, one after another, through ``rec.call``; each
call names the layer metric its time feeds.  Outputs are compared with
the frozen values in ``galdual.constants`` or with an identity computed
through a different public function.
"""

from __future__ import annotations

from galdual import constants
from galdual.exactmat import (
    LAdicMatrix,
    format_matrix,
    lval,
    parse_ladic,
    smith_normal_form,
)
from galdual.formstab import (
    contragredient_census,
    glued_form_stabilizer,
    glued_pairing_mod2,
    structure_invariants,
    subgroup_conjugacy_classes,
)
from galdual.groupengine import gl4_elements
from galdual.lattice import (
    KernelSpec,
    change_basis_from_kernel,
    change_basis_from_transformation,
    format_kernel,
    parse_kernel,
    polarization_type,
    pullback_polarization,
    pushforward_polarization,
)
from galdual.paramgroups import parameter_count, sample_records, slab_records
from galdual.verifier import run_check

from lattice_inputs import generate
from recorder import first_problem, same

TWISTS = ("generic", "trivial")
SAMPLE_COUNT_L7 = 10_000
LATTICE_CASES_PER_STRATUM = 32  # 16 (l, dim, n) strata


# -- census_mod2 -------------------------------------------------------------------


def _check_gl4(elements):
    closed_form = (16 - 1) * (16 - 2) * (16 - 4) * (16 - 8)
    return first_problem(
        same(len(elements), constants.GL4_F2_ORDER),
        same(len(elements), closed_form),
    )


def _check_structure(si):
    se = si.split_extension
    return first_problem(
        same(si.order, constants.FORM_STABILIZER_ORDER),
        same(si.exponent, constants.FORM_STABILIZER_EXPONENT),
        same(si.solvable, True),
        same(si.derived_series, constants.FORM_STABILIZER_DERIVED_SERIES),
        same((len(se.kernel), len(se.complement), se.projection_orders), (16, 36, (6, 6))),
        same(len(se.kernel) * len(se.complement), si.order),
    )


def _check_classes(classes):
    order = constants.FORM_STABILIZER_ORDER
    bad = [r.order for r in classes if order % (r.order * r.class_size)]
    return first_problem(
        same(len(classes), constants.SUBGROUP_CLASS_COUNT),
        same(sum(r.class_size for r in classes), constants.TOTAL_SUBGROUP_COUNT),
        same(bad, []),  # Lagrange and orbit-stabilizer: |H| * [G:N(H)] divides |G|
    )


def _check_census(census):
    non_self_dual = [r.order for r in census.records if not r.self_dual_as_rep]
    equivalent_not_conjugate = [
        r.order
        for r in census.records
        if r.self_dual_as_rep and not r.image_conjugate_to_dual
    ]
    return first_problem(
        same(len(census.records), constants.SUBGROUP_CLASS_COUNT),
        same(census.not_rep_equivalent, constants.CENSUS_NOT_REP_EQUIVALENT),
        same(census.not_subgroup_conjugate, constants.CENSUS_NOT_SUBGROUP_CONJUGATE),
        same(len(non_self_dual), census.not_rep_equivalent),
        same((min(non_self_dual), max(non_self_dual)), (4, constants.FORM_STABILIZER_ORDER)),
        same(equivalent_not_conjugate, []),
    )


def _census_mod2(rec, inputs):
    gl4 = rec.call("groupengine.gl4_elements", gl4_elements, check=_check_gl4)
    rec.count("groupengine.gl4_count", len(gl4 or ()))
    stab = rec.call(
        "formstab.glued_form_stabilizer", glued_form_stabilizer,
        check=lambda s: same(len(s), constants.FORM_STABILIZER_ORDER),
    )
    form = glued_pairing_mod2()
    rec.call(
        "formstab.structure_invariants", structure_invariants, stab, form=form,
        check=_check_structure,
    )
    classes = rec.call(
        "formstab.subgroup_conjugacy_classes", subgroup_conjugacy_classes, stab,
        check=_check_classes,
    )
    census = rec.call(
        "formstab.contragredient_census", contragredient_census, classes, form,
        check=_check_census,
    )
    if classes is not None:
        rec.count("formstab.classes", len(classes))
        rec.count("formstab.subgroups", sum(r.class_size for r in classes))
    if census is not None:
        rec.count("formstab.not_rep_equivalent", census.not_rep_equivalent)
        rec.count("formstab.not_conjugate", census.not_subgroup_conjugate)


# -- family_enumeration ------------------------------------------------------------


def _check_records(records, ell, twist, count):
    """Record count, the two dual routes agree, and (a, d) are units."""
    bad = [
        r.image
        for r in records
        if r.dual_contragredient != r.dual_isogeny
        or not (0 < r.a < ell and 0 < r.d < ell)
        or (twist == "trivial" and r.a != 1)
    ]
    return first_problem(same(len(records), count), same(bad[:1], []))


def _expected_report_counts(check_id: str) -> dict:
    ells = (2, 3, 5, 7)
    if check_id == "perm-conj":  # run at l = 2 only, see REGISTRY_CHECKS
        order = constants.IMAGE_GROUP_ORDERS[(2, "generic")]
        return {"l2_conjugate": 1, "l2_degree": 2**4, "l2_order": order}
    if check_id == "perm-char-distinct":
        return {
            "surface_value_classes": len(constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_SURFACE),
            "dual_value_classes": len(constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_DUAL),
            "multisets_equal": 0,
        }
    if check_id == "trivial-multiplicity":
        return {
            "surface": constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE,
            "dual": constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_DUAL,
        }
    if check_id in ("dual-route-agreement", "semisimp-charpoly"):
        return {
            f"l{ell}_{twist}": parameter_count(ell, twist) if ell <= 5 else SAMPLE_COUNT_L7
            for ell in ells
            for twist in TWISTS
        }
    if check_id == "thm-main-rep-nonisomorphic":
        out = {f"l{e}_intertwiner_dim": d for e, d in constants.INTERTWINER_DIMENSIONS.items()}
        out.update({f"l{ell}_invertible_found": 0 for ell in ells})
        return out
    if check_id == "stable-lines":
        return {f"l{ell}_{side}_lines": 1 for ell in (3, 5, 7) for side in ("surface", "dual")}
    if check_id == "fixed-points":
        return {
            f"l{ell}_{side}_dim": dim
            for ell in (3, 5, 7)
            for side, dim in (
                ("surface", constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_SURFACE),
                ("dual", constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_DUAL),
            )
        }
    if check_id == "lattice-examples":
        return {f"l{ell}_examples": 4 for ell in ells}
    return {f"l{ell}_type_checks": 3 for ell in ells}  # type-1-ell


# (layer metric, check id, run_check parameters).  perm-conj runs at l = 2
# only: its l = 3 search is one call of 30 to 50 s, too long for a steady run.
REGISTRY_CHECKS = (
    ("verifier.dual_route_agreement", "dual-route-agreement", {}),
    ("verifier.semisimp_charpoly", "semisimp-charpoly", {}),
    ("verifier.thm_main", "thm-main-rep-nonisomorphic", {}),
    ("verifier.small_checks", "stable-lines", {}),
    ("verifier.small_checks", "fixed-points", {}),
    ("verifier.small_checks", "lattice-examples", {}),
    ("verifier.small_checks", "type-1-ell", {}),
    ("verifier.perm_checks", "perm-conj", {"ell": 2}),
    ("verifier.perm_checks", "perm-char-distinct", {}),
    ("verifier.perm_checks", "trivial-multiplicity", {}),
)


def _family_enumeration(rec, seed):
    for ell in (2, 3, 5):
        for twist in TWISTS:
            count = constants.IMAGE_GROUP_ORDERS[(ell, twist)]
            records = rec.call(
                "paramgroups.slab_records", slab_records, ell, twist,
                check=lambda rs: first_problem(
                    same(parameter_count(ell, twist), count),
                    _check_records(rs, ell, twist, count),
                ),
            )
            rec.count("paramgroups.records_built", len(records or ()))
    for twist in TWISTS:
        records = rec.call(
            "paramgroups.sample_records", sample_records, 7, twist, SAMPLE_COUNT_L7, seed,
            check=lambda rs: _check_records(rs, 7, twist, SAMPLE_COUNT_L7),
        )
        rec.count("paramgroups.records_built", len(records or ()))
    for layer, check_id, params in REGISTRY_CHECKS:
        wanted = _expected_report_counts(check_id)
        rec.call(
            layer, run_check, check_id, **params,
            check=lambda report: first_problem(
                same(report.status, "pass"),
                same({k: v for k, v in report.counts if k in wanted}, wanted),
            ),
        )


# -- lattice_calculus ----------------------------------------------------------------


def _prepare_lattice(seed):
    """Turn the seeded plain-data cases into galdual inputs (untimed)."""
    return [
        (
            case,
            LAdicMatrix.from_rows(case.iso_rows, case.ell),
            LAdicMatrix.from_rows(case.pol_rows, case.ell),
            KernelSpec(case.ell, case.n, case.dim, case.kernel_gens),
        )
        for case in generate(seed, LATTICE_CASES_PER_STRATUM)
    ]


def _alternating_integral(m):
    return first_problem(
        same(m.is_alternating(), True), same(m.is_integral(), True)
    )


def _lattice_case(rec, case, iso, pol, ker):
    ell, dim, g = case.ell, case.dim, case.dim // 2
    ident = LAdicMatrix.identity(dim, ell)
    v_iso = sum(case.iso_exponents)
    v_pol = 2 * sum(case.pol_exponents)
    v_ker = case.n * len(case.kernel_gens)

    inv = rec.call(
        "lattice.change_basis_from_transformation", change_basis_from_transformation, iso,
        check=lambda b: same(iso.mul(b), ident),
    )
    rec.call(
        "exactmat.smith_normal_form", smith_normal_form, iso,
        check=lambda s: first_problem(
            same(sum(s.valuations), v_iso), same(lval(iso.det(), ell), v_iso)
        ),
    )
    pulled = rec.call(
        "lattice.pullback_polarization", pullback_polarization, pol, iso,
        check=lambda q: first_problem(
            _alternating_integral(q), same(lval(q.det(), ell), 2 * v_iso + v_pol)
        ),
    )
    rec.call(
        "lattice.polarization_type", polarization_type, pulled, g,
        check=lambda t: same(2 * sum(lval(d, ell) for d in t), 2 * v_iso + v_pol),
    )
    basis = rec.call(
        "lattice.change_basis_from_kernel", change_basis_from_kernel, ker,
        check=lambda b: same(lval(b.det(), ell), -v_ker),
    )
    transform = rec.call(
        "lattice.change_basis_from_transformation", change_basis_from_transformation, basis,
        check=lambda t: first_problem(
            same(t.is_integral(), True), same(basis.mul(t), ident)
        ),
    )
    rec.call(
        "lattice.pushforward_polarization", pushforward_polarization, pol, transform, ker,
        check=lambda out: first_problem(
            _alternating_integral(out[0]),
            same(
                lval(out[0].det(), ell),
                2 * g * lval(out[1], ell) + v_pol - 2 * v_ker,
            ),
        ),
    )
    rec.call(
        "exactmat.text_roundtrip", lambda m: parse_ladic(format_matrix(m), ell), inv,
        check=lambda m: same(m, inv),
    )
    rec.call(
        "exactmat.text_roundtrip", lambda k: parse_kernel(format_kernel(k)), ker,
        check=lambda k: same(k, ker),
    )


def _lattice_calculus(rec, cases):
    before_attempted, before_failed = rec.attempted, rec.failed
    for case in cases:
        _lattice_case(rec, *case)
    rec.count("lattice.ops", rec.attempted - before_attempted)
    rec.count("lattice.ops_failed", rec.failed - before_failed)


# -- registry ---------------------------------------------------------------------


def _no_inputs(seed):
    return None


# name -> (prepare, body); prepare runs untimed, body under the root span.
# Only family_enumeration and lattice_calculus read the seed: census_mod2
# computes the paper's fixed objects, which no seed changes.
WORKLOADS = {
    "census_mod2": (_no_inputs, _census_mod2),
    "family_enumeration": (lambda seed: seed, _family_enumeration),
    "lattice_calculus": (_prepare_lattice, _lattice_calculus),
}
