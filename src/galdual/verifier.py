"""Named verification checks with structured, reproducible reports.

Each check recomputes one of the package's claims from scratch and compares
against the frozen constants; reports are deterministic up to runtime_ms,
so golden-file diffing works.  The registry is fixed; unknown ids and
out-of-contract parameters raise ValueError, while primes outside the
supported range {2, 3, 5, 7} produce a skipped report rather than an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from galdual import constants
from galdual.exactmat import (
    LAdicMatrix,
    charpoly4,
    check_prime,
    format_matrix,
    smith_normal_form,
)
from galdual.groupengine import (
    _perm_from_flat,
    common_stable_lines,
    conjugates_by,
    fixed_vectors,
    intertwiner_space,
    orbit_count,
    permutation_character,
    representations_equivalent,
    to_permutation_group,
    trivial_multiplicity,
)
from galdual.lattice import (
    KernelSpec,
    change_basis_from_kernel,
    change_basis_from_transformation,
    polarization_type,
    pushforward_polarization,
)
from galdual.paramgroups import (
    glued_polarization,
    gluing_kernel,
    image_rho_A,
    image_rho_Adual_contragredient,
    paired_generators,
    paired_group,
    sample_records,
    shape_parameters,
    slab_records,
)

SUPPORTED_PRIMES = (2, 3, 5, 7)
TWISTS = ("generic", "trivial")
SAMPLE_COUNT_L7 = 10_000


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; identical across runs except runtime_ms."""

    check_id: str
    params: tuple  # sorted (key, value-string) pairs
    status: str  # pass | fail | skipped
    counts: tuple  # sorted (key, int) pairs
    witness: Optional[str]
    runtime_ms: int


class _CheckFailed(Exception):
    def __init__(self, reason: str, counts: Optional[dict] = None):
        super().__init__(reason)
        self.reason = reason
        self.counts = counts or {}


# -- small shared helpers ---------------------------------------------------------


def _charpoly_matches_squares(flat, a: int, d: int, ell: int) -> bool:
    """Whether det(xI - M) = (x-a)^2 (x-d)^2 as polynomials over F_l.

    Compares the four coefficients of the monic quartics, a complete proof
    for every l: (x-a)^2 (x-d)^2 = x^4 - 2(a+d) x^3 + (a^2 + 4ad + d^2) x^2
    - 2ad(a+d) x + a^2 d^2.
    """
    e1, e2, e3, e4 = charpoly4(flat)
    ad = a * d
    return (
        (e1 - 2 * (a + d)) % ell == 0
        and (e2 - a * a - 4 * ad - d * d) % ell == 0
        and (e3 - 2 * ad * (a + d)) % ell == 0
        and (e4 - ad * ad) % ell == 0
    )


def _records(ell: int, twist: str, seed_tag: str):
    if ell <= 5:
        return slab_records(ell, twist)
    return sample_records(ell, twist, SAMPLE_COUNT_L7, f"{seed_tag}:{ell}:{twist}")


def _diag(values, ell):
    n = len(values)
    return LAdicMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], ell
    )


# -- check bodies -----------------------------------------------------------------
# Each body takes (ells, twists) and returns (counts dict, witness or None),
# raising _CheckFailed with a counterexample message on any mismatch.


def _check_lattice_examples(ells, twists):
    counts = {}
    for ell in ells:
        mult = change_basis_from_transformation(_diag([ell, ell], ell))
        if mult != _diag([(1, 1), (1, 1)], ell):
            raise _CheckFailed(f"l={ell}: multiplication-by-l basis is {format_matrix(mult)}")
        cyc = change_basis_from_kernel(KernelSpec(ell, 1, 2, ((1, 0),)))
        if cyc != LAdicMatrix.from_rows([[(1, 1), 0], [0, 1]], ell):
            raise _CheckFailed(f"l={ell}: cyclic-kernel basis is {format_matrix(cyc)}")
        glue = change_basis_from_kernel(gluing_kernel(ell))
        expected_glue = LAdicMatrix.from_rows(
            [[1, 0, (1, 1), 0], [0, 1, 0, 0], [0, 0, (1, 1), 0], [0, 0, 0, 1]], ell
        )
        if glue != expected_glue:
            raise _CheckFailed(f"l={ell}: gluing basis is {format_matrix(glue)}")
        principal = LAdicMatrix.from_rows([[0, 1], [-1, 0]], ell)
        pushed, degree = pushforward_polarization(
            principal, _diag([ell, 1], ell), KernelSpec(ell, 1, 2, ((1, 0),))
        )
        if pushed != principal or degree != ell:
            raise _CheckFailed(
                f"l={ell}: pushforward gave degree {degree}, {format_matrix(pushed)}"
            )
        counts[f"l{ell}_examples"] = 4
    return counts, None


def _check_type_1_ell(ells, twists):
    counts = {}
    for ell in ells:
        n_pol, degree = glued_polarization(ell)
        expected = LAdicMatrix.from_rows(
            [[0, ell, 0, 0], [-ell, 0, -1, 0], [0, 1, 0, 1], [0, 0, -1, 0]], ell
        )
        if n_pol != expected:
            raise _CheckFailed(f"l={ell}: pairing is {format_matrix(n_pol)}")
        vals = smith_normal_form(n_pol).valuations
        if vals != (0, 0, 1, 1):
            raise _CheckFailed(f"l={ell}: Smith valuations {vals}")
        ptype = polarization_type(n_pol, 2)
        if ptype != (1, ell) or degree != ell:
            raise _CheckFailed(f"l={ell}: type {ptype}, degree {degree}")
        counts[f"l{ell}_type_checks"] = 3
    return counts, None


def _check_dual_route_agreement(ells, twists):
    counts = {}
    for ell in ells:
        for twist in twists:
            n = 0
            for rec in _records(ell, twist, "dual-route-agreement"):
                if rec.dual_contragredient != rec.dual_isogeny:
                    raise _CheckFailed(
                        f"l={ell} {twist}: routes differ at image {rec.image}",
                        counts,
                    )
                n += 1
            counts[f"l{ell}_{twist}"] = n
    return counts, None


def _check_thm_main(ells, twists):
    counts = {}
    for ell in ells:
        pairs = paired_group(2) if ell == 2 else paired_generators(ell)
        equivalent, witness = representations_equivalent(pairs)
        dim = len(intertwiner_space(pairs).basis)
        counts[f"l{ell}_intertwiner_dim"] = dim
        counts[f"l{ell}_invertible_found"] = int(equivalent)
        if dim != constants.INTERTWINER_DIMENSIONS[ell]:
            raise _CheckFailed(
                f"l={ell}: intertwiner dimension {dim}", counts
            )
        if equivalent:
            raise _CheckFailed(
                f"l={ell}: invertible intertwiner {format_matrix(witness)}", counts
            )
    return counts, None


def _check_stable_lines(ells, twists):
    counts = {}
    parts = []
    for ell in ells:
        surface = common_stable_lines(image_rho_A(ell, with_elements=False))
        dual = common_stable_lines(
            image_rho_Adual_contragredient(ell, with_elements=False)
        )
        counts[f"l{ell}_surface_lines"] = len(surface)
        counts[f"l{ell}_dual_lines"] = len(dual)
        if len(surface) != 1 or surface[0].line != (1, 0, 0, 0):
            raise _CheckFailed(f"l={ell}: surface lines {[s.line for s in surface]}", counts)
        if len(dual) != 1 or dual[0].line != (0, 0, 1, 0):
            raise _CheckFailed(f"l={ell}: dual lines {[s.line for s in dual]}", counts)
        for g, val in surface[0].character:
            if val != shape_parameters(g)[0]:
                raise _CheckFailed(f"l={ell}: surface character is not a", counts)
        for g, val in dual[0].character:
            if val != g.entries[2][2]:
                raise _CheckFailed(f"l={ell}: dual character is not d", counts)
        parts.append(f"l={ell} surface (1,0,0,0) dual (0,0,1,0)")
    return counts, "; ".join(parts)


def _check_semisimp(ells, twists):
    counts = {}
    for ell in ells:
        for twist in twists:
            n = 0
            for rec in _records(ell, twist, "semisimp-charpoly"):
                ok = _charpoly_matches_squares(
                    rec.image, rec.a, rec.d, ell
                ) and _charpoly_matches_squares(
                    rec.dual_contragredient, rec.a, rec.d, ell
                )
                if not ok:
                    raise _CheckFailed(
                        f"l={ell} {twist}: charpoly mismatch at a={rec.a} d={rec.d}"
                        f" image {rec.image}",
                        counts,
                    )
                n += 1
            counts[f"l{ell}_{twist}"] = n
    return counts, None


# The block swap S (e1 <-> e3, e2 <-> e4) as a flat 4x4 matrix.  Conjugating
# by S carries the zero pattern and the diagonal equalities of
# matches_image_shape onto those of matches_dual_shape, and at the generic
# twist it maps the surface image onto the dual image.  The point map of S
# on F_l^4 is then a conjugator of the permutation groups.  At the trivial
# twist it is not (the orbit counts there are 9 and 11).
_BLOCK_SWAP = (0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0)


def _check_perm_conj(ells, twists):
    counts = {}
    for ell in ells:
        pa = to_permutation_group(image_rho_A(ell))
        pd = to_permutation_group(image_rho_Adual_contragredient(ell))
        counts[f"l{ell}_degree"] = pa.degree
        counts[f"l{ell}_order"] = pa.order
        sigma = _perm_from_flat(_BLOCK_SWAP, ell, [ell**i for i in range(4)])
        verdict = conjugates_by(sigma, pa, pd)
        counts[f"l{ell}_conjugate"] = int(verdict)
        if not verdict:
            raise _CheckFailed(
                f"l={ell}: permutation groups are not conjugate", counts
            )
    return counts, None


def _multiset(values) -> tuple:
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return tuple(sorted(out.items()))


def _check_perm_char_distinct(ells, twists):
    pa = to_permutation_group(image_rho_A(3, "trivial"))
    pd = to_permutation_group(image_rho_Adual_contragredient(3, "trivial"))
    ma = _multiset(permutation_character(pa))
    md = _multiset(permutation_character(pd))
    counts = {
        "surface_value_classes": len(ma),
        "dual_value_classes": len(md),
        "multisets_equal": int(ma == md),
    }
    if ma != constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_SURFACE:
        raise _CheckFailed(f"surface multiset drifted to {ma}", counts)
    if md != constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_DUAL:
        raise _CheckFailed(f"dual multiset drifted to {md}", counts)
    if ma == md:
        raise _CheckFailed("character multisets coincide", counts)
    return counts, f"surface {ma}; dual {md}"


def _check_trivial_multiplicity(ells, twists):
    pa = to_permutation_group(image_rho_A(3, "trivial"))
    pd = to_permutation_group(image_rho_Adual_contragredient(3, "trivial"))
    ma, md = trivial_multiplicity(pa), trivial_multiplicity(pd)
    counts = {"surface": ma, "dual": md}
    if (ma, md) != (
        constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE,
        constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_DUAL,
    ):
        raise _CheckFailed(f"multiplicities drifted to ({ma}, {md})", counts)
    if ma == md:
        raise _CheckFailed("multiplicities coincide", counts)
    if (orbit_count(pa), orbit_count(pd)) != (ma, md):
        raise _CheckFailed("Burnside average disagrees with orbit count", counts)
    return counts, None


def _check_fixed_points(ells, twists):
    counts = {}
    for ell in ells:
        ds = fixed_vectors(image_rho_A(ell, "trivial", with_elements=False))
        dd = fixed_vectors(
            image_rho_Adual_contragredient(ell, "trivial", with_elements=False)
        )
        counts[f"l{ell}_surface_dim"] = ds
        counts[f"l{ell}_dual_dim"] = dd
        if ds != constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_SURFACE or ds < 1:
            raise _CheckFailed(f"l={ell}: surface fixed dimension {ds}", counts)
        if dd != constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_DUAL:
            raise _CheckFailed(f"l={ell}: dual fixed dimension {dd}", counts)
    return counts, None


def _check_census_576(ells, twists):
    from galdual.formstab import (
        glued_form_stabilizer,
        glued_pairing_mod2,
        structure_invariants,
    )

    si = structure_invariants(glued_form_stabilizer(), form=glued_pairing_mod2())
    se = si.split_extension
    counts = {
        "order": si.order,
        "exponent": si.exponent,
        "solvable": int(si.solvable),
        "kernel_order": len(se.kernel),
        "complement_order": len(se.complement),
    }
    if si.order != constants.FORM_STABILIZER_ORDER:
        raise _CheckFailed(f"stabilizer order {si.order}", counts)
    if si.exponent != constants.FORM_STABILIZER_EXPONENT or not si.solvable:
        raise _CheckFailed(
            f"exponent {si.exponent}, solvable {si.solvable}", counts
        )
    if si.derived_series != constants.FORM_STABILIZER_DERIVED_SERIES:
        raise _CheckFailed(f"derived series {si.derived_series}", counts)
    if len(se.kernel) != 16 or len(se.complement) != 36 or se.projection_orders != (6, 6):
        raise _CheckFailed("kernel/complement decomposition drifted", counts)
    return counts, None


def _check_census_128(ells, twists):
    from galdual.formstab import stabilizer_class_list

    records = stabilizer_class_list()
    total = sum(r.class_size for r in records)
    counts = {"classes": len(records), "total_subgroups": total}
    if len(records) != constants.SUBGROUP_CLASS_COUNT:
        raise _CheckFailed(f"{len(records)} classes", counts)
    if total != constants.TOTAL_SUBGROUP_COUNT:
        raise _CheckFailed(f"{total} total subgroups", counts)
    return counts, None


def _check_census_78_52(ells, twists):
    from galdual.formstab import stabilizer_census

    census = stabilizer_census()
    non_self_dual = [r for r in census.records if not r.self_dual_as_rep]
    counts = {
        "not_rep_equivalent": census.not_rep_equivalent,
        "not_subgroup_conjugate": census.not_subgroup_conjugate,
        "smallest_non_self_dual": min(r.order for r in non_self_dual),
        "largest_non_self_dual": max(r.order for r in non_self_dual),
    }
    if census.not_rep_equivalent != constants.CENSUS_NOT_REP_EQUIVALENT:
        raise _CheckFailed(f"{census.not_rep_equivalent} non-equivalent classes", counts)
    if census.not_subgroup_conjugate != constants.CENSUS_NOT_SUBGROUP_CONJUGATE:
        raise _CheckFailed(f"{census.not_subgroup_conjugate} non-conjugate classes", counts)
    if counts["smallest_non_self_dual"] != 4:
        raise _CheckFailed("no order-4 class in the non-self-dual list", counts)
    if counts["largest_non_self_dual"] != constants.FORM_STABILIZER_ORDER:
        raise _CheckFailed("the full group is missing from the non-self-dual list", counts)
    for rec in census.records:
        if rec.self_dual_as_rep and not rec.image_conjugate_to_dual:
            raise _CheckFailed(
                f"class of order {rec.order} is equivalent but not conjugate", counts
            )
    return counts, None


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class _CheckSpec:
    body: Callable
    ells: tuple  # primes the check accepts; () = takes no ell parameter
    twists: tuple  # twists the check accepts; () = takes no twist parameter
    census: bool = False  # excluded from the quick profile entirely


_REGISTRY = {
    "lattice-examples": _CheckSpec(_check_lattice_examples, SUPPORTED_PRIMES, ()),
    "type-1-ell": _CheckSpec(_check_type_1_ell, SUPPORTED_PRIMES, ()),
    "dual-route-agreement": _CheckSpec(
        _check_dual_route_agreement, SUPPORTED_PRIMES, TWISTS
    ),
    "thm-main-rep-nonisomorphic": _CheckSpec(_check_thm_main, SUPPORTED_PRIMES, ()),
    "stable-lines": _CheckSpec(_check_stable_lines, (3, 5, 7), ()),
    "semisimp-charpoly": _CheckSpec(_check_semisimp, SUPPORTED_PRIMES, TWISTS),
    "perm-conj": _CheckSpec(_check_perm_conj, (2, 3), ()),
    "perm-char-distinct": _CheckSpec(_check_perm_char_distinct, (3,), ("trivial",)),
    "trivial-multiplicity": _CheckSpec(
        _check_trivial_multiplicity, (3,), ("trivial",)
    ),
    "fixed-points": _CheckSpec(_check_fixed_points, (3, 5, 7), ("trivial",)),
    "census-576": _CheckSpec(_check_census_576, (), (), census=True),
    "census-128": _CheckSpec(_check_census_128, (), (), census=True),
    "census-78-52": _CheckSpec(_check_census_78_52, (), (), census=True),
}


def check_ids() -> tuple:
    return tuple(sorted(_REGISTRY))


def _validate_params(check_id: str, ell, twist):
    """Returns (ells, twists, skip_reason)."""
    spec = _REGISTRY[check_id]
    if ell is not None:
        if not spec.ells:
            raise ValueError(f"{check_id} takes no ell parameter")
        check_prime(ell)  # non-primes are contract violations, not skips
        if ell not in SUPPORTED_PRIMES:
            return (), (), "outside paper range"
        if ell not in spec.ells:
            raise ValueError(
                f"{check_id} supports ell in {spec.ells}, not {ell}"
            )
    if twist is not None:
        if twist not in TWISTS:
            raise ValueError(f"unknown twist: {twist!r}")
        if not spec.twists:
            raise ValueError(f"{check_id} takes no twist parameter")
        if twist not in spec.twists:
            raise ValueError(
                f"{check_id} supports twist in {spec.twists}, not {twist!r}"
            )
    ells = (ell,) if ell is not None else spec.ells
    twists = (twist,) if twist is not None else spec.twists
    return ells, twists, None


def _param_pairs(spec, ell, twist, ells, twists) -> tuple:
    params = []
    if ell is not None:
        params.append(("ell", str(ell)))
    elif spec.ells and ells:
        params.append(("ells", ",".join(str(e) for e in ells)))
    if twist is not None:
        params.append(("twist", twist))
    elif spec.twists and twists:
        params.append(("twists", ",".join(twists)))
    return tuple(sorted(params))


def run_check(check_id: str, ell: Optional[int] = None, twist: Optional[str] = None) -> CheckReport:
    """Run one registered check; deterministic apart from runtime_ms."""
    if check_id not in _REGISTRY:
        raise ValueError(f"unknown check id: {check_id}")
    spec = _REGISTRY[check_id]
    ells, twists, skip_reason = _validate_params(check_id, ell, twist)
    t0 = time.monotonic()
    if skip_reason is not None:
        return CheckReport(
            check_id=check_id,
            params=_param_pairs(spec, ell, twist, (), ()),
            status="skipped",
            counts=(),
            witness=skip_reason,
            runtime_ms=int((time.monotonic() - t0) * 1000),
        )
    return _execute(check_id, spec, ells, twists, _param_pairs(spec, ell, twist, ells, twists), t0)


def _execute(check_id, spec, ells, twists, params, t0) -> CheckReport:
    try:
        counts, witness = spec.body(ells, twists)
        status = "pass"
    except _CheckFailed as failure:
        counts, witness, status = failure.counts, failure.reason, "fail"
    return CheckReport(
        check_id=check_id,
        params=params,
        status=status,
        counts=tuple(sorted(counts.items())),
        witness=witness,
        runtime_ms=int((time.monotonic() - t0) * 1000),
    )


def run_all(profile: str = "quick") -> list:
    """Run the registry sequentially, ordered by check id.

    quick: every check except the census ones, with l = 7 left out of the
    enumeration ranges.  full: everything.
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile: {profile!r}")
    reports = []
    for check_id in check_ids():
        spec = _REGISTRY[check_id]
        if profile == "quick" and spec.census:
            continue
        ells = spec.ells
        if profile == "quick":
            ells = tuple(e for e in ells if e != 7)
        t0 = time.monotonic()
        params = _param_pairs(spec, None, None, ells, spec.twists)
        reports.append(_execute(check_id, spec, ells, spec.twists, params, t0))
    return reports


def all_passed(reports) -> bool:
    return all(r.status != "fail" for r in reports)


# -- report rendering ---------------------------------------------------------------


def format_report(report: CheckReport) -> str:
    lines = [f"check {report.check_id}"]
    lines.extend(f"  param {k}={v}" for k, v in report.params)
    lines.append(f"  status {report.status}")
    lines.extend(f"  count {k}={v}" for k, v in report.counts)
    if report.witness is not None:
        lines.append(f"  witness <<< {report.witness} >>>")
    lines.append(f"  runtime_ms {report.runtime_ms}")
    return "\n".join(lines) + "\n"


def format_reports(reports) -> str:
    return "\n".join(format_report(r) for r in reports)
