"""Named verification checks with structured, reproducible reports.

Each check recomputes one of the package's claims from scratch and compares
against the frozen constants; reports are deterministic up to runtime_ms,
so golden-file diffing works.  The registry is fixed; unknown ids and
out-of-contract parameters raise ValueError, while primes outside the
supported range {2, 3, 5, 7} produce a skipped report rather than an error.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from galdual import constants
from galdual.exactmat import (
    LOWER_LEFT,
    LOWER_RIGHT,
    UPPER_LEFT,
    UPPER_RIGHT,
    LAdicMatrix,
    check_prime,
    closure,
    format_matrix,
    pack_flat,
    position_mask,
    smith_normal_form,
    unpack_flat,
)
from galdual.formstab import (
    glued_form_stabilizer,
    glued_pairing_mod2,
    stabilizer_census,
    stabilizer_class_list,
    structure_invariants,
)
from galdual.groupengine import (
    common_stable_lines,
    fixed_vectors,
    intertwiner_basis,
    invertible_line,
)
from galdual.lattice import (
    KernelSpec,
    change_basis_from_kernel,
    change_basis_from_transformation,
    polarization_type,
    pushforward_polarization,
)
from galdual.paramgroups import (
    TWISTS,
    _check_twist,
    glued_polarization,
    gluing_kernel,
    image_rho_A,
    image_rho_Adual_contragredient,
    paired_generators,
    sample_records,
    shape_parameters,
    slab_records,
)

SUPPORTED_PRIMES = (2, 3, 5, 7)
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


def _charpoly_prover(ell: int):
    """``prove(packed, a, d)``: whether det(xI - M) = (x-a)^2 (x-d)^2 over
    F_l for the packed flat M, by a block-triangular proof.

    When M's lower-left 2x2 block (flat 8, 9, 12, 13) or its upper-right one
    (flat 2, 3, 6, 7) is zero, det(xI - M) = det(xI - A) det(xI - D) for the
    diagonal blocks A and D, with traces t1, t2 and determinants n1, n2:
    x^4 - e1 x^3 + e2 x^2 - e3 x + e4 with e1 = t1 + t2, e2 = n1 + n2 +
    t1 t2, e3 = t1 n2 + t2 n1 and e4 = n1 n2.  (x-a)^2 (x-d)^2 is the
    quartic of aI and dI, so comparing the e_i mod l is a complete proof at
    every l; with both off-diagonal blocks nonzero the answer is False.  The
    e_i depend only on the diagonal blocks' bits, each pair expanded once.
    """
    lower_left, upper_right, diagonal = (
        position_mask(block, ell)
        for block in (LOWER_LEFT, UPPER_RIGHT, UPPER_LEFT + LOWER_RIGHT)
    )

    def quartic(t1, n1, t2, n2) -> tuple:
        return tuple(e % ell for e in (t1 + t2, n1 + n2 + t1 * t2, t1 * n2 + t2 * n1, n1 * n2))

    squares = [[quartic(2 * a, a * a, 2 * d, d * d) for d in range(ell)] for a in range(ell)]
    known: dict = {}

    def expand(blocks: int) -> tuple:
        m0, m1, _, _, m4, m5, _, _, _, _, m10, m11, _, _, m14, m15 = unpack_flat(blocks, ell)
        known[blocks] = q = quartic(m0 + m5, m0 * m5 - m1 * m4, m10 + m15, m10 * m15 - m11 * m14)
        return q

    def prove(packed: int, a: int, d: int) -> bool:
        if packed & lower_left and packed & upper_right:
            return False
        blocks = packed & diagonal
        return (known.get(blocks) or expand(blocks)) == squares[a][d]

    return prove


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
                        f"l={ell} {twist}: routes differ at image {unpack_flat(rec.image, ell)}",
                        counts,
                    )
                n += 1
            counts[f"l{ell}_{twist}"] = n
    return counts, None


def _check_thm_main(ells, twists):
    counts = {}
    for ell in ells:
        basis = intertwiner_basis(ell, paired_generators(ell))
        witness = invertible_line(ell, basis)
        dim = len(basis)
        counts[f"l{ell}_intertwiner_dim"] = dim
        counts[f"l{ell}_invertible_found"] = int(witness is not None)
        if dim != constants.INTERTWINER_DIMENSIONS[ell]:
            raise _CheckFailed(
                f"l={ell}: intertwiner dimension {dim}", counts
            )
        if witness is not None:
            raise _CheckFailed(
                f"l={ell}: invertible intertwiner {unpack_flat(witness, ell)}", counts
            )
    return counts, None


def _check_stable_lines(ells, twists):
    counts = {}
    parts = []
    for ell in ells:
        gens, dual_gens = zip(*paired_generators(ell))
        surface = common_stable_lines(ell, gens)
        dual = common_stable_lines(ell, dual_gens)
        counts[f"l{ell}_surface_lines"] = len(surface)
        counts[f"l{ell}_dual_lines"] = len(dual)
        if len(surface) != 1 or surface[0].line != (1, 0, 0, 0):
            raise _CheckFailed(f"l={ell}: surface lines {[s.line for s in surface]}", counts)
        if len(dual) != 1 or dual[0].line != (0, 0, 1, 0):
            raise _CheckFailed(f"l={ell}: dual lines {[s.line for s in dual]}", counts)
        for g, val in surface[0].character:
            if val != shape_parameters(g, ell)[0]:
                raise _CheckFailed(f"l={ell}: surface character is not a", counts)
        for g, val in dual[0].character:
            if val != unpack_flat(g, ell)[10]:  # entry (2, 2)
                raise _CheckFailed(f"l={ell}: dual character is not d", counts)
        parts.append(f"l={ell} surface (1,0,0,0) dual (0,0,1,0)")
    return counts, "; ".join(parts)


def _check_semisimp(ells, twists):
    counts = {}
    for ell in ells:
        prove = _charpoly_prover(ell)
        for twist in twists:
            n = 0
            for image, dual, _, a, d in _records(ell, twist, "semisimp-charpoly"):
                if not (prove(image, a, d) and prove(dual, a, d)):
                    raise _CheckFailed(
                        f"l={ell} {twist}: no block-triangular proof that the charpoly"
                        f" is (x-a)^2 (x-d)^2 at a={a} d={d} image {unpack_flat(image, ell)}"
                        f" contragredient {unpack_flat(dual, ell)}",
                        counts,
                    )
                n += 1
            counts[f"l{ell}_{twist}"] = n
    return counts, None


# The block swap S (e1 <-> e3, e2 <-> e4) as a coordinate permutation s.
# Conjugating by S carries the zero pattern and the diagonal equalities of
# matches_image_shape onto the reflected pattern of the dual image, and at
# the generic twist it maps the surface image onto the dual image.  At the
# trivial twist it does not (the orbit counts there are 9 and 11).
_BLOCK_SWAP = (2, 3, 0, 1)


def _check_perm_conj(ells, twists):
    """The point map sigma of S conjugates the permutation action of the
    surface image G_A on the l^4 vectors of F_l^4 onto that of the dual
    image G_D.

    Checked on matrices: for the action pi of GL4(F_l) on F_l^4,
    sigma . pi(g) . sigma^-1 = pi(S g S^-1), and pi is faithful, so
    S G_A S^-1 = G_D as sets of matrices says exactly that sigma conjugates
    pi(G_A) onto pi(G_D).  Row i of S is e_s(i), so S g S^-1 has g[s(i)][s(j)]
    at (i, j): every packed element of G_A is conjugated by reading flat
    position 4 s(i) + s(j) into 4 i + j.  The degree reported is l^4, the
    size of the point set.  Raises ValueError when s is not a permutation.
    """
    s = _BLOCK_SWAP
    if sorted(s) != [0, 1, 2, 3]:
        raise ValueError(f"certificate {s} is not a permutation of the coordinates")
    conjugate = operator.itemgetter(*(4 * s[i] + s[j] for i in range(4) for j in range(4)))
    counts = {}
    for ell in ells:
        surface = image_rho_A(ell)
        dual = set(image_rho_Adual_contragredient(ell).packed_elements)
        counts[f"l{ell}_degree"] = ell**4
        counts[f"l{ell}_order"] = surface.order
        verdict = {
            pack_flat(conjugate(unpack_flat(g, ell)), ell) for g in surface.packed_elements
        } == dual
        counts[f"l{ell}_conjugate"] = int(verdict)
        if not verdict:
            raise _CheckFailed(
                f"l={ell}: permutation groups are not conjugate", counts
            )
    return counts, None


def _fixed_point_counts(group) -> tuple:
    """The permutation character on F_l^4: g fixes l^dim ker(g - 1) vectors."""
    return tuple(group.ell ** fixed_vectors(group.ell, [g]) for g in group.packed_elements)


@functools.cache
def _permutation_characters(ell: int, twist: str) -> tuple:
    """``(group, fixed-point counts)`` for the surface image, then the dual
    image, at (l, twist); both permutation-module checks read them."""
    return tuple(
        (group, _fixed_point_counts(group))
        for group in (
            image_rho_A(ell, twist),
            image_rho_Adual_contragredient(ell, twist),
        )
    )


def _orbit_count(group) -> int:
    """Orbits of the generators on the vectors of F_l^4, each found by
    closure (the independent cross-check of the Burnside average)."""
    ell = group.ell
    gens = [unpack_flat(p, ell) for p in group.packed_generators]

    def act(v, flat):
        return tuple(
            sum(flat[4 * i + j] * v[j] for j in range(4)) % ell for i in range(4)
        )

    seen: set = set()
    count = 0
    for v in itertools.product(range(ell), repeat=4):
        if v not in seen:
            seen |= closure([v], gens, act)
            count += 1
    return count


def _burnside_average(counts) -> int:
    """Multiplicity of the trivial representation in the permutation module:
    the average fixed-point count, an integer equal to the number of orbits."""
    total = sum(counts)
    if total % len(counts):
        raise AssertionError("character sum is not divisible by the group order")
    return total // len(counts)


def _check_perm_char_distinct(ells, twists):
    (ell,), (twist,) = ells, twists
    ma, md = (tuple(sorted(Counter(v).items())) for _, v in _permutation_characters(ell, twist))
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
    (ell,), (twist,) = ells, twists
    sides = _permutation_characters(ell, twist)
    ma, md = (_burnside_average(values) for _, values in sides)
    counts = {"surface": ma, "dual": md}
    if (ma, md) != (
        constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE,
        constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_DUAL,
    ):
        raise _CheckFailed(f"multiplicities drifted to ({ma}, {md})", counts)
    if ma == md:
        raise _CheckFailed("multiplicities coincide", counts)
    if tuple(_orbit_count(group) for group, _ in sides) != (ma, md):
        raise _CheckFailed("Burnside average disagrees with orbit count", counts)
    return counts, None


def _check_fixed_points(ells, twists):
    counts = {}
    for ell in ells:
        gens, dual_gens = zip(*paired_generators(ell, "trivial"))
        ds = fixed_vectors(ell, gens)
        dd = fixed_vectors(ell, dual_gens)
        counts[f"l{ell}_surface_dim"] = ds
        counts[f"l{ell}_dual_dim"] = dd
        if ds != constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_SURFACE or ds < 1:
            raise _CheckFailed(f"l={ell}: surface fixed dimension {ds}", counts)
        if dd != constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_DUAL:
            raise _CheckFailed(f"l={ell}: dual fixed dimension {dd}", counts)
    return counts, None


def _check_census_576(ells, twists):
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
    records = stabilizer_class_list()
    total = sum(r.class_size for r in records)
    counts = {"classes": len(records), "total_subgroups": total}
    if len(records) != constants.SUBGROUP_CLASS_COUNT:
        raise _CheckFailed(f"{len(records)} classes", counts)
    if total != constants.TOTAL_SUBGROUP_COUNT:
        raise _CheckFailed(f"{total} total subgroups", counts)
    return counts, None


def _check_census_78_52(ells, twists):
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
        _check_twist(twist)
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
