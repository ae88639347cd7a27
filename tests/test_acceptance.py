"""Acceptance suite: every guarantee the package makes, one test per
criterion, exact arithmetic throughout (zero tolerance).  Each test prints
a single criterion verdict line; run with -v (or -s) to see them."""

import functools
import itertools
import random
import time

from galdual import constants
from galdual.exactmat import (
    ClosureCapError,
    LAdicMatrix,
    closure,
    format_packed,
    smith_normal_form,
)
from galdual.groupengine import (
    _IDENT,
    f2_mul,
    gl4_elements,
    intertwiner_basis,
)
from galdual.lattice import (
    KernelSpec,
    change_basis_from_kernel,
    change_basis_from_transformation,
    polarization_type,
    pushforward_polarization,
)
from galdual.paramgroups import (
    ImageGroup,
    _image_group,
    image_rho_A,
    image_rho_Adual_contragredient,
    sample_records,
)
from galdual.verifier import (
    _burnside_average,
    _fixed_point_counts,
    _orbit_count,
    run_check,
)
from oracles import ModMatrix, unpacked

PRIMES = (2, 3, 5, 7)


def criterion(n: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL  {label}")
                raise
            print(f"criterion {n}: PASS  {label}")

        return inner

    return wrap


def passed(report) -> bool:
    if report.status != "pass":
        raise AssertionError(
            f"{report.check_id} {dict(report.params)}: {report.status}"
            f" ({report.witness})"
        )
    return True


@criterion(1, "lattice change-of-basis golden examples")
def test_criterion_1_lattice_golden_examples():
    for ell in PRIMES:
        mult = LAdicMatrix.from_rows([[ell, 0], [0, ell]], ell)
        assert change_basis_from_transformation(mult) == LAdicMatrix.from_rows(
            [[(1, 1), 0], [0, (1, 1)]], ell
        )
        cyclic = change_basis_from_kernel(KernelSpec(ell, 1, 2, ((1, 0),)))
        assert cyclic == LAdicMatrix.from_rows([[(1, 1), 0], [0, 1]], ell)
        glue = change_basis_from_kernel(KernelSpec(ell, 1, 4, ((1, 0, 1, 0),)))
        assert glue == LAdicMatrix.from_rows(
            [[1, 0, (1, 1), 0], [0, 1, 0, 0], [0, 0, (1, 1), 0], [0, 0, 0, 1]],
            ell,
        )
        principal = LAdicMatrix.from_rows([[0, 1], [-1, 0]], ell)
        down = LAdicMatrix.from_rows([[ell, 0], [0, 1]], ell)
        pushed, degree = pushforward_polarization(
            principal, down, KernelSpec(ell, 1, 2, ((1, 0),))
        )
        assert pushed == principal and degree == ell
    assert passed(run_check("lattice-examples"))


@criterion(2, "glued pairing display, Smith valuations, type (1,l)")
def test_criterion_2_polarization_type():
    from galdual.paramgroups import glued_polarization

    for ell in PRIMES:
        pairing, degree = glued_polarization(ell)
        assert pairing == LAdicMatrix.from_rows(
            [[0, ell, 0, 0], [-ell, 0, -1, 0], [0, 1, 0, 1], [0, 0, -1, 0]], ell
        )
        assert degree == ell
        assert smith_normal_form(pairing).valuations == (0, 0, 1, 1)
        assert polarization_type(pairing, 2) == (1, ell)
    assert passed(run_check("type-1-ell"))


@criterion(3, "contragredient and isogeny dual routes agree exactly")
def test_criterion_3_dual_route_agreement():
    report = run_check("dual-route-agreement")
    assert passed(report)
    counts = dict(report.counts)
    assert counts["l2_generic"] == 32 and counts["l2_trivial"] == 32
    assert counts["l3_generic"] == 972 and counts["l3_trivial"] == 486
    assert counts["l5_generic"] == 50000 and counts["l5_trivial"] == 12500
    assert counts["l7_generic"] == 10000 and counts["l7_trivial"] == 10000
    # group-level agreement, as exact element sets
    for ell in (2, 3, 5):
        for twist in ("generic", "trivial"):
            contra = image_rho_Adual_contragredient(ell, twist)
            isog = _image_group(ell, twist, "dual_isogeny")
            assert set(contra.packed_elements) == set(isog.packed_elements)


def _every_shape_matrix(ell: int, twist: str, side: str) -> set:
    units = range(1, ell) if twist == "generic" else (1,)
    out = set()
    for a in units:
        for d in range(1, ell):
            for b1, u, b2, w1, w2 in itertools.product(range(ell), repeat=5):
                if side == "A":
                    out.add((
                        (a, b1, u, (-b2) % ell),
                        (0, d, w1, 0),
                        (0, 0, a, 0),
                        (0, 0, w2, d),
                    ))
                else:
                    z = pow(a, -1, ell) * (b1 * w1 - b2 * w2 - d * u) % ell
                    out.add((
                        (d, 0, 0, 0),
                        ((-b1) % ell, a, 0, 0),
                        (z, (-w1) % ell, d, (-w2) % ell),
                        (b2, 0, 0, a),
                    ))
    return out


@criterion(4, "closed-form shapes, surjectivity, recomputed group orders")
def test_criterion_4_shapes_and_orders():
    for ell, twist, order in ((2, "generic", 32), (3, "generic", 972)):
        surface = image_rho_A(ell, twist)
        dual = image_rho_Adual_contragredient(ell, twist)
        assert surface.order == order == constants.IMAGE_GROUP_ORDERS[(ell, twist)]
        got_a = {m.entries for m in unpacked(surface)}
        got_d = {m.entries for m in unpacked(dual)}
        assert got_a == _every_shape_matrix(ell, twist, "A")
        assert got_d == _every_shape_matrix(ell, twist, "Adual")


@criterion(5, "no equivariant isomorphism; unique stable lines and characters")
def test_criterion_5_representations_not_isomorphic():
    started = time.monotonic()
    report = run_check("thm-main-rep-nonisomorphic")
    assert passed(report)
    counts = dict(report.counts)
    for ell in PRIMES:
        assert counts[f"l{ell}_invertible_found"] == 0
        assert counts[f"l{ell}_intertwiner_dim"] == constants.INTERTWINER_DIMENSIONS[ell]
    lines = run_check("stable-lines")
    assert passed(lines)
    assert "surface (1,0,0,0)" in lines.witness
    assert "dual (0,0,1,0)" in lines.witness
    assert time.monotonic() - started < 60


@criterion(6, "characteristic polynomials match and factor as (x-a)^2 (x-d)^2")
def test_criterion_6_semisimplifications_agree():
    report = run_check("semisimp-charpoly")
    assert passed(report)
    counts = dict(report.counts)
    assert counts["l5_generic"] == 50000 and counts["l7_generic"] == 10000


@criterion(7, "permutation modules: conjugate at l=2 and generic l=3, distinct at trivial l=3")
def test_criterion_7_permutation_propositions():
    started = time.monotonic()
    assert passed(run_check("perm-conj"))
    distinct = run_check("perm-char-distinct")
    assert passed(distinct)
    assert dict(distinct.counts)["multisets_equal"] == 0
    mult = run_check("trivial-multiplicity")
    assert passed(mult)
    assert dict(mult.counts) == {"surface": 9, "dual": 11}
    fixed = run_check("fixed-points")
    assert passed(fixed)
    counts = dict(fixed.counts)
    for ell in (3, 5, 7):
        assert counts[f"l{ell}_surface_dim"] >= 1
        assert counts[f"l{ell}_dual_dim"] == 0
    assert time.monotonic() - started < 120


@criterion(8, "mod-2 pairing stabilizer structure and subgroup census")
def test_criterion_8_census():
    started = time.monotonic()
    structure = run_check("census-576")
    assert passed(structure)
    assert dict(structure.counts)["order"] == 576
    assert dict(structure.counts)["kernel_order"] == 16
    assert dict(structure.counts)["complement_order"] == 36
    classes = run_check("census-128")
    assert passed(classes)
    assert dict(classes.counts)["classes"] == 128
    census = run_check("census-78-52")
    assert passed(census)
    counts = dict(census.counts)
    assert counts["not_rep_equivalent"] == 78
    assert counts["not_subgroup_conjugate"] == 52
    assert counts["smallest_non_self_dual"] == 4
    assert counts["largest_non_self_dual"] == 576
    assert time.monotonic() - started < 600


def _battery(label: str, cases: int, started: float):
    assert cases >= 100, f"{label}: only {cases} cases"
    assert time.monotonic() - started < 60, f"{label}: over a minute"


@criterion(9, "randomized invariant batteries, 100+ cases each, under a minute each")
def test_criterion_9_property_batteries():
    rng = random.Random("acceptance-batteries")

    # closure: products of random elements stay in the enumerated group
    started = time.monotonic()
    elements = unpacked(image_rho_A(3, "generic"))
    members = set(elements)
    cases = 0
    for _ in range(150):
        g, h = rng.choice(elements), rng.choice(elements)
        assert g.mul(h) in members
        cases += 1
    _battery("closure", cases, started)

    # route independence at l=7 on fresh random parameter points
    started = time.monotonic()
    cases = 0
    for record in sample_records(7, "generic", 120, "acceptance-routes"):
        assert record.dual_contragredient == record.dual_isogeny
        cases += 1
    _battery("route independence", cases, started)

    # Smith valuations are invariant under unimodular row/column operations
    started = time.monotonic()
    cases = 0
    for _ in range(120):
        ell = rng.choice(PRIMES)
        vals = sorted(rng.choice((0, 0, 1, 2)) for _ in range(3))
        diag = [[ell ** vals[i] if i == j else 0 for j in range(3)] for i in range(3)]
        left, right = _random_unimodular(rng, 3), _random_unimodular(rng, 3)
        product = _int_mul(_int_mul(left, diag), right)
        got = smith_normal_form(LAdicMatrix.from_rows(product, ell)).valuations
        assert got == tuple(vals)
        cases += 1
    _battery("Smith invariance", cases, started)

    # Burnside average equals the orbit count on F_2^4 for random subgroups
    # of GL4(F_2), each generated by one or two random elements
    started = time.monotonic()
    cases = 0
    while cases < 100:
        group = _random_gl4_f2_subgroup(rng)
        if group is None:
            continue
        assert _burnside_average(_fixed_point_counts(group)) == _orbit_count(group)
        cases += 1
    _battery("Burnside vs orbits", cases, started)

    # intertwiner substitution: every basis element intertwines every pair
    started = time.monotonic()
    cases = 0
    def sample_pairs(count, seed):
        return [(r.image, r.dual_contragredient) for r in sample_records(3, "generic", count, seed)]

    basis = intertwiner_basis(3, sample_pairs(25, "acceptance-basis"))
    basis = [ModMatrix.from_packed(b, 3) for b in basis]
    for g, h in sample_pairs(120, "acceptance-pairs"):
        g, h = ModMatrix.from_packed(g, 3), ModMatrix.from_packed(h, 3)
        for b in basis:
            assert b.mul(g) == h.mul(b), format_packed(b.packed(), 3)
        cases += 1
    _battery("intertwiner substitution", cases, started)

    # contragredient is an involution on census class representatives
    started = time.monotonic()
    from galdual.formstab import contragredient_subgroup, stabilizer_class_list

    classes = stabilizer_class_list()
    cases = 0
    for record in rng.sample(classes, 100):
        twice = contragredient_subgroup(contragredient_subgroup(record.representative))
        assert twice == record.representative
        cases += 1
    _battery("contragredient involution", cases, started)


def _random_unimodular(rng: random.Random, n: int) -> list:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return rows


def _int_mul(a: list, b: list) -> list:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _random_gl4_f2_subgroup(rng: random.Random, cap: int = 2000):
    """The subgroup of GL4(F_2) generated by one or two random elements, as
    an ImageGroup, or None when it has more than ``cap`` elements (the
    Burnside average visits every element, and GL4(F_2) has 20160).
    GL4(F_2) and the image groups share one packed format."""
    gens = rng.sample(gl4_elements(), rng.randint(1, 2))
    try:
        elements = closure([_IDENT], gens, f2_mul, cap)
    except ClosureCapError:
        return None
    return ImageGroup(2, tuple(sorted(elements)), tuple(gens))
