"""Tests for the parameterized image family and its two dual routes.

The enumeration orders frozen here were derived by counting the free
coordinates of the family (two unit entries and five free residues for
the generic twist, one unit entry fewer for the trivial twist) and are
confirmed independently by closure computations from the canonical
generators at l = 2 and l = 3.
"""

import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galdual import paramgroups
from galdual.exactmat import (
    LOWER_LEFT,
    ExactMatError,
    LAdicMatrix,
    check_packed,
    field_width,
    is_prime,
    pack_flat,
    unpack_flat,
)
from galdual.lattice import conjugate_by
from galdual.paramgroups import (
    _FAMILY_SUPPORT,
    TWISTS,
    ImageGroup,
    ParamPoint,
    RouteDisagreementError,
    _conjugator_data,
    _flat_of,
    _generator_records,
    _image_group,
    _kernel_terms,
    _record,
    _record_kernel,
    _solve_z1,
    _sparse_terms,
    canonical_generator_points,
    evaluate_word,
    generator_word,
    glued_polarization,
    glued_polarization_change_of_basis,
    gluing_change_of_basis,
    gluing_kernel,
    image_rho_A,
    image_rho_Adual_contragredient,
    iter_slab_records,
    matches_image_shape,
    paired_generators,
    parameter_count,
    product_principal_polarization,
    sample_records,
    shape_parameters,
    slab_records,
)
from galdual.verifier import run_check
from oracles import ModMatrix, charpoly_rows, mod_inv, unpacked

PRIMES = [2, 3, 5, 7]

FROZEN_ORDERS = {
    (2, "generic"): 32,
    (2, "trivial"): 32,
    (3, "generic"): 972,
    (3, "trivial"): 486,
    (5, "generic"): 50000,
    (5, "trivial"): 12500,
    (7, "generic"): 605052,
    (7, "trivial"): 100842,
}


# -- test oracles: the family element, the dual shape and the dual in closed form


def g_ell_element(p: ParamPoint) -> list:
    """The block-diagonal family element carried mod l^2, as integer rows
    with entries in [0, l^2)."""
    ell = p.ell
    return [
        [p.a + p.x1 * ell, p.b1 + p.y1 * ell, 0, 0],
        [p.w1 * ell, p.d + p.z1 * ell, 0, 0],
        [0, 0, p.a + p.x2 * ell, p.b2 + p.y2 * ell],
        [0, 0, p.w2 * ell, p.d + p.z2 * ell],
    ]


def lift_element(p: ParamPoint) -> LAdicMatrix:
    """The same element as an exact integer matrix."""
    return LAdicMatrix.from_rows(g_ell_element(p), p.ell)


def matches_dual_shape(m: ModMatrix) -> bool:
    """Shape of the dual-surface image: the reflected pattern."""
    if m.n != 4:
        return False
    e = m.entries
    zeros = (
        e[0][1] == e[0][2] == e[0][3] == 0
        and e[1][2] == e[1][3] == 0
        and e[3][1] == e[3][2] == 0
    )
    return (
        zeros
        and e[0][0] == e[2][2]
        and e[1][1] == e[3][3]
        and e[0][0] % m.ell != 0
        and e[1][1] % m.ell != 0
    )


def expected_dual_of(m: ModMatrix) -> ModMatrix:
    """The dual image as a closed-form function of the image matrix.

    The (3,1) entry is the solved difference z1 - z2; everything else is a
    reflection of the image parameters.  Serves as an independent oracle
    for both dual routes.
    """
    ell = m.ell
    a, d, b1, u, b2, w1, w2 = shape_parameters(m.packed(), ell)
    t = (pow(a, -1, ell) * (b1 * w1 - b2 * w2 - d * u)) % ell
    rows = [
        [d, 0, 0, 0],
        [-b1, a, 0, 0],
        [t, -w1, d, -w2],
        [b2, 0, 0, a],
    ]
    return ModMatrix.from_rows(rows, ell)


# -- points and records, read through the residue kernel


def _slab_residues(ell, twist):
    """The reference transversal: the residues of one point per distinct
    mod-l image pair, x2 = y1 = y2 = z2 = 0 and z1 solved, in the order
    the generated walk visits them (a, d, b1, b2, w1, w2, x1, outermost first)."""
    a_range = (1,) if twist == "trivial" else range(1, ell)
    for a in a_range:
        a_inv = pow(a, -1, ell)
        for d in range(1, ell):
            for b1, b2, w1, w2, x1 in itertools.product(range(ell), repeat=5):
                z1 = _solve_z1(ell, a_inv, d, 0, b1, b2, w1, w2, x1, 0)
                yield (a, d, b1, b2, w1, w2, x1, 0, 0, 0, z1, 0)


def _draw_residues_by_randrange(rng, ell, twist):
    """The reference draw, one rng.randrange per residue, z1 solved: the
    draw the seeded samples were pinned with."""
    a = 1 if twist == "trivial" else rng.randrange(1, ell)
    b1, b2, w1, w2, x1, x2, y1, y2, z2 = [rng.randrange(ell) for _ in range(9)]
    d = rng.randrange(1, ell)
    z1 = (z2 + pow(a, -1, ell) * (b1 * w1 - b2 * w2 - d * x1 + d * x2)) % ell
    return (a, d, b1, b2, w1, w2, x1, x2, y1, y2, z1, z2)


def slab_points(ell, twist="generic"):
    """The slab transversal as validated ParamPoints."""
    return (ParamPoint(ell, *r, twist=twist) for r in _slab_residues(ell, twist))


def random_param_point(rng, ell, twist="generic"):
    """A uniformly random family element, drawn as sample_records draws it."""
    return ParamPoint(ell, *_draw_residues_by_randrange(rng, ell, twist), twist=twist)


def image_element(p: ParamPoint) -> ModMatrix:
    return ModMatrix.from_packed(_record(p).image, p.ell)


def dual_element_isogeny(p: ParamPoint) -> ModMatrix:
    return ModMatrix.from_packed(_record(p).dual_isogeny, p.ell)


def image_rho_Adual_isogeny(ell, twist="generic"):
    """The dual image group read off the isogeny route of every record."""
    return _image_group(ell, twist, "dual_isogeny")


def test_frozen_orders_match_constants_module():
    from galdual import constants

    assert FROZEN_ORDERS == constants.IMAGE_GROUP_ORDERS


# -- parameter points -------------------------------------------------------


def test_param_point_accepts_valid():
    p = ParamPoint(3, a=2, d=1, b1=1, w1=2, z1=1)
    assert (p.a, p.d, p.b1, p.w1, p.z1) == (2, 1, 1, 2, 1)


def test_param_point_rejects_constraint_violation():
    with pytest.raises(ValueError, match="determinant constraint"):
        ParamPoint(3, a=1, d=1, b1=1, w1=1, z1=0)


def test_param_point_rejects_nonunit_diagonal():
    with pytest.raises(ValueError, match="not a unit"):
        ParamPoint(5, a=0)
    with pytest.raises(ValueError, match="not a unit"):
        ParamPoint(5, d=5)


def test_param_point_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ParamPoint(3, b1=3, z1=0)


def test_param_point_rejects_unknown_twist():
    with pytest.raises(ValueError, match="unknown twist"):
        ParamPoint(3, twist="quadratic")


def test_trivial_twist_forces_a_equal_one():
    with pytest.raises(ValueError, match="trivial twist"):
        ParamPoint(5, a=2, twist="trivial")
    ParamPoint(5, a=1, d=3, twist="trivial")


def test_solved_fills_z1():
    p = ParamPoint.solved(5, a=2, d=3, b1=1, w1=4, x1=2)
    assert (p.a * (p.z1 - p.z2) - (p.b1 * p.w1 - p.d * p.x1)) % 5 == 0


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda ell: st.tuples(
            st.just(ell),
            st.integers(1, ell - 1),
            st.lists(st.integers(0, ell - 1), min_size=8, max_size=8),
        )
    )
)
def test_solve_z1_satisfies_the_determinant_constraint(case):
    ell, a, (d, z2, b1, b2, w1, w2, x1, x2) = case
    z1 = _solve_z1(ell, pow(a, -1, ell), d, z2, b1, b2, w1, w2, x1, x2)
    assert 0 <= z1 < ell
    assert (a * (z1 - z2) - (b1 * w1 - b2 * w2 - d * x1 + d * x2)) % ell == 0


def test_solved_rejects_explicit_z1():
    with pytest.raises(TypeError):
        ParamPoint.solved(3, z1=1)


@pytest.mark.parametrize("a", [0, 3])
def test_solved_rejects_a_that_is_not_a_unit(a):
    # checked before a is inverted, so pow's own message never shows
    with pytest.raises(ValueError, match=f"^a={a} is not a unit representative mod 3$"):
        ParamPoint.solved(3, a=a)


def test_param_point_rejects_a_non_integer_residue():
    with pytest.raises(ValueError, match=r"^b1=1\.0 is not an integer$"):
        ParamPoint.solved(3, b1=1.0)
    with pytest.raises(ValueError, match=r"^d=2\.0 is not an integer$"):
        ParamPoint(3, d=2.0)
    with pytest.raises(ValueError, match=r"^a=1\.0 is not a unit representative mod 3$"):
        ParamPoint.solved(3, a=1.0)


def test_solved_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match="^not a prime: 4$"):
        ParamPoint.solved(4, a=2)


def test_block_determinants_agree_mod_ell_squared():
    # the constraint is exactly equality of the two block determinants
    rng = random.Random(11)
    for _ in range(50):
        ell = rng.choice(PRIMES)
        p = random_param_point(rng, ell)
        m = g_ell_element(p)
        top = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        bot = m[2][2] * m[3][3] - m[2][3] * m[3][2]
        assert (top - bot) % ell**2 == 0


def test_g_ell_element_layout():
    p = ParamPoint.solved(3, a=2, d=1, b1=1, w1=1, x1=1, y2=2)
    m = g_ell_element(p)
    assert m[0][2] == m[0][3] == 0
    assert m[1][2] == m[1][3] == 0
    assert m[2][0] == m[2][1] == 0
    assert m[0][0] == 2 + 3 * 1
    assert m[2][3] == 0 + 3 * 2


# -- gluing data ------------------------------------------------------------


def _fractions(m):
    """The entries of the LAdicMatrix ``m`` as rows of Fractions."""
    return [[Fraction(x, m.ell**m.k) for x in row] for row in m.entries]


@pytest.mark.parametrize("ell", PRIMES)
def test_gluing_change_of_basis_golden(ell):
    expected = [
        [(1, 0), (0, 0), (1, 1), (0, 0)],
        [(0, 0), (1, 0), (0, 0), (0, 0)],
        [(0, 0), (0, 0), (1, 1), (0, 0)],
        [(0, 0), (0, 0), (0, 0), (1, 0)],
    ]
    m = gluing_change_of_basis(ell)
    assert m == LAdicMatrix.from_rows(expected, ell)
    assert (m.entries, m.k) == (
        ((ell, 0, 1, 0), (0, ell, 0, 0), (0, 0, 1, 0), (0, 0, 0, ell)),
        1,
    )


@pytest.mark.parametrize("ell", PRIMES)
def test_glued_polarization_golden(ell):
    n_pol, d = glued_polarization(ell)
    assert d == ell
    assert _fractions(n_pol) == [
        [0, ell, 0, 0],
        [-ell, 0, -1, 0],
        [0, 1, 0, 1],
        [0, 0, -1, 0],
    ]


@pytest.mark.parametrize("ell", PRIMES)
def test_glued_polarization_basis_inverts_it(ell):
    n_pol, _ = glued_polarization(ell)
    m = glued_polarization_change_of_basis(ell)
    assert _fractions(n_pol.mul(m)) == _fractions(LAdicMatrix.identity(4, ell))


def test_gluing_kernel_is_the_diagonal_line():
    ker = gluing_kernel(5)
    assert ker.generators == ((1, 0, 1, 0),)
    assert len(ker.subgroup_elements()) == 5


# -- flat conjugation against the exact lattice route ------------------------


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_flat_routes_match_lattice_route_full(ell, twist):
    """The fast integer kernels agree with conjugate_by on every slab point."""
    mq = gluing_change_of_basis(ell)
    mlam = glued_polarization_change_of_basis(ell)
    for p in slab_points(ell, twist):
        lifted = lift_element(p)
        glued_exact = conjugate_by(mq, lifted)
        assert glued_exact.reduce_mod() == _record(p).image
        dual_exact = conjugate_by(mlam, glued_exact)
        assert dual_exact.reduce_mod() == _record(p).dual_isogeny


@pytest.mark.parametrize("ell", [5, 7])
def test_flat_routes_match_lattice_route_sampled(ell):
    rng = random.Random(ell)
    mq = gluing_change_of_basis(ell)
    mlam = glued_polarization_change_of_basis(ell)
    for _ in range(120):
        p = random_param_point(rng, ell)
        glued_exact = conjugate_by(mq, lift_element(p))
        assert glued_exact.reduce_mod() == _record(p).image
        dual_exact = conjugate_by(mlam, glued_exact)
        assert dual_exact.reduce_mod() == _record(p).dual_isogeny


# -- enumeration orders -------------------------------------------------------


@pytest.mark.parametrize(
    "ell,twist",
    [(2, "generic"), (2, "trivial"), (3, "generic"), (3, "trivial"),
     (5, "generic"), (5, "trivial")],
)
def test_image_group_orders(ell, twist):
    g = image_rho_A(ell, twist)
    assert g.order == FROZEN_ORDERS[(ell, twist)]
    assert g.order == parameter_count(ell, twist)


@pytest.mark.parametrize("twist", ["generic", "trivial"])
def test_parameter_count_l7(twist):
    assert parameter_count(7, twist) == FROZEN_ORDERS[(7, twist)]


def test_parameter_count_refuses_an_unknown_twist():
    with pytest.raises(ValueError, match="unknown twist 'weird'"):
        parameter_count(3, "weird")


def test_twists_coincide_at_ell_two():
    generic = image_rho_A(2, "generic")
    trivial = image_rho_A(2, "trivial")
    assert generic.packed_elements == trivial.packed_elements


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_slab_is_injective_on_images(ell, twist):
    seen = set()
    for r in slab_records(ell, twist):
        assert r.image not in seen
        seen.add(r.image)


def test_off_slab_coordinates_do_not_change_the_images():
    """y1, y2, z2 (and x2 beyond the difference x1 - x2) are invisible mod l."""
    rng = random.Random(23)
    for _ in range(40):
        ell = rng.choice(PRIMES)
        p = random_param_point(rng, ell)
        q = ParamPoint.solved(
            ell, a=p.a, d=p.d, b1=p.b1, b2=p.b2, w1=p.w1, w2=p.w2,
            x1=(p.x1 - p.x2) % ell,
            y1=rng.randrange(ell), y2=rng.randrange(ell),
            z2=rng.randrange(ell), twist=p.twist,
        )
        assert image_element(p).entries == image_element(q).entries
        assert dual_element_isogeny(p).entries == dual_element_isogeny(q).entries


# -- route agreement ----------------------------------------------------------


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_dual_routes_agree_pointwise_full(ell, twist):
    for r in slab_records(ell, twist):
        assert r.dual_isogeny == r.dual_contragredient


def test_dual_routes_agree_l5_via_builder():
    # the isogeny builder raises RouteDisagreementError on any mismatch
    g = image_rho_Adual_isogeny(5, "generic")
    assert g.order == 50000


def test_dual_routes_agree_l7_sampled():
    for r in sample_records(7, "generic", 500, seed=71):
        assert r.dual_isogeny == r.dual_contragredient


def test_paired_generators_check_the_dual_routes(monkeypatch):
    records = _generator_records(7, "generic")
    bad = records[0]._replace(dual_isogeny=records[1].dual_isogeny)
    monkeypatch.setattr(
        paramgroups, "_generator_records", lambda ell, twist: (bad, *records[1:])
    )
    with pytest.raises(RouteDisagreementError, match="l=7"):
        paired_generators(7)


@pytest.mark.parametrize("ell,twist", [(3, "generic"), (3, "trivial"), (5, "trivial")])
def test_dual_group_orders_match(ell, twist):
    gcon = image_rho_Adual_contragredient(ell, twist)
    gi = image_rho_Adual_isogeny(ell, twist)
    assert gcon.order == gi.order == FROZEN_ORDERS[(ell, twist)]
    assert gcon.packed_elements == gi.packed_elements


# -- shapes -------------------------------------------------------------------


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_shapes_hold_on_full_slab(ell, twist):
    for r in slab_records(ell, twist):
        dm = ModMatrix.from_packed(r.dual_isogeny, ell)
        assert matches_image_shape(r.image, ell)
        assert matches_dual_shape(dm)
        a, d, *_ = shape_parameters(r.image, ell)
        assert (a, d) == (r.a, r.d)


def test_shape_rejects_wrong_zero_pattern():
    bad = ModMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
    )
    assert not matches_image_shape(bad.packed(), 3)
    ok_dual = ModMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
    )
    assert matches_dual_shape(ok_dual)


def test_shape_requires_unit_diagonal():
    m = ModMatrix.from_rows(
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], 3
    )
    assert not matches_image_shape(m.packed(), 3)


def test_shape_requires_matching_diagonal_pairs():
    m = ModMatrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], 3
    )
    assert not matches_image_shape(m.packed(), 3)


def test_shape_refuses_what_check_packed_refuses():
    # a negative int, a field holding 3 at l = 3, a packed matrix mod 3 read
    # at l = 2 (too wide), and a ModMatrix in place of its packed int
    for bad, ell in ((-1, 3), (3, 3), (ModMatrix.identity(4, 3).packed(), 2),
                     (ModMatrix.identity(4, 3), 3)):
        with pytest.raises(ExactMatError, match=f"residues mod {ell}"):
            matches_image_shape(bad, ell)
        with pytest.raises(ExactMatError, match=f"residues mod {ell}"):
            shape_parameters(bad, ell)


def test_every_shape_matrix_is_attained_l3():
    """Surjectivity: the image is exactly the set of shape matrices."""
    group = image_rho_A(3)
    members = set(unpacked(group))
    count = 0
    for a in (1, 2):
        for d in (1, 2):
            for b1 in range(3):
                for u in range(3):
                    for b2 in range(3):
                        for w1 in range(3):
                            for w2 in range(3):
                                m = ModMatrix.from_rows(
                                    [[a, b1, u, -b2],
                                     [0, d, w1, 0],
                                     [0, 0, a, 0],
                                     [0, 0, w2, d]], 3
                                )
                                assert m in members
                                count += 1
    assert count == group.order


def test_functional_dual_oracle_full_l3():
    """The dual image is the closed-form reflection of the image, including
    the solved (3,1) entry."""
    for r in slab_records(3, "generic"):
        dm = expected_dual_of(ModMatrix.from_packed(r.image, 3))
        assert tuple(v for row in dm.entries for v in row) == unpack_flat(r.dual_isogeny, 3)


def test_functional_dual_oracle_sampled_l5_l7():
    for ell in (5, 7):
        for r in sample_records(ell, "generic", 200, seed=ell):
            dm = expected_dual_of(ModMatrix.from_packed(r.image, ell))
            flat = unpack_flat(r.dual_contragredient, ell)
            assert tuple(v for row in dm.entries for v in row) == flat


# -- characteristic polynomials -------------------------------------------------


def _square_product_coeffs(a, d, ell):
    # (x - a)^2 (x - d)^2, leading first
    poly = [1]
    for root in (a, a, d, d):
        poly = [
            (poly[i] if i < len(poly) else 0) - root * (poly[i - 1] if i else 0)
            for i in range(len(poly) + 1)
        ]
    return tuple(c % ell for c in poly)


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_charpoly_is_square_pair_full(ell, twist):
    for r in slab_records(ell, twist):
        rows = ModMatrix.from_packed(r.image, ell).entries
        assert charpoly_rows(rows, ell) == _square_product_coeffs(r.a, r.d, ell)


def test_charpoly_is_square_pair_sampled():
    for ell in (5, 7):
        for r in sample_records(ell, "generic", 150, seed=100 + ell):
            want = _square_product_coeffs(r.a, r.d, ell)
            for packed in (r.image, r.dual_isogeny):
                rows = ModMatrix.from_packed(packed, ell).entries
                assert charpoly_rows(rows, ell) == want


# -- generators and words --------------------------------------------------------


def _closure(gens):
    elems = {ModMatrix.identity(4, gens[0].ell)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = m.mul(g)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


@pytest.mark.parametrize("ell,twist,order", [
    (2, "generic", 32), (3, "generic", 972), (3, "trivial", 486),
])
def test_canonical_generators_generate(ell, twist, order):
    gens = [image_element(p) for _, p in canonical_generator_points(ell, twist)]
    closed = _closure(gens)
    assert len(closed) == order
    assert closed <= set(unpacked(image_rho_A(ell, twist)))


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_generator_word_round_trip_full(ell, twist):
    for r in slab_records(ell, twist):
        word = generator_word(r.image, ell, twist)
        assert evaluate_word(word, ell, twist) == r.image


def test_generator_word_round_trip_sampled_l5_l7():
    """Constructive generation certificate at the primes where closure is
    too large to enumerate in a test."""
    for ell in (5, 7):
        for r in sample_records(ell, "generic", 100, seed=200 + ell):
            word = generator_word(r.image, ell)
            assert evaluate_word(word, ell) == r.image


def test_generator_word_respects_trivial_twist():
    m = ModMatrix.from_rows(
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], 3
    )
    with pytest.raises(ValueError, match="trivial-twist"):
        generator_word(m.packed(), 3, "trivial")


def test_generator_word_refuses_an_unknown_twist():
    """An unknown twist is refused, not read as the trivial one without torus_a."""
    m = ModMatrix.from_rows(
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], 3
    )
    assert generator_word(m.packed(), 3) == [("torus_a", 1)]
    with pytest.raises(ValueError, match="unknown twist 'weird'"):
        generator_word(m.packed(), 3, "weird")


def test_canonical_generator_counts():
    assert len(canonical_generator_points(2)) == 5
    assert len(canonical_generator_points(3)) == 7
    assert len(canonical_generator_points(3, "trivial")) == 6
    assert len(canonical_generator_points(7)) == 7


# -- ImageGroup API ----------------------------------------------------------------


def test_image_group_holds_packed_elements():
    g = image_rho_A(2)
    assert len(g.packed_elements) == g.order == 32
    assert list(g.packed_elements) == sorted(set(g.packed_elements))
    assert all(check_packed(p, 2) == p for p in g.packed_elements + g.packed_generators)
    assert len(g.packed_generators) == 5


@pytest.mark.parametrize(
    "builder", [image_rho_A, image_rho_Adual_contragredient, image_rho_Adual_isogeny]
)
@pytest.mark.parametrize("ell", [7, 11, 13])
def test_image_group_rejects_primes_past_packed_width(builder, ell):
    # every image group is a full enumeration, which stops at l = 5
    with pytest.raises(ValueError, match="l <= 5"):
        builder(ell)


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda ell: st.tuples(
            st.just(ell), st.lists(st.integers(0, ell - 1), min_size=16, max_size=16)
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_packed_round_trips_every_matrix_at_its_field_width(case):
    """Each entry takes the bits of l - 1, and from_packed inverts packed."""
    ell, flat = case
    m = ModMatrix.from_rows([flat[0:4], flat[4:8], flat[8:12], flat[12:16]], ell)
    assert field_width(ell) == (ell - 1).bit_length()
    assert m.packed() == pack_flat(flat, ell) < 1 << 16 * field_width(ell)
    assert ModMatrix.from_packed(m.packed(), ell) == m
    assert unpack_flat(m.packed(), ell) == tuple(flat)


@given(
    st.sampled_from([11, 13]).flatmap(
        lambda ell: st.tuples(
            st.just(ell),
            st.lists(st.integers(0, ell - 1), min_size=16, max_size=16),
            st.integers(0, 15),
            st.integers(8, ell - 1),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_pack_loses_a_residue_of_eight_or_more(case):
    # l = 7's 3-bit field cannot hold 8..l-1, so the fields are wider past it
    ell, flat, pos, big = case
    flat[pos] = big
    assert unpack_flat(pack_flat(flat, 7), 7) != tuple(flat)
    assert unpack_flat(pack_flat(flat, ell), ell) == tuple(flat)


def test_image_group_generators_match_points_at_seven():
    generators = tuple(ModMatrix.from_packed(m, 7) for m, _ in paired_generators(7))
    expected = tuple(image_element(p) for _, p in canonical_generator_points(7))
    assert generators == expected


def test_image_group_membership():
    members = set(unpacked(image_rho_A(3)))
    assert ModMatrix.identity(4, 3) in members
    off_shape = ModMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
    )
    assert off_shape not in members


def test_generators_are_members():
    for ell, twist in [(2, "generic"), (3, "generic"), (3, "trivial"), (5, "generic")]:
        g = image_rho_A(ell, twist)
        assert set(g.packed_generators) <= set(g.packed_elements)


# -- paired API --------------------------------------------------------------------


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_paired_group_size_and_projection(ell, twist):
    pairs = {(r.image, r.dual_contragredient) for r in slab_records(ell, twist)}
    assert len(pairs) == FROZEN_ORDERS[(ell, twist)]
    firsts = {image for image, _ in pairs}
    assert len(firsts) == len(pairs)  # first projection is injective


def test_paired_generators_satisfy_functional_dual():
    for ell in PRIMES:
        for m, dm in paired_generators(ell):
            m = ModMatrix.from_packed(m, ell)
            assert expected_dual_of(m).entries == ModMatrix.from_packed(dm, ell).entries


def test_sample_paired_elements_deterministic():
    def pairs(seed):
        return [
            (r.image, r.dual_contragredient)
            for r in sample_records(7, "generic", 25, seed)
        ]

    assert pairs(5) == pairs(5)
    assert pairs(5) != pairs(6)


def test_slab_records_rejects_l7():
    with pytest.raises(ValueError, match="l <= 5"):
        slab_records(7, "generic")


# -- property batteries ---------------------------------------------------------------


@st.composite
def param_points(draw, primes=(2, 3, 5, 7)):
    ell = draw(st.sampled_from(primes))
    twist = draw(st.sampled_from(["generic", "trivial"]))
    a = 1 if twist == "trivial" else draw(st.integers(1, ell - 1))
    kwargs = {
        name: draw(st.integers(0, ell - 1))
        for name in ("b1", "b2", "w1", "w2", "x1", "x2", "y1", "y2", "z2")
    }
    return ParamPoint.solved(
        ell, a=a, d=draw(st.integers(1, ell - 1)), twist=twist, **kwargs
    )


@settings(max_examples=150, deadline=None)
@given(param_points())
def test_property_shapes_and_agreement(p):
    m = image_element(p)
    di = dual_element_isogeny(p)
    dc = ModMatrix.from_packed(_record(p).dual_contragredient, p.ell)
    assert matches_image_shape(m.packed(), p.ell)
    assert matches_dual_shape(di)
    assert di.entries == dc.entries
    assert expected_dual_of(m).entries == di.entries


@settings(max_examples=150, deadline=None)
@given(param_points())
def test_property_shape_parameters_match_point(p):
    a, d, b1, u, b2, w1, w2 = shape_parameters(_record(p).image, p.ell)
    assert (a, d) == (p.a % p.ell, p.d % p.ell)
    assert (b1, b2, w1, w2) == (p.b1, p.b2, p.w1, p.w2)
    assert u == (p.x1 - p.x2) % p.ell


@settings(max_examples=120, deadline=None)
@given(param_points(primes=(2, 3, 5)), param_points(primes=(2, 3, 5)))
def test_property_image_is_multiplicative_on_pairs(p, q):
    """Conjugation is a homomorphism: the image of a product of lifts equals
    the product of images whenever the lifts share a prime."""
    if p.ell != q.ell or p.twist != q.twist:
        return
    prod = lift_element(p).mul(lift_element(q))
    mq = gluing_change_of_basis(p.ell)
    lhs = conjugate_by(mq, prod).reduce_mod()
    rhs = image_element(p).mul(image_element(q))
    assert lhs == rhs.packed()


# -- the record kernel: errors ----------------------------------------------------

IDENTITY = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)


@pytest.fixture
def patched_conjugators(monkeypatch):
    """``patch(change)`` makes ``_conjugator_data(l)`` return
    ``change(l, original data)``.  The conjugator, kernel and slab caches
    are cleared at each patch and after the test."""
    original = paramgroups._conjugator_data

    def clear():
        for cached in (original, paramgroups._record_kernel, paramgroups.slab_records):
            cached.cache_clear()

    def patch(change):
        clear()
        monkeypatch.setattr(
            paramgroups, "_conjugator_data", lambda ell: change(ell, original(ell))
        )

    yield patch
    monkeypatch.undo()
    clear()


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_contragredient_flat_raises_on_a_singular_element(ell):
    """a = 0 meets the constraint with every other residue zero, and det A = 0
    then makes the image singular: the kernel names it with an
    ArithmeticError before it looks up an inverse.  The walk, whose check
    sits in its d loop, names it before it yields a record, and so does the
    sample on a word source that reads -1, which draws a = d = 0."""
    with pytest.raises(ArithmeticError, match="singular"):
        _record_kernel(ell).record(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ArithmeticError, match="singular"):
        next(_record_kernel(ell).walk((0,)))
    with pytest.raises(ArithmeticError, match="singular"):
        _record_kernel(ell).sample(lambda k: -1, 1, False)


@pytest.mark.parametrize("pos", LOWER_LEFT)
def test_contragredient_flat_rejects_a_lower_left_entry(pos, patched_conjugators):
    """A gluing that reaches the lower-left block is refused before any
    record is built: the block inverse would be wrong on its output."""
    left = list(IDENTITY)
    left[pos] = 1  # adds a row of the upper blocks into the lower-left block
    patched_conjugators(lambda ell, data: (tuple(left), IDENTITY, *data[2:]))
    with pytest.raises(ArithmeticError, match="not block upper triangular"):
        _record_kernel(5)


def test_compiled_conjugation_raises_on_an_entry_not_divisible(patched_conjugators):
    """Identity conjugators divide nothing by l, on either side."""
    for change in (
        lambda ell, data: (IDENTITY, IDENTITY, *data[2:]),
        lambda ell, data: (*data[:2], IDENTITY, IDENTITY),
    ):
        patched_conjugators(change)
        for ell in (2, 3, 5, 7):
            with pytest.raises(ArithmeticError, match="not divisible"):
                _record_kernel(ell).record(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def _unit_added(pos):
    """The flat identity with 1 added at flat position ``pos``."""
    return tuple(v + (i == pos) for i, v in enumerate(IDENTITY))


@pytest.mark.parametrize("side", ["left", "right"])
def test_compiled_conjugation_refuses_an_image_off_the_triangular_shape(side, patched_conjugators):
    """Adding row 0 of every glued element to row 1 (flat 4 becomes a) or
    column 2 to column 3 (flat 7 becomes w1, flat 11 becomes a) keeps every
    division by l exact and the lower-left block empty, but breaks the
    triangular diagonal blocks and the zero at flat 7 that the block inverse
    is written for: the kernel is refused when it is generated."""
    if side == "left":
        patched_conjugators(lambda ell, data: (_mul(_unit_added(4), data[0]), *data[1:]))
    else:
        patched_conjugators(lambda ell, data: (data[0], _mul(data[1], _unit_added(11)), *data[2:]))
    for ell in (2, 3, 5, 7):
        with pytest.raises(ArithmeticError, match="block inverse"):
            _record_kernel(ell)


def test_record_kernel_rejects_a_violated_constraint():
    with pytest.raises(ValueError, match="determinant constraint"):
        _record_kernel(3).record(1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "change,match",
    [
        (lambda ell, data: (_unit_added(8), IDENTITY, *data[2:]), "not block upper triangular"),
        (lambda ell, data: (IDENTITY, IDENTITY, *data[2:]), "not divisible"),
        (lambda ell, data: (*data[:2], IDENTITY, IDENTITY), "not divisible"),
        (lambda ell, data: (_mul(_unit_added(4), data[0]), *data[1:]), "block inverse"),
        (
            lambda ell, data: (data[0], _mul(data[1], _unit_added(11)), *data[2:]),
            "block inverse",
        ),
    ],
    ids=["lower-left", "glue-not-divisible", "isogeny-not-divisible", "flat-4", "flat-11"],
)
def test_walk_refuses_the_conjugators_the_record_function_refuses(
    change, match, patched_conjugators
):
    """The refusals of the tests above, met by the walk and the sample, when
    they are asked for: all three functions come from one generation."""
    patched_conjugators(change)
    for twist in TWISTS:
        with pytest.raises(ArithmeticError, match=match):
            _record(ParamPoint(5, twist=twist))
        with pytest.raises(ArithmeticError, match=match):
            iter_slab_records(5, twist)
        with pytest.raises(ArithmeticError, match=match):
            slab_records(5, twist)
        with pytest.raises(ArithmeticError, match=match):
            sample_records(5, twist, 1, 0)


def test_walk_checks_the_determinant_constraint(monkeypatch):
    """With a wrong inverse table the walk and the sample solve z1 wrongly,
    and the record function's constraint check, which both run on every
    record, refuses the first such record."""
    kernel = _record_kernel(5)
    monkeypatch.setitem(kernel.walk.__globals__, "INVERSES", (0, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="determinant constraint violated mod 5"):
        list(kernel.walk((2,)))
    with pytest.raises(ValueError, match="determinant constraint violated mod 5"):
        sample_records(5, "generic", 100, 0)


def test_slab_arguments_are_checked_when_called():
    with pytest.raises(ValueError, match="unknown twist 'weird'"):
        iter_slab_records(3, "weird")
    with pytest.raises(ValueError):
        iter_slab_records(4, "generic")


@pytest.mark.parametrize("count", [-5, -1, 2.5, "3", None])
def test_sample_records_refuses_a_count_that_is_not_a_size(count):
    with pytest.raises(ValueError, match=f"count={count!r}"):
        sample_records(7, "generic", count, 1)


def test_sample_records_takes_a_zero_count():
    assert sample_records(7, "generic", 0, 1) == []


# -- the record kernel: its terms and its dual routes -----------------------------


def _mul(fa, fb):
    """The exact product of two flat 4x4 integer matrices."""
    return tuple(
        sum(fa[4 * i + k] * fb[4 * k + j] for k in range(4))
        for i in range(4)
        for j in range(4)
    )


def _evaluate(terms, xs):
    """The flat 4x4 matrix the ``(output, input index, coefficient)`` terms
    give on the inputs ``xs``."""
    out = [0] * 16
    for pos, n, c in terms:
        out[pos] += c * xs[n]
    return tuple(out)


def _divided(flat, ell):
    assert all(v % ell == 0 for v in flat)
    return tuple(v // ell for v in flat)


def _records_sha256(records, ell) -> str:
    """sha256 of the records with their three packed fields unpacked, the
    rows the pins below were measured on."""
    rows = [
        (
            unpack_flat(r.image, ell),
            unpack_flat(r.dual_contragredient, ell),
            unpack_flat(r.dual_isogeny, ell),
            r.a,
            r.d,
        )
        for r in records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_sparse_terms_counts(ell):
    """12 gluing terms; the isogeny has 27 on the twelve entries off the
    lower-left block, and the kernel runs 23 of them, because the gluing
    never reaches flat 7 either."""
    _, _, n_pol, mlam_l = _conjugator_data(ell)
    glue, live, isogeny = _kernel_terms(ell)
    upper = [pos for pos in range(16) if pos not in LOWER_LEFT]
    assert len(glue) == 12
    assert len(_sparse_terms(n_pol, mlam_l, upper)) == 27
    assert live == [pos for pos in upper if pos != 7]
    assert len(isogeny) == 23


@pytest.mark.parametrize("ell", [p for p in range(50) if is_prime(p)])
def test_glue_has_no_lower_left_terms(ell):
    """Every glued element is block upper triangular, which the contragredient needs."""
    mq_inv, mq_l, _, _ = _conjugator_data(ell)
    outputs = {out for out, _, _ in _sparse_terms(mq_inv, mq_l, _FAMILY_SUPPORT)}
    assert outputs.isdisjoint(LOWER_LEFT)


@settings(max_examples=300, deadline=None)
@given(param_points(primes=(2, 3, 5, 7, 11, 13)))
def test_contragredient_flat_matches_the_fraction_inverse(p):
    """The kernel's block-inverse contragredient against
    a * d * transpose(mod_inv(image)), the reference inverse."""
    r = _record(p)
    inv = mod_inv(ModMatrix.from_packed(r.image, p.ell))
    want = tuple(p.a * p.d * inv.entries[j][i] % p.ell for i in range(4) for j in range(4))
    assert unpack_flat(r.dual_contragredient, p.ell) == want


@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_compiled_conjugations_match_conjugate_by(ell, twist):
    """The kernel's terms agree exactly with the lattice route before any
    reduction, and its records are their reductions mod l."""
    glue, live, isogeny = _kernel_terms(ell)
    record = _record_kernel(ell).record
    mq = gluing_change_of_basis(ell)
    mlam = glued_polarization_change_of_basis(ell)
    rng = random.Random(f"compiled:{ell}:{twist}")
    for _ in range(40):
        residues = _draw_residues_by_randrange(rng, ell, twist)
        lifted = lift_element(ParamPoint(ell, *residues, twist=twist))
        flat = _flat_of(lifted)
        glued_exact = conjugate_by(mq, lifted)
        glued = _divided(_evaluate(glue, [flat[k] for k in _FAMILY_SUPPORT]), ell)
        assert glued == _flat_of(glued_exact)
        assert not any(glued[k] for k in range(16) if k not in live)
        dual = _divided(_evaluate(isogeny, [glued[k] for k in live]), ell)
        assert dual == _flat_of(conjugate_by(mlam, glued_exact))
        r = record(*residues)
        assert unpack_flat(r.image, ell) == tuple(v % ell for v in glued)
        assert unpack_flat(r.dual_isogeny, ell) == tuple(v % ell for v in dual)


@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_folded_kernel_matches_exact_term_evaluation(ell, twist):
    """The kernel folds its terms into forms mod l when it is generated; on
    random points it equals the term lists run on the exact lift: integer
    products, exact division by l, and only then reduction mod l."""
    glue, live, isogeny = _kernel_terms(ell)
    record = _record_kernel(ell).record
    rng = random.Random(f"folded:{ell}:{twist}")
    for _ in range(200):
        residues = _draw_residues_by_randrange(rng, ell, twist)
        rows = g_ell_element(ParamPoint(ell, *residues, twist=twist))
        flat = [v for row in rows for v in row]
        glued = _divided(_evaluate(glue, [flat[k] for k in _FAMILY_SUPPORT]), ell)
        dual = _divided(_evaluate(isogeny, [glued[k] for k in live]), ell)
        r = record(*residues)
        assert unpack_flat(r.image, ell) == tuple(v % ell for v in glued)
        assert unpack_flat(r.dual_isogeny, ell) == tuple(v % ell for v in dual)
        assert r.dual_contragredient is r.dual_isogeny


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.lists(st.integers(-10**6, 10**6), min_size=16, max_size=16),
)
def test_compiled_conjugations_are_the_triple_products(ell, xs):
    """The kernel's term lists, on arbitrary integers, are the plain products."""
    mq_inv, mq_l, n_pol, mlam_l = _conjugator_data(ell)
    glue, live, isogeny = _kernel_terms(ell)
    on_support = [xs[k] if k in _FAMILY_SUPPORT else 0 for k in range(16)]
    assert _evaluate(glue, [xs[k] for k in _FAMILY_SUPPORT]) == _mul(
        _mul(mq_inv, on_support), mq_l
    )
    on_live = [xs[k] if k in live else 0 for k in range(16)]
    assert _evaluate(isogeny, [xs[k] for k in live]) == _mul(
        _mul(n_pol, on_live), mlam_l
    )


@pytest.mark.parametrize("ell,twist", [(ell, t) for ell in (2, 3, 5, 7) for t in TWISTS])
def test_agreeing_records_share_their_dual_tuple(ell, twist):
    records = (
        slab_records(ell, twist) if ell <= 5
        else sample_records(ell, twist, 500, f"shared:{ell}:{twist}")
    )
    assert all(type(v) is int for r in records for v in r[:3])
    assert all(r.dual_isogeny is r.dual_contragredient for r in records)


def test_records_keep_both_duals_when_the_routes_differ(patched_conjugators):
    """With (l*I, I) as the isogeny's conjugators the isogeny route returns
    the image: records keep two tuples and the registry check fails."""
    patched_conjugators(
        lambda ell, data: (*data[:2], tuple(ell * v for v in IDENTITY), IDENTITY)
    )
    records = slab_records(3, "generic")
    assert all(r.dual_isogeny == r.image for r in records)
    differ = [r for r in records if r.dual_isogeny != r.dual_contragredient]
    assert differ
    assert all(r.dual_isogeny is not r.dual_contragredient for r in differ)
    samples = sample_records(7, "generic", 50, "differ")
    assert any(r.dual_isogeny is not r.dual_contragredient for r in samples)
    report = run_check("dual-route-agreement", ell=3)
    assert report.status == "fail"
    assert "routes differ" in report.witness


# sha256 of sample_records(7, twist, 10000, f"{tag}:7:{twist}"), the samples
# the two sampled registry checks read; measured before the residue kernel
L7_SAMPLE_SHA256 = {
    ("dual-route-agreement", "generic"):
        "03284f2affd477259bc23176f4393ad05efb8fe043e3a79ce11e7b91aee6eb57",
    ("dual-route-agreement", "trivial"):
        "c570800a409bef3ffb26581c54ee0825e8856c7368c78e253b78de05d8edeb7d",
    ("semisimp-charpoly", "generic"):
        "4b6113ed6b5ce94cbaa5c83e4978a9983adf037ae1ea0e535ddc3f2539bff1da",
    ("semisimp-charpoly", "trivial"):
        "0654c88cb4a2f3e000dcb797bb915fbc0a936e6496069944be5816c6b7d1d307",
}


@pytest.mark.parametrize("tag,twist", sorted(L7_SAMPLE_SHA256))
def test_l7_sample_sequence_is_pinned(tag, twist):
    records = sample_records(7, twist, 10000, f"{tag}:7:{twist}")
    assert _records_sha256(records, 7) == L7_SAMPLE_SHA256[(tag, twist)]


# sha256 of slab_records(l, twist), measured with the dense adjugate contragredient
SLAB_SHA256 = {
    (2, "generic"): "8408be34eaa954be9e5f0d8a7d3364d09f8f866ed406967819a050aee1b3c446",
    (2, "trivial"): "8408be34eaa954be9e5f0d8a7d3364d09f8f866ed406967819a050aee1b3c446",
    (3, "generic"): "62b221a31adf46dc056a8cd3516f1729dd5dc656059bb201313ab5847154bc30",
    (3, "trivial"): "75fba497b5bee0032b252a21a7c8bef7bbad339c1af7bf0e0ad788b3455bf6b5",
    (5, "generic"): "bdd3fb02d54fc4a5a14afd5aaf4d27a21355bc5bc6f75faaaab9d793addc6360",
    (5, "trivial"): "439d908fe83aced0936e5c7ef3296fc39e59316586a17c32420d9b1d7872b7f4",
}


@pytest.mark.parametrize("ell,twist", sorted(SLAB_SHA256))
def test_slab_records_are_pinned(ell, twist):
    assert _records_sha256(slab_records(ell, twist), ell) == SLAB_SHA256[(ell, twist)]


@pytest.mark.parametrize("enabled", [True, False])
def test_slab_records_leave_the_collector_as_they_found_it(enabled):
    """The cached slab is built with the cyclic collector paused; the
    caller's setting comes back, also when the build raises."""
    slab_records.cache_clear()
    try:
        if not enabled:
            gc.disable()
        records = slab_records(3, "generic")
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="unknown twist"):
            slab_records(3, "weird")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert _records_sha256(records, 3) == SLAB_SHA256[(3, "generic")]


@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_draws_match_randrange(ell, twist):
    """The generated sample's records are the record function on the
    reference draw, 300 points a seed; at l = 2 the draws of d, like
    randrange(1, 2), still consume getrandbits(1) until it reads 0."""
    record = _record_kernel(ell).record
    for seed in (0, 1, "draws"):
        ranged = random.Random(seed)
        residues = [_draw_residues_by_randrange(ranged, ell, twist) for _ in range(300)]
        _assert_same_records(sample_records(ell, twist, 300, seed), [record(*r) for r in residues])


@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_point_routes_match_the_residue_path(ell, twist):
    """slab_points / random_param_point then _record give the kernel's records."""
    count = 3000 if ell == 7 else None
    by_point = [_record(p) for p in itertools.islice(slab_points(ell, twist), count)]
    assert by_point == list(itertools.islice(iter_slab_records(ell, twist), count))
    rng = random.Random(ell)
    by_point = [_record(random_param_point(rng, ell, twist)) for _ in range(500)]
    assert by_point == sample_records(ell, twist, 500, ell)


def _pointwise_slab(ell, twist, count=None):
    """The record function on the first ``count`` points of the reference transversal."""
    residues = itertools.islice(_slab_residues(ell, twist), count)
    return list(itertools.starmap(_record_kernel(ell).record, residues))


def _assert_same_records(walked, pointwise):
    """Equal records in the same order, sharing their dual int exactly where
    the record function shares it."""
    assert walked == pointwise
    assert [r.dual_isogeny is r.dual_contragredient for r in walked] == [
        r.dual_isogeny is r.dual_contragredient for r in pointwise
    ]


@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_walk_is_the_record_function_on_the_reference_transversal(ell, twist):
    """The generated walk against starmap(record, _slab_residues): every
    record at l <= 5, the first 20 000 at l = 7."""
    count = 20000 if ell == 7 else None
    walked = list(itertools.islice(iter_slab_records(ell, twist), count))
    _assert_same_records(walked, _pointwise_slab(ell, twist, count))
    assert len(walked) == (count or FROZEN_ORDERS[(ell, twist)])


@pytest.mark.parametrize("ell", [3, 5])
def test_walk_is_the_record_function_when_the_routes_differ(ell, patched_conjugators):
    """With the isogeny route patched to return the image, the walk's
    partial comparisons and partial isogeny ints still give the record
    function's records, both duals kept where they differ."""
    patched_conjugators(
        lambda ell, data: (*data[:2], tuple(ell * v for v in IDENTITY), IDENTITY)
    )
    walked = list(iter_slab_records(ell, "generic"))
    assert any(r.dual_isogeny != r.dual_contragredient for r in walked)
    _assert_same_records(walked, _pointwise_slab(ell, "generic"))


def test_l7_trivial_slab_is_injective_and_its_routes_agree():
    """Every record of the streamed (7, trivial) slab: the two dual routes
    agree and the 100 842 images are distinct, so the slab is injective."""
    images, count = set(), 0
    for r in iter_slab_records(7, "trivial"):
        assert r.dual_isogeny == r.dual_contragredient
        images.add(r.image)
        count += 1
    assert len(images) == count == FROZEN_ORDERS[(7, "trivial")] == parameter_count(7, "trivial")
