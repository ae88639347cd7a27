"""Tests for the parameterized image family and its two dual routes.

The enumeration orders frozen here were derived by counting the free
coordinates of the family (two unit entries and five free residues for
the generic twist, one unit entry fewer for the trivial twist) and are
confirmed independently by closure computations from the canonical
generators at l = 2 and l = 3.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from galdual.exactmat import LAdicMatrix, ModMatrix, charpoly
from galdual.lattice import conjugate_by
from galdual.paramgroups import (
    ImageGroup,
    ParamPoint,
    RouteDisagreementError,
    _contragredient_flat,
    _div_flat,
    _pack,
    _unpack,
    canonical_generator_points,
    dual_element_contragredient,
    dual_element_isogeny,
    evaluate_word,
    expected_dual_of,
    g_ell_element,
    generator_word,
    glued_polarization,
    glued_polarization_change_of_basis,
    gluing_change_of_basis,
    gluing_kernel,
    image_element,
    image_rho_A,
    image_rho_Adual_contragredient,
    image_rho_Adual_isogeny,
    lift_element,
    matches_dual_shape,
    matches_image_shape,
    paired_generators,
    paired_group,
    parameter_count,
    product_principal_polarization,
    random_param_point,
    sample_paired_elements,
    sample_records,
    shape_parameters,
    slab_points,
    slab_records,
)

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


def test_frozen_orders_match_constants_module():
    from galdual import constants

    assert FROZEN_ORDERS == constants.IMAGE_GROUP_ORDERS


# -- parameter points -------------------------------------------------------


def test_param_point_accepts_valid():
    p = ParamPoint(3, a=2, d=1, b1=1, w1=2, z1=1)
    assert p.epsilon == 2


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


def test_solved_rejects_explicit_z1():
    with pytest.raises(TypeError):
        ParamPoint.solved(3, z1=1)


def test_block_determinants_agree_mod_ell_squared():
    # the constraint is exactly equality of the two block determinants
    rng = random.Random(11)
    for _ in range(50):
        ell = rng.choice(PRIMES)
        p = random_param_point(rng, ell)
        m = g_ell_element(p)
        top = ModMatrix.from_rows(
            [[m.entries[0][0], m.entries[0][1]], [m.entries[1][0], m.entries[1][1]]],
            ell, 2,
        )
        bot = ModMatrix.from_rows(
            [[m.entries[2][2], m.entries[2][3]], [m.entries[3][2], m.entries[3][3]]],
            ell, 2,
        )
        assert top.det() == bot.det()


def test_g_ell_element_layout():
    p = ParamPoint.solved(3, a=2, d=1, b1=1, w1=1, x1=1, y2=2)
    m = g_ell_element(p)
    assert m.k == 2
    assert m.entries[0][2] == m.entries[0][3] == 0
    assert m.entries[1][2] == m.entries[1][3] == 0
    assert m.entries[2][0] == m.entries[2][1] == 0
    assert m.entries[0][0] == 2 + 3 * 1
    assert m.entries[2][3] == 0 + 3 * 2


# -- gluing data ------------------------------------------------------------


@pytest.mark.parametrize("ell", PRIMES)
def test_gluing_change_of_basis_golden(ell):
    expected = [
        [(1, 0), (0, 0), (1, 1), (0, 0)],
        [(0, 0), (1, 0), (0, 0), (0, 0)],
        [(0, 0), (0, 0), (1, 1), (0, 0)],
        [(0, 0), (0, 0), (0, 0), (1, 0)],
    ]
    assert gluing_change_of_basis(ell).entries == tuple(
        tuple(row) for row in expected
    )


@pytest.mark.parametrize("ell", PRIMES)
def test_glued_polarization_golden(ell):
    n_pol, d = glued_polarization(ell)
    assert d == ell
    assert n_pol.fraction_rows() == [
        [0, ell, 0, 0],
        [-ell, 0, -1, 0],
        [0, 1, 0, 1],
        [0, 0, -1, 0],
    ]


@pytest.mark.parametrize("ell", PRIMES)
def test_glued_polarization_basis_inverts_it(ell):
    n_pol, _ = glued_polarization(ell)
    m = glued_polarization_change_of_basis(ell)
    assert n_pol.mul(m).fraction_rows() == LAdicMatrix.identity(4, ell).fraction_rows()


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
        assert glued_exact.reduce_mod(1).entries == image_element(p).entries
        dual_exact = conjugate_by(mlam, glued_exact)
        assert dual_exact.reduce_mod(1).entries == dual_element_isogeny(p).entries


@pytest.mark.parametrize("ell", [5, 7])
def test_flat_routes_match_lattice_route_sampled(ell):
    rng = random.Random(ell)
    mq = gluing_change_of_basis(ell)
    mlam = glued_polarization_change_of_basis(ell)
    for _ in range(120):
        p = random_param_point(rng, ell)
        glued_exact = conjugate_by(mq, lift_element(p))
        assert glued_exact.reduce_mod(1).entries == image_element(p).entries
        dual_exact = conjugate_by(mlam, glued_exact)
        assert dual_exact.reduce_mod(1).entries == dual_element_isogeny(p).entries


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


@pytest.mark.parametrize("ell,twist", [(3, "generic"), (3, "trivial"), (5, "trivial")])
def test_dual_group_orders_match(ell, twist):
    gc = image_rho_Adual_contragredient(ell, twist)
    gi = image_rho_Adual_isogeny(ell, twist)
    assert gc.order == gi.order == FROZEN_ORDERS[(ell, twist)]
    assert gc.packed_elements == gi.packed_elements


# -- shapes -------------------------------------------------------------------


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_shapes_hold_on_full_slab(ell, twist):
    for r in slab_records(ell, twist):
        m = ModMatrix.from_rows(
            [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], ell
        )
        dm = ModMatrix.from_rows(
            [r.dual_isogeny[0:4], r.dual_isogeny[4:8],
             r.dual_isogeny[8:12], r.dual_isogeny[12:16]], ell
        )
        assert matches_image_shape(m)
        assert matches_dual_shape(dm)
        a, d, *_ = shape_parameters(m)
        assert (a, d) == (r.a, r.d)


def test_shape_rejects_wrong_zero_pattern():
    bad = ModMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
    )
    assert not matches_image_shape(bad)
    ok_dual = ModMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
    )
    assert matches_dual_shape(ok_dual)


def test_shape_requires_unit_diagonal():
    m = ModMatrix.from_rows(
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], 3
    )
    assert not matches_image_shape(m)


def test_shape_requires_matching_diagonal_pairs():
    m = ModMatrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], 3
    )
    assert not matches_image_shape(m)


def test_every_shape_matrix_is_attained_l3():
    """Surjectivity: the image is exactly the set of shape matrices."""
    group = image_rho_A(3)
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
                                assert m in group
                                count += 1
    assert count == group.order


def test_functional_dual_oracle_full_l3():
    """The dual image is the closed-form reflection of the image, including
    the solved (3,1) entry."""
    for r in slab_records(3, "generic"):
        m = ModMatrix.from_rows(
            [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], 3
        )
        dm = expected_dual_of(m)
        assert tuple(v for row in dm.entries for v in row) == r.dual_isogeny


def test_functional_dual_oracle_sampled_l5_l7():
    for ell in (5, 7):
        for r in sample_records(ell, "generic", 200, seed=ell):
            m = ModMatrix.from_rows(
                [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], ell
            )
            dm = expected_dual_of(m)
            assert tuple(v for row in dm.entries for v in row) == r.dual_contragredient


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
        m = ModMatrix.from_rows(
            [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], ell
        )
        assert charpoly(m) == _square_product_coeffs(r.a, r.d, ell)


def test_charpoly_is_square_pair_sampled():
    for ell in (5, 7):
        for r in sample_records(ell, "generic", 150, seed=100 + ell):
            m = ModMatrix.from_rows(
                [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], ell
            )
            assert charpoly(m) == _square_product_coeffs(r.a, r.d, ell)
            dm = ModMatrix.from_rows(
                [r.dual_isogeny[0:4], r.dual_isogeny[4:8],
                 r.dual_isogeny[8:12], r.dual_isogeny[12:16]], ell
            )
            assert charpoly(dm) == _square_product_coeffs(r.a, r.d, ell)


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
    group = image_rho_A(ell, twist)
    assert all(m in group for m in closed)


@pytest.mark.parametrize("ell,twist", [(3, "generic"), (3, "trivial")])
def test_generator_word_round_trip_full(ell, twist):
    for r in slab_records(ell, twist):
        m = ModMatrix.from_rows(
            [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], ell
        )
        word = generator_word(m, twist)
        assert evaluate_word(word, ell, twist).entries == m.entries


def test_generator_word_round_trip_sampled_l5_l7():
    """Constructive generation certificate at the primes where closure is
    too large to enumerate in a test."""
    for ell in (5, 7):
        for r in sample_records(ell, "generic", 100, seed=200 + ell):
            m = ModMatrix.from_rows(
                [r.image[0:4], r.image[4:8], r.image[8:12], r.image[12:16]], ell
            )
            word = generator_word(m)
            assert evaluate_word(word, ell).entries == m.entries


def test_generator_word_respects_trivial_twist():
    m = ModMatrix.from_rows(
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], 3
    )
    with pytest.raises(ValueError, match="trivial-twist"):
        generator_word(m, "trivial")


def test_canonical_generator_counts():
    assert len(canonical_generator_points(2)) == 5
    assert len(canonical_generator_points(3)) == 7
    assert len(canonical_generator_points(3, "trivial")) == 6
    assert len(canonical_generator_points(7)) == 7


# -- ImageGroup API ----------------------------------------------------------------


def test_image_group_materializes_elements():
    g = image_rho_A(2)
    assert len(g.elements) == 32
    assert all(isinstance(m, ModMatrix) and m.k == 1 for m in g.elements)
    assert len(g.generators) == 5


def test_image_group_generators_mode():
    g = image_rho_A(7)
    assert g.packed_elements is None
    assert g.order == 605052
    assert len(g.generators) == 7
    with pytest.raises(ValueError, match="generators-only"):
        g.elements
    with pytest.raises(ValueError, match="generators-only"):
        ModMatrix.identity(4, 7) in g


@pytest.mark.parametrize(
    "builder", [image_rho_A, image_rho_Adual_contragredient, image_rho_Adual_isogeny]
)
@pytest.mark.parametrize("ell", [11, 13])
def test_image_group_rejects_primes_past_packed_width(builder, ell):
    with pytest.raises(ValueError, match="l <= 7"):
        builder(ell, with_elements=False)


@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda ell: st.lists(st.integers(0, ell - 1), min_size=16, max_size=16)
    )
)
@settings(max_examples=200, deadline=None)
def test_pack_round_trips_every_residue_up_to_seven(flat):
    assert _unpack(_pack(tuple(flat))) == tuple(flat)


@given(
    st.sampled_from([11, 13]).flatmap(
        lambda ell: st.tuples(
            st.lists(st.integers(0, ell - 1), min_size=16, max_size=16),
            st.integers(0, 15),
            st.integers(8, ell - 1),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_pack_loses_a_residue_of_eight_or_more(case):
    # a 3-bit field cannot hold 8..l-1, which is why _build_group rejects l > 7
    flat, pos, big = case
    flat[pos] = big
    assert _unpack(_pack(tuple(flat))) != tuple(flat)


def test_image_group_generators_match_points_at_seven():
    g = image_rho_A(7, with_elements=False)
    expected = tuple(image_element(p) for _, p in canonical_generator_points(7))
    assert g.generators == expected


def test_image_group_membership():
    g = image_rho_A(3)
    assert ModMatrix.identity(4, 3) in g
    off_shape = ModMatrix.from_rows(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3
    )
    assert off_shape not in g


def test_generators_are_members():
    for ell, twist in [(2, "generic"), (3, "generic"), (3, "trivial"), (5, "generic")]:
        g = image_rho_A(ell, twist)
        assert all(m in g for m in g.generators)


def test_provenance_strings_differ_by_route():
    a = image_rho_A(2)
    c = image_rho_Adual_contragredient(2)
    i = image_rho_Adual_isogeny(2)
    assert len({a.provenance, c.provenance, i.provenance}) == 3


# -- paired API --------------------------------------------------------------------


@pytest.mark.parametrize("ell,twist", [(2, "generic"), (3, "generic"), (3, "trivial")])
def test_paired_group_size_and_projection(ell, twist):
    pairs = paired_group(ell, twist)
    assert len(pairs) == FROZEN_ORDERS[(ell, twist)]
    firsts = {m.entries for m, _ in pairs}
    assert len(firsts) == len(pairs)  # first projection is injective


def test_paired_generators_satisfy_functional_dual():
    for ell in PRIMES:
        for m, dm in paired_generators(ell):
            assert expected_dual_of(m).entries == dm.entries


def test_sample_paired_elements_deterministic():
    a = sample_paired_elements(7, "generic", 25, seed=5)
    b = sample_paired_elements(7, "generic", 25, seed=5)
    assert [(m.entries, d.entries) for m, d in a] == [
        (m.entries, d.entries) for m, d in b
    ]
    c = sample_paired_elements(7, "generic", 25, seed=6)
    assert [(m.entries, d.entries) for m, d in a] != [
        (m.entries, d.entries) for m, d in c
    ]


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
    dc = dual_element_contragredient(p)
    assert matches_image_shape(m)
    assert matches_dual_shape(di)
    assert di.entries == dc.entries
    assert expected_dual_of(m).entries == di.entries


@settings(max_examples=150, deadline=None)
@given(param_points())
def test_property_shape_parameters_match_point(p):
    a, d, b1, u, b2, w1, w2 = shape_parameters(image_element(p))
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
    lhs = conjugate_by(mq, prod).reduce_mod(1)
    rhs = image_element(p).mul(image_element(q))
    assert lhs.entries == rhs.entries


# -- flat helpers: errors ----------------------------------------------------------


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_contragredient_flat_raises_on_a_singular_element(ell):
    singular = (1, 0, 0, 0, 0, ell, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)  # det = l
    with pytest.raises(ArithmeticError, match="singular"):
        _contragredient_flat(singular, 1, ell)


def test_div_flat_raises_on_an_entry_not_divisible():
    assert _div_flat((0, 6, -9, 3) * 4, 3) == (0, 2, -3, 1) * 4
    with pytest.raises(ArithmeticError, match="not divisible"):
        _div_flat((3,) * 15 + (4,), 3)
