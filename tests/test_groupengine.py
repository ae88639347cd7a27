"""Tests for the group machinery: closures, intertwiners, permutation
actions, conjugacy checks, stable lines."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from galdual import constants
from galdual.exactmat import ModMatrix, SingularMatrixError
from galdual.groupengine import (
    _IDENT,
    ClosureCapError,
    PermGroup,
    _gl4_table,
    common_stable_lines,
    conjugates_by,
    f2_inv,
    f2_mul,
    f2_pack,
    f2_transpose,
    f2_unpack,
    fixed_vectors,
    generate_closure,
    gl4_elements,
    index_vector,
    intertwiner_space,
    matrix_subgroups_conjugate,
    orbit_count,
    permutation_character,
    projective_points,
    representations_equivalent,
    to_permutation_group,
    trivial_multiplicity,
    vector_index,
)
from galdual.paramgroups import (
    ImageGroup,
    canonical_generator_points,
    image_element,
    image_rho_A,
    image_rho_Adual_contragredient,
    paired_generators,
    paired_group,
    sample_paired_elements,
    shape_parameters,
)


def mod(rows, ell):
    return ModMatrix.from_rows(rows, ell)


# -- closure ------------------------------------------------------------------


def test_closure_of_identity():
    ident = ModMatrix.identity(4, 3)
    assert generate_closure([ident]) == frozenset({ident})


def test_closure_matches_enumeration_l3():
    gens = [image_element(p) for _, p in canonical_generator_points(3)]
    closed = generate_closure(gens)
    assert len(closed) == 972


def test_closure_cap_reports_partial_size():
    gens = [image_element(p) for _, p in canonical_generator_points(3)]
    with pytest.raises(ClosureCapError, match="partial size") as info:
        generate_closure(gens, cap=100)
    assert info.value.partial_size > 100


def test_closure_rejects_singular_generator():
    with pytest.raises(SingularMatrixError):
        generate_closure([mod([[1, 0], [1, 0]], 3)])


def test_closure_closed_under_multiplication():
    t1 = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2)
    t2 = mod([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 2)
    closed = generate_closure([t1, t2])
    for a in closed:
        for b in closed:
            assert a.mul(b) in closed


def test_closure_requires_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        generate_closure([])


# -- intertwiner spaces -----------------------------------------------------------


def test_intertwiner_identity_pairs_full_space():
    ident = ModMatrix.identity(4, 3)
    space = intertwiner_space([(ident, ident)])
    assert len(space.basis) == 16


def test_intertwiner_scalars_for_irreducible_group():
    # GL4(F2) acts irreducibly; its self-intertwiners are the scalars
    gens = [
        mod([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 2),
        mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2),
    ]
    space = intertwiner_space([(g, g) for g in gens])
    assert len(space.basis) == 1
    assert space.basis[0] == ModMatrix.identity(4, 2)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_intertwiner_dimension_frozen(ell):
    space = intertwiner_space(paired_generators(ell))
    assert len(space.basis) == constants.INTERTWINER_DIMENSIONS[ell]


def test_intertwiner_generator_pairs_equal_full_pairs():
    from_gens = intertwiner_space(paired_generators(2))
    from_all = intertwiner_space(paired_group(2))
    assert from_gens.basis == from_all.basis


def test_intertwiner_rejects_mixed_primes():
    with pytest.raises(ValueError, match="one prime"):
        intertwiner_space(
            [(ModMatrix.identity(4, 3), ModMatrix.identity(4, 5))]
        )


def test_intertwiner_rejects_empty():
    with pytest.raises(ValueError, match="no pairs"):
        intertwiner_space([])


# -- representation equivalence ------------------------------------------------------


def test_representations_inequivalent_l2_full_group():
    verdict, witness = representations_equivalent(paired_group(2))
    assert verdict is False and witness is None


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_representations_inequivalent_generic(ell):
    verdict, witness = representations_equivalent(paired_generators(ell))
    assert verdict is False and witness is None


def test_constructed_equivalence_found_with_witness():
    rng = random.Random(3)
    for _ in range(10):
        ell = rng.choice([2, 3, 5])
        gens = [image_element(p) for _, p in canonical_generator_points(ell)]
        while True:
            x = mod(
                [[rng.randrange(ell) for _ in range(4)] for _ in range(4)], ell
            )
            if x.det() != 0:
                break
        x_inv = x.inv()
        pairs = [(g, x.mul(g).mul(x_inv)) for g in gens]
        verdict, witness = representations_equivalent(pairs)
        assert verdict is True
        for g, g2 in pairs:
            assert witness.mul(g) == g2.mul(witness)


# -- packed F2 utilities ----------------------------------------------------------


def test_f2_pack_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        m = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        assert f2_unpack(f2_pack(m)) == m


def test_f2_mul_matches_modmatrix():
    rng = random.Random(10)
    for _ in range(50):
        a = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        b = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        assert f2_unpack(f2_mul(f2_pack(a), f2_pack(b))) == a.mul(b)


def test_f2_inv_matches_modmatrix():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        a = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        packed = f2_inv(f2_pack(a))
        if a.det() == 0:
            assert packed is None
        else:
            assert f2_unpack(packed) == a.inv()
            checked += 1


def test_f2_transpose():
    m = mod([[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 1]], 2)
    assert f2_unpack(f2_transpose(f2_pack(m))) == m.transpose()


def test_gl4_order():
    assert len(gl4_elements()) == constants.GL4_F2_ORDER
    expected = (16 - 1) * (16 - 2) * (16 - 4) * (16 - 8)
    assert constants.GL4_F2_ORDER == expected


def test_gl4_table_matches_the_brute_force_filter():
    # the oracle: invert every one of the 2^16 packed matrices
    elements, inverses = [], []
    for x in range(1 << 16):
        xi = f2_inv(x)
        if xi is not None:
            elements.append(x)
            inverses.append(xi)
    table_elements, table_inverses = _gl4_table()
    assert table_elements.typecode == table_inverses.typecode == "H"
    assert list(table_elements) == elements
    assert list(table_inverses) == inverses


# -- matrix subgroup conjugacy ------------------------------------------------------


def _transvection_subgroup():
    t = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2)
    return generate_closure([t])


def test_matrix_conjugate_to_itself():
    h = _transvection_subgroup()
    assert matrix_subgroups_conjugate(h, h) is True


def test_matrix_conjugate_order_mismatch():
    h1 = _transvection_subgroup()
    r = mod([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], 2)
    h2 = generate_closure([r])  # order 3
    assert matrix_subgroups_conjugate(h1, h2) is False


def test_matrix_conjugate_constructed_pair():
    rng = random.Random(13)
    h1 = sorted(f2_pack(m) for m in _transvection_subgroup())
    for _ in range(5):
        x = rng.choice(gl4_elements())
        xi = f2_inv(x)
        h2 = [f2_mul(f2_mul(x, g), xi) for g in h1]
        assert matrix_subgroups_conjugate(h1, h2) is True
        assert matrix_subgroups_conjugate(h2, h1) is True


def test_matrix_conjugate_trivial_group_only_to_itself():
    x = f2_pack(mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2))
    assert matrix_subgroups_conjugate({_IDENT}, {x}) is False
    assert matrix_subgroups_conjugate({_IDENT}, {_IDENT}) is True


def test_matrix_not_conjugate_different_fixed_spaces():
    # an involution fixing a 3-space vs one fixing a 2-space
    t = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2)
    s = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 2)
    assert matrix_subgroups_conjugate(
        generate_closure([t]), generate_closure([s])
    ) is False


# -- permutation actions -----------------------------------------------------------


def test_vector_indexing_round_trip():
    for ell in (2, 3, 5, 7):
        for idx in range(0, ell**4, 7):
            assert vector_index(index_vector(idx, ell), ell) == idx
    assert vector_index((1, 2, 0, 0), 3) == 1 + 2 * 3


def test_identity_becomes_identity_permutation():
    g = image_rho_A(2)
    perm = to_permutation_group(g)
    assert tuple(range(16)) in perm.elements


def test_diagonal_matrix_fixed_count():
    # diag(2,1,1,1) over F_3 fixes exactly the 27 vectors with v1 = 0
    d = mod([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    from galdual.groupengine import _perm_from_flat

    flat = tuple(v for row in d.entries for v in row)
    perm = _perm_from_flat(flat, 3, [1, 3, 9, 27])
    assert sum(1 for i, x in enumerate(perm) if x == i) == 27


def test_image_groups_become_degree16_order32():
    for builder in (image_rho_A, image_rho_Adual_contragredient):
        perm = to_permutation_group(builder(2))
        assert perm.degree == 16
        assert perm.order == 32


def test_perm_group_requires_identity():
    with pytest.raises(ValueError, match="identity"):
        PermGroup(3, ((1, 2, 0),), ())


def test_perm_group_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        PermGroup(3, ((0, 1, 2), (1, 0)), ())


# -- characters and multiplicities -----------------------------------------------


def test_character_of_identity_is_degree():
    perm = to_permutation_group(image_rho_A(2))
    counts = permutation_character(perm)
    ident_pos = perm.elements.index(tuple(range(16)))
    assert counts[ident_pos] == 16


def test_character_equals_ell_power_nullity():
    """The two independent computations of the character agree."""
    group = image_rho_A(3, "trivial")
    perm = to_permutation_group(group)
    counts = permutation_character(perm)
    from galdual.exactmat import _rank_mod

    for flat, count in zip(group.element_flats(), counts):
        rows = [
            [(flat[4 * i + j] - (1 if i == j else 0)) % 3 for j in range(4)]
            for i in range(4)
        ]
        nullity = 4 - _rank_mod(rows, 4, 3)
        assert count == 3**nullity


def _multiset(counts):
    out = {}
    for c in counts:
        out[c] = out.get(c, 0) + 1
    return tuple(sorted(out.items()))


def test_character_multisets_l3_trivial_frozen():
    pa = to_permutation_group(image_rho_A(3, "trivial"))
    pd = to_permutation_group(image_rho_Adual_contragredient(3, "trivial"))
    ma = _multiset(permutation_character(pa))
    md = _multiset(permutation_character(pd))
    assert ma == constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_SURFACE
    assert md == constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_DUAL
    assert ma != md


def test_trivial_multiplicities_l3_trivial_frozen():
    pa = to_permutation_group(image_rho_A(3, "trivial"))
    pd = to_permutation_group(image_rho_Adual_contragredient(3, "trivial"))
    ma, md = trivial_multiplicity(pa), trivial_multiplicity(pd)
    assert ma == constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE
    assert md == constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_DUAL
    assert ma != md


def test_trivial_multiplicity_matches_orbit_count():
    for group in (
        image_rho_A(2),
        image_rho_A(3, "trivial"),
        image_rho_Adual_contragredient(3, "trivial"),
    ):
        perm = to_permutation_group(group)
        assert trivial_multiplicity(perm) == orbit_count(perm)


def test_trivial_group_multiplicity_is_degree():
    ident = tuple(range(16))
    perm = PermGroup(16, (ident,), ())
    assert trivial_multiplicity(perm) == 16
    assert orbit_count(perm) == 16


# -- permutation-group conjugacy ----------------------------------------------------

# The block swap e1 <-> e3, e2 <-> e4, row by row.
_BLOCK_SWAP = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def _point_map(rows, ell):
    """The permutation x -> M x of the vectors of F_l^4, by vector indexing."""
    def image(v):
        return [sum(r * x for r, x in zip(row, v)) % ell for row in rows]

    return tuple(
        vector_index(image(index_vector(i, ell)), ell) for i in range(ell**4)
    )


def test_perm_conjugate_reflexive():
    perm = to_permutation_group(image_rho_A(2))
    assert conjugates_by(tuple(range(16)), perm, perm) is True


def _assert_block_swap_conjugates(ell):
    """The block swap conjugates the surface group onto the dual group at
    the generic twist, in both directions (S is its own inverse)."""
    pa = to_permutation_group(image_rho_A(ell))
    pd = to_permutation_group(image_rho_Adual_contragredient(ell))
    sigma = _point_map(_BLOCK_SWAP, ell)
    assert conjugates_by(sigma, pa, pd) is True
    assert conjugates_by(sigma, pd, pa) is True


def test_perm_conjugate_l2_pair():
    _assert_block_swap_conjugates(2)


def test_block_swap_conjugates_l3_generic():
    _assert_block_swap_conjugates(3)


def test_block_swap_rejected_at_trivial_twist():
    pa = to_permutation_group(image_rho_A(3, "trivial"))
    pd = to_permutation_group(image_rho_Adual_contragredient(3, "trivial"))
    assert pa.order == pd.order
    assert conjugates_by(_point_map(_BLOCK_SWAP, 3), pa, pd) is False


def test_perm_conjugate_degree_mismatch():
    p16 = PermGroup(16, (tuple(range(16)),), ())
    p81 = PermGroup(81, (tuple(range(81)),), ())
    with pytest.raises(ValueError, match="degree"):
        conjugates_by(tuple(range(16)), p16, p81)


def test_conjugates_by_rejects_a_non_permutation():
    perm = PermGroup(16, (tuple(range(16)),), ())
    with pytest.raises(ValueError, match="permutation"):
        conjugates_by((0,) + tuple(range(15)), perm, perm)
    with pytest.raises(ValueError, match="permutation"):
        conjugates_by(tuple(range(15)), perm, perm)


def test_perm_conjugate_order_mismatch():
    pa = to_permutation_group(image_rho_A(2))
    ident = tuple(range(16))
    trivial = PermGroup(16, (ident,), ())
    assert conjugates_by(ident, pa, trivial) is False
    # the trivial group maps into pa, but not onto it
    assert conjugates_by(ident, trivial, pa) is False


def test_perm_conjugate_relabeled_groups():
    """A random point relabeling conjugates a group onto its relabeled copy,
    and its inverse conjugates back."""
    rng = random.Random(17)
    pa = to_permutation_group(image_rho_A(2))
    for _ in range(4):
        relabel = list(range(16))
        rng.shuffle(relabel)
        inverse = [0] * 16
        for i, x in enumerate(relabel):
            inverse[x] = i
        conj = tuple(
            tuple(relabel[p[inverse[i]]] for i in range(16)) for p in pa.elements
        )
        other = PermGroup(16, conj, ())
        assert conjugates_by(tuple(relabel), pa, other) is True
        assert conjugates_by(tuple(inverse), other, pa) is True


def test_perm_not_conjugate_different_cycle_structure():
    # C4 with one 4-cycle vs C4 with two 2-cycles in its square's support
    a = tuple([1, 2, 3, 0] + list(range(4, 16)))
    b = tuple([1, 2, 3, 0, 5, 6, 7, 4] + list(range(8, 16)))
    ga = PermGroup(16, tuple(sorted(_cyclic(a))), (a,))
    gb = PermGroup(16, tuple(sorted(_cyclic(b))), (b,))
    rng = random.Random(5)
    sigmas = [tuple(range(16)), tuple(range(15, -1, -1))]
    for _ in range(6):
        sigma = list(range(16))
        rng.shuffle(sigma)
        sigmas.append(tuple(sigma))
    for sigma in sigmas:
        assert conjugates_by(sigma, ga, gb) is False
        assert conjugates_by(sigma, gb, ga) is False


def _cyclic(p):
    out = [tuple(range(len(p)))]
    cur = p
    while cur != out[0]:
        out.append(cur)
        cur = tuple(p[x] for x in cur)
    return out


# -- stable lines ------------------------------------------------------------------


def test_projective_point_count():
    assert sum(1 for _ in projective_points(3)) == 40
    assert sum(1 for _ in projective_points(7)) == 400


def test_trivial_group_stabilizes_all_lines():
    group = ImageGroup(
        ell=3, twist="generic", provenance="test",
        packed_elements=None, packed_generators=(),
    )
    assert len(common_stable_lines(group)) == 40


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_unique_stable_line_surface_side(ell):
    lines = common_stable_lines(image_rho_A(ell, with_elements=False))
    assert len(lines) == 1
    assert lines[0].line == (1, 0, 0, 0)
    for g, val in lines[0].character:
        assert val == shape_parameters(g)[0]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_unique_stable_line_dual_side(ell):
    lines = common_stable_lines(
        image_rho_Adual_contragredient(ell, with_elements=False)
    )
    assert len(lines) == 1
    assert lines[0].line == (0, 0, 1, 0)
    # the dual matrix carries d at position (3,3) on the stable line
    for g, val in lines[0].character:
        assert val == g.entries[2][2]


def test_stable_line_character_multiplicative():
    lines = common_stable_lines(image_rho_A(3, with_elements=False))
    line = lines[0]
    elems = image_rho_A(3).elements[:40]
    rng = random.Random(19)
    for _ in range(60):
        g, h = rng.choice(elems), rng.choice(elems)
        assert (
            line.eigenvalue_of(g.mul(h))
            == line.eigenvalue_of(g) * line.eigenvalue_of(h) % 3
        )


def test_stable_line_rejects_moving_element():
    lines = common_stable_lines(image_rho_A(3, with_elements=False))
    rot = mod([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    with pytest.raises(ValueError, match="stabilize"):
        lines[0].eigenvalue_of(rot)


def test_character_product_is_similitude_scalar():
    """On paired elements, the two line characters multiply to a*d."""
    for ell in (3, 5, 7):
        line_a = common_stable_lines(image_rho_A(ell, with_elements=False))[0]
        line_d = common_stable_lines(
            image_rho_Adual_contragredient(ell, with_elements=False)
        )[0]
        for m, md in sample_paired_elements(ell, "generic", 40, seed=ell):
            a, d, *_ = shape_parameters(m)
            assert line_a.eigenvalue_of(m) * line_d.eigenvalue_of(md) % ell == a * d % ell


# -- fixed vectors ------------------------------------------------------------------


def test_fixed_vectors_identity_group():
    group = ImageGroup(
        ell=5, twist="generic", provenance="test",
        packed_elements=None, packed_generators=(),
    )
    assert fixed_vectors(group) == 4


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_fixed_vectors_trivial_twist(ell):
    assert (
        fixed_vectors(image_rho_A(ell, "trivial", with_elements=False))
        == constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_SURFACE
    )
    assert (
        fixed_vectors(
            image_rho_Adual_contragredient(ell, "trivial", with_elements=False)
        )
        == constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_DUAL
    )


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_fixed_vectors_generic_twist_zero(ell):
    assert fixed_vectors(image_rho_A(ell, with_elements=False)) == 0


# -- property battery ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 5]),
)
def test_property_intertwiner_basis_intertwines(seed, ell):
    """Every reported basis element satisfies the identity on fresh pairs."""
    rng = random.Random(seed)
    gens = [image_element(p) for _, p in canonical_generator_points(ell)]
    sample = [rng.choice(gens) for _ in range(3)]
    pairs = [(g, g) for g in sample]
    space = intertwiner_space(pairs)
    for x in space.basis:
        for g, g2 in pairs:
            assert x.mul(g) == g2.mul(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_property_f2_mul_matches_reference(a, b):
    ma, mb = f2_unpack(a & 0xFFFF), f2_unpack(b & 0xFFFF)
    assert f2_unpack(f2_mul(a & 0xFFFF, b & 0xFFFF)) == ma.mul(mb)
