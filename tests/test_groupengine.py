"""Tests for the group machinery: closures, intertwiners, permutation
actions read off matrices, the block-swap certificate, stable lines."""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from galdual import constants, verifier
from galdual.exactmat import (
    ClosureCapError,
    ExactMatError,
    SingularMatrixError,
    _int_det,
    closure,
    field_width,
    pack_flat,
    unpack_flat,
)
from galdual.groupengine import (
    _IDENT,
    _eigenvalue,
    _f2_small_generating_set,
    _field_ops,
    _gl4_table,
    common_stable_lines,
    f2_inv,
    f2_mul,
    f2_transpose,
    fixed_vectors,
    gl4_elements,
    intertwiner_basis,
    invertible_line,
    matrix_subgroups_conjugate,
    projective_points,
)
from galdual.paramgroups import (
    ImageGroup,
    image_rho_A,
    image_rho_Adual_contragredient,
    paired_generators,
    sample_records,
    shape_parameters,
    slab_records,
)
from galdual.verifier import (
    _burnside_average,
    _fixed_point_counts,
    _orbit_count,
    run_check,
)
from oracles import ModMatrix, _rank_mod, assert_matches_reference, mod_inv, unpacked


def mod(rows, ell):
    return ModMatrix.from_rows(rows, ell)


def _sides(ell, twist="generic"):
    """The packed surface and dual generator lists of one paired_generators
    call."""
    return tuple(zip(*paired_generators(ell, twist)))


def _mats(ell, packed):
    """Packed 4x4 matrices mod l as ModMatrix values."""
    return [ModMatrix.from_packed(p, ell) for p in packed]


def _pairs(records):
    """(image, contragredient dual) packed pairs of some point records."""
    return [(r.image, r.dual_contragredient) for r in records]


def _solve(ell, pairs):
    """intertwiner_basis then invertible_line on ModMatrix pairs: the
    basis and the witness, as ModMatrix values (the witness may be None)."""
    basis = intertwiner_basis(ell, [(g.packed(), h.packed()) for g, h in pairs])
    witness = invertible_line(ell, basis)
    return _mats(ell, basis), None if witness is None else ModMatrix.from_packed(witness, ell)


def _matrix_closure(gens, cap=None):
    """The subgroup generated by invertible 4x4 matrices mod l."""
    return closure([ModMatrix.identity(4, gens[0].ell)], gens, ModMatrix.mul, cap)


def _packed_closure(*mats):
    """The subgroup of GL4(F_2) generated by mod-2 matrices, packed."""
    return closure([_IDENT], [m.packed() for m in mats], f2_mul)


# Vectors of F_l^4 are indexed by v -> v[0] + v[1]*l + v[2]*l^2 + v[3]*l^3.


def vector_index(v, ell: int) -> int:
    idx = 0
    for i in reversed(range(len(v))):
        idx = idx * ell + v[i]
    return idx


def index_vector(idx: int, ell: int, n: int = 4) -> tuple:
    out = []
    for _ in range(n):
        idx, r = divmod(idx, ell)
        out.append(r)
    return tuple(out)


# -- closure ------------------------------------------------------------------


def test_closure_of_identity():
    ident = ModMatrix.identity(4, 3)
    assert _matrix_closure([ident]) == frozenset({ident})


def test_closure_matches_enumeration_l3():
    closed = _matrix_closure(_mats(3, _sides(3)[0]))
    assert len(closed) == 972


def test_closure_cap_reports_partial_size():
    with pytest.raises(ClosureCapError, match="partial size") as info:
        _matrix_closure(_mats(3, _sides(3)[0]), cap=100)
    assert info.value.partial_size > 100


def test_closure_closed_under_multiplication():
    t1 = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2)
    t2 = mod([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 2)
    closed = _matrix_closure([t1, t2])
    for a in closed:
        for b in closed:
            assert a.mul(b) in closed


# -- intertwiner spaces -----------------------------------------------------------


def test_intertwiner_identity_pairs_full_space():
    ident = ModMatrix.identity(4, 3).packed()
    assert len(intertwiner_basis(3, [(ident, ident)])) == 16


def test_intertwiner_scalars_for_irreducible_group():
    # GL4(F2) acts irreducibly; its self-intertwiners are the scalars
    gens = [
        mod([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 2),
        mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2),
    ]
    basis, _ = _solve(2, [(g, g) for g in gens])
    assert basis == [ModMatrix.identity(4, 2)]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_intertwiner_dimension_frozen(ell):
    basis = intertwiner_basis(ell, paired_generators(ell))
    assert len(basis) == constants.INTERTWINER_DIMENSIONS[ell]


def test_intertwiner_generator_pairs_equal_full_pairs():
    from_gens = intertwiner_basis(2, paired_generators(2))
    from_all = intertwiner_basis(2, _pairs(slab_records(2)))
    assert from_gens == from_all


def test_intertwiner_rejects_mixed_primes():
    # the identity packed mod 5 holds fields wider than l = 3's 32 bits,
    # and a 3x3 ModMatrix is no packed matrix at all
    ident3, ident5 = ModMatrix.identity(4, 3).packed(), ModMatrix.identity(4, 5).packed()
    with pytest.raises(ExactMatError, match=f"mod 3: {ident5}"):
        intertwiner_basis(3, [(ident3, ident5)])
    with pytest.raises(ExactMatError, match="mod 3"):
        intertwiner_basis(3, [(ModMatrix.identity(3, 3), ModMatrix.identity(3, 3))])


def test_intertwiner_basis_without_pairs_is_every_unit_matrix():
    # l is explicit, so no pairs is the empty condition: all 4x4 matrices
    for ell in (2, 3, 5, 7):
        basis = intertwiner_basis(ell, [])
        assert basis == tuple(1 << field_width(ell) * b for b in range(16))


# the bad packed inputs: a float, a negative int, an int wider than 16
# fields, a field holding l or more, and a ModMatrix passed by mistake
def _malformed(ell):
    width = field_width(ell)
    return [
        1.0,
        -1,
        1 << 16 * width,
        (1 << 16 * width) | 1,
        *([ell] if ell != 1 << width else []),
        ModMatrix.identity(4, ell),
    ]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_packed_entry_points_refuse_malformed_matrices(ell):
    ident = ModMatrix.identity(4, ell).packed()
    for bad in _malformed(ell):
        calls = (
            lambda: ModMatrix.from_packed(bad, ell),
            lambda: intertwiner_basis(ell, [(ident, bad)]),
            lambda: intertwiner_basis(ell, [(bad, ident)]),
            lambda: invertible_line(ell, [ident, bad]),
            lambda: common_stable_lines(ell, [bad]),
            lambda: fixed_vectors(ell, [ident, bad]),
        )
        for call in calls:
            with pytest.raises(ExactMatError, match=f"mod {ell}: {re.escape(repr(bad))}$"):
                call()


# one bare matrix, as a ModMatrix or as a packed int, where a list belongs
_BARE = (ModMatrix.identity(4, 3), ModMatrix.identity(4, 3).packed())


def test_intertwiner_basis_refuses_bare_matrices_and_malformed_pairs():
    ident = ModMatrix.identity(4, 3).packed()
    for bare in _BARE:
        with pytest.raises(ExactMatError, match="^pairs must be a list"):
            intertwiner_basis(3, bare)
    # a matrix, a triple and a list where a pair belongs, and one bare pair
    for pairs in ([_BARE[0]], [(ident, ident, ident)], [[ident, ident]], (ident, ident)):
        with pytest.raises(ExactMatError, match=r"^pairs\[0\] is not a 2-tuple"):
            intertwiner_basis(3, pairs)


def test_invertible_line_refuses_a_bare_matrix():
    for bare in _BARE:
        with pytest.raises(ExactMatError, match="^basis must be a list"):
            invertible_line(3, bare)


def test_common_stable_lines_refuses_a_bare_matrix():
    for bare in _BARE:
        with pytest.raises(ExactMatError, match="^generators must be a list"):
            common_stable_lines(3, bare)


def test_fixed_vectors_refuses_a_bare_matrix():
    for bare in _BARE:
        with pytest.raises(ExactMatError, match="^generators must be a list"):
            fixed_vectors(3, bare)


def test_l2_invertibility_test_matches_f2_inv_and_builds_no_table():
    invertible = _field_ops(2)[2]
    assert all(invertible(x) == (f2_inv(x) is not None) for x in range(1 << 16))
    _gl4_table.cache_clear()
    assert run_check("thm-main-rep-nonisomorphic").status == "pass"
    assert _gl4_table.cache_info().currsize == 0


def _random_packed(rng, ell, rank=4, diagonal=0):
    """A packed 4x4 mod l: ``diagonal`` times I plus a random 4 x rank times
    rank x 4 product, so below rank 4 that product is always singular."""
    left = [[rng.randrange(ell) for _ in range(rank)] for _ in range(4)]
    right = [[rng.randrange(ell) for _ in range(4)] for _ in range(rank)]
    return pack_flat([
        (sum(left[i][k] * right[k][j] for k in range(rank)) + diagonal * (i == j)) % ell
        for i in range(4) for j in range(4)
    ], ell)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_odd_invertibility_test_matches_the_determinant(ell):
    invertible = _field_ops(ell)[2]
    rng = random.Random(ell)
    for n in range(400):
        x = _random_packed(rng, ell, rank=n % 5)
        assert invertible(x) == (_int_det(ModMatrix.from_packed(x, ell).entries) % ell != 0)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_odd_sub_matches_a_field_by_field_reference(ell):
    sub = _field_ops(ell)[0]
    width = field_width(ell)
    rng = random.Random(ell)

    def operand(fields):
        # residues in every field, the top one nonzero
        values = [rng.randrange(ell) for _ in range(fields)]
        if values:
            values[-1] = rng.randrange(1, ell)
        return sum(v << width * k for k, v in enumerate(values))

    def fields(x, count):
        return [x >> width * k & ((1 << width) - 1) for k in range(count)]

    sizes = (0, 1, 4, 16, 17, 112)
    for nu, nv in itertools.product(sizes, repeat=2):
        u, v = operand(nu), operand(nv)
        for c in range(ell):
            n = max(nu, nv)
            expected = sum(
                (x - c * y) % ell << width * k
                for k, (x, y) in enumerate(zip(fields(u, n), fields(v, n)))
            )
            assert sub(u, c, v) == expected


# -- representation equivalence ------------------------------------------------------


def test_representations_inequivalent_l2_full_group():
    assert invertible_line(2, intertwiner_basis(2, _pairs(slab_records(2)))) is None


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_representations_inequivalent_generic(ell):
    assert invertible_line(ell, intertwiner_basis(ell, paired_generators(ell))) is None


def test_constructed_equivalence_found_with_witness():
    rng = random.Random(3)
    for _ in range(10):
        ell = rng.choice([2, 3, 5])
        gens = _mats(ell, _sides(ell)[0])
        x = _random_invertible(rng, ell)
        x_inv = mod_inv(x)
        pairs = [(g, x.mul(g).mul(x_inv)) for g in gens]
        _, witness = _solve(ell, pairs)
        assert witness is not None
        for g, g2 in pairs:
            assert witness.mul(g) == g2.mul(witness)


def test_invertible_line_refuses_a_span_past_ten_million_lines():
    # identity pairs at l = 7 leave every 4x4 matrix: dimension 16
    ident = ModMatrix.identity(4, 7).packed()
    with pytest.raises(ValueError, match="10\\^7 lines"):
        invertible_line(7, intertwiner_basis(7, [(ident, ident)]))


# a plane of 4x4 matrices mod l with exactly one invertible line: over F_2
# the span of E00 and diag(0, 1, 1, 1) holds only I, and over F_3 that of
# diag(1, 1, 0, 0) and diag(0, 2, 1, 1) holds only diag(2, 1, 1, 1) and its
# double
_ONE_INVERTIBLE_LINE = {
    2: ((1, 0, 0, 0), (0, 1, 1, 1), (1, 1, 1, 1)),
    3: ((1, 1, 0, 0), (0, 2, 1, 1), (2, 1, 1, 1)),
}


def test_span_walk_reaches_lines_with_a_leading_zero():
    # Every basis of the plane puts the invertible line at every place of
    # the walk: the last line, and the lines whose coefficient on the first
    # basis vector is 0, among them.  The bases whose walk misses it are
    # collected, so a failure names each prime it happens at.
    missed = []
    for ell, diagonals in _ONE_INVERTIBLE_LINE.items():
        p, q, target = diagonals
        multiples = {_diag([c * v for v in target], ell).packed() for c in range(1, ell)}
        for m in itertools.product(range(ell), repeat=4):
            if (m[0] * m[3] - m[1] * m[2]) % ell == 0:
                continue
            basis = [_diag([a * u + b * v for u, v in zip(p, q)], ell) for a, b in (m[:2], m[2:])]
            if invertible_line(ell, [b.packed() for b in basis]) not in multiples:
                missed.append((ell, m))
    assert missed == []


def _diag(values, ell):
    return mod([[v if i == j else 0 for j in range(4)] for i, v in enumerate(values)], ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_packed_intertwiner_matches_the_reference_on_paired_generators(ell):
    pairs = paired_generators(ell)
    basis = intertwiner_basis(ell, pairs)
    assert_matches_reference(ell, pairs, basis, invertible_line(ell, basis))


def _block_swap(ell):
    """The permutation matrix S of the block swap: row i of S is e_s(i)."""
    s = verifier._BLOCK_SWAP
    return mod([[int(j == s[i]) for j in range(4)] for i in range(4)], ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_positive_controls_find_an_invertible_intertwiner(ell):
    # pairs (g, X g X^-1) on the surface generators: X intertwines them, so
    # the solver must return some invertible intertwiner, for X the identity,
    # a seeded invertible matrix and the block swap
    gens = _mats(ell, _sides(ell)[0])
    for x in (
        ModMatrix.identity(4, ell),
        _random_invertible(random.Random(ell), ell),
        _block_swap(ell),
    ):
        x_inv = mod_inv(x)
        pairs = [(g, x.mul(g).mul(x_inv)) for g in gens]
        _, w = _solve(ell, pairs)
        assert w is not None
        mod_inv(w)  # raises SingularMatrixError on a singular witness
        for g, h in pairs:
            assert w.mul(g) == h.mul(w)


# -- packed F2 utilities ----------------------------------------------------------


def test_f2_pack_round_trip():
    """At l = 2 the shared packed format is the 16-bit layout: bit 4i + j
    holds entry (i, j)."""
    rng = random.Random(9)
    assert field_width(2) == 1
    for _ in range(30):
        m = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        packed = m.packed()
        assert packed == sum(m.entries[i][j] << (4 * i + j) for i in range(4) for j in range(4))
        assert ModMatrix.from_packed(packed, 2) == m
    assert ModMatrix.identity(4, 2).packed() == _IDENT


def test_f2_mul_matches_modmatrix():
    rng = random.Random(10)
    for _ in range(50):
        a = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        b = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        assert ModMatrix.from_packed(f2_mul(a.packed(), b.packed()), 2) == a.mul(b)


def test_f2_mul_of_unit_matrices():
    # E_ij * E_km = E_im when j == k and 0 otherwise, for all 256 pairs
    for i, j, k, m in itertools.product(range(4), repeat=4):
        want = 1 << (4 * i + m) if j == k else 0
        assert f2_mul(1 << (4 * i + j), 1 << (4 * k + m)) == want


def test_f2_mul_is_linear_in_each_argument():
    # with the unit products above, XOR-linearity in a and in b fixes every
    # product; bits above the low 16 of either argument are ignored
    rng = random.Random(12)
    for _ in range(2000):
        a, b, c = (rng.getrandbits(16) for _ in range(3))
        assert f2_mul(a ^ b, c) == f2_mul(a, c) ^ f2_mul(b, c)
        assert f2_mul(a, b ^ c) == f2_mul(a, b) ^ f2_mul(a, c)
        high = rng.getrandbits(24) << 16
        assert f2_mul(a | high, b | high) == f2_mul(a, b)


def test_f2_inv_matches_modmatrix():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        a = mod([[rng.randrange(2) for _ in range(4)] for _ in range(4)], 2)
        packed = f2_inv(a.packed())
        try:
            want = mod_inv(a)
        except SingularMatrixError:
            assert packed is None
        else:
            assert ModMatrix.from_packed(packed, 2) == want
            checked += 1


def test_f2_transpose():
    m = mod([[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 1]], 2)
    assert ModMatrix.from_packed(f2_transpose(m.packed()), 2) == m.transpose()


@pytest.mark.parametrize("twist", ["generic", "trivial"])
def test_l2_image_groups_lie_in_the_packed_gl4(twist):
    """The image groups at l = 2 and the GL4(F_2) table share one packing."""
    gl4 = set(gl4_elements())
    for builder in (image_rho_A, image_rho_Adual_contragredient):
        group = builder(2, twist)
        assert group.order == 32
        assert set(group.packed_elements) <= gl4


def _f2_inv_by_elimination(a):
    """Gauss-Jordan inverse of a packed matrix, or None if singular: the
    oracle for the GL4(F_2) table that f2_inv reads."""
    rows = [((a >> (4 * i)) & 15) | (1 << (4 + i)) for i in range(4)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if rows[r] & (1 << col)), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(4):
            if r != col and rows[r] & (1 << col):
                rows[r] ^= rows[col]
    out = 0
    for i in range(4):
        out |= (rows[i] >> 4) << (4 * i)
    return out


def _f2_transpose_by_bits(a):
    """Transpose of a packed matrix, one bit at a time: the oracle for the
    delta swaps of f2_transpose."""
    out = 0
    for i in range(4):
        for j in range(4):
            if a & (1 << (4 * i + j)):
                out |= 1 << (4 * j + i)
    return out


@functools.cache
def _oracle_inverses():
    """_f2_inv_by_elimination of every one of the 2^16 packed matrices."""
    return [_f2_inv_by_elimination(x) for x in range(1 << 16)]


def test_f2_inv_matches_elimination_on_every_packed_matrix():
    inverses = _oracle_inverses()
    assert sum(xi is not None for xi in inverses) == constants.GL4_F2_ORDER
    for x, xi in enumerate(inverses):
        assert f2_inv(x) == xi


def test_f2_transpose_matches_the_bit_loop_on_every_packed_matrix():
    for x in range(1 << 16):
        assert f2_transpose(x) == _f2_transpose_by_bits(x)


def test_gl4_order():
    assert len(gl4_elements()) == constants.GL4_F2_ORDER
    expected = (16 - 1) * (16 - 2) * (16 - 4) * (16 - 8)
    assert constants.GL4_F2_ORDER == expected


def test_gl4_table_matches_the_brute_force_filter():
    # the oracle: invert every one of the 2^16 packed matrices by elimination
    elements, inverses = [], []
    for x, xi in enumerate(_oracle_inverses()):
        if xi is not None:
            elements.append(x)
            inverses.append(xi)
    table_elements, table_inverses = _gl4_table()
    assert table_elements.typecode == table_inverses.typecode == "H"
    assert list(table_elements) == elements
    assert list(table_inverses) == inverses


def test_gl4_table_holds_exactly_what_the_reference_inverse_inverts():
    # the level-by-level table against tests/oracles.mod_inv, the adjugate
    # inverse, on every one of the 2^16 packed matrices: a value is listed
    # exactly when it inverts, with that inverse, in ascending order
    elements, inverses = _gl4_table()
    position = 0
    for x in range(1 << 16):
        try:
            xi = mod_inv(ModMatrix.from_packed(x, 2)).packed()
        except SingularMatrixError:
            continue
        assert (elements[position], inverses[position]) == (x, xi)
        position += 1
    assert position == len(elements) == len(inverses) == constants.GL4_F2_ORDER


# -- packed intertwiners ------------------------------------------------------------


def _embed_gl3(a):
    """diag(1, A) for a 3x3 matrix A over F_2, packed."""
    rows = [[1, 0, 0, 0]] + [[0] + list(r) for r in a]
    return mod(rows, 2).packed()


# GL3(F_2) is generated by a 3-cycle and a transvection; it acts absolutely
# irreducibly on F_2^3, and the natural module is not isomorphic to its dual.
_GL3_GENERATORS = (
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
)
_E00 = 0x0001


def test_packed_span_of_e00_has_no_invertible_element():
    # diag(1, A) against diag(1, A^-T): only the trivial summands meet
    gens = [_embed_gl3(a) for a in _GL3_GENERATORS]
    pairs = [(g, f2_transpose(f2_inv(g))) for g in gens]
    assert intertwiner_basis(2, pairs) == (_E00,)
    assert invertible_line(2, (_E00,)) is None


def test_packed_span_of_e00_and_identity_yields_the_identity():
    # the commutant of diag(1, GL3(F_2)) is spanned by E00 and I - E00
    pairs = [(g, g) for g in (_embed_gl3(a) for a in _GL3_GENERATORS)]
    basis = intertwiner_basis(2, pairs)
    assert len(basis) == 2 and {basis[0], basis[1], basis[0] ^ basis[1]} == {
        _E00, _IDENT, _IDENT ^ _E00
    }
    assert invertible_line(2, basis) == _IDENT


def test_packed_intertwiner_finds_a_constructed_conjugator():
    rng = random.Random(17)
    gens = _sides(2)[0]
    for _ in range(20):
        x = rng.choice(gl4_elements())
        xi = f2_inv(x)
        pairs = [(g, f2_mul(f2_mul(x, g), xi)) for g in gens]
        witness = invertible_line(2, intertwiner_basis(2, pairs))
        assert f2_inv(witness) is not None
        for g, g2 in pairs:
            assert f2_mul(witness, g) == f2_mul(g2, witness)


def test_packed_identity_pairs_leave_the_full_space():
    basis = intertwiner_basis(2, [(_IDENT, _IDENT)])
    assert sorted(basis) == [1 << b for b in range(16)]
    assert invertible_line(2, basis) is not None


# -- matrix subgroup conjugacy ------------------------------------------------------


def _transvection_subgroup():
    t = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2)
    return _packed_closure(t)


def test_matrix_conjugate_to_itself():
    h = _transvection_subgroup()
    assert matrix_subgroups_conjugate(h, h, _f2_small_generating_set(h)) is True


def test_matrix_conjugate_order_mismatch():
    h1 = _transvection_subgroup()
    r = mod([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], 2)
    h2 = _packed_closure(r)  # order 3
    assert matrix_subgroups_conjugate(h1, h2, _f2_small_generating_set(h1)) is False


def test_matrix_conjugate_constructed_pair():
    rng = random.Random(13)
    h1 = sorted(_transvection_subgroup())
    for _ in range(5):
        x = rng.choice(gl4_elements())
        xi = f2_inv(x)
        h2 = [f2_mul(f2_mul(x, g), xi) for g in h1]
        assert matrix_subgroups_conjugate(h1, h2, _f2_small_generating_set(frozenset(h1))) is True
        assert matrix_subgroups_conjugate(h2, h1, _f2_small_generating_set(frozenset(h2))) is True


def test_matrix_conjugate_trivial_group_only_to_itself():
    x = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2).packed()
    assert matrix_subgroups_conjugate({_IDENT}, {x}, ()) is False
    assert matrix_subgroups_conjugate({_IDENT}, {_IDENT}, ()) is True


def test_matrix_not_conjugate_different_fixed_spaces():
    # an involution fixing a 3-space vs one fixing a 2-space
    t = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2)
    s = mod([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 2)
    assert matrix_subgroups_conjugate(_packed_closure(t), _packed_closure(s), [t.packed()]) is False


# -- permutation actions, read off the matrices --------------------------------------
# GL4(F_l) acts faithfully on the l^4 vectors of F_l^4.  The verifier reads
# every permutation statement off the matrices; _point_map, the action itself,
# is the oracle here.


def test_vector_indexing_round_trip():
    for ell in (2, 3, 5, 7):
        for idx in range(0, ell**4, 7):
            assert vector_index(index_vector(idx, ell), ell) == idx
    assert vector_index((1, 2, 0, 0), 3) == 1 + 2 * 3


def _point_map(rows, ell):
    """The permutation x -> M x of the vectors of F_l^4, by vector indexing."""
    def image(v):
        return [sum(r * x for r, x in zip(row, v)) % ell for row in rows]

    return tuple(
        vector_index(image(index_vector(i, ell)), ell) for i in range(ell**4)
    )


def _compose(p, q):
    """p after q: (p*q)(i) = p(q(i)), matching matrix products."""
    return tuple(p[x] for x in q)


def _fixed_points(perm) -> int:
    return sum(1 for i, x in enumerate(perm) if x == i)


def _image_group(ell, matrices, generators=()) -> ImageGroup:
    """An ImageGroup holding the given ModMatrix elements and generators."""
    return ImageGroup(
        ell,
        tuple(sorted(m.packed() for m in matrices)),
        tuple(m.packed() for m in generators),
    )


def test_identity_becomes_identity_permutation():
    identity = ModMatrix.identity(4, 2)
    assert identity.packed() in image_rho_A(2).packed_elements
    assert _point_map(identity.entries, 2) == tuple(range(16))


def test_diagonal_matrix_fixed_count():
    # diag(2,1,1,1) over F_3 fixes exactly the 27 vectors with v1 = 0
    d = mod([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    assert _fixed_points(_point_map(d.entries, 3)) == 27
    assert 3 ** fixed_vectors(3, [d.packed()]) == 27


def test_image_groups_become_degree16_order32():
    for builder in (image_rho_A, image_rho_Adual_contragredient):
        group = builder(2)
        perms = {_point_map(g.entries, 2) for g in unpacked(group)}
        assert group.order == 32
        assert len(perms) == 32  # the action is faithful
        assert all(sorted(p) == list(range(16)) for p in perms)


# -- characters and multiplicities -----------------------------------------------


def test_character_of_identity_is_degree():
    group = image_rho_A(2)
    counts = _fixed_point_counts(group)
    assert counts[group.packed_elements.index(_IDENT)] == 16


def test_character_equals_ell_power_nullity():
    """The fixed-point counts read off the matrices equal those of the point
    maps and l^nullity(g - 1), element by element."""
    for ell, twist in ((2, "generic"), (3, "generic"), (3, "trivial")):
        for builder in (image_rho_A, image_rho_Adual_contragredient):
            group = builder(ell, twist)
            for g, count in zip(unpacked(group), _fixed_point_counts(group)):
                assert count == _fixed_points(_point_map(g.entries, ell))
                rows = [
                    [(v - (1 if i == j else 0)) % ell for j, v in enumerate(row)]
                    for i, row in enumerate(g.entries)
                ]
                assert count == ell ** (4 - _rank_mod(rows, 4, ell))


def _moved_rows(g, ell):
    """The rows of g - I mod l for a packed g, as lists."""
    entries = ModMatrix.from_packed(g, ell).entries
    return [[(v - (i == j)) % ell for j, v in enumerate(row)] for i, row in enumerate(entries)]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_fixed_vectors_of_several_matrices_match_the_stacked_rank(ell):
    """fixed_vectors on lists of two or three packed matrices, singular ones
    among them, is 4 minus the reference rank of the stacked rows of g - I.
    Each g is I plus a matrix of random rank, so every dimension occurs."""
    rng = random.Random(ell)
    dims = set()
    for n in range(300):
        gens = [_random_packed(rng, ell, rng.randrange(5), diagonal=1) for _ in range(2 + n % 2)]
        if n % 7 == 0:
            gens[0] = _random_packed(rng, ell, rank=rng.randrange(4))  # singular
        rows = [row for g in gens for row in _moved_rows(g, ell)]
        dim = fixed_vectors(ell, gens)
        assert dim == 4 - _rank_mod(rows, 4, ell)
        dims.add(dim)
    assert dims == {0, 1, 2, 3, 4}


def _multiset(counts):
    out = {}
    for c in counts:
        out[c] = out.get(c, 0) + 1
    return tuple(sorted(out.items()))


def test_character_multisets_l3_trivial_frozen():
    ma = _multiset(_fixed_point_counts(image_rho_A(3, "trivial")))
    md = _multiset(_fixed_point_counts(image_rho_Adual_contragredient(3, "trivial")))
    assert ma == constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_SURFACE
    assert md == constants.PERM_CHARACTER_MULTISET_L3_TRIVIAL_DUAL
    assert ma != md


def test_trivial_multiplicities_l3_trivial_frozen():
    ma = _burnside_average(_fixed_point_counts(image_rho_A(3, "trivial")))
    md = _burnside_average(
        _fixed_point_counts(image_rho_Adual_contragredient(3, "trivial"))
    )
    assert ma == constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE
    assert md == constants.TRIVIAL_MULTIPLICITY_L3_TRIVIAL_DUAL
    assert ma != md


def test_trivial_multiplicity_matches_orbit_count():
    """Burnside average, orbit count by closure over the generators, and the
    orbits of the point maps of every element all agree."""
    for group in (
        image_rho_A(2),
        image_rho_A(3, "trivial"),
        image_rho_Adual_contragredient(3, "trivial"),
    ):
        perms = [_point_map(g.entries, group.ell) for g in unpacked(group)]
        orbits = {frozenset(p[i] for p in perms) for i in range(group.ell**4)}
        average = _burnside_average(_fixed_point_counts(group))
        assert average == _orbit_count(group) == len(orbits)


def test_trivial_group_multiplicity_is_degree():
    trivial = _image_group(2, [ModMatrix.identity(4, 2)])
    assert _burnside_average(_fixed_point_counts(trivial)) == 16
    assert _orbit_count(trivial) == 16


# -- the block-swap certificate ---------------------------------------------------

# The block swap e1 <-> e3, e2 <-> e4 as the coordinate permutation s that
# perm-conj reads; its permutation matrix has row i equal to e_s(i).
_BLOCK_SWAP = (2, 3, 0, 1)
_IDENTITY_PERMUTATION = (0, 1, 2, 3)


def _permutation_matrix(s, ell):
    return mod([[int(j == s[i]) for j in range(4)] for i in range(4)], ell)


def test_perm_conjugate_reflexive(monkeypatch):
    """perm-conj accepts the identity as a conjugator of a group onto itself."""
    monkeypatch.setattr(verifier, "_BLOCK_SWAP", _IDENTITY_PERMUTATION)
    monkeypatch.setattr(verifier, "image_rho_Adual_contragredient", image_rho_A)
    assert run_check("perm-conj").status == "pass"


def _assert_block_swap_conjugates(ell):
    """The point map sigma of S conjugates the action of the surface group
    onto that of the dual group, in both directions (S is its own inverse);
    each conjugate sigma pi(g) sigma^-1 is the point map of S g S^-1."""
    s = _permutation_matrix(_BLOCK_SWAP, ell)
    sigma = _point_map(s.entries, ell)
    assert _compose(sigma, sigma) == tuple(range(ell**4))
    surface = unpacked(image_rho_A(ell))
    dual = unpacked(image_rho_Adual_contragredient(ell))
    for one, other in ((surface, dual), (dual, surface)):
        conjugates = set()
        for g in one:
            p = _compose(sigma, _compose(_point_map(g.entries, ell), sigma))
            assert p == _point_map(s.mul(g).mul(s).entries, ell)
            conjugates.add(p)
        assert conjugates == {_point_map(h.entries, ell) for h in other}
    assert run_check("perm-conj", ell=ell).status == "pass"


def test_perm_conjugate_l2_pair():
    _assert_block_swap_conjugates(2)


def test_block_swap_conjugates_l3_generic():
    _assert_block_swap_conjugates(3)


def test_block_swap_rejected_at_trivial_twist():
    s = _permutation_matrix(_BLOCK_SWAP, 3)
    sigma = _point_map(s.entries, 3)
    surface = unpacked(image_rho_A(3, "trivial"))
    dual = unpacked(image_rho_Adual_contragredient(3, "trivial"))
    assert len(surface) == len(dual)
    assert {s.mul(g).mul(s) for g in surface} != set(dual)
    conjugates = {
        _compose(sigma, _compose(_point_map(g.entries, 3), sigma)) for g in surface
    }
    assert conjugates != {_point_map(h.entries, 3) for h in dual}


def _dropping_one_element(builder):
    """An image-group builder that leaves out the group's largest element."""
    def build(ell, twist="generic"):
        group = builder(ell, twist)
        return ImageGroup(ell, group.packed_elements[:-1], group.packed_generators)

    return build


def test_perm_conjugate_order_mismatch(monkeypatch):
    """A group missing one element is conjugate to neither image group: the
    certificate maps a short surface group into the dual group but not onto
    it, and the full surface group past a short dual group."""
    for side in ("image_rho_A", "image_rho_Adual_contragredient"):
        with monkeypatch.context() as patch:
            builder = getattr(verifier, side)
            patch.setattr(verifier, side, _dropping_one_element(builder))
            for ell in (2, 3):
                report = run_check("perm-conj", ell=ell)
                assert report.status == "fail"
                assert dict(report.counts)[f"l{ell}_conjugate"] == 0


def _random_invertible(rng, ell):
    while True:
        x = mod([[rng.randrange(ell) for _ in range(4)] for _ in range(4)], ell)
        try:
            mod_inv(x)
        except SingularMatrixError:
            continue
        return x


def test_perm_conjugate_relabeled_groups(monkeypatch):
    """A random coordinate permutation s relabels the surface group into a
    conjugate copy, built by ModMatrix products with its permutation matrix
    X, and perm-conj accepts s as the certificate; the point map of X
    conjugates the two actions."""
    rng = random.Random(17)
    for ell in (2, 3):
        surface = unpacked(image_rho_A(ell))
        for _ in range(2):
            s = tuple(rng.sample(range(4), 4))
            x = _permutation_matrix(s, ell)
            xi = x.transpose()
            assert x.mul(xi) == ModMatrix.identity(4, ell)
            copy = [x.mul(g).mul(xi) for g in surface]
            monkeypatch.setattr(verifier, "_BLOCK_SWAP", s)
            monkeypatch.setattr(
                verifier,
                "image_rho_Adual_contragredient",
                lambda ell_, twist="generic", copy=copy: _image_group(ell_, copy),
            )
            assert run_check("perm-conj", ell=ell).status == "pass"
            relabel = _point_map(x.entries, ell)
            inverse = _point_map(xi.entries, ell)
            assert {
                _compose(relabel, _compose(_point_map(g.entries, ell), inverse))
                for g in surface
            } == {_point_map(h.entries, ell) for h in copy}


def test_perm_not_conjugate_different_cycle_structure(monkeypatch):
    """At (3, trivial) the surface and dual actions have 9 and 11 orbits, so
    no matrix conjugates one group onto the other: all 24 coordinate
    permutations are refused."""
    for builder in (image_rho_A, image_rho_Adual_contragredient):
        monkeypatch.setattr(
            verifier,
            builder.__name__,
            lambda ell, twist="generic", builder=builder: builder(ell, "trivial"),
        )
    for s in itertools.permutations(range(4)):
        monkeypatch.setattr(verifier, "_BLOCK_SWAP", s)
        report = run_check("perm-conj", ell=3)
        assert report.status == "fail"
        assert "not conjugate" in report.witness


@pytest.mark.parametrize("ell", [2, 3])
def test_exactly_two_coordinate_permutations_certify_the_generic_twist(ell, monkeypatch):
    """Of the 24 coordinate permutations, the block swap and (2, 1, 0, 3),
    which also swaps e1 and e3 but fixes e2 and e4, are the certificates
    perm-conj accepts."""
    passing = []
    for s in itertools.permutations(range(4)):
        monkeypatch.setattr(verifier, "_BLOCK_SWAP", s)
        if run_check("perm-conj", ell=ell).status == "pass":
            passing.append(s)
    assert passing == [(2, 1, 0, 3), _BLOCK_SWAP]


def test_perm_conj_refuses_a_certificate_that_is_not_a_permutation(monkeypatch):
    monkeypatch.setattr(verifier, "_BLOCK_SWAP", (2, 2, 0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        run_check("perm-conj", ell=2)


# -- stable lines ------------------------------------------------------------------


def test_projective_point_count():
    assert sum(1 for _ in projective_points(3)) == 40
    assert sum(1 for _ in projective_points(7)) == 400


def test_trivial_group_stabilizes_all_lines():
    assert len(common_stable_lines(3, [])) == 40


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_unique_stable_line_surface_side(ell):
    lines = common_stable_lines(ell, _sides(ell)[0])
    assert len(lines) == 1
    assert lines[0].line == (1, 0, 0, 0)
    for g, val in lines[0].character:
        assert val == shape_parameters(g, ell)[0]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_unique_stable_line_dual_side(ell):
    lines = common_stable_lines(ell, _sides(ell)[1])
    assert len(lines) == 1
    assert lines[0].line == (0, 0, 1, 0)
    # the dual matrix carries d at position (3,3) on the stable line
    for g, val in lines[0].character:
        assert val == ModMatrix.from_packed(g, ell).entries[2][2]


def test_stable_line_character_multiplicative():
    lines = common_stable_lines(3, _sides(3)[0])
    line = lines[0]
    elems = unpacked(image_rho_A(3))[:40]
    rng = random.Random(19)

    def eigenvalue(m):
        return _eigenvalue(unpack_flat(m.packed(), 3), line.line, 3)

    for _ in range(60):
        g, h = rng.choice(elems), rng.choice(elems)
        assert eigenvalue(g.mul(h)) == eigenvalue(g) * eigenvalue(h) % 3


def test_stable_line_rejects_moving_element():
    lines = common_stable_lines(3, _sides(3)[0])
    rot = mod([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    assert _eigenvalue(unpack_flat(rot.packed(), 3), lines[0].line, 3) is None


def test_character_product_is_similitude_scalar():
    """On paired elements, the two line characters multiply to a*d."""
    for ell in (3, 5, 7):
        surface, dual = _sides(ell)
        line_a = common_stable_lines(ell, surface)[0]
        line_d = common_stable_lines(ell, dual)[0]
        for m, md in _pairs(sample_records(ell, "generic", 40, seed=ell)):
            a, d, *_ = shape_parameters(m, ell)
            product = _eigenvalue(unpack_flat(m, ell), line_a.line, ell) * _eigenvalue(
                unpack_flat(md, ell), line_d.line, ell
            )
            assert product % ell == a * d % ell


@pytest.mark.parametrize(
    "bad", [ModMatrix.identity(4, 5), ModMatrix.identity(3, 3)]
)
def test_generator_checks_reject_a_foreign_generator(bad):
    gens = [*_sides(3)[0], bad]
    with pytest.raises(ValueError, match="mod 3"):
        common_stable_lines(3, gens)
    with pytest.raises(ValueError, match="mod 3"):
        fixed_vectors(3, gens)


# -- fixed vectors ------------------------------------------------------------------


def test_fixed_vectors_identity_group():
    assert fixed_vectors(5, []) == 4


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_fixed_vectors_trivial_twist(ell):
    surface, dual = _sides(ell, "trivial")
    assert fixed_vectors(ell, surface) == constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_SURFACE
    assert fixed_vectors(ell, dual) == constants.FIXED_SPACE_DIM_TRIVIAL_TWIST_DUAL


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_fixed_vectors_generic_twist_zero(ell):
    assert fixed_vectors(ell, _sides(ell)[0]) == 0


# -- property battery ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 5]),
)
def test_property_intertwiner_basis_intertwines(seed, ell):
    """Every reported basis element satisfies the identity on fresh pairs."""
    rng = random.Random(seed)
    gens = _mats(ell, _sides(ell)[0])
    sample = [rng.choice(gens) for _ in range(3)]
    pairs = [(g, g) for g in sample]
    basis, _ = _solve(ell, pairs)
    for x in basis:
        for g, g2 in pairs:
            assert x.mul(g) == g2.mul(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_property_f2_mul_matches_reference(a, b):
    ma, mb = ModMatrix.from_packed(a & 0xFFFF, 2), ModMatrix.from_packed(b & 0xFFFF, 2)
    assert ModMatrix.from_packed(f2_mul(a & 0xFFFF, b & 0xFFFF), 2) == ma.mul(mb)
