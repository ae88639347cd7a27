import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galdual.exactmat import (
    ClosureCapError,
    DimensionMismatchError,
    ExactMatError,
    LAdicMatrix,
    ModMatrix,
    NonIntegralEntryError,
    SingularMatrixError,
    UnrepresentableEntryError,
    _fraction_det,
    adj4,
    charpoly4,
    charpoly_rows,
    check_prime,
    closure,
    format_matrix,
    is_prime,
    lval,
    minors4,
    mul4,
    parse_ladic,
    parse_mod,
    smith_normal_form,
)

PRIMES = [2, 3, 5, 7]


def ladic(rows, ell):
    return LAdicMatrix.from_rows(rows, ell)


# -- primes and valuations ---------------------------------------------------


def test_check_prime_accepts_small_primes():
    for p in [2, 3, 5, 7, 11, 9973]:
        assert check_prime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100, -3, "3"])
def test_check_prime_rejects(bad):
    with pytest.raises(ExactMatError):
        check_prime(bad)


def test_is_prime_matches_a_sieve():
    n = 2000
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, n):
        if sieve[p]:
            for q in range(p * p, n, p):
                sieve[q] = False
    assert [m for m in range(-5, n) if is_prime(m)] == [
        m for m in range(n) if sieve[m]
    ]


def test_lval():
    assert lval(12, 2) == 2
    assert lval(Fraction(1, 9), 3) == -2
    assert lval(Fraction(10, 3), 5) == 1
    with pytest.raises(ExactMatError):
        lval(0, 2)


# -- entry normalization ------------------------------------------------------


def test_entry_normalization():
    m = ladic([[(6, 1), (4, 2)], [(0, 5), 3]], 2)
    # 6/2 = 3, 4/4 = 1, 0 stays (0, 0)
    assert m.entries == (((3, 0), (1, 0)), ((0, 0), (3, 0)))


def test_fraction_entries_must_have_l_power_denominator():
    LAdicMatrix.from_rows([[Fraction(1, 9)]], 3)
    with pytest.raises(UnrepresentableEntryError):
        LAdicMatrix.from_rows([[Fraction(1, 6)]], 3)


def test_nonsquare_rejected():
    with pytest.raises(DimensionMismatchError):
        ladic([[1, 2]], 3)


# -- multiplication and inversion ---------------------------------------------


def test_mul_matches_fraction_arithmetic():
    a = ladic([[(1, 1), 2], [3, (5, 2)]], 5)
    b = ladic([[(2, 1), 0], [1, (1, 1)]], 5)
    prod = a.mul(b)
    fa, fb = a.fraction_rows(), b.fraction_rows()
    expect = [
        [sum(fa[i][k] * fb[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod.fraction_rows() == expect


def test_inverse_round_trip():
    m = ladic([[1, 0, (1, 1), 0], [0, 1, 0, 0], [0, 0, (1, 1), 0], [0, 0, 0, 1]], 3)
    inv = m.inv()
    assert inv.fraction_rows() == [
        [1, 0, -1, 0],
        [0, 1, 0, 0],
        [0, 0, 3, 0],
        [0, 0, 0, 1],
    ]
    assert m.mul(inv) == LAdicMatrix.identity(4, 3)


def test_inverse_outside_ring_rejected():
    # det = 3, prime to 2, so the inverse has denominator 3: not in Z[1/2]
    m = ladic([[3]], 2)
    with pytest.raises(UnrepresentableEntryError):
        m.inv()


def test_singular_inverse():
    with pytest.raises(SingularMatrixError) as exc:
        ladic([[1, 1], [1, 1]], 2).inv()
    assert exc.value.determinant == 0


def test_scale_by_an_l_power_fraction():
    m = ladic([[2, 1], [0, 4]], 2)
    assert m.scale(Fraction(1, 2)) == ladic([[1, (1, 1)], [0, 2]], 2)
    assert m.scale((3, 1)) == ladic([[3, (3, 1)], [0, 6]], 2)


@pytest.mark.parametrize("factor", [0.1, 0.5, "1/2", "3", Fraction(1, 3)])
def test_scale_rejects_floats_strings_and_other_denominators(factor):
    with pytest.raises(ExactMatError):
        ladic([[1, 0], [0, 1]], 2).scale(factor)


def test_reduce_mod_requires_integrality():
    m = ladic([[1, (1, 1)], [0, 1]], 3)
    with pytest.raises(NonIntegralEntryError) as exc:
        m.reduce_mod(1)
    assert exc.value.position == (0, 1)
    assert "row 1, column 2" in str(exc.value)


def test_reduce_mod_values():
    m = ladic([[7, -1], [10, 3]], 3)
    r = m.reduce_mod(2)
    assert r.entries == ((7, 8), (1, 3))
    assert r.modulus == 9


# -- ModMatrix ---------------------------------------------------------------


def test_mod_inverse_prime_power():
    m = ModMatrix.from_rows([[1, 3], [2, 1]], 3, 2)
    inv = m.inv()
    assert m.mul(inv).is_identity()
    assert inv.mul(m).is_identity()


def test_mod_inverse_singular():
    m = ModMatrix.from_rows([[3, 0], [0, 1]], 3, 2)
    with pytest.raises(SingularMatrixError):
        m.inv()


@pytest.mark.parametrize("bad", [2.7, Fraction(1, 2), "4"])
def test_mod_from_rows_rejects_non_integer_entries(bad):
    # truncating these would give 2, 0 and 1 mod 3; the true residue of
    # 1/2 mod 3 is 2, so none of them may pass silently
    with pytest.raises(TypeError):
        ModMatrix.from_rows([[1, bad], [0, 1]], 3)


def test_mod_from_rows_reduces_integers():
    assert ModMatrix.from_rows([[-1, 10], [4, 9]], 3).entries == ((2, 1), (1, 0))


@given(
    st.sampled_from(PRIMES),
    st.integers(1, 3),
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
)
@settings(max_examples=200, deadline=None)
def test_mod_inverse_both_sides_or_singular(ell, k, rows):
    m = ModMatrix.from_rows(rows, ell, k)
    if m.det() % ell:
        inv = m.inv()
        assert m.mul(inv).is_identity()
        assert inv.mul(m).is_identity()
    else:
        with pytest.raises(SingularMatrixError) as exc:
            m.inv()
        assert exc.value.determinant == m.det()


def test_mod_det():
    m = ModMatrix.from_rows([[2, 1], [1, 2]], 5)
    assert m.det() == 3


def test_charpoly_matches_textbook():
    m = ModMatrix.from_rows([[1, 2], [3, 4]], 7)
    # x^2 - 5x - 2 = x^2 + 2x + 5 mod 7
    assert m.charpoly() == (1, 2, 5)


def test_charpoly_rejects_composite_modulus():
    m = ModMatrix.from_rows([[1, 0], [0, 1]], 3, 2)
    with pytest.raises(ExactMatError):
        m.charpoly()


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(0, 48), min_size=16, max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_charpoly_cayley_hamilton(ell, flat):
    rows = [[flat[4 * i + j] % ell for j in range(4)] for i in range(4)]
    m = ModMatrix.from_rows(rows, ell)
    coeffs = m.charpoly()
    acc = ModMatrix.from_rows([[0] * 4] * 4, ell)
    for c in coeffs:
        acc = acc.mul(m)
        cid = ModMatrix.identity(4, ell).scale(c)
        acc = ModMatrix.from_rows(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(acc.entries, cid.entries)
            ],
            ell,
        )
    assert all(v == 0 for row in acc.entries for v in row)


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(-20, 20), min_size=16, max_size=16),
    st.lists(st.integers(-20, 20), min_size=16, max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_charpoly_conjugation_invariant(ell, flat_a, flat_x):
    a = [[flat_a[4 * i + j] for j in range(4)] for i in range(4)]
    x = [[flat_x[4 * i + j] for j in range(4)] for i in range(4)]
    xm = ModMatrix.from_rows(x, ell)
    try:
        xinv = xm.inv()
    except SingularMatrixError:
        return
    am = ModMatrix.from_rows(a, ell)
    conj = xinv.mul(am).mul(xm)
    assert conj.charpoly() == am.charpoly()


# -- determinants --------------------------------------------------------------


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(-9, 9), min_size=9, max_size=9),
    st.lists(st.integers(-9, 9), min_size=9, max_size=9),
)
@settings(max_examples=150, deadline=None)
def test_det_multiplicative(ell, fa, fb):
    a = ladic([fa[3 * i : 3 * i + 3] for i in range(3)], ell)
    b = ladic([fb[3 * i : 3 * i + 3] for i in range(3)], ell)
    assert a.mul(b).det() == a.det() * b.det()


def test_permanence_of_sign_convention():
    # det of the standard symplectic 2x2 block is 1
    j = ladic([[0, 1], [-1, 0]], 2)
    assert j.det() == 1
    assert j.is_alternating()


def test_charpoly_rows_leibniz_cross_check():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]
    p = 11
    got = charpoly_rows(rows, p)
    # brute force: evaluate det(xI - A) at n+1 points, interpolate via Lagrange
    xs = list(range(5))
    vals = []
    for x in xs:
        m = [[(x if i == j else 0) - rows[i][j] for j in range(4)] for i in range(4)]
        vals.append(int(LAdicMatrix.from_rows(m, p).det()) % p)
    # Lagrange interpolation over F_11
    coeffs = [0] * 5
    for i, xi in enumerate(xs):
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xi - xj
        dinv = pow(denom % p, -1, p)
        for d, c in enumerate(basis):
            coeffs[d] = (coeffs[d] + vals[i] * c * dinv) % p
    assert tuple(reversed(coeffs)) == got


# -- Smith normal form ---------------------------------------------------------


def diag_from_smith(sf):
    n = len(sf.valuations)
    return [
        [Fraction(sf.ell) ** sf.valuations[i] if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def check_smith(a):
    sf = smith_normal_form(a)
    n = a.n
    left = [list(r) for r in sf.left]
    right = [list(r) for r in sf.right]
    fa = a.fraction_rows()
    la = [
        [sum(left[i][k] * fa[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    lav = [
        [sum(la[i][k] * right[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert lav == diag_from_smith(sf)
    assert list(sf.valuations) == sorted(sf.valuations)
    # transforms are invertible with l-unit determinant
    for t in (left, right):
        dv = _fraction_det(t)
        assert dv != 0
        assert lval(dv, a.ell) == 0
    return sf


def test_smith_of_diagonal():
    a = ladic([[9, 0], [0, 3]], 3)
    sf = check_smith(a)
    assert sf.valuations == (1, 2)


def test_smith_of_glued_pairing_shape():
    ell = 3
    a = ladic(
        [
            [0, ell, 0, 0],
            [-ell, 0, -1, 0],
            [0, 1, 0, 1],
            [0, 0, -1, 0],
        ],
        ell,
    )
    sf = check_smith(a)
    assert sf.valuations == (0, 0, 1, 1)


def test_smith_rejects_nonintegral_input():
    a = ladic([[(1, 1)]], 5)
    with pytest.raises(ExactMatError):
        smith_normal_form(a)


def test_smith_singular():
    with pytest.raises(SingularMatrixError):
        smith_normal_form(ladic([[1, 1], [1, 1]], 2))


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(-27, 27), min_size=16, max_size=16),
)
@settings(max_examples=120, deadline=None)
def test_smith_valuation_sum_is_det_valuation(ell, flat):
    rows = [flat[4 * i : 4 * i + 4] for i in range(4)]
    a = ladic(rows, ell)
    d = a.det()
    if d == 0:
        return
    sf = check_smith(a)
    assert sum(sf.valuations) == lval(d, ell)


@given(
    st.sampled_from([2, 3]),
    st.lists(st.integers(-8, 8), min_size=9, max_size=9),
    st.lists(st.integers(-2, 2), min_size=9, max_size=9),
)
@settings(max_examples=120, deadline=None)
def test_smith_invariant_under_unimodular_row_ops(ell, flat, ops):
    rows = [flat[3 * i : 3 * i + 3] for i in range(3)]
    a = ladic(rows, ell)
    if a.det() == 0:
        return
    # apply a unimodular (det +-1) integer transform built from shears
    u = [[1, ops[0], ops[1]], [0, 1, ops[2]], [0, 0, 1]]
    l = [[1, 0, 0], [ops[3], 1, 0], [ops[4], ops[5], 1]]
    um = ladic(u, ell).mul(ladic(l, ell))
    assert smith_normal_form(um.mul(a)).valuations == smith_normal_form(a).valuations
    assert smith_normal_form(a.mul(um)).valuations == smith_normal_form(a).valuations


# -- text format ---------------------------------------------------------------


def test_format_round_trip_ladic():
    m = ladic([[1, 0, (1, 1), 0], [0, 1, 0, 0], [0, 0, (1, 1), 0], [0, 0, 0, 1]], 5)
    text = format_matrix(m)
    assert text == "1,0,1/l^1,0;0,1,0,0;0,0,1/l^1,0;0,0,0,1"
    assert parse_ladic(text, 5) == m


def test_format_round_trip_mod():
    m = ModMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert format_matrix(m) == "1,2;3,4"
    assert parse_mod("1,2;3,4", 5) == m


def test_parse_rejects_garbage():
    with pytest.raises(ExactMatError):
        parse_ladic("1,x;2,3", 3)
    with pytest.raises(ExactMatError):
        parse_ladic("1/l^", 3)


@given(
    st.sampled_from(PRIMES),
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 3)),
        min_size=4,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_format_parse_round_trip_random(ell, pairs):
    m = LAdicMatrix.from_rows([pairs[:2], pairs[2:]], ell)
    assert parse_ladic(format_matrix(m), ell) == m


# -- closure ---------------------------------------------------------------------


def _add_mod(m):
    return lambda v, g: tuple((a + b) % m for a, b in zip(v, g))


def test_closure_spans_vectors_mod_m():
    span = closure([(0, 0)], [(2, 0), (0, 3)], _add_mod(6))
    assert span == frozenset((a, b) for a in (0, 2, 4) for b in (0, 3))


def test_closure_from_several_start_points():
    assert closure([1, 5], [2], lambda x, g: (x * g) % 7) == frozenset({1, 2, 4, 5, 3, 6})


def test_closure_visits_each_point_and_generator_once_in_order():
    calls = []

    def act(x, g):
        calls.append((x, g))
        return (x + g) % 5

    assert closure([0], [1, 3], act) == frozenset(range(5))
    # points in discovery order 0, 1, 3, 2, 4; generators as given
    assert calls == [
        (0, 1), (0, 3), (1, 1), (1, 3), (3, 1), (3, 3),
        (2, 1), (2, 3), (4, 1), (4, 3),
    ]


def test_closure_walks_start_points_first_in_given_order():
    visited = []

    def act(x, g):
        visited.append(x)
        return (x * g) % 7

    closure([4, 2, 4], [2], act)
    assert visited == [4, 2, 1]


def test_closure_cap_raises_with_partial_size():
    with pytest.raises(ClosureCapError) as info:
        closure([(0, 0)], [(1, 0), (0, 1)], _add_mod(5), cap=7)
    assert info.value.partial_size == 8
    assert info.value.cap == 7


def test_closure_at_cap_is_returned():
    assert len(closure([(0,)], [(1,)], _add_mod(5), cap=5)) == 5


def test_closure_cap_error_is_reexported():
    from galdual import groupengine

    assert groupengine.ClosureCapError is ClosureCapError


# -- flat 4x4 kernel -----------------------------------------------------------

FLAT = st.lists(st.integers(-12, 12), min_size=16, max_size=16)
# residues 0..l-1 hit singular matrices often at small l
SMALL_FLAT = st.lists(st.integers(0, 2), min_size=16, max_size=16)
IDENTITY4 = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)


def _rows(flat):
    return [list(flat[4 * i : 4 * i + 4]) for i in range(4)]


def _flat(mat):
    return tuple(v for row in mat.entries for v in row)


@given(st.sampled_from(PRIMES), FLAT, FLAT)
@settings(max_examples=150, deadline=None)
def test_mul4_matches_modmatrix_mul(ell, fa, fb):
    got = tuple(v % ell for v in mul4(fa, fb))
    want = ModMatrix.from_rows(_rows(fa), ell).mul(ModMatrix.from_rows(_rows(fb), ell))
    assert got == _flat(want)


@given(st.one_of(FLAT, SMALL_FLAT))
@settings(max_examples=150, deadline=None)
def test_kernel_determinant_matches_fraction_det(flat):
    det = _fraction_det(_rows(flat))
    assert adj4(flat)[0] == det
    assert charpoly4(flat)[3] == det


@given(st.one_of(FLAT, SMALL_FLAT))
@settings(max_examples=150, deadline=None)
def test_adjugate_times_matrix_is_determinant(flat):
    det, adj = adj4(flat)
    scalar = tuple(det * v for v in IDENTITY4)
    assert mul4(adj, flat) == scalar
    assert mul4(flat, adj) == scalar


@given(st.sampled_from(PRIMES), st.one_of(FLAT, SMALL_FLAT))
@settings(max_examples=200, deadline=None)
def test_kernel_inverse_mod_l_or_singular(ell, flat):
    det, adj = adj4(flat)
    m = ModMatrix.from_rows(_rows(flat), ell)
    if det % ell:
        inv = tuple(pow(det, -1, ell) * v % ell for v in adj)
        assert tuple(v % ell for v in mul4(inv, flat)) == IDENTITY4
        assert inv == _flat(m.inv())
    else:
        with pytest.raises(SingularMatrixError):
            m.inv()


def test_kernel_reports_a_singular_matrix():
    flat = (1, 2, 3, 4, 2, 4, 6, 8, 0, 1, 0, 1, 5, 0, 7, 1)  # row 1 = 2 * row 0
    det, adj = adj4(flat)
    assert det == 0
    assert mul4(adj, flat) == (0,) * 16


@given(st.sampled_from(PRIMES), st.one_of(FLAT, SMALL_FLAT))
@settings(max_examples=200, deadline=None)
def test_charpoly4_matches_charpoly_rows(ell, flat):
    e1, e2, e3, e4 = charpoly4(flat)
    assert (1, -e1 % ell, e2 % ell, -e3 % ell, e4 % ell) == charpoly_rows(_rows(flat), ell)


def test_minors4_order():
    flat = tuple(range(1, 17))
    m = _rows(flat)
    pairs = list(itertools.combinations(range(4), 2))
    want = [m[r][i] * m[r + 1][j] - m[r][j] * m[r + 1][i] for r in (0, 2) for i, j in pairs]
    assert minors4(flat) == tuple(want)
