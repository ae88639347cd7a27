import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galdual.exactmat import (
    LOWER_LEFT,
    LOWER_RIGHT,
    UPPER_LEFT,
    UPPER_RIGHT,
    ClosureCapError,
    DimensionMismatchError,
    ExactMatError,
    LAdicMatrix,
    NonIntegralEntryError,
    SingularMatrixError,
    UnrepresentableEntryError,
    check_packed,
    check_prime,
    closure,
    format_matrix,
    format_packed,
    int_adj,
    is_prime,
    lval,
    parse_ladic,
    position_mask,
    smith_normal_form,
)
from galdual.lattice import locally_contains_standard
from oracles import ModMatrix, charpoly_rows, mod_inv, row_text

PRIMES = [2, 3, 5, 7]


def ladic(rows, ell):
    return LAdicMatrix.from_rows(rows, ell)


def _fractions(m):
    """The entries of ``m`` as rows of Fractions, the oracles' input form."""
    return [[Fraction(x, m.ell**m.k) for x in row] for row in m.entries]


# -- Fraction oracles ------------------------------------------------------------
# Textbook elimination on Fractions, kept here as the reference the integer
# kernels of galdual.exactmat are checked against.


def _fraction_det(rows) -> Fraction:
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv_p = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv_p
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def _fraction_inv(rows) -> list:
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    b = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular", determinant=Fraction(0))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv_p = 1 / a[col][col]
        a[col] = [v * inv_p for v in a[col]]
        b[col] = [v * inv_p for v in b[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                b[r] = [v - f * w for v, w in zip(b[r], b[col])]
    return b


def _fraction_smith(a):
    """Valuation-pivoting Smith elimination on Fractions.

    Returns (valuations, pivots, left, right), pivots being the (row,
    column) chosen at each step in the working coordinates of that step.
    """
    ell, n = a.ell, a.n
    work = _fractions(a)
    left = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    right = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    vals, pivots = [], []
    for step in range(n):
        best = None
        for r in range(step, n):
            for c in range(step, n):
                if work[r][c] != 0:
                    v = lval(work[r][c], ell)
                    if best is None or v < best[0]:
                        best = (v, r, c)
        if best is None:
            raise SingularMatrixError("singular", determinant=Fraction(0))
        v, r, c = best
        work[step], work[r] = work[r], work[step]
        left[step], left[r] = left[r], left[step]
        for row in work + right:
            row[step], row[c] = row[c], row[step]
        pivot = work[step][step]
        for r2 in range(step + 1, n):
            f = work[r2][step] / pivot
            work[r2] = [x - f * y for x, y in zip(work[r2], work[step])]
            left[r2] = [x - f * y for x, y in zip(left[r2], left[step])]
        for c2 in range(step + 1, n):
            f = work[step][c2] / pivot
            for row in work + right:
                row[c2] -= f * row[step]
        unit = pivot / Fraction(ell) ** v
        work[step] = [x / unit for x in work[step]]
        left[step] = [x / unit for x in left[step]]
        vals.append(v)
        pivots.append((r, c))
    return tuple(vals), pivots, left, right


def _swaps_from_transform(rows):
    """The row swaps (step, r) of an elimination whose transform is L * P.

    L is lower triangular with nonzero diagonal and P the permutation the
    swaps build, so row i of the transform is zero beyond the columns of
    rows 0..i of P and nonzero at the new one; that recovers P, and P the
    swaps.
    """
    n = len(rows)
    order = []
    for row in rows:
        (new,) = [j for j in range(n) if row[j] != 0 and j not in order]
        order.append(new)
    arr, swaps = list(range(n)), []
    for step, target in enumerate(order):
        r = arr.index(target)
        arr[step], arr[r] = arr[r], arr[step]
        swaps.append(r)
    return swaps


def _smith_pivots(left, right):
    """(row, column) pivot positions read off a Smith form's transforms."""
    cols = [list(col) for col in zip(*right)]
    return list(zip(_swaps_from_transform(left), _swaps_from_transform(cols)))


def _fraction_locally_contains_standard(mat):
    try:
        inv_rows = _fraction_inv(_fractions(mat))
    except SingularMatrixError:
        return False
    return all(x == 0 or lval(x, mat.ell) >= 0 for row in inv_rows for x in row)


@st.composite
def ladic_matrices(draw, integral=False):
    """Random n x n Z[1/l] matrices, n <= 4, with denominators up to l^2."""
    ell = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    exponent = st.just(0) if integral else st.sampled_from([0, 0, 0, 1, 2])
    num = st.one_of(st.integers(-12, 12), st.integers(-12, 12).map(lambda x: x * ell))
    entry = st.tuples(num, exponent)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
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


@pytest.mark.parametrize("bad", [0.5, "9/4", 0.0, 2.0])
def test_lval_rejects_floats_and_strings(bad):
    with pytest.raises(ExactMatError):
        lval(bad, 3)


# -- entry normalization ------------------------------------------------------


def test_entry_normalization():
    m = ladic([[(6, 1), (4, 2)], [(0, 5), 3]], 2)
    # 6/2 = 3, 4/4 = 1, 0/2^5 = 0: every entry is an integer, so k = 0
    assert (m.entries, m.k) == (((3, 1), (0, 3)), 0)
    assert m == ladic([[3, 1], [0, 3]], 2)


def test_direct_construction_is_the_canonical_form():
    # 3 / 3^1 = 1: the l dividing every entry cancels against the exponent
    m = LAdicMatrix(3, ((3,),), 1)
    assert m == ladic([[1]], 3)
    assert (m.entries, m.k) == (((1,),), 0)
    assert hash(m) == hash(ladic([[1]], 3))
    # a negative exponent scales the rows: (1, 2; 0, 1) / 3^-2
    m = LAdicMatrix(3, ((1, 2), (0, 1)), -2)
    assert m == ladic([[9, 18], [0, 9]], 3)
    assert m.k == 0
    # only the l-power shared by every entry cancels: (4, 2; 0, 6) / 2^3
    m = LAdicMatrix(2, ((4, 2), (0, 6)), 3)
    assert m == ladic([[(1, 1), (1, 2)], [0, (3, 2)]], 2)
    assert (m.entries, m.k) == (((2, 1), (0, 3)), 2)
    # the zero matrix has no denominator
    m = LAdicMatrix(5, ((0, 0), (0, 0)), 3)
    assert m == ladic([[0, 0], [0, 0]], 5)
    assert m.k == 0


@pytest.mark.parametrize(
    "entries, k",
    [(((1.5,),), 0), (((2.0,),), 0), ((("1",),), 0), ((((3, 1),),), 0), (((1,),), 0.5)],
)
def test_direct_construction_rejects_entries_that_are_not_integers(entries, k):
    # a direct build takes integer rows only; pairs and Fractions go to from_rows
    with pytest.raises(ExactMatError):
        LAdicMatrix(3, entries, k)


@settings(max_examples=200, deadline=None)
@given(ladic_matrices(), st.integers(0, 3))
def test_equality_is_equality_of_values(a, j):
    ell = a.ell
    rows = tuple(tuple(x * ell**j for x in row) for row in a.entries)
    b = LAdicMatrix(ell, rows, a.k + j)  # the same values over l^(k + j)
    assert b == a and hash(b) == hash(a)
    assert _fractions(b) == _fractions(a)
    # k is minimal: with k > 0 some entry is not divisible by l
    assert a.k == 0 or any(x % ell for row in a.entries for x in row)


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
    fa, fb = _fractions(a), _fractions(b)
    expect = [
        [sum(fa[i][k] * fb[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert _fractions(prod) == expect


def test_inverse_round_trip():
    m = ladic([[1, 0, (1, 1), 0], [0, 1, 0, 0], [0, 0, (1, 1), 0], [0, 0, 0, 1]], 3)
    inv = m.inv()
    assert _fractions(inv) == [
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


def test_from_rows_rejects_a_float_in_a_pair():
    with pytest.raises(ExactMatError):
        ladic([[(2.7, 0)]], 3)


def test_from_rows_rejects_strings_in_a_pair():
    with pytest.raises(ExactMatError):
        ladic([[("4", "1")]], 3)


def test_scale_rejects_a_float_in_a_pair():
    with pytest.raises(ExactMatError):
        ladic([[1, 0], [0, 1]], 3).scale((0.5, 0))


def test_reduce_mod_requires_integrality():
    m = ladic([[1, 0, 0, 0], [0, 1, 0, (2, 1)], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    with pytest.raises(NonIntegralEntryError) as exc:
        m.reduce_mod()
    assert exc.value.position == (1, 3)
    assert "row 2, column 4 is 2/3^1" in str(exc.value)


def test_reduce_mod_values():
    m = ladic([[7, -1, 0, 3], [10, 3, 1, 0], [0, 0, -4, 2], [5, 0, 0, 1]], 3)
    r = m.reduce_mod()
    assert r == ModMatrix(3, ((1, 2, 0, 0), (1, 0, 1, 0), (0, 0, 2, 2), (2, 0, 0, 1))).packed()
    # the packed form is each residue in its own 2-bit field
    assert r == 0b01_00_00_10_10_10_00_00_00_01_00_01_00_00_10_01


def test_reduce_mod_refuses_a_non_4x4_matrix():
    with pytest.raises(DimensionMismatchError, match="4x4"):
        ladic([[7, -1], [10, 3]], 3).reduce_mod()


# -- ModMatrix, the tests' row reference, and the packed format ------------------


def test_mod_inverse_singular():
    # the first reduces to determinant 0; the second has determinant 3 = 0 mod 3
    for rows in ([[3, 0], [0, 1]], [[2, 1], [1, 2]]):
        with pytest.raises(SingularMatrixError) as exc:
            mod_inv(ModMatrix.from_rows(rows, 3))
        assert exc.value.determinant == 0


def test_packed_form_is_for_4x4_matrices_only():
    with pytest.raises(DimensionMismatchError, match="4x4"):
        ModMatrix.identity(3, 5).packed()


def test_block_masks_at_two_are_the_sixteen_bit_masks():
    # flat position i is bit i at l = 2
    assert position_mask(LOWER_LEFT, 2) == 0x3300
    assert position_mask(UPPER_LEFT + LOWER_RIGHT, 2) == 0xCC33
    assert position_mask(UPPER_RIGHT, 2) == 0x00CC
    assert position_mask(UPPER_LEFT, 2) == 0x0033
    assert position_mask(LOWER_RIGHT, 2) == 0xCC00


def test_check_packed_refuses_a_field_that_is_not_a_residue():
    # at l = 3 each entry takes 2 bits, and the field value 3 is not a residue
    assert check_packed(2, 3) == 2
    with pytest.raises(ExactMatError, match="residues mod 3: 3$"):
        check_packed(3, 3)
    with pytest.raises(ExactMatError, match="residues mod 5"):
        check_packed(5 << 3 * 15, 5)  # the last field holds 5
    # a negative or too wide int, or no int, is refused by name, not read
    # as some matrix
    for bad, ell in ((-1, 2), (1 << 16, 2), ((1 << 32) | 5, 3), (1.0, 2)):
        with pytest.raises(ExactMatError, match=f"residues mod {ell}: {bad}$"):
            check_packed(bad, ell)
    assert check_packed(0xFFFF, 2) == 0xFFFF
    assert check_packed(6 << 45, 7) == 6 << 45  # 6 in the last 3-bit field


@pytest.mark.parametrize("bad", [2.7, Fraction(1, 2), "4"])
def test_mod_from_rows_rejects_non_integer_entries(bad):
    # truncating these would give 2, 0 and 1 mod 3; the true residue of
    # 1/2 mod 3 is 2, so none of them may pass silently
    with pytest.raises(ExactMatError, match=rf"^entry {re.escape(repr(bad))} is not an integer$"):
        ModMatrix.from_rows([[1, bad], [0, 1]], 3)


def test_mod_matrix_rejects_a_non_integer_entry():
    with pytest.raises(ExactMatError, match=r"^entry 1\.0 is not an integer$"):
        ModMatrix(3, ((1.0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_mod_matrix_stores_list_rows_as_tuples():
    m = ModMatrix(3, [[1, 0], [0, 1]])
    assert m.entries == ((1, 0), (0, 1))
    assert {m} == {ModMatrix.identity(2, 3)}


def test_mod_from_rows_reduces_integers():
    assert ModMatrix.from_rows([[-1, 10], [4, 9]], 3).entries == ((2, 1), (1, 0))


@given(
    st.sampled_from(PRIMES),
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
)
@settings(max_examples=200, deadline=None)
def test_mod_inverse_both_sides_or_singular(ell, rows):
    m = ModMatrix.from_rows(rows, ell)
    if _fraction_det(rows) % ell:
        inv = mod_inv(m)
        assert m.mul(inv) == ModMatrix.identity(m.n, ell)
        assert inv.mul(m) == ModMatrix.identity(m.n, ell)
    else:
        with pytest.raises(SingularMatrixError) as exc:
            mod_inv(m)
        assert exc.value.determinant == 0


def test_charpoly_matches_textbook():
    # x^2 - 5x - 2 = x^2 + 2x + 5 mod 7
    assert charpoly_rows([[1, 2], [3, 4]], 7) == (1, 2, 5)


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(0, 48), min_size=16, max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_charpoly_cayley_hamilton(ell, flat):
    rows = [[flat[4 * i + j] % ell for j in range(4)] for i in range(4)]
    m = ModMatrix.from_rows(rows, ell)
    acc = ModMatrix.from_rows([[0] * 4] * 4, ell)
    for c in charpoly_rows(rows, ell):  # Horner: acc <- acc * m + c * I
        acc = acc.mul(m)
        acc = ModMatrix.from_rows(
            [
                [v + (c if i == j else 0) for j, v in enumerate(row)]
                for i, row in enumerate(acc.entries)
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
        xinv = mod_inv(xm)
    except SingularMatrixError:
        return
    conj = xinv.mul(ModMatrix.from_rows(a, ell)).mul(xm)
    assert charpoly_rows(conj.entries, ell) == charpoly_rows(a, ell)


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


@settings(max_examples=300, deadline=None)
@given(ladic_matrices())
def test_det_matches_the_fraction_oracle(a):
    assert a.det() == _fraction_det(_fractions(a))


@settings(max_examples=300, deadline=None)
@given(ladic_matrices())
def test_inv_matches_the_fraction_oracle(a):
    try:
        want_rows = _fraction_inv(_fractions(a))
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError) as exc:
            a.inv()
        assert exc.value.determinant == 0
        return
    try:
        want = LAdicMatrix.from_rows(want_rows, a.ell)
    except UnrepresentableEntryError as exc:
        message = f"inverse leaves the coefficient ring Z[1/{a.ell}]: {exc}"
        with pytest.raises(UnrepresentableEntryError) as got:
            a.inv()
        assert str(got.value) == message
        return
    assert a.inv() == want


@settings(max_examples=300, deadline=None)
@given(ladic_matrices())
def test_int_adj_is_the_adjugate(a):
    rows = a.entries
    try:
        d, adj = int_adj(rows)
    except SingularMatrixError:
        assert _fraction_det(rows) == 0
        return
    assert d == _fraction_det(rows)
    n = len(rows)
    assert [
        [sum(adj[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ] == [[d if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_mod_det_and_inv_match_the_fraction_oracle(ell, data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    a = ModMatrix.from_rows(rows, ell)
    if _fraction_det(rows) % ell == 0:
        with pytest.raises(SingularMatrixError) as exc:
            mod_inv(a)
        assert exc.value.determinant == 0
        return
    want = tuple(
        tuple(v.numerator * pow(v.denominator, -1, ell) % ell for v in row)
        for row in _fraction_inv(rows)
    )
    assert mod_inv(a).entries == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES + [11]), st.data())
def test_charpoly_rows_matches_the_fraction_oracle(p, data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    want = [1]
    for k in range(1, n + 1):
        total = sum(
            _fraction_det([[rows[i][j] for j in sub] for i in sub])
            for sub in itertools.combinations(range(n), k)
        )
        want.append((-1) ** k * int(total) % p)
    assert charpoly_rows(rows, p) == tuple(want)


@settings(max_examples=300, deadline=None)
@given(ladic_matrices())
def test_smith_matches_the_fraction_oracle(a):
    try:
        vals, pivots, left, right = _fraction_smith(a)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            smith_normal_form(a)
        return
    # the pivot reader recovers the oracle's own pivots
    assert _smith_pivots(left, right) == pivots
    if min(vals) < 0:
        with pytest.raises(ExactMatError, match="negative valuation"):
            smith_normal_form(a)
        return
    sf = check_smith(a)
    assert sf.valuations == vals
    assert _smith_pivots(sf.left, sf.right) == pivots


@settings(max_examples=300, deadline=None)
@given(ladic_matrices())
def test_locally_contains_standard_matches_the_fraction_oracle(a):
    assert locally_contains_standard(a) == _fraction_locally_contains_standard(a)


@pytest.mark.parametrize(
    "rows, ell, want",
    [
        ([[3]], 2, True),  # inverse 1/3: a unit at 2, not in Z[1/2]
        ([[3, 0], [0, (1, 1)]], 2, True),
        ([[6]], 2, False),
        ([[(5, 1), 1], [0, 7]], 3, True),
        ([[1, 1], [1, 1]], 5, False),
    ],
)
def test_locally_contains_standard_with_denominators_prime_to_l(rows, ell, want):
    a = ladic(rows, ell)
    assert locally_contains_standard(a) == want
    assert _fraction_locally_contains_standard(a) == want


def test_permanence_of_sign_convention():
    # det of the standard symplectic 2x2 block is 1
    j = ladic([[0, 1], [-1, 0]], 2)
    assert j.det() == 1
    assert j.is_alternating()


def test_nonzero_diagonal_is_not_alternating():
    # skew off the diagonal, but an alternating matrix has a zero diagonal
    assert not ladic([[1, 2], [-2, 0]], 3).is_alternating()
    assert not ladic([[0, 2], [-2, (1, 1)]], 3).is_alternating()
    assert not ladic([[0, 2], [2, 0]], 3).is_alternating()
    assert ladic([[0, (2, 1)], [(-2, 1), 0]], 3).is_alternating()


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
    fa = _fractions(a)
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
    m = ModMatrix.from_rows([[1, 2, 0, 4], [3, 4, 1, 0], [0, 0, 2, 0], [4, 3, 2, 1]], 5)
    text = format_packed(m.packed(), 5)
    assert text == "1,2,0,4;3,4,1,0;0,0,2,0;4,3,2,1"
    assert parse_ladic(text, 5).reduce_mod() == m.packed()
    assert format_packed(0x8421, 2) == "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    with pytest.raises(ExactMatError, match="residues mod 3"):
        format_packed(m.packed(), 3)  # too wide at l = 3
    with pytest.raises(ExactMatError, match="cannot format ModMatrix"):
        format_matrix(m)


@given(st.sampled_from(PRIMES + [11]), st.data())
@settings(max_examples=200, deadline=None)
def test_format_packed_matches_the_row_text(ell, data):
    flat = data.draw(st.lists(st.integers(0, ell - 1), min_size=16, max_size=16))
    m = ModMatrix.from_rows([flat[0:4], flat[4:8], flat[8:12], flat[12:16]], ell)
    assert format_packed(m.packed(), ell) == row_text(m)


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
