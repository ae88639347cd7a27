from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galdual.exactmat import LAdicMatrix, lval, smith_normal_form
from galdual.lattice import (
    KernelSpec,
    LatticeError,
    PolarizationSpec,
    change_basis_from_kernel,
    change_basis_from_transformation,
    conjugate_by,
    dual_isogeny_matrix,
    format_kernel,
    locally_contains_standard,
    parse_kernel,
    polarization_type,
    pullback_polarization,
    pushforward_polarization,
    same_l_lattice,
    standard_polarization_matrix,
)

PRIMES = [2, 3, 5, 7]


def ladic(rows, ell):
    return LAdicMatrix.from_rows(rows, ell)


def diag(values, ell):
    n = len(values)
    return ladic(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], ell
    )


def product_pairing(ell):
    """Principal pairing of a product of two 2-dimensional factors."""
    return ladic(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ],
        ell,
    )


def glue_kernel(ell):
    return KernelSpec(ell, 1, 4, ((1, 0, 1, 0),))


def expected_glue_basis(ell):
    return ladic(
        [
            [1, 0, (1, 1), 0],
            [0, 1, 0, 0],
            [0, 0, (1, 1), 0],
            [0, 0, 0, 1],
        ],
        ell,
    )


def glued_pairing(ell):
    return ladic(
        [
            [0, ell, 0, 0],
            [-ell, 0, -1, 0],
            [0, 1, 0, 1],
            [0, 0, -1, 0],
        ],
        ell,
    )


# -- change of basis -----------------------------------------------------------


@pytest.mark.parametrize("ell", PRIMES)
def test_change_basis_from_multiplication_by_l(ell):
    got = change_basis_from_transformation(diag([ell, ell], ell))
    assert got == diag([(1, 1), (1, 1)], ell)


def test_change_basis_from_transformation_identity():
    assert change_basis_from_transformation(
        LAdicMatrix.identity(4, 3)
    ) == LAdicMatrix.identity(4, 3)


@pytest.mark.parametrize("ell", PRIMES)
def test_change_basis_cyclic_kernel(ell):
    ker = KernelSpec(ell, 1, 2, ((1, 0),))
    assert change_basis_from_kernel(ker) == ladic([[(1, 1), 0], [0, 1]], ell)


@pytest.mark.parametrize("ell", PRIMES)
def test_change_basis_glue_kernel(ell):
    assert change_basis_from_kernel(glue_kernel(ell)) == expected_glue_basis(ell)


def test_change_basis_trivial_kernel():
    ker = KernelSpec(5, 1, 4, ())
    assert change_basis_from_kernel(ker) == LAdicMatrix.identity(4, 5)


def test_change_basis_dependent_generators():
    with pytest.raises(LatticeError, match="not independent"):
        change_basis_from_kernel(KernelSpec(3, 1, 2, ((1, 0), (2, 0))))
    with pytest.raises(LatticeError, match="not independent"):
        change_basis_from_kernel(
            KernelSpec(2, 1, 2, ((1, 0), (0, 1), (1, 1)))
        )


def test_change_basis_fallback_no_unit_coordinate():
    # generator 2*(1,0) in (Z/4)^2 has no unit coordinate
    ker = KernelSpec(2, 2, 2, ((2, 0),))
    assert change_basis_from_kernel(ker) == ladic([[(2, 2), 0], [0, 1]], 2)


def test_change_basis_fallback_diagonal_lift():
    ker = KernelSpec(2, 2, 2, ((2, 2),))
    got = change_basis_from_kernel(ker)
    assert same_l_lattice(got, ladic([[(1, 1), 0], [(1, 1), 1]], 2))


def test_change_basis_two_generators():
    ker = KernelSpec(2, 1, 4, ((1, 0, 1, 0), (0, 1, 0, 1)))
    got = change_basis_from_kernel(ker)
    assert lval(got.det(), 2) == -2
    assert got.inv().is_integral()


def test_change_basis_respects_unit_scan_order():
    # unit sits at index 1, so the scaled column lands in column 1
    ker = KernelSpec(2, 2, 2, ((2, 1),))
    assert change_basis_from_kernel(ker) == ladic([[1, (2, 2)], [0, (1, 2)]], 2)


# -- kernels and their text format ----------------------------------------------


def test_kernel_spec_normalizes_entries():
    ker = KernelSpec(3, 1, 2, ((4, -1),))
    assert ker.generators == ((1, 2),)


def test_kernel_spec_rejects_zero_generator():
    with pytest.raises(LatticeError):
        KernelSpec(3, 1, 2, ((3, 6),))


def test_kernel_spec_rejects_bad_length():
    with pytest.raises(LatticeError):
        KernelSpec(3, 1, 2, ((1, 0, 0),))


def test_subgroup_elements_cyclic():
    ker = KernelSpec(3, 1, 2, ((1, 2),))
    assert ker.subgroup_elements() == frozenset(
        {(0, 0), (1, 2), (2, 1)}
    )


def test_quotient_group_rejects_denominators_beyond_l_to_the_n():
    from galdual.lattice import _quotient_group

    mat = LAdicMatrix.from_rows([[Fraction(1, 9), 0], [0, 1]], 3)
    with pytest.raises(AssertionError, match="beyond l\\^n"):
        _quotient_group(mat, 1)
    assert _quotient_group(mat, 2) == frozenset((a, 0) for a in range(9))


def test_kernel_format_round_trip():
    ker = KernelSpec(3, 1, 4, ((1, 0, 1, 0),))
    text = format_kernel(ker)
    assert text == "ell=3 n=1 dim=4 gens=(1,0,1,0)"
    assert parse_kernel(text) == ker


def test_kernel_format_round_trip_multi():
    ker = KernelSpec(2, 2, 3, ((1, 2, 3), (0, 1, 0)))
    assert parse_kernel(format_kernel(ker)) == ker


def test_kernel_format_empty_gens():
    ker = KernelSpec(5, 1, 2, ())
    assert parse_kernel(format_kernel(ker)) == ker


def test_parse_kernel_rejects_garbage():
    with pytest.raises(LatticeError):
        parse_kernel("not a kernel")


# -- polarization transport -------------------------------------------------------


def test_dual_isogeny_matrix_is_transpose():
    m = ladic([[1, 2], [3, 4]], 3)
    assert dual_isogeny_matrix(m) == m.transpose()
    assert dual_isogeny_matrix(diag([3, 1], 3)) == diag([3, 1], 3)


@pytest.mark.parametrize("ell", PRIMES)
def test_pullback_scales_principal_pairing(ell):
    j = ladic([[0, 1], [-1, 0]], ell)
    got = pullback_polarization(j, diag([ell, 1], ell))
    assert got == ladic([[0, ell], [-ell, 0]], ell)


def test_pullback_identity():
    j = ladic([[0, 1], [-1, 0]], 3)
    assert pullback_polarization(j, LAdicMatrix.identity(2, 3)) == j


def test_pullback_rejects_nonalternating():
    with pytest.raises(LatticeError):
        pullback_polarization(diag([1, 1], 3), diag([3, 1], 3))


@pytest.mark.parametrize("ell", PRIMES)
def test_pushforward_principal_example(ell):
    j = ladic([[0, 1], [-1, 0]], ell)
    ker = KernelSpec(ell, 1, 2, ((1, 0),))
    got, d = pushforward_polarization(j, diag([ell, 1], ell), ker)
    assert d == ell
    assert got == j


def test_pushforward_trivial_kernel():
    j = ladic([[0, 1], [-1, 0]], 3)
    ker = KernelSpec(3, 1, 2, ())
    got, d = pushforward_polarization(j, LAdicMatrix.identity(2, 3), ker)
    assert d == 1
    assert got == j


@pytest.mark.parametrize("ell", PRIMES)
def test_pushforward_glued_surface(ell):
    n_iso = change_basis_from_kernel(glue_kernel(ell)).inv()
    got, d = pushforward_polarization(product_pairing(ell), n_iso, glue_kernel(ell))
    assert d == ell
    assert got == glued_pairing(ell)


def test_pushforward_rejects_nonisotropic_kernel():
    j = ladic([[0, 1], [-1, 0]], 3)
    ker = KernelSpec(3, 1, 2, ((1, 0), (0, 1)))
    with pytest.raises(LatticeError, match="generators 1 and 2"):
        pushforward_polarization(j, diag([3, 3], 3), ker)


def test_pushforward_mismatched_isogeny_matrix():
    # kernel of order l but an isogeny matrix of multiplication by l:
    # transported pairing leaves the lattice
    j = ladic([[0, 1], [-1, 0]], 3)
    ker = KernelSpec(3, 1, 2, ((1, 0),))
    with pytest.raises(LatticeError):
        pushforward_polarization(j, diag([3, 3], 3), ker)


# -- polarization type -------------------------------------------------------------


@pytest.mark.parametrize("ell", PRIMES)
def test_glued_pairing_has_type_one_ell(ell):
    n = glued_pairing(ell)
    assert smith_normal_form(n).valuations == (0, 0, 1, 1)
    assert polarization_type(n, 2) == (1, ell)
    assert n.det() == ell * ell


def test_type_of_principal():
    assert polarization_type(ladic([[0, 1], [-1, 0]], 5), 1) == (1,)


def test_type_round_trip_standard_matrix():
    for ell in PRIMES:
        m = standard_polarization_matrix((1, ell), ell)
        assert polarization_type(m, 2) == (1, ell)


def test_standard_polarization_small():
    assert standard_polarization_matrix((1,), 3) == ladic([[0, 1], [-1, 0]], 3)
    assert standard_polarization_matrix((1, 3), 3) == ladic(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 3],
            [-1, 0, 0, 0],
            [0, -3, 0, 0],
        ],
        3,
    )


def test_standard_polarization_congruent_to_product_pairing():
    # same pairing as the product principal one, in the interleaved basis
    for ell in PRIMES:
        std = standard_polarization_matrix((1, 1), ell)
        perm = ladic(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            ell,
        )
        assert pullback_polarization(std, perm) == product_pairing(ell)
        assert polarization_type(std, 2) == polarization_type(
            product_pairing(ell), 2
        )


def test_standard_polarization_divisibility():
    with pytest.raises(LatticeError):
        standard_polarization_matrix((2, 3), 3)
    with pytest.raises(LatticeError):
        standard_polarization_matrix((0, 1), 3)


def test_type_rejects_wrong_shapes():
    with pytest.raises(LatticeError):
        polarization_type(ladic([[0, 1], [-1, 0]], 3), 2)
    with pytest.raises(LatticeError):
        polarization_type(diag([1, 1], 3), 1)
    with pytest.raises(LatticeError):
        polarization_type(ladic([[0, (1, 1)], [(-1, 1), 0]], 3), 1)


# -- conjugation and lattice comparison ----------------------------------------------


def test_conjugate_by_identity():
    a = ladic([[1, 2], [3, 4]], 5)
    assert conjugate_by(LAdicMatrix.identity(2, 5), a) == a


def test_conjugate_by_composes():
    m1 = ladic([[1, 1], [0, 1]], 3)
    m2 = ladic([[2, 1], [1, 1]], 3)
    a = ladic([[1, 2], [3, 4]], 3)
    assert conjugate_by(m2, conjugate_by(m1, a)) == conjugate_by(m1.mul(m2), a)


def test_same_l_lattice():
    a = expected_glue_basis(3)
    unimod = ladic([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]], 3)
    assert same_l_lattice(a, a.mul(unimod))
    assert not same_l_lattice(a, a.scale((1, 1)))
    assert same_l_lattice(a, a.scale(2) if a.ell != 2 else a)


# -- polarization specs ---------------------------------------------------------------


def test_polarization_spec_accepts_typed():
    PolarizationSpec(glued_pairing(3), (1, 3))


def test_polarization_spec_rejects_wrong_type():
    with pytest.raises(LatticeError):
        PolarizationSpec(glued_pairing(3), (1, 9))


def test_polarization_spec_rejects_nonalternating():
    with pytest.raises(LatticeError):
        PolarizationSpec(diag([1, 1], 3))


# -- functoriality of kernel chains -----------------------------------------------------


def minimal_generating_set(elements, ell, n, dim):
    """Greedy minimal generating set of a subgroup of (Z/l^n)^dim."""

    def order(v):
        m = ell**n
        o = 1
        w = v
        while any(w):
            w = tuple((a + b) % m for a, b in zip(w, v))
            o += 1
        return o

    chosen = []
    span = {(0,) * dim}
    for v in sorted(elements, key=lambda v: (-order(v), v)):
        if v in span:
            continue
        chosen.append(v)
        span = KernelSpec(ell, n, dim, tuple(chosen)).subgroup_elements()
        if len(span) == len(elements):
            break
    return tuple(chosen)


@pytest.mark.parametrize(
    "first,second",
    [
        (((1, 0),), ((1, 0),)),
        (((1, 0),), ((0, 1),)),
        (((1, 1),), ((1, 0),)),
        (((1, 0), (0, 1)), ((1, 1),)),
    ],
)
def test_two_step_chain_matches_composite_kernel(first, second):
    ell, dim = 2, 2
    k1 = KernelSpec(ell, 1, dim, first)
    m1 = change_basis_from_kernel(k1)
    k2 = KernelSpec(ell, 1, dim, second)
    m2 = change_basis_from_kernel(k2)
    composite = m1.mul(m2)

    # recover the composite kernel from the composite lattice, regenerate
    from galdual.lattice import _quotient_group

    quotient = _quotient_group(composite, 2)
    gens = minimal_generating_set(quotient, ell, 2, dim)
    rebuilt = change_basis_from_kernel(KernelSpec(ell, 2, dim, gens))
    assert same_l_lattice(composite, rebuilt)


# -- randomized batteries -----------------------------------------------------------------


@given(
    st.sampled_from([2, 3]),
    st.integers(1, 2),
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_random_kernels_reproduce_their_subgroup(ell, n, dim, data):
    if ell**n > 8:
        n = 1
    m = ell**n
    n_gens = data.draw(st.integers(1, 2))
    gens = []
    for _ in range(n_gens):
        vec = tuple(
            data.draw(st.integers(0, m - 1)) for _ in range(dim)
        )
        if any(vec):
            gens.append(vec)
    if not gens:
        return
    try:
        ker = KernelSpec(ell, n, dim, tuple(gens))
        mat = change_basis_from_kernel(ker)
    except LatticeError:
        return
    # the constructor self-checks the quotient for l^n <= 8; re-assert basics
    assert locally_contains_standard(mat)
    assert lval(mat.det(), ell) <= 0


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(0, 6), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_pushforward_pullback_round_trip(ell, raw):
    vec = tuple(v % ell for v in raw)
    if not any(vec):
        return
    # scale so the last unit coordinate is 1: keeps the cyclic subgroup,
    # and the isogeny matrix stays inside Z[1/l]
    last_unit = max(i for i, v in enumerate(vec) if v % ell)
    inv_u = pow(vec[last_unit], -1, ell)
    vec = tuple((v * inv_u) % ell for v in vec)
    pairing = standard_polarization_matrix((1, 1), ell)
    ker = KernelSpec(ell, 1, 4, (vec,))
    n_iso = change_basis_from_kernel(ker).inv()
    pushed, d = pushforward_polarization(pairing, n_iso, ker)
    assert pullback_polarization(pushed, n_iso) == pairing.scale(d)
    assert pushed.is_alternating() and pushed.is_integral()


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 1),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
)
@settings(max_examples=120, deadline=None)
def test_pullback_type_determinant_bookkeeping(ell, j, flat):
    nf = ladic([flat[4 * i : 4 * i + 4] for i in range(4)], ell)
    if nf.det() == 0:
        return
    pol = standard_polarization_matrix((1, ell**j), ell)
    pulled = pullback_polarization(pol, nf)
    vals = smith_normal_form(pulled).valuations
    assert sum(vals) == 2 * lval(nf.det(), ell) + 2 * j
