"""Reference computations the tests check galdual against."""

import itertools
from typing import Sequence

from galdual.exactmat import (
    ModMatrix,
    SingularMatrixError,
    _int_det,
    _nullspace_mod,
    _rank_mod,
    int_adj,
    unpack_flat,
)


def charpoly_rows(rows: Sequence[Sequence[int]], p: int) -> tuple:
    """char poly of an n x n integer matrix mod prime p, via principal minors.

    Coefficient of x^(n-k) is (-1)^k * (sum of principal k x k minors).
    Returned leading-first, so the tuple starts with 1.
    """
    coeffs = [1]
    for k in range(1, len(rows) + 1):
        total = sum(
            _int_det([[rows[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(len(rows)), k)
        )
        coeffs.append((-1) ** k * total % p)
    return tuple(coeffs)


def unpacked(group) -> tuple:
    """The packed elements of an ImageGroup as ModMatrix values, in order."""
    return tuple(ModMatrix.from_packed(p, group.ell) for p in group.packed_elements)


def mod_inv(m: ModMatrix) -> ModMatrix:
    """The inverse of a square matrix mod l, adj * det^-1 for its residues
    as integers; raises SingularMatrixError(determinant=0) when l divides
    the determinant."""
    ell = m.ell
    try:
        d, adj = int_adj(m.entries)
    except SingularMatrixError:
        d = 0
    if d % ell == 0:
        raise SingularMatrixError(f"matrix is singular mod {ell}", determinant=0)
    d_inv = pow(d, -1, ell)
    return ModMatrix(ell, tuple(tuple(a * d_inv % ell for a in row) for row in adj))


def reference_intertwiners(pairs) -> tuple:
    """Basis of {X : X*g = g2*X for every ModMatrix pair (g, g2)}, by the
    equation rows: each pair gives n^2 linear equations in the n^2 entries
    of X, whose nullspace is solved by _nullspace_mod and checked by
    substitution."""
    ell, n = pairs[0][0].ell, pairs[0][0].n
    rows = []
    for g, g2 in pairs:
        ge, g2e = g.entries, g2.entries
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] = (row[i * n + k] + ge[k][j]) % ell
                    row[k * n + j] = (row[k * n + j] - g2e[i][k]) % ell
                rows.append(row)
    basis = []
    for vec in _nullspace_mod(rows, n * n, ell):
        x = ModMatrix.from_rows([vec[i * n : (i + 1) * n] for i in range(n)], ell)
        assert all(x.mul(g) == g2.mul(x) for g, g2 in pairs)
        basis.append(x)
    return tuple(basis)


def reference_invertible_line(basis, ell: int):
    """The first invertible X on the lines of the span of the ModMatrix
    ``basis``, or None: one coefficient vector per line, its first nonzero
    entry 1, summed flat."""
    n = 4 if not basis else basis[0].n
    flats = [[v for row in b.entries for v in row] for b in basis]
    dim = len(basis)
    for coeffs in (
        (0,) * lead + (1,) + tail
        for lead in range(dim)
        for tail in itertools.product(range(ell), repeat=dim - lead - 1)
    ):
        flat = [sum(c * f[idx] for c, f in zip(coeffs, flats)) % ell for idx in range(n * n)]
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _rank_mod(rows, n, ell) == n:
            return ModMatrix.from_rows(rows, ell)
    return None


def assert_matches_reference(ell: int, packed_pairs, basis, witness) -> None:
    """Check a packed intertwiner solve, its ``basis`` and the walk's
    ``witness``, against the reference on the same pairs: equal dimension,
    every reference basis element in the packed span, and equal verdicts."""
    reference = reference_intertwiners(
        [(ModMatrix.from_packed(g, ell), ModMatrix.from_packed(h, ell)) for g, h in packed_pairs]
    )
    assert len(basis) == len(reference)
    flats = [unpack_flat(x, ell) for x in basis]
    for x in reference:
        flat = [v for row in x.entries for v in row]
        assert _rank_mod(flats + [flat], 16, ell) == len(basis)
    assert (witness is None) is (reference_invertible_line(reference, ell) is None)
