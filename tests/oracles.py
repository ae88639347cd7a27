"""Reference computations the tests check galdual against."""

import itertools
from typing import Sequence

from galdual.exactmat import ModMatrix, SingularMatrixError, _int_det, int_adj


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
