"""Reference computations the tests check galdual against."""

import itertools
from typing import Sequence

from galdual.exactmat import _int_det


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
