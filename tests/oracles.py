"""Reference computations the tests check galdual against."""

import itertools
from typing import Sequence

from galdual.exactmat import _int_det
from galdual.paramgroups import _field_width


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


def pack_flat(flat: Sequence[int], ell: int) -> int:
    """A flat 4x4 of residues mod l packed as the records pack it: entry i in
    the field at bit i * width, 3 bits wide up to l = 7."""
    width = _field_width(ell)
    p = 0
    for v in reversed(flat):
        p = (p << width) | v
    return p
