"""Reference computations the tests check galdual against."""

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from galdual.exactmat import (
    DimensionMismatchError,
    ExactMatError,
    SingularMatrixError,
    _int_det,
    check_packed,
    check_prime,
    int_adj,
    pack_flat,
    unpack_flat,
)


# Row reduction over F_l on list rows of residues, the reference for the
# packed groupengine._kernel.


def _echelon_mod(rows, ncols: int, ell: int):
    """Row-reduce over F_l; returns (reduced rows, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % ell), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, ell)
        mat[r] = [(v * inv) % ell for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % ell:
                f = mat[i][c]
                mat[i] = [(v - f * w) % ell for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _rank_mod(rows, ncols: int, ell: int) -> int:
    return len(_echelon_mod(rows, ncols, ell)[1])


def _nullspace_mod(rows, ncols: int, ell: int):
    """Echelonized basis of the right nullspace: one vector per free column,
    with value 1 there and 0 at the other free columns."""
    reduced, pivots = _echelon_mod(rows, ncols, ell)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            v[p] = (-row[f]) % ell
        basis.append(tuple(v))
    return basis


def _integer_rows(rows) -> tuple:
    """The rows as tuples of ints; ExactMatError names a non-integer entry."""
    try:
        return tuple(tuple(map(operator.index, row)) for row in rows)
    except TypeError:
        bad = next(v for row in rows for v in row if not hasattr(v, "__index__"))
        raise ExactMatError(f"entry {bad!r} is not an integer") from None


@dataclass(frozen=True)
class ModMatrix:
    """Square matrix over F_l, entries stored as residues mod l: the row
    reference the packed 4x4 matrices of galdual are checked against."""

    ell: int
    entries: tuple

    def __post_init__(self):
        ell = check_prime(self.ell)
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise DimensionMismatchError("matrix must be square and nonempty")
        rows = _integer_rows(self.entries)
        if any(not (0 <= v < ell) for row in rows for v in row):
            raise ExactMatError("entries must be residues mod l")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ell: int) -> "ModMatrix":
        """Reduce integer rows mod l; any other entry raises ExactMatError,
        as the constructor does."""
        return ModMatrix(
            ell, tuple(tuple(v % ell for v in row) for row in _integer_rows(rows))
        )

    @staticmethod
    def identity(n: int, ell: int) -> "ModMatrix":
        return ModMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], ell
        )

    def transpose(self) -> "ModMatrix":
        return ModMatrix(self.ell, tuple(zip(*self.entries)))

    def mul(self, other: "ModMatrix") -> "ModMatrix":
        if (
            not isinstance(other, ModMatrix)
            or other.ell != self.ell
            or other.n != self.n
        ):
            raise DimensionMismatchError("operands must live in the same ring")
        ell = self.ell
        bt = list(zip(*other.entries))
        return ModMatrix(
            ell,
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) % ell for col in bt)
                for row in self.entries
            ),
        )

    def packed(self) -> int:
        """This 4x4 matrix in exactmat's packed format."""
        if self.n != 4:
            raise DimensionMismatchError("only 4x4 matrices have a packed form")
        return pack_flat([v for row in self.entries for v in row], self.ell)

    @staticmethod
    def from_packed(packed: int, ell: int) -> "ModMatrix":
        """The 4x4 matrix mod l that ``packed`` holds; what check_packed
        refuses raises ExactMatError."""
        flat = unpack_flat(check_packed(packed, ell), ell)
        return ModMatrix(ell, (flat[0:4], flat[4:8], flat[8:12], flat[12:16]))


def row_text(m: ModMatrix) -> str:
    """The rows of ``m`` joined by ';', their entries by ',': the text
    format_packed prints for its packed form."""
    return ";".join(",".join(str(v) for v in row) for row in m.entries)


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


def reference_duality_signature(h, generators) -> tuple:
    """formstab.duality_signature computed element by element: the images
    of all sixteen vectors under every element of H, with subspace
    invariance tested on ``generators`` and both kernel orders counted
    by testing each element's images on each subspace."""
    from galdual.formstab import _f2_subspaces, _vector_images

    images = [_vector_images(x) for x in h]
    gen_images = [_vector_images(x) for x in generators]
    standard_basis = (1, 2, 4, 8)
    sig = []
    for dim, mask, basis in _f2_subspaces():
        if any(not (mask >> im[v]) & 1 for im in gen_images for v in basis):
            continue
        kernel_w = sum(all(im[v] == v for v in basis) for im in images)
        kernel_q = sum(
            all((mask >> (im[e] ^ e)) & 1 for e in standard_basis) for im in images
        )
        sig.append((dim, kernel_w, kernel_q))
    return tuple(sorted(sig))
