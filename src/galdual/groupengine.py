"""Generic finite-group machinery over small prime fields.

Linear-representation equivalence through intertwiner spaces, packed
GL4(F_2) with its own intertwiner solve and subgroup conjugacy inside it,
stable-line analysis and fixed-vector dimensions.  Everything here is
exhaustive or certifying: a negative equivalence verdict is backed by a
walk of every line of the intertwiner span.

GL4(F_l) acts faithfully on the l^4 vectors of F_l^4, so the permutation
modules of a matrix group are read off its matrices: g fixes
l ** fixed_vectors(l, [g]) vectors, and a matrix S conjugates two groups
exactly when its point map conjugates their permutation actions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from galdual.exactmat import ModMatrix, _nullspace_mod, _rank_mod, closure


# -- intertwiner spaces ---------------------------------------------------------


@dataclass(frozen=True)
class IntertwinerSpace:
    """Basis of {X : X*g = g'*X for every supplied pair (g, g')}."""

    ell: int
    n: int
    basis: tuple


def intertwiner_space(pairs: Sequence[tuple]) -> IntertwinerSpace:
    """Solve the intertwining system over F_l, intersected over all pairs.

    Each pair contributes n^2 linear equations in the n^2 unknown entries
    of X; the returned basis is echelonized and every element is verified
    against every pair by substitution.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs supplied; the ambient dimension is undetermined")
    ell = pairs[0][0].ell
    n = pairs[0][0].n
    for g, g2 in pairs:
        if g.ell != ell or g2.ell != ell:
            raise ValueError("all pairs must share one prime modulus")
        if g.n != n or g2.n != n:
            raise ValueError("all pairs must share one matrix size")
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
        x = ModMatrix.from_rows(
            [vec[i * n : (i + 1) * n] for i in range(n)], ell
        )
        for g, g2 in pairs:
            if x.mul(g) != g2.mul(x):
                raise AssertionError("nullspace vector fails the intertwining identity")
        basis.append(x)
    return IntertwinerSpace(ell, n, tuple(basis))


def projective_points(ell: int, n: int = 4):
    """All normalized line representatives of F_l^n, first nonzero entry 1."""
    for lead in range(n):
        for tail in itertools.product(range(ell), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def representations_equivalent(space: IntertwinerSpace):
    """Search a solved intertwiner space for an invertible change of basis.

    Returns (True, X) with an invertible X in the span, or (False, None).
    intertwiner_space verified every basis element against every pair, so
    every X in the span intertwines them too.  Scaling X by a unit keeps
    invertibility, so one walk over the (l^dim - 1)/(l - 1) lines of the
    span decides the question and a False verdict is a proof.  Raises
    ValueError up front when the span has more than 10^7 lines.
    """
    ell, n, basis = space.ell, space.n, space.basis
    dim = len(basis)
    if (ell**dim - 1) // (ell - 1) > 10**7:
        raise ValueError(
            f"intertwiner span of dimension {dim} mod {ell} has more than 10^7 lines"
        )
    flats = [tuple(v for row in b.entries for v in row) for b in basis]
    for coeffs in projective_points(ell, dim):
        flat = [0] * (n * n)
        for c, bf in zip(coeffs, flats):
            if c:
                for idx in range(n * n):
                    flat[idx] = (flat[idx] + c * bf[idx]) % ell
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _rank_mod(rows, n, ell) == n:
            return True, ModMatrix.from_rows(rows, ell)
    return False, None


# -- packed GL4(F2) utilities -----------------------------------------------------

# A 4x4 matrix over F_2 is in exactmat's packed format: at l = 2 a 16-bit
# int whose bit 4*i + j holds entry (i, j) (ModMatrix.packed, from_packed).

_IDENT = ModMatrix.identity(4, 2).packed()


def f2_mul(a: int, b: int) -> int:
    """Product of two packed matrices by the row-broadcast identity

        a*b = XOR over k of (((a >> k) & 0x1111) * 15) & (((b >> 4k) & 15) * 0x1111).

    Row i of a*b is the XOR over k of a[i][k] times row k of b.  The left
    factor spreads each bit a[i][k] over all of nibble i, the right one
    copies row k of b into every nibble, so their AND is the k-th term in
    all four rows at once, with no branch.  Only the low 16 bits of a and b
    are read.
    """
    return (
        (((a & 0x1111) * 15) & ((b & 15) * 0x1111))
        ^ ((((a >> 1) & 0x1111) * 15) & (((b >> 4) & 15) * 0x1111))
        ^ ((((a >> 2) & 0x1111) * 15) & (((b >> 8) & 15) * 0x1111))
        ^ ((((a >> 3) & 0x1111) * 15) & (((b >> 12) & 15) * 0x1111))
    )


def f2_inv(a: int) -> Optional[int]:
    """Inverse of a packed matrix, or None if singular: a binary search of
    the ascending GL4(F_2) table, which holds every invertible matrix."""
    elements, inverses = _gl4_table()
    i = bisect.bisect_left(elements, a)
    if i < len(elements) and elements[i] == a:
        return inverses[i]
    return None


def f2_transpose(a: int) -> int:
    """Transpose of a packed matrix by two masked delta swaps: first the
    off-diagonal entries of each 2x2 block, then the two off-diagonal blocks."""
    t = (a ^ (a >> 3)) & 0x0A0A
    a ^= t ^ (t << 3)
    t = (a ^ (a >> 6)) & 0x00CC
    return a ^ t ^ (t << 6)


@functools.cache
def gl4_elements() -> tuple:
    """All 20160 invertible packed 4x4 matrices over F_2."""
    return tuple(_gl4_table()[0])


@functools.cache
def _gl4_table() -> tuple:
    """GL4(F_2) in packed order and the inverse of each element, position by
    position, kept in 16-bit arrays.

    Rows are chosen level by level from the top (row 3, the high nibble)
    down, each outside the span of the rows above it, so the packed values
    come out ascending, the order f2_inv's binary search needs.  Each level
    keeps its span as a small dict from a span vector to its coordinates in
    the chosen rows (bit k for row k).  Since I = A^-1 A, row i of A^-1 is
    the coordinate vector of e_i in the rows of A.  At a leaf the span s of
    rows 3, 2 and 1 has 8 vectors and row 0, r0, lies outside it, so every
    vector outside s is r0 plus one inside: e_i has coordinates s[e_i] if it
    is in s, else s[e_i ^ r0] | 1, and row 0's span is never built.
    """
    elements, inverses = array("H"), array("H")
    for r3 in range(1, 16):
        s3 = {0: 0, r3: 8}
        for r2 in range(1, 16):
            if r2 in s3:
                continue
            s2 = s3 | {v ^ r2: c | 4 for v, c in s3.items()}
            for r1 in range(1, 16):
                if r1 in s2:
                    continue
                s = s2 | {v ^ r1: c | 2 for v, c in s2.items()}
                head = r3 << 12 | r2 << 8 | r1 << 4
                for r0 in range(1, 16):
                    if r0 in s:
                        continue
                    elements.append(head | r0)
                    inverses.append(
                        (s[1] if 1 in s else s[1 ^ r0] | 1)
                        | (s[2] if 2 in s else s[2 ^ r0] | 1) << 4
                        | (s[4] if 4 in s else s[4 ^ r0] | 1) << 8
                        | (s[8] if 8 in s else s[8 ^ r0] | 1) << 12
                    )
    return elements, inverses


def _f2_intertwiner_basis(pairs: Sequence[tuple]) -> tuple:
    """Basis of {X : X*g = g2*X for every packed pair (g, g2)}, packed.

    Each unit matrix E_ij (bit 4i + j) is mapped to E_ij*g ^ g2*E_ij, one
    16-bit field per pair, and the images are XOR-eliminated while the
    combination of units that built each one is tracked.  A combination
    whose image reduces to 0 is a solution; its highest unit is the one
    being reduced, so the solutions found are independent and span the
    (16 - rank)-dimensional solution space.  Every basis element is
    verified against every pair by substitution.
    """
    pivots = {}  # leading bit of a reduced image -> (image, combination)
    basis = []
    for b in range(16):
        i, j = divmod(b, 4)
        image = 0
        for shift, (g, g2) in enumerate(pairs):
            # E_ij * g is row j of g moved to row i; g2 * E_ij is column i
            # of g2 moved to column j
            term = (((g >> 4 * j) & 15) << 4 * i) ^ (((g2 >> i) & 0x1111) << j)
            image |= term << (16 * shift)
        combo = 1 << b
        while image:
            lead = image.bit_length()
            if lead not in pivots:
                pivots[lead] = (image, combo)
                break
            image ^= pivots[lead][0]
            combo ^= pivots[lead][1]
        else:
            basis.append(combo)
    for x in basis:
        for g, g2 in pairs:
            if f2_mul(x, g) != f2_mul(g2, x):
                raise AssertionError("kernel combination fails the intertwining identity")
    return tuple(basis)


def f2_intertwiner(pairs: Sequence[tuple]) -> Optional[int]:
    """An invertible packed X with X*g = g2*X on every packed pair, or None.

    Every element of the span of _f2_intertwiner_basis intertwines the
    pairs.  Over F_2 each nonzero vector of the span is its own line, so the
    Gray-code walk over all 2^dim - 1 nonzero combinations (one XOR per
    step) tries every candidate once, and None is a proof that no
    invertible intertwiner exists.
    """
    basis = _f2_intertwiner_basis(pairs)
    x = 0
    for step in range(1, 1 << len(basis)):
        x ^= basis[(step & -step).bit_length() - 1]
        if f2_inv(x) is not None:
            return x
    return None


@functools.cache
def _f2_small_generating_set(elements: frozenset) -> tuple:
    """A small generating set of a packed-F_2 subgroup, computed once per
    subgroup: the census listing and the group checks of formstab ask.
    The census verdicts do not: they read the chain generators that the
    subgroup enumeration keeps on each class record.

    First up to 24 seeded random pairs of elements are tried; failing that,
    the set is grown greedily along the elements in ascending order.
    """
    ordered = sorted(elements)
    target = len(elements | {_IDENT})
    rng = random.Random(1729)
    if target > 2 and len(ordered) >= 2:
        for _ in range(24):
            pair = rng.sample(ordered, 2)
            if len(closure([_IDENT], pair, f2_mul, target)) == target:
                return tuple(pair)
    gens: list = []
    closed = {_IDENT}
    for x in ordered:
        if x not in closed:
            gens.append(x)
            closed = closure([_IDENT], gens, f2_mul, target)
            if len(closed) == target:
                break
    return tuple(gens)


def matrix_subgroups_conjugate(h1, h2, gens) -> bool:
    """Whether two subgroups of GL4(F_2), as sets of packed matrices, are
    conjugate inside it; ``gens`` generates h1 and is not checked.

    Exhaustive scan over GL4(F_2) (the decided algorithm at this size): X
    conjugates H1 into H2 iff it does so on a generating set, orders being
    equal, so any generating set gives the same verdict.
    """
    set1, set2 = frozenset(h1), frozenset(h2)
    if len(set1) != len(set2):
        return False
    if set1 == set2:
        return True
    if not gens:  # set1 is {I}, which only {I} is conjugate to
        return False
    g0, *rest = gens
    for x, xi in zip(*_gl4_table()):
        if f2_mul(f2_mul(x, g0), xi) not in set2:
            continue
        if all(f2_mul(f2_mul(x, g), xi) in set2 for g in rest):
            return True
    return False


# -- stable lines and fixed vectors ---------------------------------------------------


@dataclass(frozen=True)
class StableLine:
    """A projective point fixed by the whole group, with its character.

    The line is the normalized spanning vector (first nonzero coordinate 1);
    character pairs each group generator with its eigenvalue on the line.
    """

    line: tuple
    character: tuple


def _eigenvalue(m: ModMatrix, v):
    """The scalar s with m v = s v over F_l, or None when m moves the line."""
    e, ell = m.entries, m.ell
    w = [sum(e[i][j] * v[j] for j in range(len(v))) % ell for i in range(m.n)]
    s = w[next(i for i, x in enumerate(v) if x)]
    return s if all(x == (s * u) % ell for x, u in zip(w, v)) else None


def _check_generators(ell: int, generators) -> list:
    gens = list(generators)
    for g in gens:
        if g.ell != ell or g.n != 4:
            raise ValueError(f"generators must be 4x4 matrices mod {ell}")
    return gens


def common_stable_lines(ell: int, generators: Sequence[ModMatrix]) -> tuple:
    """All lines of F_l^4 stable under every generator, with their characters.

    Stability under the generators suffices: the stabilizer of a line is a
    subgroup.  With no generators every one of the (l^4 - 1)/(l - 1) lines
    is stable.  A line is dropped at the first generator that moves it, so
    the character is built only for the lines every generator keeps.
    Raises ValueError on a generator that is not 4x4 mod l.
    """
    gens = _check_generators(ell, generators)
    out = []
    for v in projective_points(ell):
        character = []
        for g in gens:
            s = _eigenvalue(g, v)
            if s is None:
                break
            character.append((g, s))
        else:
            out.append(StableLine(v, tuple(character)))
    return tuple(out)


def fixed_vectors(ell: int, generators: Sequence[ModMatrix]) -> int:
    """Dimension of the vectors of F_l^4 fixed by every generator."""
    rows = [
        [(v - (1 if i == j else 0)) % ell for j, v in enumerate(row)]
        for g in _check_generators(ell, generators)
        for i, row in enumerate(g.entries)
    ]
    return 4 - _rank_mod(rows, 4, ell)
