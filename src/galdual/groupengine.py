"""Generic finite-group machinery over small prime fields.

Every matrix here is a 4x4 matrix mod l in exactmat's packed int, the form
the family records hold it in.  The package's one row reduction over F_l,
_kernel, works on packed ints: the intertwiner solver, fixed_vectors, the
odd-l invertibility test and formstab's radical of the mod-2 pairing all
call it.  Linear-representation equivalence is one intertwiner solver,
intertwiner_basis, and one span walk, invertible_line, at every l, which
thm-main and the mod-2 census share; then packed GL4(F_2)
with subgroup conjugacy inside it, stable-line analysis and fixed-vector
dimensions.  The public entry points refuse what check_packed refuses.
Everything here is exhaustive or certifying: a negative equivalence verdict
is backed by a walk of every line of the intertwiner span.

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
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional, Sequence

from galdual.exactmat import (
    ExactMatError,
    check_packed,
    check_prime,
    closure,
    field_width,
    pack_flat,
    position_mask,
    unpack_flat,
)


# -- intertwiner spaces ---------------------------------------------------------


def _listed(values, name: str) -> list:
    """``values`` as a list; ExactMatError naming ``name`` when it is not
    iterable, such as one bare matrix passed where a list belongs."""
    if not isinstance(values, Iterable):
        raise ExactMatError(f"{name} must be a list, not {values!r}")
    return list(values)


def _checked(ell: int, matrices, name: str) -> list:
    """``matrices`` as a list, after check_prime on l and check_packed on each."""
    check_prime(ell)
    return [check_packed(m, ell) for m in _listed(matrices, name)]


def projective_points(ell: int):
    """All normalized line representatives of F_l^4, first nonzero entry 1."""
    for lead in range(4):
        for tail in itertools.product(range(ell), repeat=3 - lead):
            yield (0,) * lead + (1,) + tail


@functools.cache
def _field_ops(ell: int) -> tuple:
    """``(sub, mul, invertible)`` on packed 4x4 matrices mod l: the field-wise
    u - c*v of packed ints of any length, the product and the unit-determinant
    test.  At l = 2 they are XOR, f2_mul and a table-free test: the rows a,
    b, c, d (nibbles) are independent exactly when none of their 15 nonzero
    XOR combinations vanishes, so no GL4(F_2) table is built.  At an odd l
    sub walks the fields of v, one at a time, and passes the fields of u
    above them through unchanged; mul works on the unpacked residues; and
    the test asks _kernel whether the four rows have a trivial kernel."""
    if ell == 2:

        def f2_invertible(x):
            a, b, c, d = x & 15, x >> 4 & 15, x >> 8 & 15, x >> 12
            ab, cd = a ^ b, c ^ d
            return bool(
                a and b and ab and c and a ^ c and b ^ c and ab ^ c and d and a ^ d
                and b ^ d and ab ^ d and cd and a ^ cd and b ^ cd and ab ^ cd
            )

        return (lambda u, c, v: u ^ v), f2_mul, f2_invertible
    width = field_width(ell)
    field, row = (1 << width) - 1, (1 << 4 * width) - 1

    def sub(u, c, v):
        out = shift = 0
        while v:
            out |= ((u & field) - c * (v & field)) % ell << shift
            u, v, shift = u >> width, v >> width, shift + width
        return out | u << shift

    def mul(a, b):
        x, y = unpack_flat(a, ell), unpack_flat(b, ell)
        return pack_flat([
            (x[i] * y[j] + x[i + 1] * y[j + 4] + x[i + 2] * y[j + 8] + x[i + 3] * y[j + 12]) % ell
            for i in (0, 4, 8, 12) for j in range(4)
        ], ell)

    def invertible(x):
        return not _kernel(ell, [x >> 4 * width * i & row for i in range(4)])

    return sub, mul, invertible


def _kernel(ell: int, images: Sequence[int]) -> list:
    """The echelonized kernel of the packed ``images`` mod l: the packed
    combinations c, coefficient c_b in field b, with sum of c_b * images[b]
    equal to 0.  This is the one row reduction over F_l of the package.

    Each image is eliminated on its leading field against the images before
    it while the combination that built it is tracked.  Image b reduces to 0
    exactly when it lies in the span of the ones before it, and then its
    combination has coefficient 1 on b, its top field, and 0 on every other
    such b: the combinations are the echelonized basis of the kernel, and
    the images span a space of dimension len(images) - len(kernel).  The
    images may be packed ints of any length, the combinations have
    len(images) fields.
    """
    sub = _field_ops(ell)[0]
    width = field_width(ell)
    pivots = {}  # leading field of a reduced image -> (image, combination, 1 / lead)
    kernel = []
    for b, image in enumerate(images):
        combo = 1 << width * b
        while image:
            lead = (image.bit_length() - 1) // width
            c = image >> width * lead
            if lead not in pivots:
                pivots[lead] = (image, combo, pow(c, -1, ell))
                break
            p_image, p_combo, p_inv = pivots[lead]
            c = c * p_inv % ell
            image, combo = sub(image, c, p_image), sub(combo, c, p_combo)
        else:
            kernel.append(combo)
    return kernel


def intertwiner_basis(ell: int, pairs: Sequence[tuple]) -> tuple:
    """Basis of {X : X*g = g2*X for every packed pair (g, g2)} mod l, packed.

    Each unit matrix E_ij (flat position 4i + j) is mapped to
    E_ij*g - g2*E_ij, one packed 4x4 per pair side by side, and the
    solutions are the kernel of these 16 images, as _kernel echelonizes it:
    a packed combination of units is a packed 4x4.  Each is verified
    against every pair by substitution.  With no pairs every 4x4 matrix
    intertwines: the basis is the 16 units.  Raises ExactMatError on a
    matrix that check_packed refuses, on pairs that are no list and on a
    pair that is no 2-tuple.
    """
    check_prime(ell)
    pairs = _listed(pairs, "pairs")
    for n, pair in enumerate(pairs):
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise ExactMatError(f"pairs[{n}] is not a 2-tuple (g, g2): {pair!r}")
    pairs = [(check_packed(g, ell), check_packed(g2, ell)) for g, g2 in pairs]
    sub, mul, _ = _field_ops(ell)
    width = field_width(ell)
    row, column = (1 << 4 * width) - 1, position_mask((0, 4, 8, 12), ell)
    images = []
    for b in range(16):
        i, j = divmod(b, 4)
        rows = columns = 0
        for n, (g, g2) in enumerate(pairs):
            # E_ij * g is row j of g moved to row i; g2 * E_ij is column i
            # of g2 moved to column j; pair n starts at field 16n
            rows |= (g >> 4 * width * j & row) << width * (4 * i + 16 * n)
            columns |= (g2 >> width * i & column) << width * (j + 16 * n)
        images.append(sub(rows, 1, columns))
    basis = tuple(_kernel(ell, images))
    if any(mul(x, g) != mul(g2, x) for x in basis for g, g2 in pairs):
        raise AssertionError("kernel combination fails the intertwining identity")
    return basis


def invertible_line(ell: int, basis: Sequence[int]) -> Optional[int]:
    """An invertible element of the span of the packed ``basis`` mod l, or None.

    One running sum is tried after each addition.  Level k adds basis[k] to
    it, then steps through the other l^k - 1 combinations of basis[:k] in the
    modular l-ary Gray code: step s adds basis[t], t the l-adic valuation of
    s.  So level k tries each of the l^k lines whose last nonzero coefficient
    is a 1 on basis[k] once, every line of the span is tried, and as scaling
    keeps invertibility None is a proof.  Raises ValueError up front when the
    span has more than 10^7 lines, and ExactMatError on a basis that is no
    list or holds an element that check_packed refuses.
    """
    basis = _checked(ell, basis, "basis")
    dim = len(basis)
    if (ell**dim - 1) // (ell - 1) > 10**7:
        raise ValueError(f"intertwiner span of dimension {dim} mod {ell} has more than 10^7 lines")
    sub, _, invertible = _field_ops(ell)
    x, ruler = 0, []  # ruler: the l-adic valuations of 1, ..., l^k - 1
    for k in range(dim):
        for t in (k, *ruler):
            x = sub(x, ell - 1, basis[t])
            if invertible(x):
                return x
        ruler = ([*ruler, k] * ell)[:-1]
    return None


# -- packed GL4(F2) utilities -----------------------------------------------------

# A 4x4 matrix over F_2 is in exactmat's packed format: at l = 2 a 16-bit
# int whose bit 4*i + j holds entry (i, j).  The identity is the mask of the
# diagonal, since every field is one bit wide.

_IDENT = position_mask((0, 5, 10, 15), 2)


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
    character pairs each packed generator with its eigenvalue on the line.
    """

    line: tuple
    character: tuple


def _eigenvalue(flat, v, ell: int):
    """The scalar s with m v = s v over F_l for a flat 4x4 m, or None if m moves v."""
    w = [sum(flat[4 * i + j] * v[j] for j in range(4)) % ell for i in range(4)]
    s = w[next(i for i, x in enumerate(v) if x)]
    return s if all(x == (s * u) % ell for x, u in zip(w, v)) else None


def common_stable_lines(ell: int, generators: Sequence[int]) -> tuple:
    """All lines of F_l^4 stable under every packed generator, with their
    characters.

    Stability under the generators suffices: the stabilizer of a line is a
    subgroup.  With no generators every one of the (l^4 - 1)/(l - 1) lines
    is stable.  Each generator is unpacked once, and a line is dropped at
    the first generator that moves it, so the character is built only for
    the lines every generator keeps.  Raises ExactMatError on generators
    that are no list and on a generator that check_packed refuses.
    """
    gens = _checked(ell, generators, "generators")
    flats = [unpack_flat(g, ell) for g in gens]
    out = []
    for v in projective_points(ell):
        character = []
        for g, flat in zip(gens, flats):
            s = _eigenvalue(flat, v, ell)
            if s is None:
                break
            character.append((g, s))
        else:
            out.append(StableLine(v, tuple(character)))
    return tuple(out)


def fixed_vectors(ell: int, generators: Sequence[int]) -> int:
    """Dimension of the vectors of F_l^4 fixed by every packed generator:
    4 minus the rank of the stacked rows of g - I, which is the kernel of
    the four columns of the stacked g - I.  Raises ExactMatError on
    generators that are no list and on a generator that check_packed
    refuses."""
    gens = _checked(ell, generators, "generators")
    sub = _field_ops(ell)[0]
    width = field_width(ell)
    ident = pack_flat([1, 0, 0, 0, 0] * 3 + [1], ell)
    moved = sum(sub(g, 1, ident) << 16 * width * n for n, g in enumerate(gens))
    column = position_mask(range(0, 16 * len(gens), 4), ell)
    return len(_kernel(ell, [moved >> width * j & column for j in range(4)]))
