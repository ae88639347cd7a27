"""Generic finite-group machinery over small prime fields.

Closure generation, linear-representation equivalence through intertwiner
spaces, subgroup conjugacy inside GL4(F_2), permutation actions on the
vectors of F_l^4, permutation characters, the check of a given point map
as a conjugator between two permutation groups, and stable-line analysis.
Everything here is exhaustive or certifying: a negative equivalence
verdict is backed by a walk of every line of the intertwiner span, and a
point map is accepted as a conjugator only after it has been checked on
every element of the group.

Vectors in F_l^4 are indexed by v -> v[0] + v[1]*l + v[2]*l^2 + v[3]*l^3;
permutations are tuples in image notation over that indexing.
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from galdual.exactmat import (
    ClosureCapError,  # noqa: F401  (re-exported for callers of generate_closure)
    ModMatrix,
    _nullspace_mod,
    _rank_mod,
    closure,
)
from galdual.paramgroups import ImageGroup


def generate_closure(generators: Sequence[ModMatrix], cap: int = 1_000_000) -> frozenset:
    """The subgroup generated by invertible matrices, by breadth-first closure."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator to fix the ambient space")
    for g in gens:
        g.inv()  # raises on a singular generator
    ident = ModMatrix.identity(gens[0].n, gens[0].ell, gens[0].k)
    return closure([ident], gens, ModMatrix.mul, cap)


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
        if g.ell != ell or g2.ell != ell or g.k != 1 or g2.k != 1:
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

# A 4x4 matrix over F_2 is a 16-bit int: bit 4*i + j holds entry (i, j).

_IDENT = 0x8421  # packed identity: bits 0, 5, 10, 15


def f2_pack(m) -> int:
    rows = m.entries if isinstance(m, ModMatrix) else m
    x = 0
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v & 1:
                x |= 1 << (4 * i + j)
    return x


def f2_unpack(x: int) -> ModMatrix:
    return ModMatrix.from_rows(
        [[(x >> (4 * i + j)) & 1 for j in range(4)] for i in range(4)], 2
    )


def f2_mul(a: int, b: int) -> int:
    out = 0
    for i in (0, 4, 8, 12):
        ra = (a >> i) & 15
        acc = 0
        if ra & 1:
            acc = b & 15
        if ra & 2:
            acc ^= (b >> 4) & 15
        if ra & 4:
            acc ^= (b >> 8) & 15
        if ra & 8:
            acc ^= (b >> 12) & 15
        out |= acc << i
    return out


def f2_inv(a: int) -> Optional[int]:
    """Inverse of a packed matrix, or None if singular."""
    rows = [((a >> (4 * i)) & 15) | (1 << (4 + i)) for i in range(4)]
    for col in range(4):
        piv = next(
            (r for r in range(col, 4) if rows[r] & (1 << col)), None
        )
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(4):
            if r != col and rows[r] & (1 << col):
                rows[r] ^= rows[col]
    out = 0
    for i in range(4):
        out |= (rows[i] >> 4) << (4 * i)
    return out


def f2_transpose(a: int) -> int:
    out = 0
    for i in range(4):
        for j in range(4):
            if a & (1 << (4 * i + j)):
                out |= 1 << (4 * j + i)
    return out


@functools.cache
def gl4_elements() -> tuple:
    """All 20160 invertible packed 4x4 matrices over F_2."""
    return tuple(_gl4_table()[0])


@functools.cache
def _gl4_table() -> tuple:
    """GL4(F_2) in packed order and the inverse of each element, position by
    position, kept in 16-bit arrays.

    Rows are chosen from the top (row 3, the high nibble) down, each outside
    the span of the rows above it, so the packed values come out ascending.
    ``coords[v]`` holds the coordinates of each span vector v in the chosen
    rows (bit k for row k) and is None off the span.  Since I = A^-1 A, row i
    of A^-1 is the coordinate vector of e_i in the rows of A.
    """
    elements, inverses = array("H"), array("H")

    def choose(row, packed, coords):
        if row < 0:
            elements.append(packed)
            inverses.append(sum(coords[1 << i] << (4 * i) for i in range(4)))
            return
        for r in range(1, 16):
            if coords[r] is None:
                spanned = list(coords)
                for v, c in enumerate(coords):
                    if c is not None:
                        spanned[v ^ r] = c | (1 << row)
                choose(row - 1, packed | (r << (4 * row)), spanned)

    choose(3, 0, [0] + [None] * 15)
    return elements, inverses


def _f2_closure(gens: Iterable[int], cap: int = 30000) -> frozenset:
    return closure([_IDENT], gens, f2_mul, cap)


@functools.cache
def _f2_small_generating_set(elements: frozenset) -> tuple:
    """A small generating set of a packed-F_2 subgroup, computed once per
    subgroup: the census, its listing and the conjugacy scan all ask.

    First up to 24 seeded random pairs of elements are tried; failing that,
    the set is grown greedily along the elements in ascending order.
    """
    ordered = sorted(elements)
    target = len(elements | {_IDENT})
    rng = random.Random(1729)
    if target > 2 and len(ordered) >= 2:
        for _ in range(24):
            pair = rng.sample(ordered, 2)
            if len(_f2_closure(pair, cap=target)) == target:
                return tuple(pair)
    gens: list = []
    closed = {_IDENT}
    for x in ordered:
        if x not in closed:
            gens.append(x)
            closed = _f2_closure(gens, cap=target)
            if len(closed) == target:
                break
    return tuple(gens)


def matrix_subgroups_conjugate(h1, h2) -> bool:
    """Whether two subgroups of GL4(F_2) are conjugate inside it.

    Exhaustive scan over GL4(F_2) (the decided algorithm at this size): X
    conjugates H1 into H2 iff it does so on a generating set, orders being
    equal.
    """
    set1 = frozenset(x if isinstance(x, int) else f2_pack(x) for x in h1)
    set2 = frozenset(x if isinstance(x, int) else f2_pack(x) for x in h2)
    if len(set1) != len(set2):
        return False
    if set1 == set2:
        return True
    gens = _f2_small_generating_set(set1)
    if not gens:  # set1 is {I}, which only {I} is conjugate to
        return False
    g0 = gens[0]
    rest = gens[1:]
    for x, xi in zip(*_gl4_table()):
        if f2_mul(f2_mul(x, g0), xi) not in set2:
            continue
        if all(f2_mul(f2_mul(x, g), xi) in set2 for g in rest):
            return True
    return False


# -- permutation actions on F_l^4 ---------------------------------------------------


def vector_index(v, ell: int) -> int:
    idx = 0
    for i in reversed(range(len(v))):
        idx = idx * ell + v[i]
    return idx


def index_vector(idx: int, ell: int, n: int = 4) -> tuple:
    out = []
    for _ in range(n):
        idx, r = divmod(idx, ell)
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on the points of F_l^4, elements in image notation."""

    degree: int
    elements: tuple
    generators: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a permutation group contains at least the identity")
        ident = tuple(range(self.degree))
        for p in self.elements:
            if len(p) != self.degree:
                raise ValueError("permutation degree mismatch")
        if ident not in self.elements:
            raise ValueError("identity permutation missing")

    @property
    def order(self) -> int:
        return len(self.elements)


def _compose(p, q):
    """p after q: (p*q)(i) = p(q(i)), matching matrix products."""
    return tuple(map(p.__getitem__, q))


def _perm_from_flat(flat, ell: int, powers) -> tuple:
    deg = ell**4
    out = [0] * deg
    f0, f1, f2, f3 = flat[0:4], flat[4:8], flat[8:12], flat[12:16]
    for idx in range(deg):
        t = idx
        v0 = t % ell
        t //= ell
        v1 = t % ell
        t //= ell
        v2 = t % ell
        v3 = t // ell
        w0 = (f0[0] * v0 + f0[1] * v1 + f0[2] * v2 + f0[3] * v3) % ell
        w1 = (f1[0] * v0 + f1[1] * v1 + f1[2] * v2 + f1[3] * v3) % ell
        w2 = (f2[0] * v0 + f2[1] * v1 + f2[2] * v2 + f2[3] * v3) % ell
        w3 = (f3[0] * v0 + f3[1] * v1 + f3[2] * v2 + f3[3] * v3) % ell
        out[idx] = w0 + powers[1] * w1 + powers[2] * w2 + powers[3] * w3
    return tuple(out)


def to_permutation_group(group: ImageGroup) -> PermGroup:
    """The faithful action of a matrix group on the l^4 vectors of F_l^4."""
    ell = group.ell
    powers = [ell**i for i in range(4)]
    elements = tuple(
        _perm_from_flat(flat, ell, powers) for flat in group.element_flats()
    )
    gens = tuple(
        _perm_from_flat(flat, ell, powers) for flat in group.generator_flats()
    )
    return PermGroup(ell**4, elements, gens)


def permutation_character(perm_group: PermGroup) -> tuple:
    """Fixed-point count of every element, aligned with the element order."""
    return tuple(
        sum(1 for i, x in enumerate(p) if x == i) for p in perm_group.elements
    )


def trivial_multiplicity(perm_group: PermGroup) -> int:
    """Multiplicity of the trivial representation: the average fixed-point
    count, an integer equal to the number of orbits."""
    total = sum(permutation_character(perm_group))
    if total % perm_group.order:
        raise AssertionError("character sum is not divisible by the group order")
    return total // perm_group.order


def orbit_count(perm_group: PermGroup) -> int:
    """Number of orbits, by closure over the generators (the independent
    cross-check for trivial_multiplicity)."""
    return len(_orbits(perm_group))


def _orbits(perm_group: PermGroup):
    """The orbits as sorted point lists, ordered by their smallest point."""
    gens = perm_group.generators or perm_group.elements
    orbits, seen = [], set()
    for i in range(perm_group.degree):
        if i not in seen:
            orbit = closure([i], gens, lambda x, g: g[x])
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


# -- permutation-group conjugacy ----------------------------------------------------


def conjugates_by(sigma, p1: PermGroup, p2: PermGroup) -> bool:
    """Whether the point map sigma conjugates p1 onto p2.

    True exactly when sigma*p*sigma^-1 lies in p2 for every element p of p1
    and the two orders are equal; conjugation is injective, so the image is
    then all of p2.  Every element is checked, so the verdict does not rest
    on ``PermGroup.generators``.
    """
    if p1.degree != p2.degree:
        raise ValueError("permutation groups act on different degrees")
    if sorted(sigma) != list(range(p1.degree)):
        raise ValueError("sigma is not a permutation of the points")
    if p1.order != p2.order:
        return False
    inverse = [0] * p1.degree
    for i, x in enumerate(sigma):
        inverse[x] = i
    targets = set(p2.elements)
    return all(_compose(sigma, _compose(p, inverse)) in targets for p in p1.elements)


# -- stable lines and fixed vectors ---------------------------------------------------


@dataclass(frozen=True)
class StableLine:
    """A projective point fixed by the whole group, with its character.

    The line is the normalized spanning vector (first nonzero coordinate 1);
    character pairs each group generator with its eigenvalue on the line.
    """

    ell: int
    line: tuple
    character: tuple

    def eigenvalue_of(self, m: ModMatrix) -> int:
        """Scalar by which an arbitrary stabilizing element acts on the line."""
        s = _eigenvalue(m, self.line)
        if s is None:
            raise ValueError("element does not stabilize the line")
        return s


def _eigenvalue(m: ModMatrix, v):
    """The scalar s with m v = s v over F_l, or None when m moves the line."""
    e, ell = m.entries, m.ell
    w = [sum(e[i][j] * v[j] for j in range(len(v))) % ell for i in range(m.n)]
    s = w[next(i for i, x in enumerate(v) if x)]
    return s if all(x == (s * u) % ell for x, u in zip(w, v)) else None


def _check_generators(ell: int, generators) -> list:
    gens = list(generators)
    for g in gens:
        if g.ell != ell or g.n != 4 or g.k != 1:
            raise ValueError(f"generators must be 4x4 matrices mod {ell}")
    return gens


def common_stable_lines(ell: int, generators: Sequence[ModMatrix]) -> tuple:
    """All lines of F_l^4 stable under every generator, with their characters.

    Stability under the generators suffices: the stabilizer of a line is a
    subgroup.  With no generators every one of the (l^4 - 1)/(l - 1) lines
    is stable.  Raises ValueError on a generator that is not 4x4 mod l.
    """
    gens = _check_generators(ell, generators)
    out = []
    for v in projective_points(ell):
        character = tuple((g, _eigenvalue(g, v)) for g in gens)
        if all(s is not None for _, s in character):
            out.append(StableLine(ell, v, character))
    return tuple(out)


def fixed_vectors(ell: int, generators: Sequence[ModMatrix]) -> int:
    """Dimension of the vectors of F_l^4 fixed by every generator."""
    rows = [
        [(v - (1 if i == j else 0)) % ell for j, v in enumerate(row)]
        for g in _check_generators(ell, generators)
        for i, row in enumerate(g.entries)
    ]
    return 4 - _rank_mod(rows, 4, ell)
