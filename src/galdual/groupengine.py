"""Generic finite-group machinery over small prime fields.

Closure generation, linear-representation equivalence through intertwiner
spaces, subgroup conjugacy inside GL4(F_2), permutation actions on the
vectors of F_l^4, permutation characters, permutation-group conjugacy in
the symmetric group, and stable-line analysis.  Everything here is
exhaustive or certifying: a negative equivalence verdict is backed by a
full walk of the intertwiner space, and a positive conjugacy verdict by
an explicit verified conjugator.

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


def small_generating_set(ordered, identity, act, pool, tries, seed) -> list:
    """A small generating set of the finite group whose elements are ``ordered``.

    ``ordered`` lists the elements in order of preference (the identity may
    be left out) and ``act`` is the group product.  First up to ``tries``
    seeded random pairs from the first ``pool`` elements (all when None) are
    tried; failing that, the set is grown greedily along ``ordered``.
    """
    target = len(set(ordered) | {identity})
    head = ordered[:pool]
    rng = random.Random(seed)
    if target > 2 and len(head) >= 2:
        for _ in range(tries):
            pair = rng.sample(head, 2)
            if len(closure([identity], pair, act, cap=target)) == target:
                return pair
    gens: list = []
    closed = {identity}
    for x in ordered:
        if x not in closed:
            gens.append(x)
            closed = closure([identity], gens, act, cap=target)
            if len(closed) == target:
                break
    return gens


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


def representations_equivalent(pairs: Sequence[tuple]):
    """Search the intertwiner space for an invertible change of basis.

    Returns (True, X) with a verified witness, or (False, None).  The walk
    over the span is exhaustive whenever l^dim <= 10^6 (and then a False
    verdict is a proof); beyond that it normalizes the leading coefficient
    and walks the projective span, refusing past a hard budget rather than
    guessing.
    """
    pairs = list(pairs)
    space = intertwiner_space(pairs)
    ell, n, basis = space.ell, space.n, space.basis
    dim = len(basis)
    if dim == 0:
        return False, None
    flats = [tuple(v for row in b.entries for v in row) for b in basis]

    def witness_from(coeffs):
        flat = [0] * (n * n)
        for c, bf in zip(coeffs, flats):
            if c:
                for idx in range(n * n):
                    flat[idx] = (flat[idx] + c * bf[idx]) % ell
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _rank_mod(rows, n, ell) < n:
            return None
        x = ModMatrix.from_rows(rows, ell)
        for g, g2 in pairs:
            if x.mul(g) != g2.mul(x):
                raise AssertionError("intertwiner witness fails on a pair")
        return x

    if ell**dim <= 10**6:
        for coeffs in itertools.product(range(ell), repeat=dim):
            if any(coeffs):
                x = witness_from(coeffs)
                if x is not None:
                    return True, x
        return False, None
    # projective walk: scaling X by a unit preserves invertibility, so the
    # first nonzero coefficient may be pinned to 1
    budget = 10**7
    count = 0
    for lead in range(dim):
        for tail in itertools.product(range(ell), repeat=dim - lead - 1):
            count += 1
            if count > budget:
                raise RuntimeError("intertwiner search budget exceeded")
            coeffs = (0,) * lead + (1,) + tail
            x = witness_from(coeffs)
            if x is not None:
                return True, x
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
    subgroup: the census, its listing and the conjugacy scan all ask."""
    return tuple(
        small_generating_set(
            sorted(elements), _IDENT, f2_mul, pool=None, tries=24, seed=1729
        )
    )


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


def _cycle_type(p) -> tuple:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if not seen[i]:
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def _perm_fingerprint(p) -> tuple:
    ct = _cycle_type(p)
    return (ct, _cycle_type(_compose(p, p)))


def _perm_generating_set(elements) -> list:
    """A generating set biased toward rare cycle-type classes.

    Rare classes keep the image-candidate lists short in the conjugacy
    backtracker, which matters far more than the raw generator count.
    """
    class_size: dict = {}
    fps = {}
    for p in elements:
        fp = _perm_fingerprint(p)
        fps[p] = fp
        class_size[fp] = class_size.get(fp, 0) + 1
    ident = tuple(range(len(next(iter(elements)))))
    ordered = sorted(
        (p for p in elements if p != ident),
        key=lambda p: (class_size[fps[p]], fps[p], p),
    )
    return small_generating_set(ordered, ident, _compose, pool=40, tries=60, seed=4861)


class _ClosureProgram:
    """Replayable multiplication structure of one subgroup chain level.

    For the subgroup H = <gens[:k]> the breadth-first closure is computed
    once: elements get dense indices, and every product elem*gen is stored
    as (src, gen, dst) triples in discovery order.  A candidate image tuple
    is then checked by executing the same program on the image side; every
    triple is verified, so a surviving assignment is a full isomorphism of
    H onto its image.
    """

    def __init__(self, gens):
        ident = tuple(range(len(gens[0])))
        self.gens = list(gens)
        index = {ident: 0}
        ops = []

        def act(e, jh):
            j, h = jh
            e2 = _compose(e, h)
            ops.append((index[e], j, index.setdefault(e2, len(index))))
            return e2

        closure([ident], enumerate(self.gens), act)
        self.elems = list(index)
        self.index = index
        self.ops = ops
        self.gen_positions = [index[h] for h in self.gens]

    def image_map(self, images):
        """Execute on candidate images; element map list, or None on conflict."""
        out = [None] * len(self.elems)
        out[0] = tuple(range(len(images[0])))
        used = {out[0]}
        for src, j, dst in self.ops:
            val = _compose(out[src], images[j])
            cur = out[dst]
            if cur is None:
                if val in used:
                    return None
                out[dst] = val
                used.add(val)
            elif cur != val:
                return None
        return out


def _stabilizer(elements, point: int) -> frozenset:
    return frozenset(p for p in elements if p[point] == point)


def _match_orbits(orbit_data1, orbit_data2, phi):
    """Assign P1-orbits to P2-orbits so stabilizers correspond under phi.

    orbit_data1: list of (orbit points, stabilizer set of a base point).
    orbit_data2: list of (orbit points, {point: stabilizer set}) computed lazily.
    Returns a list of (base point, orbit1, matched point, orbit2) or None.
    """
    used = [False] * len(orbit_data2)
    assignment = []

    def backtrack(i):
        if i == len(orbit_data1):
            return True
        p, orbit1, stab_image = orbit_data1[i]
        for j, (orbit2, stabs) in enumerate(orbit_data2):
            if used[j] or len(orbit2) != len(orbit1):
                continue
            for q in orbit2:
                if stabs[q] == stab_image:
                    used[j] = True
                    assignment.append((p, orbit1, q, orbit2))
                    if backtrack(i + 1):
                        return True
                    used[j] = False
                    assignment.pop()
                    break  # other points of orbit2 give conjugate stabilizers
        return False

    if backtrack(0):
        return assignment
    return None


def _conjugator_from_matching(gens, images, matching):
    """Point bijection sigma with sigma*g = phi(g)*sigma, built orbit by orbit."""
    degree = len(gens[0]) if gens else 0
    sigma = {}

    def act(s, gx):
        g, x = gx
        sigma.setdefault(g[s], x[sigma[s]])
        return g[s]

    for p, orbit1, q, _ in matching:
        sigma[p] = q
        closure([p], zip(gens, images), act)
    if len(sigma) != degree or len(set(sigma.values())) != degree:
        return None
    return tuple(sigma[i] for i in range(degree))


def perm_groups_conjugate(p1: PermGroup, p2: PermGroup) -> bool:
    """Whether two permutation groups are conjugate in the symmetric group.

    Backtracks over abstract isomorphisms (generator images pruned by cycle
    type), then tests G-set equivalence by matching orbits whose point
    stabilizers correspond; a positive verdict is certified by an explicit
    point bijection conjugating the generators.
    """
    if p1.degree != p2.degree:
        raise ValueError("permutation groups act on different degrees")
    if p1.order > 2000 or p1.degree > 100:
        raise ValueError("size over budget for the conjugacy search")
    if p1.order != p2.order:
        return False
    set1, set2 = set(p1.elements), set(p2.elements)
    if set1 == set2:
        return True
    fp1 = sorted(_perm_fingerprint(p) for p in set1)
    fp2 = sorted(_perm_fingerprint(p) for p in set2)
    if fp1 != fp2:
        return False

    gens = _perm_generating_set(set1)
    by_fp: dict = {}
    for p in set2:
        by_fp.setdefault(_perm_fingerprint(p), []).append(p)
    candidate_lists = [by_fp.get(_perm_fingerprint(g), []) for g in gens]
    if any(not c for c in candidate_lists):
        return False
    programs = [_ClosureProgram(gens[: k + 1]) for k in range(len(gens))]
    if len(programs[-1].elems) != len(set1):
        raise AssertionError("generating set failed to rebuild the group")

    orbit_points1 = _orbits(PermGroup(p1.degree, p1.elements, tuple(gens)))
    orbit_data2 = []
    for orbit in _orbits(p2):
        stabs = {q: _stabilizer(set2, q) for q in orbit}
        orbit_data2.append((orbit, stabs))

    # cycle types of short reference words, computed once on the source side
    pair_types = {}
    triple_types = {}
    for k in range(len(gens)):
        for i in range(k):
            w1 = _compose(gens[i], gens[k])
            w2 = _compose(gens[k], gens[i])
            pair_types[(i, k)] = (
                _cycle_type(w1), _cycle_type(w2),
                _cycle_type(_compose(w1, gens[k])), _cycle_type(_compose(w2, gens[k])),
            )
        for i in range(k):
            for j in range(i + 1, k):
                triple_types[(i, j, k)] = _cycle_type(
                    _compose(gens[i], _compose(gens[j], gens[k]))
                )

    def words_consistent(images):
        """Cycle types of short words must match; sound since conjugation
        preserves them.  Tests words involving the newest generator only."""
        k = len(images) - 1
        xk = images[k]
        for i in range(k):
            w1 = _compose(images[i], xk)
            w2 = _compose(xk, images[i])
            expect = pair_types[(i, k)]
            if _cycle_type(w1) != expect[0] or _cycle_type(w2) != expect[1]:
                return False
            if (
                _cycle_type(_compose(w1, xk)) != expect[2]
                or _cycle_type(_compose(w2, xk)) != expect[3]
            ):
                return False
        for i in range(k):
            for j in range(i + 1, k):
                w = _compose(images[i], _compose(images[j], xk))
                if _cycle_type(w) != triple_types[(i, j, k)]:
                    return False
        return True

    def gset_match(phi) -> bool:
        orbit_data1 = []
        for orbit in orbit_points1:
            p = orbit[0]
            stab_image = frozenset(phi[g] for g in _stabilizer(set1, p))
            orbit_data1.append((p, orbit, stab_image))
        matching = _match_orbits(orbit_data1, orbit_data2, phi)
        if matching is None:
            return False
        sigma = _conjugator_from_matching(gens, [phi[g] for g in gens], matching)
        if sigma is None:
            return False
        return all(_compose(sigma, g) == _compose(phi[g], sigma) for g in gens)

    def assign(images):
        k = len(images)
        for x in candidate_lists[k]:
            images.append(x)
            if words_consistent(images):
                arr = programs[k].image_map(images)
                if arr is not None:
                    if k + 1 == len(gens):
                        if gset_match(dict(zip(programs[k].elems, arr))):
                            return True
                    elif assign(images):
                        return True
            images.pop()
        return False

    return assign([])


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


def projective_points(ell: int, n: int = 4):
    """All normalized line representatives of F_l^n, first nonzero entry 1."""
    for lead in range(n):
        for tail in itertools.product(range(ell), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def common_stable_lines(group: ImageGroup) -> tuple:
    """All lines of F_l^4 stable under every element, with their characters.

    Stability under the generators suffices (the stabilizer of a line is a
    subgroup), so this works in generators-only mode too.
    """
    out = []
    for v in projective_points(group.ell):
        character = tuple((g, _eigenvalue(g, v)) for g in group.generators)
        if all(s is not None for _, s in character):
            out.append(StableLine(group.ell, v, character))
    return tuple(out)


def fixed_vectors(group: ImageGroup) -> int:
    """Dimension of the common eigenvalue-1 eigenspace of the group."""
    ell = group.ell
    rows = []
    for flat in group.generator_flats():
        for i in range(4):
            rows.append(
                [(flat[4 * i + j] - (1 if i == j else 0)) % ell for j in range(4)]
            )
    if not rows:
        return 4
    return 4 - _rank_mod(rows, 4, ell)
