"""Stabilizer of the degenerate alternating pairing over F_2 and its
subgroup census.

The glued surface's polarization pairing reduces mod 2 to a nonzero
alternating form with a 2-dimensional radical.  This module filters
GL4(F_2) for the elements preserving that form, verifies the stabilizer's
structure (a solvable group of order 576, an extension of S_3 x S_3 by an
elementary-abelian kernel of order 16, split), enumerates its 128 subgroup
conjugacy classes by cyclic extension, and classifies every class against
its contragredient h -> (h^-1)^T.  Over F_2 the similitude scaling and the
character twist are both trivial, so "up to scaling" means plain
preservation and the twisted contragredient is the inverse-transpose.

Group elements are 4x4 matrices over F_2 in exactmat's packed format
throughout (a 16-bit int at l = 2, bit 4i + j holding entry (i, j)), the
format groupengine's GL4(F_2) machinery computes on.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from dataclasses import dataclass, replace
from typing import Optional

from galdual.exactmat import (
    ClosureCapError,
    ModMatrix,
    _nullspace_mod,
    _rank_mod,
    closure,
    format_matrix,
    is_prime,
)
from galdual.groupengine import (
    _IDENT,
    _f2_closure,
    _f2_small_generating_set,
    f2_intertwiner,
    f2_inv,
    f2_mul,
    f2_transpose,
    gl4_elements,
    matrix_subgroups_conjugate,
)
from galdual.paramgroups import glued_polarization, product_principal_polarization


@dataclass(frozen=True)
class AlternatingForm:
    """An alternating bilinear form on F_2^4.

    Over F_2 alternating means zero diagonal and symmetric.
    """

    matrix: ModMatrix

    def __post_init__(self):
        m = self.matrix
        if m.ell != 2 or m.n != 4:
            raise ValueError("form must be a 4x4 matrix over F_2")
        e = m.entries
        if any(e[i][i] for i in range(4)):
            raise ValueError("alternating form needs a zero diagonal")
        if m != m.transpose():
            raise ValueError("alternating form over F_2 must be symmetric")

    def radical_basis(self) -> tuple:
        """Echelonized basis of {v : J(v, .) = 0}."""
        return tuple(_nullspace_mod([list(r) for r in self.matrix.entries], 4, 2))


@functools.cache
def glued_pairing_mod2() -> AlternatingForm:
    """The polarization pairing of the glued surface, reduced mod 2."""
    n_pol, _ = glued_polarization(2)
    return AlternatingForm(n_pol.reduce_mod())


@functools.cache
def principal_pairing_mod2() -> AlternatingForm:
    """The nondegenerate product pairing mod 2 (symplectic cross-check)."""
    return AlternatingForm(product_principal_polarization(2).reduce_mod())


def alternating_forms() -> tuple:
    """All 64 alternating forms on F_2^4 (six free entries above the diagonal)."""
    out = []
    positions = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for bits in itertools.product((0, 1), repeat=6):
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), b in zip(positions, bits):
            rows[i][j] = rows[j][i] = b
        out.append(AlternatingForm(ModMatrix.from_rows(rows, 2)))
    return tuple(out)


def form_orbit(j: AlternatingForm) -> frozenset:
    """Packed congruence orbit {g^T J g : g in GL4(F_2)}."""
    jp = j.matrix.packed()
    return frozenset(
        f2_mul(f2_mul(f2_transpose(g), jp), g) for g in gl4_elements()
    )


def similitude_stabilizer(j: AlternatingForm) -> frozenset:
    """All of GL4(F_2) preserving the form up to scaling, as packed ints.

    The only scalar over F_2 is 1, so the condition is g^T J g = J,
    checked exhaustively over the 20160 invertible matrices.  Entry (i, k)
    of g^T J g is the form's value on columns i and k of g, read from a
    256-entry table of its values on pairs of vectors.  Both sides are
    alternating, so the six entries above the diagonal decide equality.
    """
    jp = j.matrix.packed()
    images = _vector_images(jp)
    # value[u << 4 | v] = u^T J v for column vectors u, v of F_2^4
    value = bytes(
        bin(u & images[v]).count("1") & 1 for u in range(16) for v in range(16)
    )
    want = tuple(
        (jp >> (4 * i + k)) & 1 for i, k in itertools.combinations(range(4), 2)
    )

    def preserves(g):
        t = f2_transpose(g)  # row i of g^T is column i of g
        c0, c1, c2, c3 = t & 15, (t >> 4) & 15, (t >> 8) & 15, t >> 12
        return (
            value[c0 << 4 | c1], value[c0 << 4 | c2], value[c0 << 4 | c3],
            value[c1 << 4 | c2], value[c1 << 4 | c3], value[c2 << 4 | c3],
        ) == want

    return frozenset(filter(preserves, gl4_elements()))


@functools.cache
def glued_form_stabilizer() -> frozenset:
    return similitude_stabilizer(glued_pairing_mod2())


# -- structure of the stabilizer ------------------------------------------------


def _element_order(x: int) -> int:
    n, y = 1, x
    while y != _IDENT:
        y = f2_mul(y, x)
        n += 1
    return n


def _derived_subgroup(elements: frozenset) -> frozenset:
    """Commutator subgroup: normal closure of generator-pair commutators."""
    gens = _f2_small_generating_set(elements)
    if not gens:
        return frozenset({_IDENT})
    inv = {g: f2_inv(g) for g in gens}
    seed = {
        f2_mul(f2_mul(inv[g], inv[h]), f2_mul(g, h))
        for g in gens
        for h in gens
    }
    # close the seed under conjugation by the generators: the subgroup it
    # then generates is invariant under all of G, hence the normal closure
    conj = closure(seed, gens, lambda x, g: f2_mul(f2_mul(g, x), inv[g]))
    return _f2_closure(conj, cap=len(elements))


@dataclass(frozen=True)
class SplitExtension:
    """Witness that G is kernel x| complement over the form's radical action.

    ``kernel`` is the normal elementary-abelian subgroup acting trivially on
    both the radical and the quotient space; ``complement`` meets it only in
    the identity and maps isomorphically onto the image in
    GL(radical) x GL(quotient); ``projection_orders`` are the sizes of the
    image's two projections.
    """

    kernel: frozenset
    complement: frozenset
    projection_orders: tuple


@dataclass(frozen=True)
class StructureInvariants:
    order: int
    exponent: int
    solvable: bool
    derived_series: tuple
    split_extension: Optional[SplitExtension] = None


def radical_split_extension(elements: frozenset, form: AlternatingForm) -> SplitExtension:
    """Verify the kernel/quotient structure of a form stabilizer.

    Every element preserves the form's radical R, so it acts on R and on
    V/R; the kernel of the combined action is checked to be elementary
    abelian of order 16, the image to be the full S_3 x S_3 (each factor
    acting as the symmetric group on the three nonzero vectors of its
    plane), and a complement is found by lifting a small generating set of
    the image.  Raises ValueError when any structural claim fails.
    """
    radical = form.radical_basis()
    if len(radical) != 2:
        raise ValueError("form radical is not 2-dimensional")
    basis = [list(v) for v in radical]
    for cand in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        if len(basis) == 4:
            break
        if _rank_mod(basis + [list(cand)], 4, 2) > len(basis):
            basis.append(list(cand))
    p = ModMatrix.from_rows(basis, 2).transpose().packed()
    p_inv = f2_inv(p)

    # in the basis (radical, complement) every element is block upper
    # triangular; its action on R and V/R is the block-diagonal part
    action = {}
    for g in elements:
        gp = f2_mul(f2_mul(p_inv, g), p)
        if gp & 0x3300:
            raise ValueError("an element does not preserve the form radical")
        action[g] = gp & 0xCC33

    kernel = frozenset(g for g, ad in action.items() if ad == _IDENT)
    if len(kernel) != 16:
        raise ValueError(f"action kernel has order {len(kernel)}, not 16")
    for x in kernel:
        if f2_mul(x, x) != _IDENT:
            raise ValueError("action kernel is not of exponent 2")
        for y in kernel:
            if f2_mul(x, y) not in kernel:
                raise ValueError("action kernel is not closed under products")
    gens = _f2_small_generating_set(elements)
    for g in gens:
        gi = f2_inv(g)
        for x in kernel:
            if f2_mul(f2_mul(g, x), gi) not in kernel:
                raise ValueError("action kernel is not normal")

    image = {}
    for g, ad in action.items():
        image.setdefault(ad, []).append(g)
    if len(image) != 36:
        raise ValueError(f"action image has order {len(image)}, not 36")
    for mask, plane in ((0x0033, (1, 2, 3)), (0xCC00, (4, 8, 12))):
        proj = {ad & mask for ad in image}
        perms = {tuple(_vector_images(m)[v] for v in plane) for m in proj}
        if len(proj) != 6 or len(perms) != 6:
            raise ValueError("a projection is not the full symmetric group S_3")

    image_gens = _f2_small_generating_set(frozenset(image))
    for lift in itertools.product(*(sorted(image[s]) for s in image_gens)):
        try:
            h = _f2_closure(lift, cap=36)
        except ClosureCapError:
            continue
        if len(h) == 36 and len(h & kernel) == 1:
            return SplitExtension(kernel, h, (6, 6))
    raise ValueError("no complement to the action kernel was found")


def structure_invariants(
    elements: frozenset, form: Optional[AlternatingForm] = None
) -> StructureInvariants:
    """Order, exponent, solvability, derived series; optionally the
    kernel/complement decomposition with respect to a form's radical."""
    elements = frozenset(elements)  # the generating-set cache needs it hashable
    if len(elements) > 10_000:
        raise ValueError("group order over budget for structure invariants")
    # a singular element's powers never reach the identity
    if any(f2_inv(x) is None for x in elements):
        raise ValueError("structure invariants need invertible elements")
    exponent = 1
    for x in elements:
        exponent = math.lcm(exponent, _element_order(x))
    series = [len(elements)]
    cur = elements
    while True:
        nxt = _derived_subgroup(cur)
        if len(nxt) == len(cur):
            break
        series.append(len(nxt))
        cur = nxt
        if len(cur) == 1:
            break
    split = radical_split_extension(elements, form) if form is not None else None
    return StructureInvariants(
        order=len(elements),
        exponent=exponent,
        solvable=len(cur) == 1,
        derived_series=tuple(series),
        split_extension=split,
    )


# -- subgroup conjugacy classes -----------------------------------------------


@dataclass(frozen=True)
class SubgroupClassRecord:
    """One conjugacy class of subgroups, with its census verdicts.

    ``representative`` is a frozenset of packed elements; ``class_size`` is
    the number of distinct conjugates (the normalizer's index).  The two
    booleans stay None until contragredient_census fills them, together
    with ``conjugacy_evidence``, the kind of proof that settled
    ``image_conjugate_to_dual`` (one of EVIDENCE_KINDS).
    """

    representative: frozenset
    order: int
    class_size: int
    self_dual_as_rep: Optional[bool] = None
    image_conjugate_to_dual: Optional[bool] = None
    conjugacy_evidence: Optional[str] = None


def _group_tables(elems: list, index: dict) -> tuple:
    """Tables of a packed group on the positions of its elements in ``elems``.

    Returns (mul, conj, gens): mul[g][x] is the position of g x, conj[g][x]
    that of g x g^-1, and gens lists the positions of a generating set.
    Rows are 16-bit arrays.

    Only the generators' rows are computed by matrix products.  Both
    g -> mul[g] and g -> conj[g] are homomorphisms into permutations of the
    positions, so every other row is composed from them along one
    breadth-first walk: row(g s)[x] = row(g)[row(s)[x]].  Each composition
    is one C-level gather: the generator's row is turned once into an
    ``operator.itemgetter`` over its positions, which applied to row(g)
    returns row(g)[row(s)[0]], row(g)[row(s)[1]], ... as a tuple that goes
    straight into a new array.  A group of order 1 has no generators, so
    every getter takes at least two positions and returns a tuple, not a
    scalar.  Raises ValueError when the elements do not form a group.
    """
    gen_rows = []
    try:
        for s in _f2_small_generating_set(frozenset(elems)):
            si = f2_inv(s)
            if si is None:
                raise ValueError("element set is not a group: an element has no inverse")
            gen_rows.append((
                index[s],
                operator.itemgetter(*[index[f2_mul(s, x)] for x in elems]),
                operator.itemgetter(*[index[f2_mul(f2_mul(s, x), si)] for x in elems]),
            ))
    except (ClosureCapError, KeyError):
        raise ValueError("element set is not a group: not closed under products") from None
    e0 = index[_IDENT]
    mul = [None] * len(elems)
    conj = [None] * len(elems)
    mul[e0] = conj[e0] = array("H", range(len(elems)))
    queue = [e0]
    for g in queue:  # the queue grows while it is walked; it reaches every element
        row, conj_row = mul[g], conj[g]
        for s, take, take_conj in gen_rows:
            gs = row[s]
            if mul[gs] is None:
                mul[gs] = array("H", take(row))
                conj[gs] = array("H", take_conj(conj_row))
                queue.append(gs)
    return mul, conj, [s for s, _, _ in gen_rows]


def subgroup_conjugacy_classes(elements: frozenset) -> list:
    """One representative per conjugacy class of subgroups, by cyclic extension.

    Every subgroup of a solvable group tops a chain with prime cyclic
    quotients, so repeatedly extending each known class representative H by
    coset generators x of prime order in N(H)/H reaches every class.  New
    subgroups are deduplicated by registering their whole conjugation orbit.

    N(H) is read off the conjugation table: g normalizes H exactly when it
    conjugates each generator x of H into H.  For each x the column
    g -> pos(g x g^-1) is gathered once, and the candidates are filtered by
    membership of their column entries in H with itertools.compress, so the
    normalizer comes out as ascending positions without a Python-level loop
    over G.  Orbit size times normalizer size must equal |G|.
    """
    elems = sorted(elements)
    n = len(elems)
    if n > 1200:
        raise ValueError("group order over budget for subgroup enumeration")
    index = {g: i for i, g in enumerate(elems)}
    if _IDENT not in index:
        raise ValueError("element set does not contain the identity")
    mul, conj, gens = _group_tables(elems, index)
    e0 = index[_IDENT]

    registry: dict = {}
    classes: list = []  # (representative, class_size, normalizer, generators of the representative)

    def register(h: frozenset, hgens: tuple):
        orbit = closure([h], gens, lambda hg, s: frozenset(map(conj[s].__getitem__, hg)))
        normalizer = range(n)
        for x in hgens:
            column = array("H", map(operator.itemgetter(x), conj))
            normalizer = list(itertools.compress(
                normalizer, map(h.__contains__, map(column.__getitem__, normalizer))
            ))
        for hg in orbit:
            registry[hg] = len(classes)
        if len(orbit) * len(normalizer) != n:
            raise AssertionError("orbit and normalizer sizes do not multiply to the group order")
        classes.append((h, len(orbit), normalizer, hgens))

    register(frozenset({e0}), ())
    queue = [0]
    while queue:
        h, _, normalizer, hgens = classes[queue.pop()]
        seen = set(h)
        for x in normalizer:
            if x in seen:
                continue
            # order of the coset xH in N(H)/H
            m, y = 1, x
            while y not in h:
                y = mul[y][x]
                m += 1
            coset = frozenset(mul[e][x] for e in h)
            seen |= coset
            if not is_prime(m):
                continue
            ext = set(h)
            y = x
            for _ in range(m - 1):
                ext.update(mul[e][y] for e in h)
                y = mul[y][x]
            ext = frozenset(ext)
            if ext not in registry:
                queue.append(len(classes))
                register(ext, hgens + (x,))

    records = [
        SubgroupClassRecord(
            representative=frozenset(elems[i] for i in h),
            order=len(h),
            class_size=size,
        )
        for h, size, _, _ in classes
    ]
    records.sort(key=lambda r: (r.order, tuple(sorted(r.representative))))
    return records


# -- the contragredient census --------------------------------------------------


def contragredient_subgroup(h: frozenset) -> frozenset:
    """Image of a packed subgroup under h -> (h^-1)^T."""
    return frozenset(f2_transpose(f2_inv(x)) for x in h)


# Kinds of evidence for image_conjugate_to_dual, cheapest first.
EVIDENCE_KINDS = ("witness", "invariant", "scan")


@dataclass(frozen=True)
class CensusResult:
    records: tuple
    not_rep_equivalent: int
    not_subgroup_conjugate: int

    @property
    def evidence_tally(self) -> dict:
        """How many classes each kind of evidence settled, in EVIDENCE_KINDS order."""
        return {
            kind: sum(r.conjugacy_evidence == kind for r in self.records)
            for kind in EVIDENCE_KINDS
        }


@functools.cache
def _f2_subspaces() -> tuple:
    """Every proper nonzero subspace W of F_2^4 as (dim, mask, basis).

    Column vectors are 4-bit ints (bit i holds coordinate i); bit v of
    ``mask`` is set exactly when v lies in W.
    """
    spans = {}
    for k in (1, 2, 3):
        for basis in itertools.combinations(range(1, 16), k):
            span = {0}
            for b in basis:
                span |= {v ^ b for v in span}
            if len(span) == 1 << k:
                mask = sum(1 << v for v in span)
                spans.setdefault(mask, (k, mask, basis))
    return tuple(sorted(spans.values()))


def _vector_images(x: int) -> tuple:
    """The images x*v of all sixteen column vectors v under a packed matrix."""
    t = f2_transpose(x)  # nibble j is column j of x
    cols = (t & 15, (t >> 4) & 15, (t >> 8) & 15, t >> 12)
    images = [0] * 16
    for v in range(1, 16):
        low = v & -v
        images[v] = images[v ^ low] ^ cols[low.bit_length() - 1]
    return tuple(images)


def duality_signature(h) -> tuple:
    """Sorted (dim W, |ker H -> GL(W)|, |ker H -> GL(V/W)|) over the
    H-invariant proper nonzero subspaces W of V = F_2^4.

    A conjugacy invariant of H inside GL4(F_2); contragredient_census
    explains how it compares with dual_signature.
    """
    images = [_vector_images(x) for x in h]
    standard_basis = (1, 2, 4, 8)
    sig = []
    for dim, mask, basis in _f2_subspaces():
        if any(not (mask >> im[v]) & 1 for im in images for v in basis):
            continue
        kernel_w = sum(all(im[v] == v for v in basis) for im in images)
        kernel_q = sum(
            all((mask >> (im[e] ^ e)) & 1 for e in standard_basis) for im in images
        )
        sig.append((dim, kernel_w, kernel_q))
    return tuple(sorted(sig))


def dual_signature(sig: tuple) -> tuple:
    """The signature H* = {h^-T} has when H has signature ``sig``."""
    return tuple(
        sorted((4 - dim, kernel_q, kernel_w) for dim, kernel_w, kernel_q in sig)
    )


def contragredient_census(classes, j: AlternatingForm) -> CensusResult:
    """Classify every subgroup class against its contragredient.

    For each class H: (i) is the inclusion representation H -> GL4(F_2)
    equivalent to h -> (h^-1)^T?  Decided by f2_intertwiner on the packed
    generator pairs (g, g^-T): the intertwiner span is solved by XOR
    elimination and every nonzero element of it is tried, in Gray-code
    order, for invertibility, so a negative verdict is a proof.  (ii) Is
    the image H* = {(h^-1)^T} at least a conjugate subgroup inside GL4(F_2)?

    The form ``j`` does not affect the result.  It would fix the twist
    character, which is trivial over F_2; the parameter stays for callers
    that pass it positionally.

    Verdict (ii) is settled by the cheapest sound evidence, recorded as the
    class's ``conjugacy_evidence``:

    - ``witness``: the intertwiner X found in (i) satisfies X h X^-1 = h^-T
      for every h, so it conjugates H onto H*; this is re-checked on every
      element before the class is reported conjugate.
    - ``invariant``: the duality signature of H differs from its dual image,
      which proves H and H* are not conjugate.  Proof: for a subspace W of
      V = F_2^4 let W^perp be its annihilator under the standard pairing
      <u, w> = u^T w.  Since <h^-T u, w> = <u, h^-1 w>, a subspace U is
      H*-invariant exactly when U^perp is H-invariant, so W -> W^perp is a
      bijection from H-invariant to H*-invariant subspaces with
      dim W^perp = 4 - dim W.  As H-modules W^perp is the dual of V/W and
      V/W^perp the dual of W, and a contragredient action is trivial exactly
      when the action is, so under h -> h^-T the kernel on W^perp is the
      kernel on V/W and the kernel on V/W^perp is the kernel on W.  Hence
      sig(H*) = dual_signature(sig(H)).  Conjugating by g in GL4(F_2) maps
      invariant subspaces to invariant subspaces of equal dimension and
      kernel orders, so a conjugate H* would force sig(H*) = sig(H).
    - ``scan``: matrix_subgroups_conjugate, the exhaustive walk of
      GL4(F_2), for the classes the other two leave open.
    """
    filled = []
    not_equiv = 0
    not_conj = 0
    for rec in classes:
        h = rec.representative
        dual = contragredient_subgroup(h)
        gens = _f2_small_generating_set(h) or [_IDENT]
        witness = f2_intertwiner([(g, f2_transpose(f2_inv(g))) for g in gens])
        equivalent = witness is not None
        if equivalent:
            xi = f2_inv(witness)
            if any(f2_mul(f2_mul(witness, g), xi) not in dual for g in h):
                raise AssertionError("equivalence witness does not conjugate the subgroup")
            conjugate, evidence = True, "witness"
        else:
            sig = duality_signature(h)
            if sig != dual_signature(sig):
                conjugate, evidence = False, "invariant"
            else:
                conjugate, evidence = matrix_subgroups_conjugate(h, dual), "scan"
        not_equiv += not equivalent
        not_conj += not conjugate
        filled.append(
            replace(
                rec,
                self_dual_as_rep=equivalent,
                image_conjugate_to_dual=conjugate,
                conjugacy_evidence=evidence,
            )
        )
    return CensusResult(tuple(filled), not_equiv, not_conj)


@functools.cache
def stabilizer_class_list() -> tuple:
    return tuple(subgroup_conjugacy_classes(glued_form_stabilizer()))


@functools.cache
def stabilizer_census() -> CensusResult:
    return contragredient_census(stabilizer_class_list(), glued_pairing_mod2())


# -- report format ---------------------------------------------------------------


def format_census(result: CensusResult) -> str:
    """One line per class plus its generators, stably ordered."""
    blocks = []
    for rec in result.records:
        gens = sorted(
            format_matrix(ModMatrix.from_packed(g, 2))
            for g in (_f2_small_generating_set(rec.representative) or [_IDENT])
        )
        head = (
            f"order={rec.order}"
            f" rep_equiv={str(rec.self_dual_as_rep).lower()}"
            f" subgrp_conj={str(rec.image_conjugate_to_dual).lower()}"
        )
        blocks.append(((rec.order, tuple(gens)), head, gens))
    blocks.sort(key=lambda b: b[0])
    lines = []
    for _, head, gens in blocks:
        lines.append(head)
        lines.extend(f"  gen {g}" for g in gens)
    return "\n".join(lines) + "\n"
