"""Stabilizer of the degenerate alternating pairing over F_2 and its
subgroup census.

The glued surface's polarization pairing reduces mod 2 to a nonzero
alternating form with a 2-dimensional radical.  This module finds the
elements of GL4(F_2) preserving that form by a column-by-column walk that
prunes every prefix the form rules out, verifies the stabilizer's
structure (a solvable group of order 576, an extension of S_3 x S_3 by an
elementary-abelian kernel of order 16, split by the elements that are block
diagonal in a basis adapted to the form's radical), enumerates its 128
subgroup conjugacy classes by cyclic extension, and classifies every class
against its contragredient h -> (h^-1)^T.  Over F_2 the similitude scaling
and the character twist are both trivial, so "up to scaling" means plain
preservation and the twisted contragredient is the inverse-transpose.

Group elements are 4x4 matrices over F_2 in exactmat's packed format
throughout (a 16-bit int at l = 2, bit 4i + j holding entry (i, j)), the
format groupengine's GL4(F_2) machinery computes on.  Every walk here
(generated and derived subgroups, element orders, the multiplication
tables, the cyclic extension, subspace spans) is one exactmat.closure call.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from galdual.exactmat import (
    LOWER_LEFT,
    LOWER_RIGHT,
    UPPER_LEFT,
    UPPER_RIGHT,
    ClosureCapError,
    _nullspace_mod,
    _rank_mod,
    check_packed,
    closure,
    format_packed,
    is_prime,
    pack_flat,
    position_mask,
    unpack_flat,
)
from galdual.groupengine import (
    _IDENT,
    _f2_small_generating_set,
    f2_inv,
    f2_mul,
    f2_transpose,
    gl4_elements,
    intertwiner_basis,
    invertible_line,
    matrix_subgroups_conjugate,
)
from galdual.paramgroups import glued_polarization, product_principal_polarization


@dataclass(frozen=True)
class AlternatingForm:
    """An alternating bilinear form on F_2^4, its matrix a packed 4x4 mod 2.

    Over F_2 alternating means zero diagonal and symmetric.  What
    check_packed refuses raises ExactMatError.
    """

    matrix: int

    def __post_init__(self):
        m = check_packed(self.matrix, 2)
        if m & _IDENT:  # the bits of the diagonal
            raise ValueError("alternating form needs a zero diagonal")
        if f2_transpose(m) != m:
            raise ValueError("alternating form over F_2 must be symmetric")

    def radical_basis(self) -> tuple:
        """Echelonized basis of {v : J(v, .) = 0}."""
        e = unpack_flat(self.matrix, 2)
        return tuple(_nullspace_mod([e[0:4], e[4:8], e[8:12], e[12:16]], 4, 2))


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
    pairs = [position_mask((4 * i + j, 4 * j + i), 2) for i in range(4) for j in range(i + 1, 4)]
    return tuple(
        AlternatingForm(sum(itertools.compress(pairs, bits)))
        for bits in itertools.product((0, 1), repeat=6)
    )


def form_orbit(j: AlternatingForm) -> frozenset:
    """Packed congruence orbit {g^T J g : g in GL4(F_2)}."""
    jp = j.matrix
    return frozenset(
        f2_mul(f2_mul(f2_transpose(g), jp), g) for g in gl4_elements()
    )


def similitude_stabilizer(j: AlternatingForm) -> frozenset:
    """All of GL4(F_2) preserving the form up to scaling, as packed ints.

    The only scalar over F_2 is 1, so the condition is g^T J g = J, whose
    entry (p, i) says that the form takes the value J[p][i] on columns p
    and i of g.  Both sides are alternating, so the entries above the
    diagonal decide equality.  The columns c0, c1, c2, c3 are chosen in
    turn, each outside the span of the ones before it, so g is invertible;
    column i keeps only the vectors v on which the form takes the value
    J[p][i] with every earlier column c_p.  Every g with g^T J g = J passes
    each of these prefix tests, so the result is checked exhaustively over
    the 20160 invertible matrices, while the walk visits only the column
    prefixes that pass them.
    """
    jp = j.matrix
    images = _vector_images(jp)
    # agree[u][b]: the nonzero column vectors v with u^T J v = b
    agree = [(set(), set()) for _ in range(16)]
    for u in range(16):
        for v in range(1, 16):
            agree[u][bin(u & images[v]).count("1") & 1].add(v)
    found = []

    def extend(i, cols, span):
        # cols holds c0 .. c(i-1) as nibbles, the rows of g^T
        if i == 4:
            found.append(f2_transpose(cols))
            return
        cands = set(range(1, 16)) - span
        for p in range(i):
            cands &= agree[(cols >> 4 * p) & 15][(jp >> (4 * p + i)) & 1]
        for v in cands:
            extend(i + 1, cols | v << 4 * i, span | {u ^ v for u in span})

    extend(0, 0, {0})
    return frozenset(found)


@functools.cache
def glued_form_stabilizer() -> frozenset:
    return similitude_stabilizer(glued_pairing_mod2())


# -- structure of the stabilizer ------------------------------------------------


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
    return closure([_IDENT], conj, f2_mul, len(elements))


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
    plane).  In a basis that starts with R every element is block upper
    triangular, and the complement is read off without a search: it is the
    set of elements that are block diagonal there, checked to have 36
    elements, to meet the kernel only in the identity and to equal its own
    closure.  Raises ValueError when any structural claim fails.
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
    p = f2_transpose(pack_flat([v for row in basis for v in row], 2))
    p_inv = f2_inv(p)

    # in the basis (radical, complement) every element is block upper
    # triangular; its action on R and V/R is the block-diagonal part
    upper_left, upper_right, lower_left, lower_right = (
        position_mask(block, 2) for block in (UPPER_LEFT, UPPER_RIGHT, LOWER_LEFT, LOWER_RIGHT)
    )
    diagonal = upper_left | lower_right
    adapted = {}
    for g in elements:
        gp = f2_mul(f2_mul(p_inv, g), p)
        if gp & lower_left:
            raise ValueError("an element does not preserve the form radical")
        adapted[g] = gp

    kernel = frozenset(g for g, gp in adapted.items() if gp & diagonal == _IDENT)
    if len(kernel) != 16:
        raise ValueError(f"action kernel has order {len(kernel)}, not 16")
    if any(f2_mul(x, x) != _IDENT for x in kernel):
        raise ValueError("action kernel is not of exponent 2")
    if closure([_IDENT], kernel, f2_mul) != kernel:
        raise ValueError("action kernel is not closed under products")
    gens = _f2_small_generating_set(elements)
    if closure(kernel, gens, lambda x, g: f2_mul(f2_mul(g, x), f2_inv(g))) != kernel:
        raise ValueError("action kernel is not normal")

    image = {gp & diagonal for gp in adapted.values()}
    if len(image) != 36:
        raise ValueError(f"action image has order {len(image)}, not 36")
    for mask, plane in ((upper_left, (1, 2, 3)), (lower_right, (4, 8, 12))):
        proj = {ad & mask for ad in image}
        perms = {tuple(_vector_images(m)[v] for v in plane) for m in proj}
        if len(proj) != 6 or len(perms) != 6:
            raise ValueError("a projection is not the full symmetric group S_3")

    complement = frozenset(g for g, gp in adapted.items() if not gp & upper_right)
    closed = closure([_IDENT], complement, f2_mul) == complement
    if len(complement) != 36 or complement & kernel != {_IDENT} or not closed:
        raise ValueError("the block-diagonal elements are not a complement to the action kernel")
    return SplitExtension(kernel, complement, (6, 6))


def _require_group(elements: frozenset) -> None:
    """Raise ValueError unless the packed elements form a group: they must
    hold the identity, be invertible (a finite set closed under products
    may hold a singular matrix) and equal the closure of their generating
    set.  Every message says "not a group" and why."""
    if _IDENT not in elements:
        raise ValueError("element set is not a group: it does not contain the identity")
    if any(f2_inv(x) is None for x in elements):
        raise ValueError("element set is not a group: an element is not invertible")
    try:
        gens = _f2_small_generating_set(elements)
        closed = closure([_IDENT], gens, f2_mul, len(elements)) == elements
    except ClosureCapError:
        closed = False
    if not closed:
        raise ValueError("element set is not a group: not closed under products")


def structure_invariants(
    elements: frozenset, form: Optional[AlternatingForm] = None
) -> StructureInvariants:
    """Order, exponent, solvability, derived series; optionally the
    kernel/complement decomposition with respect to a form's radical.
    Raises ValueError unless the elements form a group."""
    elements = frozenset(elements)  # the generating-set cache needs it hashable
    if len(elements) > 10_000:
        raise ValueError("group order over budget for structure invariants")
    _require_group(elements)
    exponent = math.lcm(*(len(closure([_IDENT], [x], f2_mul)) for x in elements))
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
    the number of distinct conjugates (the normalizer's index).
    ``chain_generators`` are the packed elements x_1, ..., x_k by which
    subgroup_conjugacy_classes reached the representative from {I}, each
    extension <H, x> of prime index, so they generate it (empty for {I}).
    The two booleans stay None until contragredient_census fills them,
    together with ``conjugacy_evidence``, the kind of proof that settled
    ``image_conjugate_to_dual`` (one of EVIDENCE_KINDS).
    """

    representative: frozenset
    order: int
    class_size: int
    chain_generators: tuple
    self_dual_as_rep: Optional[bool] = None
    image_conjugate_to_dual: Optional[bool] = None
    conjugacy_evidence: Optional[str] = None


def _group_tables(elems: list, index: dict) -> tuple:
    """Tables of a packed group on the positions of its elements in ``elems``.

    Returns (mul, inv, conj): mul[g][x] is the position of g x and inv[g]
    that of g^-1; conj maps the position s of each element of a generating
    set to its conjugation row, conj[s][x] the position of s x s^-1.  Rows
    are 16-bit arrays.

    Only the generators' rows are computed by matrix products.  g -> mul[g]
    is a homomorphism into permutations of the positions, so every other
    product row is composed from them inside the act of one
    exactmat.closure walk, the first time g s is reached:
    mul[g s][x] = mul[g][mul[s][x]].  Each composition is one C-level
    gather: the generator's row is turned once into an
    ``operator.itemgetter`` over its positions, which applied to mul[g]
    returns mul[g][mul[s][0]], mul[g][mul[s][1]], ... as a tuple that goes
    straight into a new array.  A group of order 1 has no generators, so
    every getter takes at least two positions and returns a tuple, not a
    scalar.  Conjugation by any other g is read off mul and inv as
    mul[mul[g][x]][inv[g]], so no other conjugation row is built.  The
    elements must form a group (see _require_group).
    """
    gen_rows, conj = [], {}
    for s in _f2_small_generating_set(frozenset(elems)):
        si = f2_inv(s)
        gen_rows.append((index[s], operator.itemgetter(*[index[f2_mul(s, x)] for x in elems])))
        conj[index[s]] = array("H", [index[f2_mul(f2_mul(s, x), si)] for x in elems])
    mul = [None] * len(elems)
    mul[index[_IDENT]] = array("H", range(len(elems)))

    def compose(g, gen):
        s, take = gen
        gs = mul[g][s]
        if mul[gs] is None:
            mul[gs] = array("H", take(mul[g]))
        return gs

    closure([index[_IDENT]], gen_rows, compose)
    inv = array("H", [index[f2_inv(x)] for x in elems])
    return mul, inv, conj


def subgroup_conjugacy_classes(elements: frozenset) -> list:
    """One representative per conjugacy class of subgroups, by cyclic extension.

    Every subgroup of a solvable group tops a chain with prime cyclic
    quotients, so repeatedly extending each known class representative H by
    coset generators x of prime order in N(H)/H reaches every class.  Since
    x normalizes H, the extension H<x> is the closure of H under right
    multiplication by x, and the order of xH is |H<x>| / |H|.  New
    subgroups are deduplicated by registering their whole conjugation
    orbit, the closure of H under the generators' conjugation rows.

    N(H) is read off the product table: g normalizes H exactly when it
    conjugates each generator x of H into H, that is when
    mul[mul[g][x]][inv[g]] lies in H.  Each generator filters only the
    candidates left by the generators before it.  Orbit size times
    normalizer size must equal |G|.

    Each record keeps the chain x_1, ..., x_k of coset generators that
    built its representative as ``chain_generators``.  Raises ValueError
    unless the elements form a group.
    """
    elements = frozenset(elements)
    elems = sorted(elements)
    n = len(elems)
    if n > 1200:
        raise ValueError("group order over budget for subgroup enumeration")
    _require_group(elements)
    index = {g: i for i, g in enumerate(elems)}
    mul, inv, conj = _group_tables(elems, index)
    e0 = index[_IDENT]

    registry: dict = {}
    classes: list = []  # (representative, class_size, normalizer, generators of the representative)

    def register(h: frozenset, hgens: tuple):
        orbit = closure([h], conj, lambda hg, s: frozenset(map(conj[s].__getitem__, hg)))
        normalizer = range(n)
        for x in hgens:
            normalizer = [g for g in normalizer if mul[mul[g][x]][inv[g]] in h]
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
            seen.update(mul[e][x] for e in h)  # the coset xH
            ext = closure(h, [x], lambda e, g: mul[e][g])
            if is_prime(len(ext) // len(h)) and ext not in registry:
                queue.append(len(classes))
                register(ext, hgens + (x,))

    records = [
        SubgroupClassRecord(
            representative=frozenset(elems[i] for i in h),
            order=len(h),
            class_size=size,
            chain_generators=tuple(elems[i] for i in hgens),
        )
        for h, size, _, hgens in classes
    ]
    records.sort(key=lambda r: (r.order, tuple(sorted(r.representative))))
    return records


# -- the contragredient census --------------------------------------------------


@functools.cache
def _contragredient(x: int) -> int:
    """(x^-1)^T of a packed invertible matrix, computed once per element."""
    return f2_transpose(f2_inv(x))


def contragredient_subgroup(h: frozenset) -> frozenset:
    """Image of a packed subgroup under h -> (h^-1)^T."""
    return frozenset(map(_contragredient, h))


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
            span = closure([0], basis, operator.xor)
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


@functools.cache
def _kernel_masks(x: int) -> tuple:
    """(images, ker, im) for a packed matrix x, computed once per element:
    the images (x - 1)v of the sixteen column vectors v, and the 16-bit
    masks of ker(x - 1) and im(x - 1), bit v set when v lies in the space."""
    images = _vector_images(x ^ _IDENT)
    ker = sum(1 << v for v, w in enumerate(images) if not w)
    return images, ker, sum(1 << w for w in set(images))


def duality_signature(h, generators) -> tuple:
    """Sorted (dim W, |ker H -> GL(W)|, |ker H -> GL(V/W)|) over the
    H-invariant proper nonzero subspaces W of V = F_2^4.

    W is H-invariant when ``generators``, a generating set of H, map it
    into itself, that is when (g - 1)v lies in W for each generator g and
    each basis vector v of W, so only they are tested.  The kernel orders
    count every element, through the (ker, im) masks of x - 1 that
    _kernel_masks keeps per element: x acts trivially on W exactly when
    W lies in ker(x - 1), and on V/W exactly when im(x - 1) lies in W.
    The elements are tallied by their mask pair, so each subspace reads
    one count per distinct pair.  A conjugacy invariant of H inside
    GL4(F_2); contragredient_census explains how it compares with
    dual_signature.
    """
    pairs = Counter(_kernel_masks(x)[1:] for x in h).items()
    gen_images = [_kernel_masks(g)[0] for g in generators]
    sig = []
    for dim, mask, basis in _f2_subspaces():
        if any(not (mask >> im[v]) & 1 for im in gen_images for v in basis):
            continue
        kernel_w = sum(c for (ker, _), c in pairs if not mask & ~ker)
        kernel_q = sum(c for (_, im), c in pairs if not im & ~mask)
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
    equivalent to h -> (h^-1)^T?  Decided by groupengine's shared solver on
    the packed generator pairs (g, g^-T): intertwiner_basis solves the span,
    and invertible_line, the walk thm-main uses at every l, tries every line
    of it for invertibility, so a negative verdict is a proof.  (ii) Is
    the image H* = {(h^-1)^T} at least a conjugate subgroup inside GL4(F_2)?

    The generators are the class record's ``chain_generators``, found once
    by subgroup_conjugacy_classes, so no generating set is searched here.
    The class {I} has none, and the identity is its witness.
    Intertwining and invariance of a subspace hold for H once they hold
    for a generating set; every check that counts or re-checks elements
    still runs over all of H.

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
      GL4(F_2) on the chain generators, for the classes the other two leave
      open.
    """
    filled = []
    not_equiv = 0
    not_conj = 0
    for rec in classes:
        h = rec.representative
        dual = contragredient_subgroup(h)
        gens = rec.chain_generators
        if gens:
            pairs = [(g, _contragredient(g)) for g in gens]
            witness = invertible_line(2, intertwiner_basis(2, pairs))
        else:  # {I}: the identity intertwines it with itself
            witness = _IDENT
        equivalent = witness is not None
        if equivalent:
            xi = f2_inv(witness)
            if any(f2_mul(f2_mul(witness, g), xi) not in dual for g in h):
                raise AssertionError("equivalence witness does not conjugate the subgroup")
            conjugate, evidence = True, "witness"
        else:
            sig = duality_signature(h, gens)
            if sig != dual_signature(sig):
                conjugate, evidence = False, "invariant"
            else:
                conjugate, evidence = matrix_subgroups_conjugate(h, dual, gens), "scan"
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
            format_packed(g, 2)
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
