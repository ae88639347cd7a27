"""Mod-l Galois image groups of a glued surface and of its dual.

The surface is the quotient of a product of two 2-dimensional factors by
the graph of an isomorphism on l-torsion points; its l-adic image is a
parameterized family of block-diagonal matrices with a shared determinant
constraint.  This module enumerates that family, conjugates it into the
coordinates of the glued lattice and of the dual lattice, and packages
the resulting mod-l matrix groups.

Two independent routes produce the dual image:

* the twisted contragredient, g -> eps(g) * transpose(g^-1), applied to
  the mod-l image of the surface itself;
* conjugation of the family by the change of basis attached to the glued
  polarization, an isogeny onto the dual surface.

Their agreement, element by element, is one of the verified claims, so
the two computations are kept deliberately separate.

Every record is built by code generated per prime from one statement
list, from the integer conjugator matrices, which are
derived from the lattice module, never hardcoded.  Generating it expands
each glued entry (12 gluing terms on the family's 8-entry support) and
each isogeny entry (23 terms, on the 11 glued entries the gluing reaches)
into an integer linear form in the residues and divides it by l, refusing
with ArithmeticError a form that l does not divide: every division is
proven once, and the function has no divisibility test.  The image is
[[A, B], [0, D]], A upper and D lower triangular, B zero at flat 7 (a
gluing term in the lower-left block or a folded entry at flat 4, 7 or 11
is refused), and the function inverts it blockwise, touching no entry
that is always zero.  It compares that contragredient entry by entry with
the folded isogeny dual.  Records hold exactmat's packed 4x4 ints, one
dual int when the routes agree.  The tests compare the term lists with
lattice.conjugate_by and the contragredient with the reference inverse.

The statement list becomes three functions.  ``record`` runs it straight
through on the twelve residues of one point.  ``walk`` runs it over the
slab transversal: nested loops over a, d, b1, b2, w1, w2, x1, outermost
first, with x2 = y1 = y2 = z2 = 0 substituted and z1 solved in the
innermost loop.  Each statement goes at the shallowest loop where all of
its inputs are bound, so the (a, d) inverses, most contragredient entries
and most packed fields are computed once per outer residue; the three
packed ints and the route comparison are split into one partial OR or
AND per loop.  ``sample`` runs it straight through once per seeded
sample, after drawing the residues inline: each residue below n is drawn
as CPython's randrange does, getrandbits(n.bit_length()) repeated until
it is below n, so the pinned l = 7 samples rest on CPython's getrandbits
stream; z1 is then solved.  The walk and the sample keep every check of
``record``: the determinant constraint on each record, the
singular-element check, the route comparison, and the refusals made
while generating, which cover all three functions.

slab_records builds its tuple with the cyclic garbage collector paused,
then calls gc.freeze().  CPython never untracks NamedTuples, so every
collection during or after the build would rescan all the records and
reclaim nothing: they hold no cycles, and functools.cache keeps them for
the life of the process.  Freezing moves them out of all later collections.
"""

from __future__ import annotations

import ast
import functools
import gc
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from galdual.exactmat import (
    LOWER_LEFT,
    LOWER_RIGHT,
    UPPER_LEFT,
    LAdicMatrix,
    check_packed,
    check_prime,
    closure,
    field_width,
    pack_flat,
    position_mask,
    unpack_flat,
)
from galdual.groupengine import _field_ops
from galdual.lattice import (
    KernelSpec,
    change_basis_from_kernel,
    change_basis_from_transformation,
    pushforward_polarization,
)

TWISTS = ("generic", "trivial")


class RouteDisagreementError(RuntimeError):
    """The two dual-image computations disagreed; internal consistency broken."""


# -- parameter points ----------------------------------------------------------


@dataclass(frozen=True)
class ParamPoint:
    """One element of the parameterized l-adic image family.

    The matrix is block diagonal with 2x2 blocks
    ``[[a + x_i*l, b_i + y_i*l], [w_i*l, d + z_i*l]]`` for i = 1, 2; the
    shared a, d and the mod-l determinant constraint
    ``a*(z1 - z2) = b1*w1 - b2*w2 - d*x1 + d*x2`` tie the blocks together.
    The trivial twist pins a = 1.
    """

    ell: int
    a: int = 1
    d: int = 1
    b1: int = 0
    b2: int = 0
    w1: int = 0
    w2: int = 0
    x1: int = 0
    x2: int = 0
    y1: int = 0
    y2: int = 0
    z1: int = 0
    z2: int = 0
    twist: str = "generic"

    def __post_init__(self):
        check_prime(self.ell)
        ell = self.ell
        _check_twist(self.twist)
        for name in _RESIDUES:
            v = _integer(name, getattr(self, name))
            object.__setattr__(self, name, v)
            if name in ("a", "d") and not 1 <= v <= ell - 1:
                raise ValueError(f"{name}={v} is not a unit representative mod {ell}")
            if not 0 <= v <= ell - 1:
                raise ValueError(f"{name}={v} out of range mod {ell}")
        if self.twist == "trivial" and self.a != 1:
            raise ValueError("trivial twist forces a = 1")
        lhs = self.a * (self.z1 - self.z2)
        rhs = (
            self.b1 * self.w1
            - self.b2 * self.w2
            - self.d * self.x1
            + self.d * self.x2
        )
        if (lhs - rhs) % ell != 0:
            raise ValueError(
                "determinant constraint violated: "
                f"a(z1-z2) = {lhs % ell}, expected {rhs % ell} mod {ell}"
            )

    @classmethod
    def solved(cls, ell: int, *, z1=None, **kwargs) -> "ParamPoint":
        """Build a point with z1 chosen to satisfy the determinant constraint."""
        if z1 is not None:
            raise TypeError("solved() computes z1; do not pass it")
        check_prime(ell)
        probe = {k: kwargs.get(k, 0) for k in ("b1", "b2", "w1", "w2", "x1", "x2")}
        a = kwargs.get("a", 1)
        if not isinstance(a, int) or not 1 <= a <= ell - 1:  # validated before pow inverts it
            raise ValueError(f"a={a} is not a unit representative mod {ell}")
        z1 = _solve_z1(ell, pow(a, -1, ell), kwargs.get("d", 1), kwargs.get("z2", 0), **probe)
        return cls(ell, z1=z1, **kwargs)


def _integer(name: str, v) -> int:
    """``v`` as an int; a value that is not an integer is refused with a
    ValueError that names it."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name}={v!r} is not an integer") from None


def _solve_z1(ell, a_inv, d, z2, b1, b2, w1, w2, x1, x2) -> int:
    """The z1 that satisfies the determinant constraint mod l, a_inv = a^-1."""
    return (z2 + a_inv * (b1 * w1 - b2 * w2 - d * x1 + d * x2)) % ell


# -- gluing data, all derived through the lattice module -----------------------


@functools.cache
def gluing_kernel(ell: int) -> KernelSpec:
    """The graph of the l-torsion identification inside the product."""
    return KernelSpec(ell, 1, 4, ((1, 0, 1, 0),))


@functools.cache
def gluing_change_of_basis(ell: int) -> LAdicMatrix:
    return change_basis_from_kernel(gluing_kernel(ell))


@functools.cache
def product_principal_polarization(ell: int) -> LAdicMatrix:
    """Principal pairing of the product, in the (P1,Q1,P2,Q2) basis."""
    return LAdicMatrix.from_rows(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ],
        ell,
    )


@functools.cache
def glued_polarization(ell: int):
    """Pushforward of the product pairing to the glued surface: (matrix, d)."""
    n_iso = gluing_change_of_basis(ell).inv()
    return pushforward_polarization(
        product_principal_polarization(ell), n_iso, gluing_kernel(ell)
    )


@functools.cache
def glued_polarization_change_of_basis(ell: int) -> LAdicMatrix:
    """Basis change attached to the polarization isogeny onto the dual."""
    return change_basis_from_transformation(glued_polarization(ell)[0])


# -- flat 4x4 integer helpers -------------------------------------------------------


def _flat_of(mat: LAdicMatrix):
    if not mat.is_integral():
        raise ArithmeticError("conjugator matrix must be integral")
    return tuple(v for row in mat.entries for v in row)


@functools.cache
def _conjugator_data(ell: int):
    """Integer matrices driving the two conjugations, from the lattice ops.

    Both basis changes carry a single denominator l, so conjugation is
    (integer product) / l; the division is exact on family elements.
    """
    mq = gluing_change_of_basis(ell)
    mlam = glued_polarization_change_of_basis(ell)
    n_pol = glued_polarization(ell)[0]
    return (
        _flat_of(mq.inv()),          # left factor of the gluing conjugation
        _flat_of(mq.scale(ell)),     # l * M, the right factor
        _flat_of(n_pol),             # inverse of the dual basis change
        _flat_of(mlam.scale(ell)),   # l * that basis change
    )


# -- the generated record kernel ---------------------------------------------------

# the flat positions where a family element can be nonzero, its diagonal
# blocks, in the order the record kernel names them f0 ... f7
_FAMILY_SUPPORT = UPPER_LEFT + LOWER_RIGHT

# the other flats where the folded image is zero (A[1][0], B[1][1], D[0][1]),
# and the flats where the contragredient is therefore zero
_TRIANGULAR_ZEROS = (4, 7, 11)
_CONTRAGREDIENT_ZEROS = (1, 2, 3, 6, 7, 13, 14)


def _sparse_terms(left, right, inputs):
    """The nonzero terms of X -> left * X * right on flat 4x4 matrices.

    X is read only at the flat positions ``inputs``; each term is a triple
    ``(output position, index into inputs, integer coefficient)``.
    """
    return [
        (4 * i + j, n, left[4 * i + pos // 4] * right[4 * (pos % 4) + j])
        for i in range(4)
        for j in range(4)
        for n, pos in enumerate(inputs)
        if left[4 * i + pos // 4] and right[4 * (pos % 4) + j]
    ]


def _kernel_terms(ell: int):
    """``(glue, live, isogeny)``: the terms the record kernel folds at prime l.

    ``glue`` holds the gluing conjugation's terms on the family's support,
    ``live`` the flat positions they reach, and ``isogeny`` the isogeny's
    terms read at ``live`` only.  Raises ArithmeticError when a glue term
    reaches the lower-left block, which the block inverse rules out.
    """
    mq_inv, mq_l, n_pol, mlam_l = _conjugator_data(ell)
    glue = _sparse_terms(mq_inv, mq_l, _FAMILY_SUPPORT)
    live = sorted({out for out, _, _ in glue})
    if not set(live).isdisjoint(LOWER_LEFT):
        raise ArithmeticError(f"glued elements at l={ell} are not block upper triangular")
    return glue, live, _sparse_terms(n_pol, mlam_l, live)


# the twelve residues of a point, in ParamPoint's field order, and the family
# entries f0 ... f7 as (unit residue, l-adic digit): a + l x1, b1 + l y1, l w1, ...
_RESIDUES = ("a", "d", "b1", "b2", "w1", "w2", "x1", "x2", "y1", "y2", "z1", "z2")
_FAMILY = (
    ("a", "x1"), ("b1", "y1"), ("", "w1"), ("d", "z1"),
    ("a", "x2"), ("b2", "y2"), ("", "w2"), ("d", "z2"),
)


def _divided_forms(terms, inputs, ell: int, what: str) -> dict:
    """``{output: form / l}`` for the sums of the terms over the input forms,
    each form its integer coefficients over _RESIDUES.  l divides a sum on
    every input exactly when it divides every coefficient; a sum where it
    does not is refused with ArithmeticError."""
    sums: dict = {}
    for out, n, c in terms:
        sums[out] = [s + c * k for s, k in zip(sums.get(out, [0] * 12), inputs[n])]
    for out, form in sums.items():
        if any(k % ell for k in form):
            form = {v: k for v, k in zip(_RESIDUES, form) if k}
            raise ArithmeticError(f"{what} entry {out} = {form} is not divisible by {ell}")
    return {out: [k // ell for k in form] for out, form in sums.items()}


def _residue_text(form, ell: int, zero=()) -> str:
    """Source text of a form mod l, e.g. '(x1 - x2) % 7', its coefficients
    between -l/2 and l/2 and the residues in ``zero`` dropped.  A lone
    residue is left unreduced, being in [0, l)."""
    terms = [
        (v, c % ell - ell * (2 * (c % ell) > ell))
        for v, c in zip(_RESIDUES, form)
        if v not in zero
    ]
    terms = [v if c == 1 else f"-{v}" if c == -1 else f"{c} * {v}" for v, c in terms if c]
    if len(terms) == 1 and terms[0] in _RESIDUES:
        return terms[0]
    return f"({' + '.join(terms)}) % {ell}".replace("+ -", "- ") if terms else "0"


def _packed_terms(names, ell: int) -> list:
    """The terms packing a flat of variable names (or "0") into one int,
    each as (names read, source text)."""
    w = field_width(ell)
    return [((v,), f"{v} << {w * pos}" if pos else v) for pos, v in enumerate(names) if v != "0"]


# eps * transpose(m^-1) for the image m = [[A, B], [0, D]] (see the module
# docstring): m^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]], so every entry comes
# from det A = m0 m5, det D = m10 m15 and adj(A) B = [[p0, p1], [p2, 0]].
# One statement a line, so that the walk places each on its own; c8 =
# c (p1 m14 - p0 m15) is written with p0 = m5 m2 - m1 m6 expanded, so that
# only its m2 term is left for the walk's innermost loop.
_CONTRAGREDIENT = """\
det_a = m0 * m5
det_d = m10 * m15
u = det_a * det_d % {l}
if not u:
    raise ArithmeticError("image element is singular; cannot happen")
c = a * d * INVERSES[u]
ca = c * det_a % {l}
cd = c * det_d % {l}
p1 = m5 * m3
p2 = m0 * m6
c0 = cd * m5 % {l}
c4 = -cd * m1 % {l}
c5 = cd * m0 % {l}
k8 = c * (p1 * m14 + m1 * m6 * m15)
e8 = c * m5 * m15
c8 = (k8 - e8 * m2) % {l}
c9 = -c * p2 * m15 % {l}
c10 = ca * m15 % {l}
c11 = -ca * m14 % {l}
c12 = -c * p1 * m10 % {l}
c15 = ca * m10 % {l}"""


class PointRecord(NamedTuple):
    """Mod-l data of one family element: image, both dual routes, and (a, d).

    The three matrices are packed 4x4s (``unpack_flat`` reads them), built
    by a kernel whose divisions by l were proven when it was generated.
    When the routes agree, both dual fields are one int object.
    """

    image: int
    dual_contragredient: int
    dual_isogeny: int
    a: int
    d: int


class _Kernel(NamedTuple):
    """The three functions generated at one prime from one statement list."""

    record: Callable[..., PointRecord]
    walk: Callable[..., Iterator[PointRecord]]
    sample: Callable[..., list]


# the walk's loops, outermost first, in the order of the slab transversal,
# and the residues the transversal fixes at zero (see iter_slab_records)
_WALK_LOOPS = ("a", "d", "b1", "b2", "w1", "w2", "x1")
_WALK_ZEROS = ("x2", "y1", "y2", "z2")

# the residues a sample draws, in the order it draws them; z1 is solved
_DRAWN = ("a", "b1", "b2", "w1", "w2", "x1", "x2", "y1", "y2", "z2", "d")


def _draw_lines(ell: int) -> list:
    """The sample's draws of one point, as CPython's ``Random.randrange``
    makes them: a residue below n is ``bits(n.bit_length())``, repeated
    until it is below n, with n = l - 1 (then shifted up by one) for a and
    d and n = l for the rest.  The trivial twist draws no a."""
    lines = ["if trivial:", "    a = 1", "else:"]
    for v in _DRAWN:
        unit = v in ("a", "d")
        draw = f"bits({(ell - 1 if unit else ell).bit_length()}){' + 1' if unit else ''}"
        indent = "    " if v == "a" else ""
        draws = (f"{v} = {draw}", f"while {v} >= {ell}:", f"    {v} = {draw}")
        lines += [indent + line for line in draws]
    return lines


def _kernel_source(ell: int, images: dict, folded: dict, kind: str) -> str:
    """Source of the function ``kind`` of _Kernel: record, walk or sample.

    ``images`` and ``folded`` map the flats where the image and the isogeny
    dual are nonzero to their forms.  ``record`` is straight-line code.
    The walk fixes _WALK_ZEROS at zero and solves z1 in the innermost loop.
    The sample has one loop over the samples, which draws the residues
    (_draw_lines), solves z1 and appends each record.  Each statement goes
    at the shallowest loop where all of its inputs are bound, and each
    packed int and the route comparison is split into one partial OR or
    AND per loop.
    """
    walk = kind == "walk"
    zero = _WALK_ZEROS if walk else ()
    solve = {
        "record": (),
        "walk": ("a_inv = INVERSES[a]", f"z1 = a_inv * rhs % {ell}"),
        "sample": (f"z1 = (z2 + INVERSES[a] * rhs) % {ell}",),
    }[kind]
    source = "\n".join([
        "bw = b1 * w1 - b2 * w2",
        f"rhs = bw - d * {'x1' if walk else '(x1 - x2)'}",
        *solve,
        f"if (a * {'z1' if walk else '(z1 - z2)'} - rhs) % {ell}:",
        f'    raise ValueError("determinant constraint violated mod {ell}")',
        *(f"m{pos} = {_residue_text(form, ell, zero)}" for pos, form in images.items()),
        _CONTRAGREDIENT.format(l=ell),
        *(f"v{pos} = {_residue_text(form, ell, zero)}" for pos, form in folded.items()),
    ])
    ranges = {"a": "a_range", "d": f"range(1, {ell})"}
    loops = {
        "record": [],
        "walk": [(f"for {v} in {ranges.get(v, f'range({ell})')}:", (v,)) for v in _WALK_LOOPS],
        "sample": [("for _ in range(count):", _DRAWN)],
    }[kind]
    depth = {v: k for k, (_, bound) in enumerate(loops, 1) for v in bound}
    levels = [[] for _ in range(len(loops) + 1)]
    if kind == "sample":
        levels[0] += ["records = []", "append = records.append"]
        levels[1] += _draw_lines(ell)
    lines = source.splitlines()
    for node in ast.parse(source).body:
        names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
        k = max((depth.get(n.id, 0) for n in names if isinstance(n.ctx, ast.Load)), default=0)
        depth.update((n.id, k) for n in names if isinstance(n.ctx, ast.Store))
        levels[k] += lines[node.lineno - 1 : node.end_lineno]

    def partials(name, op, terms):
        """Place one partial ``name<k>`` per level k of the terms but the
        deepest; return that level and the expression that completes them."""
        groups = {}
        for names, text in terms:
            groups.setdefault(max(depth.get(n, 0) for n in names), []).append(text)
        *outer, last = sorted(groups)
        done = []
        for k in outer:
            levels[k].append(f"{name}{k} = {f' {op} '.join(done + groups[k])}")
            done = [f"{name}{k}"]
        return last, f" {op} ".join(done + groups[last])

    image = [f"m{pos}" if pos in images else "0" for pos in range(16)]
    contra = [f"c{pos}" if pos not in _CONTRAGREDIENT_ZEROS else "0" for pos in range(16)]
    isog = [f"v{pos}" if pos in folded else "0" for pos in range(16)]
    for name, names in (("image", image), ("dual", contra)):
        k, packed = partials(name, "|", _packed_terms(names, ell))
        levels[k].append(f"{name} = {packed}")
    agree = [((c, v), f"{c} == {v}") for c, v in zip(contra, isog) if c != v]
    isog_packed = partials("isog", "|", _packed_terms(isog, ell))[1]
    emit = {"record": "return {}", "walk": "yield {}", "sample": "append({})"}[kind]
    levels[-1] += [
        f"if {partials('same', 'and', agree)[1]}:",
        "    " + emit.format("NEW(PointRecord, (image, dual, dual, a, d))"),
        "else:",
        "    " + emit.format(f"NEW(PointRecord, (image, dual, {isog_packed}, a, d))"),
    ]
    params = {"record": ", ".join(_RESIDUES), "walk": "a_range", "sample": "bits, count, trivial"}
    out = [f"def {kind}({params[kind]}):"]
    for k, placed in enumerate(levels):
        if k:
            out.append("    " * k + loops[k - 1][0])
        out += ["    " * (k + 1) + line for line in placed]
    if kind == "sample":
        out.append("    return records")
    return "\n".join(out)


@functools.cache
def _record_kernel(ell: int) -> _Kernel:
    """The one way records are built at prime l: the functions of _Kernel.

    ``record(a, d, b1, b2, w1, w2, x1, x2, y1, y2, z1, z2)`` is generated
    straight-line code: the mod-l determinant constraint, the image and the
    isogeny dual as forms mod l (folded here, see the module docstring), the
    contragredient by block inverse, and the comparison of the two duals.
    The residues are taken as given; ParamPoint validates their ranges.
    ``walk(a_range)`` runs the same statements over the slab transversal
    with a in ``a_range`` and yields its records in order.
    ``sample(bits, count, trivial)`` draws ``count`` points from the word
    source ``bits`` (a bound ``Random.getrandbits``), a = 1 when
    ``trivial``, and returns their records (see _kernel_source).  All three
    share every check and every refusal here.
    """
    check_prime(ell)
    glue, live, isogeny = _kernel_terms(ell)
    family = [[(v == unit) + ell * (v == digit) for v in _RESIDUES] for unit, digit in _FAMILY]
    glued = _divided_forms(glue, family, ell, "glued")
    reduced = [_residue_text(glued.get(pos, ()), ell) for pos in range(16)]
    bad = next((pos for pos in _TRIANGULAR_ZEROS if reduced[pos] != "0"), None)
    if bad is not None:
        raise ArithmeticError(f"glued entry {bad} = {reduced[bad]} breaks the block inverse")
    dual = _divided_forms(isogeny, [glued[pos] for pos in live], ell, "isogeny")
    images = {pos: glued[pos] for pos, text in enumerate(reduced) if text != "0"}
    folded = {pos: form for pos, form in sorted(dual.items()) if _residue_text(form, ell) != "0"}
    namespace = {
        "PointRecord": PointRecord,
        "NEW": tuple.__new__,  # what PointRecord(...) calls, without its Python frame
        "INVERSES": (0, *(pow(u, -1, ell) for u in range(1, ell))),
    }
    source = "\n".join(_kernel_source(ell, images, folded, kind) for kind in _Kernel._fields)
    exec(compile(source, f"<record kernel l={ell}>", "exec"), namespace)
    return _Kernel(*(namespace[kind] for kind in _Kernel._fields))


def _record(p: ParamPoint) -> PointRecord:
    return _record_kernel(p.ell).record(
        p.a, p.d, p.b1, p.b2, p.w1, p.w2, p.x1, p.x2, p.y1, p.y2, p.z1, p.z2
    )


# -- enumeration ---------------------------------------------------------------------


def parameter_count(ell: int, twist: str = "generic") -> int:
    """Number of distinct mod-l image elements (= distinct image pairs)."""
    check_prime(ell)
    _check_twist(twist)
    units = 1 if twist == "trivial" else ell - 1
    return units * (ell - 1) * ell**5


def _check_twist(twist: str) -> None:
    if twist not in TWISTS:
        raise ValueError(f"unknown twist {twist!r}")


@functools.cache
def slab_records(ell: int, twist: str = "generic"):
    """All per-point records over the transversal; cached for l <= 5."""
    if check_prime(ell) > 5:
        raise ValueError(
            "full enumeration is only supported for ell in (2, 3, 5), l <= 5; "
            "use iter_slab_records or sample_records"
        )
    enabled = gc.isenabled()
    gc.disable()
    try:
        records = tuple(iter_slab_records(ell, twist))
    finally:
        if enabled:
            gc.enable()
    gc.freeze()
    return records


def iter_slab_records(ell: int, twist: str = "generic") -> Iterator[PointRecord]:
    """The records of a transversal of the family: one per distinct mod-l image pair.

    The mod-l images depend only on (a, d, b1, b2, w1, w2, x1 - x2) and
    z1 - z2 is then forced, so the generated walk fixes x2 = y1 = y2 = z2 = 0,
    loops over a, d, b1, b2, w1, w2, x1 (outermost first) and solves z1:
    it meets each image pair exactly once.  The prime and the twist are
    checked when this is called, before any record is built.
    """
    _check_twist(twist)
    return _record_kernel(ell).walk((1,) if twist == "trivial" else range(1, ell))


def sample_records(ell: int, twist: str, count: int, seed) -> list:
    """Records of seeded random family elements (all ten residues free).

    The generated sample draws from ``random.Random(seed)`` as its
    ``randrange`` would, so the seeded samples are pinned to CPython's
    getrandbits stream.
    """
    _check_twist(twist)
    count = _integer("count", count)
    if count < 0:
        raise ValueError(f"count={count} is negative")
    return _record_kernel(ell).sample(random.Random(seed).getrandbits, count, twist == "trivial")


# -- image groups ------------------------------------------------------------------


@dataclass(frozen=True)
class ImageGroup:
    """A finite subgroup of GL4(F_l) with the generators it was built from.

    Every element is enumerated and stored packed (exactmat's format),
    sorted; groupengine and the verifier read the packed ints directly.
    """

    ell: int
    packed_elements: tuple
    packed_generators: tuple

    @property
    def order(self) -> int:
        return len(self.packed_elements)


def _primitive_root(ell: int) -> int:
    for r in range(2, ell):
        if len(closure([1], [r], lambda v, g: v * g % ell)) == ell - 1:
            return r
    return 1  # ell = 2


def canonical_generator_points(ell: int, twist: str = "generic"):
    """Named family elements whose images generate the image group.

    Two diagonal points sweep the torus (one per unit character; the
    trivial twist drops the a-side), five one-parameter points sweep the
    free entries.  Generation is certified by the word factorization in
    generator_word, exercised by the tests.
    """
    check_prime(ell)
    pts = []
    r = _primitive_root(ell)
    if ell > 2 and twist == "generic":
        pts.append(("torus_a", ParamPoint.solved(ell, a=r, twist=twist)))
    if ell > 2:
        pts.append(("torus_d", ParamPoint.solved(ell, d=r, twist=twist)))
    for name in ("b1", "b2", "w1", "w2", "x1"):
        pts.append(
            (name, ParamPoint.solved(ell, twist=twist, **{name: 1}))
        )
    return tuple(pts)


def _generator_records(ell: int, twist: str) -> tuple:
    return tuple(_record(p) for _, p in canonical_generator_points(ell, twist))


def _routes_checked(records, ell: int, twist: str) -> Iterator[PointRecord]:
    """Pass records through, raising RouteDisagreementError where the two
    dual routes differ."""
    for r in records:
        if r.dual_isogeny != r.dual_contragredient:
            raise RouteDisagreementError(
                f"dual routes disagree at l={ell}, twist={twist}: isogeny"
                f" {unpack_flat(r.dual_isogeny, ell)} vs contragredient"
                f" {unpack_flat(r.dual_contragredient, ell)}"
            )
        yield r


def _image_group(ell, twist, field) -> ImageGroup:
    """One image group, from the packed ``field`` of each PointRecord.

    Every element is enumerated from slab_records, which refuses l > 5;
    every record read, generators included, is checked for dual-route
    agreement.
    """
    records = _routes_checked(slab_records(ell, twist), ell, twist)
    packed = tuple(sorted({getattr(r, field) for r in records}))
    generators = _routes_checked(_generator_records(ell, twist), ell, twist)
    return ImageGroup(ell, packed, tuple(getattr(r, field) for r in generators))


def image_rho_A(ell: int, twist: str = "generic") -> ImageGroup:
    """Mod-l image group of the glued surface."""
    return _image_group(ell, twist, "image")


def image_rho_Adual_contragredient(ell: int, twist: str = "generic") -> ImageGroup:
    """Mod-l image group of the dual surface, via twisted inverse-transpose."""
    return _image_group(ell, twist, "dual_contragredient")


# -- simultaneous (paired) image ---------------------------------------------------


def paired_generators(ell: int, twist: str = "generic") -> tuple:
    """Packed ``(image, dual_contragredient)`` pairs for the canonical
    generator points, each record checked for dual-route agreement."""
    return tuple(
        (r.image, r.dual_contragredient)
        for r in _routes_checked(_generator_records(ell, twist), ell, twist)
    )


# -- closed-form shapes ---------------------------------------------------------------


def matches_image_shape(packed: int, ell: int) -> bool:
    """Shape of the glued-surface image on a packed 4x4 mod l: zeros at
    seven fixed positions, equal (1,1)/(3,3) and (2,2)/(4,4) unit entries.
    What check_packed refuses raises ExactMatError."""
    e = unpack_flat(check_packed(packed, ell), ell)
    return (
        not packed & position_mask(LOWER_LEFT + _TRIANGULAR_ZEROS, ell)
        and e[0] == e[10] != 0
        and e[5] == e[15] != 0
    )


def shape_parameters(packed: int, ell: int):
    """Read (a, d, b1, u, b2, w1, w2) off a packed glued-surface image matrix."""
    if not matches_image_shape(packed, ell):
        raise ValueError("matrix does not match the image shape")
    e = unpack_flat(packed, ell)
    return (e[0], e[5], e[1], e[2], -e[3] % ell, e[6], e[14])


# -- word factorization over the canonical generators -----------------------------------


def _dlog(ell: int, base: int, value: int) -> int:
    acc = 1
    for k in range(ell - 1):
        if acc == value % ell:
            return k
        acc = acc * base % ell
    raise ValueError(f"{value} is not a power of {base} mod {ell}")


def generator_word(packed: int, ell: int, twist: str = "generic"):
    """Factor a packed image-shape matrix as a word in the canonical generators.

    Returns a list of (name, exponent) pairs; multiplying the named
    generator images in order reproduces the matrix exactly.  Existence of
    this factorization for every shape matrix is what makes the canonical
    points a generating set.
    """
    _check_twist(twist)
    a, d, b1, u, b2, w1, w2 = shape_parameters(packed, ell)
    if twist == "trivial" and a != 1:
        raise ValueError("trivial-twist image must have a = 1")
    r = _primitive_root(ell)
    word = []
    if ell > 2:
        if twist == "generic":
            word.append(("torus_a", _dlog(ell, r, a)))
        word.append(("torus_d", _dlog(ell, r, d)))
    a_inv, d_inv = pow(a, -1, ell), pow(d, -1, ell)
    word.append(("w1", d_inv * w1 % ell))
    word.append(("w2", d_inv * w2 % ell))
    word.append(("b1", a_inv * b1 % ell))
    word.append(("b2", a_inv * b2 % ell))
    word.append(("x1", a_inv * u % ell))
    return [(name, e) for name, e in word if e]


def evaluate_word(word, ell: int, twist: str = "generic") -> int:
    """Multiply out a generator word to a packed matrix (for tests
    certifying generation)."""
    mul = _field_ops(ell)[1]
    gens = {name: _record(p).image for name, p in canonical_generator_points(ell, twist)}
    acc = pack_flat([int(pos % 5 == 0) for pos in range(16)], ell)  # the identity
    for name, exp in word:
        for _ in range(exp):
            acc = mul(acc, gens[name])
    return acc
