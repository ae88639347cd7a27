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

Matrices are carried mod l^2 until the final conjugation: the bases
introduce a single factor 1/l, so mod-l^2 input determines the mod-l
output.  Hot paths run on flat 16-tuples of ints; the integer conjugator
matrices are derived from the lattice module, never hardcoded, and the
tests compare the flat route against lattice.conjugate_by directly.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from galdual.exactmat import LAdicMatrix, ModMatrix, adj4, check_prime, mul4
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
        if self.twist not in TWISTS:
            raise ValueError(f"unknown twist {self.twist!r}")
        for name in ("a", "d"):
            v = getattr(self, name)
            if not 1 <= v <= ell - 1:
                raise ValueError(f"{name}={v} is not a unit representative mod {ell}")
        for name in ("b1", "b2", "w1", "w2", "x1", "x2", "y1", "y2", "z1", "z2"):
            v = getattr(self, name)
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
        probe = {k: kwargs.get(k, 0) for k in ("b1", "b2", "w1", "w2", "x1", "x2")}
        a = kwargs.get("a", 1)
        d = kwargs.get("d", 1)
        z2 = kwargs.get("z2", 0)
        rhs = (
            probe["b1"] * probe["w1"]
            - probe["b2"] * probe["w2"]
            - d * probe["x1"]
            + d * probe["x2"]
        )
        z1 = (z2 + pow(a, -1, ell) * rhs) % ell
        return cls(ell, z1=z1, **kwargs)

    @property
    def epsilon(self) -> int:
        """The similitude scalar: the pairing is rescaled by a*d."""
        return (self.a * self.d) % self.ell


def g_ell_element(p: ParamPoint) -> ModMatrix:
    """The block-diagonal family element carried mod l^2."""
    ell = p.ell
    rows = [
        [p.a + p.x1 * ell, p.b1 + p.y1 * ell, 0, 0],
        [p.w1 * ell, p.d + p.z1 * ell, 0, 0],
        [0, 0, p.a + p.x2 * ell, p.b2 + p.y2 * ell],
        [0, 0, p.w2 * ell, p.d + p.z2 * ell],
    ]
    return ModMatrix.from_rows(rows, ell, 2)


def lift_element(p: ParamPoint) -> LAdicMatrix:
    """The same element as an exact integer matrix (entries in [0, l^2))."""
    return LAdicMatrix.from_rows(
        [[int(v) for v in row] for row in g_ell_element(p).entries], p.ell
    )


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


# -- flat 4x4 integer helpers ---------------------------------------------------


def _div_flat(t, q):
    """Divide every entry by q, raising ArithmeticError unless all divide."""
    for v in t:
        if v % q:
            raise ArithmeticError(f"entry {v} not divisible by {q}")
    return tuple([v // q for v in t])


def _mod_flat(t, m):
    return tuple([v % m for v in t])


def _flat_of(mat: LAdicMatrix):
    if not mat.is_integral():
        raise ArithmeticError("conjugator matrix must be integral")
    return tuple(num for row in mat.entries for (num, _) in row)


def _flat_to_mod(flat, ell: int) -> ModMatrix:
    return ModMatrix.from_rows(
        [flat[0:4], flat[4:8], flat[8:12], flat[12:16]], ell
    )


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


def _glued_flat(p: ParamPoint):
    """Family element conjugated into the glued basis; exact integers."""
    ell = p.ell
    mq_inv, mq_l, _, _ = _conjugator_data(ell)
    g = (
        p.a + p.x1 * ell, p.b1 + p.y1 * ell, 0, 0,
        p.w1 * ell, p.d + p.z1 * ell, 0, 0,
        0, 0, p.a + p.x2 * ell, p.b2 + p.y2 * ell,
        0, 0, p.w2 * ell, p.d + p.z2 * ell,
    )
    return _div_flat(mul4(mul4(mq_inv, g), mq_l), ell)


def _dual_isogeny_flat(glued, ell: int):
    """Glued-basis element conjugated into the dual basis; exact integers."""
    _, _, n_pol, mlam_l = _conjugator_data(ell)
    return _div_flat(mul4(mul4(n_pol, glued), mlam_l), ell)


# positions of the transpose in a flat 4x4
_TRANSPOSED = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)


def _contragredient_flat(a_flat, eps: int, ell: int):
    """eps * transpose(a^-1) mod l, as eps * det^-1 times the cofactor matrix."""
    det, adj = adj4(a_flat)
    if not det % ell:
        raise ArithmeticError("image element is singular; cannot happen")
    c = eps * pow(det, -1, ell)
    return tuple([c * adj[k] % ell for k in _TRANSPOSED])


# -- per-point public routes ------------------------------------------------------


def image_element(p: ParamPoint) -> ModMatrix:
    """Mod-l image of one family element on the glued surface."""
    return _flat_to_mod(_mod_flat(_glued_flat(p), p.ell), p.ell)


def dual_element_contragredient(p: ParamPoint) -> ModMatrix:
    """Dual-surface image via the twisted inverse-transpose."""
    a_flat = _mod_flat(_glued_flat(p), p.ell)
    return _flat_to_mod(_contragredient_flat(a_flat, p.epsilon, p.ell), p.ell)


def dual_element_isogeny(p: ParamPoint) -> ModMatrix:
    """Dual-surface image via conjugation by the polarization basis change."""
    return _flat_to_mod(
        _mod_flat(_dual_isogeny_flat(_glued_flat(p), p.ell), p.ell), p.ell
    )


# -- enumeration ---------------------------------------------------------------------


def parameter_count(ell: int, twist: str = "generic") -> int:
    """Number of distinct mod-l image elements (= distinct image pairs)."""
    check_prime(ell)
    units = 1 if twist == "trivial" else ell - 1
    return units * (ell - 1) * ell**5


def slab_points(ell: int, twist: str = "generic") -> Iterator[ParamPoint]:
    """A transversal of the family: one point per distinct mod-l image pair.

    The mod-l images depend only on (a, d, b1, b2, w1, w2, x1 - x2) and
    z1 - z2 is then forced, so fixing x2 = y1 = y2 = z2 = 0 and solving z1
    walks each image pair exactly once.
    """
    check_prime(ell)
    if twist not in TWISTS:
        raise ValueError(f"unknown twist {twist!r}")
    a_range = (1,) if twist == "trivial" else range(1, ell)
    for a in a_range:
        a_inv = pow(a, -1, ell)
        for d in range(1, ell):
            for b1, b2, w1, w2, x1 in itertools.product(range(ell), repeat=5):
                z1 = (a_inv * (b1 * w1 - b2 * w2 - d * x1)) % ell
                yield ParamPoint(
                    ell, a=a, d=d, b1=b1, b2=b2, w1=w1, w2=w2,
                    x1=x1, z1=z1, twist=twist,
                )


def random_param_point(rng: random.Random, ell: int, twist: str = "generic") -> ParamPoint:
    """A uniformly random family element (all ten free residues drawn)."""
    a = 1 if twist == "trivial" else rng.randrange(1, ell)
    kwargs = {
        name: rng.randrange(ell)
        for name in ("b1", "b2", "w1", "w2", "x1", "x2", "y1", "y2", "z2")
    }
    return ParamPoint.solved(
        ell, a=a, d=rng.randrange(1, ell), twist=twist, **kwargs
    )


# -- per-point records and their cache ------------------------------------------------


@dataclass(frozen=True)
class PointRecord:
    """Mod-l data of one family element: image, both dual routes, and (a, d)."""

    image: tuple
    dual_contragredient: tuple
    dual_isogeny: tuple
    a: int
    d: int


def _record(p: ParamPoint) -> PointRecord:
    ell = p.ell
    glued = _glued_flat(p)
    a_flat = _mod_flat(glued, ell)
    contra = _contragredient_flat(a_flat, p.epsilon, ell)
    isog = _mod_flat(_dual_isogeny_flat(glued, ell), ell)
    return PointRecord(a_flat, contra, isog, p.a, p.d)


@functools.cache
def slab_records(ell: int, twist: str = "generic"):
    """All per-point records over the transversal; cached for l <= 5."""
    if ell > 5:
        raise ValueError(
            "full enumeration is only cached for l <= 5; "
            "use iter_slab_records or sample_records"
        )
    return tuple(_record(p) for p in slab_points(ell, twist))


def iter_slab_records(ell: int, twist: str = "generic") -> Iterator[PointRecord]:
    return (_record(p) for p in slab_points(ell, twist))


def sample_records(ell: int, twist: str, count: int, seed) -> list:
    """Records of seeded random family elements (all ten residues free)."""
    rng = random.Random(seed)
    return [_record(random_param_point(rng, ell, twist)) for _ in range(count)]


# -- image groups ------------------------------------------------------------------


def _pack(flat) -> int:
    p = 0
    for v in reversed(flat):
        p = (p << 3) | v
    return p


def _unpack(packed: int):
    return tuple((packed >> (3 * i)) & 7 for i in range(16))


@dataclass(frozen=True)
class ImageGroup:
    """A finite subgroup of GL4(F_l), with provenance of its construction.

    Elements are stored packed (3 bits per entry); ``elements`` materializes
    them as ModMatrix values on first use.  ``packed_elements`` is None in
    generators-only mode (l = 7 full enumeration is large and rarely needed).
    """

    ell: int
    twist: str
    provenance: str
    packed_elements: Optional[tuple]
    packed_generators: tuple

    @functools.cached_property
    def elements(self) -> tuple:
        if self.packed_elements is None:
            raise ValueError("group was built in generators-only mode")
        return tuple(
            _flat_to_mod(_unpack(p), self.ell) for p in self.packed_elements
        )

    @functools.cached_property
    def generators(self) -> tuple:
        return tuple(
            _flat_to_mod(_unpack(p), self.ell) for p in self.packed_generators
        )

    @property
    def order(self) -> int:
        if self.packed_elements is not None:
            return len(self.packed_elements)
        return parameter_count(self.ell, self.twist)

    def element_flats(self) -> Iterator[tuple]:
        if self.packed_elements is None:
            raise ValueError("group was built in generators-only mode")
        return (_unpack(p) for p in self.packed_elements)

    def generator_flats(self) -> tuple:
        return tuple(_unpack(p) for p in self.packed_generators)

    def __contains__(self, item) -> bool:
        if self.packed_elements is None:
            raise ValueError("group was built in generators-only mode")
        if isinstance(item, ModMatrix):
            flat = tuple(v for row in item.entries for v in row)
        else:
            flat = tuple(item)
        return _pack(flat) in self._packed_set

    @functools.cached_property
    def _packed_set(self) -> frozenset:
        return frozenset(self.packed_elements)


def _primitive_root(ell: int) -> int:
    for r in range(2, ell):
        seen, v = set(), 1
        for _ in range(ell - 1):
            v = v * r % ell
            seen.add(v)
        if len(seen) == ell - 1:
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


def _build_group(ell, twist, provenance, flats_iter, generator_flats) -> ImageGroup:
    if ell > 7:
        # entries are packed into 3-bit fields, which hold every residue
        # mod l only for l <= 7
        raise ValueError(f"image groups are supported for l <= 7, not l = {ell}")
    packed = None
    if flats_iter is not None:
        packed = tuple(sorted({_pack(f) for f in flats_iter}))
    return ImageGroup(
        ell=ell,
        twist=twist,
        provenance=provenance,
        packed_elements=packed,
        packed_generators=tuple(_pack(f) for f in generator_flats),
    )


def _generator_records(ell: int, twist: str) -> tuple:
    return tuple(_record(p) for _, p in canonical_generator_points(ell, twist))


def _routes_checked(records, ell: int, twist: str) -> Iterator[PointRecord]:
    """Pass records through, raising RouteDisagreementError where the two
    dual routes differ."""
    for r in records:
        if r.dual_isogeny != r.dual_contragredient:
            raise RouteDisagreementError(
                f"dual routes disagree at l={ell}, twist={twist}: "
                f"isogeny {r.dual_isogeny} vs contragredient {r.dual_contragredient}"
            )
        yield r


def _image_group(ell, twist, with_elements, field, provenance) -> ImageGroup:
    """One image group, reading ``field`` of each PointRecord.

    Elements are enumerated by default only for l <= 5; every record read,
    generators included, is checked for dual-route agreement.
    """
    gen_flats = [
        getattr(r, field)
        for r in _routes_checked(_generator_records(ell, twist), ell, twist)
    ]
    flats = None
    if (ell <= 5) if with_elements is None else with_elements:
        cached = ell <= 5
        records = (slab_records if cached else iter_slab_records)(ell, twist)
        flats = (getattr(r, field) for r in _routes_checked(records, ell, twist))
    return _build_group(ell, twist, provenance, flats, gen_flats)


def image_rho_A(ell: int, twist: str = "generic", with_elements=None) -> ImageGroup:
    """Mod-l image group of the glued surface."""
    return _image_group(
        ell, twist, with_elements, "image",
        "parameter family conjugated into the glued basis, mod l",
    )


def image_rho_Adual_contragredient(
    ell: int, twist: str = "generic", with_elements=None
) -> ImageGroup:
    """Mod-l image group of the dual surface, via twisted inverse-transpose."""
    return _image_group(
        ell, twist, with_elements, "dual_contragredient",
        "twisted inverse-transpose of the glued-surface image",
    )


def image_rho_Adual_isogeny(
    ell: int, twist: str = "generic", with_elements=None
) -> ImageGroup:
    """Mod-l image group of the dual surface, via the polarization isogeny.

    Cross-checks every element against the contragredient route and raises
    RouteDisagreementError on the first mismatch.
    """
    return _image_group(
        ell, twist, with_elements, "dual_isogeny",
        "parameter family conjugated by the dual-polarization basis, mod l",
    )


# -- simultaneous (paired) image ---------------------------------------------------


def paired_group(ell: int, twist: str = "generic") -> tuple:
    """All simultaneous pairs (image, dual image), deduplicated as pairs."""
    seen = set()
    out = []
    for r in slab_records(ell, twist):
        key = (_pack(r.image), _pack(r.dual_contragredient))
        if key not in seen:
            seen.add(key)
            out.append(
                (_flat_to_mod(r.image, ell), _flat_to_mod(r.dual_contragredient, ell))
            )
    return tuple(out)


def paired_generators(ell: int, twist: str = "generic") -> tuple:
    """Simultaneous pairs for the canonical generator points."""
    return tuple(
        (_flat_to_mod(r.image, ell), _flat_to_mod(r.dual_contragredient, ell))
        for r in _generator_records(ell, twist)
    )


def sample_paired_elements(ell: int, twist: str, count: int, seed) -> list:
    """Seeded random simultaneous pairs (for l = 7 scale)."""
    return [
        (_flat_to_mod(r.image, ell), _flat_to_mod(r.dual_contragredient, ell))
        for r in sample_records(ell, twist, count, seed)
    ]


# -- closed-form shapes ---------------------------------------------------------------


def matches_image_shape(m: ModMatrix) -> bool:
    """Shape of the glued-surface image: zeros at seven fixed positions,
    equal (1,1)/(3,3) and (2,2)/(4,4) unit entries."""
    if m.k != 1 or m.n != 4:
        return False
    e = m.entries
    zeros = (
        e[1][0] == e[2][0] == e[3][0] == 0
        and e[2][1] == e[3][1] == 0
        and e[1][3] == e[2][3] == 0
    )
    return (
        zeros
        and e[0][0] == e[2][2]
        and e[1][1] == e[3][3]
        and e[0][0] % m.ell != 0
        and e[1][1] % m.ell != 0
    )


def matches_dual_shape(m: ModMatrix) -> bool:
    """Shape of the dual-surface image: the reflected pattern."""
    if m.k != 1 or m.n != 4:
        return False
    e = m.entries
    zeros = (
        e[0][1] == e[0][2] == e[0][3] == 0
        and e[1][2] == e[1][3] == 0
        and e[3][1] == e[3][2] == 0
    )
    return (
        zeros
        and e[0][0] == e[2][2]
        and e[1][1] == e[3][3]
        and e[0][0] % m.ell != 0
        and e[1][1] % m.ell != 0
    )


def shape_parameters(m: ModMatrix):
    """Read (a, d, b1, u, b2, w1, w2) off a glued-surface image matrix."""
    if not matches_image_shape(m):
        raise ValueError("matrix does not match the image shape")
    e, ell = m.entries, m.ell
    return (
        e[0][0],
        e[1][1],
        e[0][1],
        e[0][2],
        (-e[0][3]) % ell,
        e[1][2],
        e[3][2],
    )


def expected_dual_of(m: ModMatrix) -> ModMatrix:
    """The dual image as a closed-form function of the image matrix.

    The (3,1) entry is the solved difference z1 - z2; everything else is a
    reflection of the image parameters.  Serves as an independent oracle
    for both dual routes.
    """
    a, d, b1, u, b2, w1, w2 = shape_parameters(m)
    ell = m.ell
    t = (pow(a, -1, ell) * (b1 * w1 - b2 * w2 - d * u)) % ell
    rows = [
        [d, 0, 0, 0],
        [-b1, a, 0, 0],
        [t, -w1, d, -w2],
        [b2, 0, 0, a],
    ]
    return ModMatrix.from_rows(rows, ell)


# -- word factorization over the canonical generators -----------------------------------


def _dlog(ell: int, base: int, value: int) -> int:
    acc = 1
    for k in range(ell - 1):
        if acc == value % ell:
            return k
        acc = acc * base % ell
    raise ValueError(f"{value} is not a power of {base} mod {ell}")


def generator_word(m: ModMatrix, twist: str = "generic"):
    """Factor an image-shape matrix as a word in the canonical generators.

    Returns a list of (name, exponent) pairs; multiplying the named
    generator images in order reproduces the matrix exactly.  Existence of
    this factorization for every shape matrix is what makes the canonical
    points a generating set.
    """
    a, d, b1, u, b2, w1, w2 = shape_parameters(m)
    ell = m.ell
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


def evaluate_word(word, ell: int, twist: str = "generic") -> ModMatrix:
    """Multiply out a generator word (for tests certifying generation)."""
    gens = {
        name: image_element(p) for name, p in canonical_generator_points(ell, twist)
    }
    acc = ModMatrix.identity(4, ell)
    for name, exp in word:
        g = gens[name]
        for _ in range(exp):
            acc = acc.mul(g)
    return acc
