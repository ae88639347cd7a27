"""Isogeny and polarization calculus on l-adic lattices.

An isogeny f: A -> B with l-power kernel acts on Tate lattices as an
inclusion T_A -> L, where L is the unique overlattice of T_A with
L / T_A isomorphic to the kernel.  Everything below manipulates the
change-of-basis matrices of such inclusions: building them from kernel
data, transporting polarizations (alternating pairings) forward and
backward, reading off polarization types, and conjugating matrix
representations into new coordinates.

Conventions.  A change-of-basis matrix M has the new basis as columns,
written in old coordinates; the matrix of an isogeny maps source
coordinates to target coordinates, and the two are mutually inverse.
Only the prime l matters: lattices are compared locally at l, so an
index prime to l counts as equality.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from galdual.exactmat import (
    LAdicMatrix,
    SingularMatrixError,
    check_prime,
    closure,
    int_adj,
    lval,
    smith_normal_form,
)


class LatticeError(ValueError):
    """Invalid kernel, polarization, or isogeny data."""


# -- kernel specifications ---------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A finite subgroup of the l^n torsion (Z/l^n)^dim, given by generators."""

    ell: int
    n: int
    dim: int
    generators: tuple

    def __post_init__(self):
        check_prime(self.ell)
        if self.n < 1:
            raise LatticeError("kernel exponent n must be >= 1")
        if self.dim < 1:
            raise LatticeError("dimension must be >= 1")
        m = self.ell**self.n
        canon = []
        for g in self.generators:
            try:
                vec = tuple(operator.index(v) % m for v in g)
            except TypeError:
                raise LatticeError(
                    f"generator {tuple(g)!r} has an entry that is not an integer"
                ) from None
            if len(vec) != self.dim:
                raise LatticeError(
                    f"generator {tuple(g)} has length {len(vec)}, expected {self.dim}"
                )
            if all(v == 0 for v in vec):
                raise LatticeError("zero generator is not allowed")
            canon.append(vec)
        object.__setattr__(self, "generators", tuple(canon))

    @property
    def modulus(self) -> int:
        return self.ell**self.n

    def subgroup_elements(self) -> frozenset:
        """All elements of the generated subgroup (brute-force closure)."""
        return _span_mod(self.generators, self.modulus, self.dim)


def _span_mod(gens, m: int, dim: int) -> frozenset:
    """The subgroup of (Z/m)^dim generated by the vectors ``gens``."""
    return closure(
        [(0,) * dim], gens, lambda v, g: tuple((a + b) % m for a, b in zip(v, g))
    )


_KSPEC_RE = re.compile(
    r"^ell=(\d+)\s+n=(\d+)\s+dim=(\d+)\s+gens=(.*)$"
)
_GEN_RE = re.compile(r"\(([^()]*)\)")
# what format_kernel writes after gens=: nothing, or integer tuples joined by ','
_INT_TUPLE = r"\(-?\d+(?:,-?\d+)*\)"
_GENS_RE = re.compile(rf"(?:{_INT_TUPLE}(?:,{_INT_TUPLE})*)?")


def format_kernel(ker: KernelSpec) -> str:
    gens = ",".join(
        "(" + ",".join(str(v) for v in g) + ")" for g in ker.generators
    )
    return f"ell={ker.ell} n={ker.n} dim={ker.dim} gens={gens}"


def parse_kernel(text: str) -> KernelSpec:
    m = _KSPEC_RE.match(text.strip())
    if not m:
        raise LatticeError(f"bad kernel spec: {text!r}")
    ell, n, dim = int(m.group(1)), int(m.group(2)), int(m.group(3))
    gens_text = m.group(4)
    if not _GENS_RE.fullmatch(gens_text):
        raise LatticeError(
            f"bad kernel generators: {gens_text!r}; "
            "expected integer tuples such as (1,0),(0,1)"
        )
    gens = tuple(
        tuple(int(v) for v in group.split(",")) for group in _GEN_RE.findall(gens_text)
    )
    return KernelSpec(ell, n, dim, gens)


# -- change-of-basis construction ----------------------------------------------


def change_basis_from_transformation(n_iso: LAdicMatrix) -> LAdicMatrix:
    """Change-of-basis matrix of an isogeny given its transformation matrix."""
    return n_iso.inv()


def _primary_placement(ker: KernelSpec):
    """Place each scaled generator at its last unit coordinate.

    Returns the placed matrix or None when the convention does not apply
    (no unit coordinate, or two generators claiming the same column).
    """
    ell, m, dim = ker.ell, ker.modulus, ker.dim
    columns = {}  # over l^n: a generator g is the column g / l^n
    for g in ker.generators:
        pos = next(
            (i for i in range(dim - 1, -1, -1) if g[i] % ell != 0), None
        )
        if pos is None or pos in columns:
            return None
        columns[pos] = g
    rows = [
        [columns[j][i] if j in columns else m * (i == j) for j in range(dim)]
        for i in range(dim)
    ]
    return LAdicMatrix(ell, rows, ker.n)


def _hnf_column_basis(columns, dim: int) -> list:
    """Canonical (lower-triangular Hermite) basis of a full-rank column lattice.

    Plain integer Gaussian selection: in each row pick the smallest nonzero
    pivot among the remaining columns, eliminate to the right with exact
    Euclidean steps, then reduce the columns to the left.
    """
    a = [list(col) for col in columns]  # list of columns
    for i in range(dim):
        while True:
            live = [j for j in range(i, len(a)) if a[j][i] != 0]
            if not live:
                raise AssertionError("column lattice is not full rank")
            j0 = min(live, key=lambda j: abs(a[j][i]))
            a[i], a[j0] = a[j0], a[i]
            done = True
            for j in range(i + 1, len(a)):
                if a[j][i] != 0:
                    q = a[j][i] // a[i][i]
                    a[j] = [x - q * y for x, y in zip(a[j], a[i])]
                    if a[j][i] != 0:
                        done = False
            if done:
                break
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
        for j in range(i):
            q = a[j][i] // a[i][i]
            if q:
                a[j] = [x - q * y for x, y in zip(a[j], a[i])]
    return a[:dim]


def _fallback_basis(ker: KernelSpec) -> LAdicMatrix:
    m = ker.modulus
    cols = [[m if i == j else 0 for i in range(ker.dim)] for j in range(ker.dim)]
    cols.extend(list(g) for g in ker.generators)
    basis = _hnf_column_basis(cols, ker.dim)
    return LAdicMatrix(ker.ell, tuple(zip(*basis)), ker.n)  # columns over l^n


def _quotient_group(mat: LAdicMatrix, n: int) -> frozenset:
    """The group L/T for the column lattice L, as l^n-torsion vectors.

    Elements of L/T are cosets of column combinations modulo 1; the map
    v -> l^n v identifies the quotient with a subgroup of (Z/l^n)^dim, the
    span of the scaled columns mod l^n: for mat = R / l^k these are the
    columns of R times l^(n - k).  Only used for small l^n (the closure is
    at most (l^n)^dim points).
    """
    if mat.k > n:
        raise AssertionError("column lattice has denominators beyond l^n")
    m = mat.ell**n
    s = mat.ell ** (n - mat.k)
    gens = [tuple(x * s % m for x in col) for col in zip(*mat.entries)]
    return _span_mod(gens, m, mat.n)


def locally_contains_standard(mat: LAdicMatrix) -> bool:
    """Does the column lattice contain Z^dim locally at l?

    Works on the adjugate of the integer rows R of mat = R / l^k: the
    inverse l^k adj(R) / det(R) may pick up denominators prime to l (units
    of the local ring) that LAdicMatrix cannot carry, and its entry is
    l-integral when adj_ij == 0 or v(adj_ij) + k >= v(det R).
    """
    ell, k = mat.ell, mat.k
    try:
        d, adj = int_adj(mat.entries)
    except SingularMatrixError:
        return False
    v_det = lval(d, ell)
    return all(x == 0 or lval(x, ell) + k >= v_det for row in adj for x in row)


def change_basis_from_kernel(ker: KernelSpec) -> LAdicMatrix:
    """Change-of-basis matrix of the isogeny with the given kernel.

    Columns span the overlattice T + sum Z * (lift(g)/l^n).  Each generator
    contributes the column lift(g)/l^n placed at the generator's highest
    coordinate carrying a unit, the remaining columns staying standard basis
    vectors.  That placement is kept only when its determinant is
    +-l^(-n*r): the right index with no unit factor besides +-1, so that the
    inverse lies in Z[1/l].  Otherwise a Hermite-form completion is used.
    For l^n <= 8 the result is double-checked by brute-force quotient
    computation.
    """
    r = len(ker.generators)
    if r == 0:
        return LAdicMatrix.identity(ker.dim, ker.ell)
    if r > ker.dim:
        raise LatticeError("generators not independent")

    mat = _primary_placement(ker)
    if mat is not None and abs(mat.det() * ker.ell ** (ker.n * r)) != 1:
        mat = None
    if mat is None:
        mat = _fallback_basis(ker)

    # minimality: the quotient's minimal generator count must be r
    scaled = mat.scale((1, -ker.n))  # l^n * mat, integral
    vals = smith_normal_form(scaled).valuations
    rank = sum(1 for v in vals if v < ker.n)
    if r > rank:
        raise LatticeError("generators not independent")

    if ker.modulus <= 8:
        quotient = _quotient_group(mat, ker.n)
        if quotient != ker.subgroup_elements():
            raise AssertionError(
                "completed basis does not reproduce the kernel subgroup"
            )
        if not locally_contains_standard(mat):
            raise AssertionError("column lattice does not contain the standard one")
        if abs(mat.det() * len(quotient)) != 1:
            raise AssertionError(
                "column lattice has the wrong index or a non-unit determinant"
            )
    return mat


# -- polarization transport ----------------------------------------------------


def dual_isogeny_matrix(n_iso: LAdicMatrix) -> LAdicMatrix:
    """Transformation matrix of the dual isogeny (the transpose)."""
    return n_iso.transpose()


def pullback_polarization(n_pol: LAdicMatrix, n_iso: LAdicMatrix) -> LAdicMatrix:
    """Pairing matrix of the pullback along the isogeny with matrix n_iso."""
    if not n_pol.is_alternating():
        raise LatticeError("polarization matrix must be alternating")
    if n_pol.n != n_iso.n:
        raise LatticeError("dimension mismatch")
    return n_iso.transpose().mul(n_pol).mul(n_iso)


def pushforward_polarization(
    n_pol: LAdicMatrix, n_iso: LAdicMatrix, ker: KernelSpec
):
    """Pushforward of d times a polarization along an isogeny.

    d is the least power of l for which d times the pairing kills the
    kernel; the kernel itself must be isotropic.  Returns the transported
    pairing together with d.
    """
    if not n_pol.is_alternating():
        raise LatticeError("polarization matrix must be alternating")
    if n_pol.n != ker.dim or n_iso.n != ker.dim:
        raise LatticeError("dimension mismatch")
    for mat in (n_pol, n_iso):
        if mat.ell != ker.ell:
            raise LatticeError(f"kernel is over l = {ker.ell}, a matrix over l = {mat.ell}")
    # n_pol = P / l^k: each paired value is an integer x standing for
    # x / l^k, which lies in c * Z exactly when c * l^k divides x
    ell, lifts = ker.ell, ker.generators
    den = ell**n_pol.k
    mk = ker.modulus * den
    paired = [
        [sum(a * b for a, b in zip(row, g)) for row in n_pol.entries] for g in lifts
    ]

    for i, gi in enumerate(lifts):
        for j in range(i, len(lifts)):
            val = sum(a * b for a, b in zip(gi, paired[j]))
            if val % mk:
                raise LatticeError(
                    f"kernel is not isotropic: generators {i + 1} and {j + 1} "
                    f"pair to {Fraction(val, den)} mod {ell}^{ker.n}"
                )

    d = next(
        (
            ell**e
            for e in range(ker.n + 1)
            if all(ell**e * x % mk == 0 for col in paired for x in col)
        ),
        None,
    )
    if d is None:
        raise LatticeError("no power of l up to l^n pushes the polarization forward")

    inv = n_iso.inv()
    out = inv.transpose().mul(n_pol.scale(d)).mul(inv)
    if not out.is_alternating() or not out.is_integral():
        raise LatticeError(
            "pushforward left the lattice; isogeny matrix does not match the kernel"
        )
    return out, d


def polarization_type(n_pol: LAdicMatrix, g: int) -> tuple:
    """Type (d_1, ..., d_g) of an alternating pairing, via Smith valuations."""
    if n_pol.n != 2 * g:
        raise LatticeError(f"expected a {2 * g}x{2 * g} matrix, got {n_pol.n}")
    if not n_pol.is_alternating():
        raise LatticeError("polarization matrix must be alternating")
    if not n_pol.is_integral():
        raise LatticeError("polarization matrix must be integral at l")
    vals = smith_normal_form(n_pol).valuations
    out = []
    for i in range(g):
        lo, hi = vals[2 * i], vals[2 * i + 1]
        if lo != hi:
            raise LatticeError(
                f"valuation {lo} has odd multiplicity; the pairing is not alternating"
            )
        out.append(n_pol.ell**lo)
    return tuple(out)


def standard_polarization_matrix(divisors: Sequence[int], ell: int) -> LAdicMatrix:
    """The block pairing matrix ((0, D), (-D, 0)) for the divisor list D."""
    check_prime(ell)
    try:
        ds = [operator.index(d) for d in divisors]
    except TypeError:
        raise LatticeError(f"divisors must be integers: {divisors!r}") from None
    if not ds or any(d < 1 for d in ds):
        raise LatticeError("divisors must be positive")
    for i in range(len(ds) - 1):
        if ds[i + 1] % ds[i] != 0:
            raise LatticeError(
                f"divisibility violation: {ds[i]} does not divide {ds[i + 1]}"
            )
    g = len(ds)
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for i, d in enumerate(ds):
        rows[i][g + i] = d
        rows[g + i][i] = -d
    return LAdicMatrix.from_rows(rows, ell)


def conjugate_by(m: LAdicMatrix, a: LAdicMatrix) -> LAdicMatrix:
    """Rewrite the action of a in the coordinates given by m's columns."""
    return m.inv().mul(a).mul(m)
