"""Exact linear algebra over F_l, Z/l^k Z, and rationals with l-power denominators.

Everything here is exact: matrices are immutable tuples of Python integers
(arbitrary precision), so there is no overflow and no floating point anywhere.
It is the package's one home for linear algebra, with one routine per kind:
``_fraction_det`` and ``_fraction_inv`` for integer and rational rows and
``_echelon_mod`` for residue rows over F_l.  Two matrix kinds are provided.

``LAdicMatrix``
    Entries are rationals whose denominator is a power of a fixed prime l,
    stored as normalized ``(numerator, exponent)`` pairs meaning
    ``numerator / l**exponent`` with ``gcd(numerator, l) == 1`` whenever the
    exponent is positive.  This is the right coefficient ring for lattice
    change-of-basis matrices of l-power isogenies.

``ModMatrix``
    Entries are residues mod ``l**k``.  Used for torsion representations.

The module also owns the plain-text matrix format used by the command line
tool and by golden files: rows separated by ``;``, entries by ``,``, each
entry either an integer ``n`` or ``n/l^k`` (the letter ``l`` is symbolic, the
actual prime is supplied when parsing), and the breadth-first ``closure``
that the group and lattice modules share.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union


class ExactMatError(ValueError):
    """Base class for arithmetic errors raised by this module."""


class DimensionMismatchError(ExactMatError):
    pass


class SingularMatrixError(ExactMatError):
    def __init__(self, message: str, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class NonIntegralEntryError(ExactMatError):
    """An entry that was required to be integral at l has a denominator."""

    def __init__(self, message: str, position=None):
        super().__init__(message)
        self.position = position


class UnrepresentableEntryError(ExactMatError):
    """A rational that is not of the form n / l^k was produced."""


class ClosureCapError(RuntimeError):
    """Closure generation exceeded its cap; carries the partial size."""

    def __init__(self, partial_size: int, cap: int):
        self.partial_size = partial_size
        self.cap = cap
        super().__init__(
            f"closure exceeded cap {cap} (partial size {partial_size})"
        )


def closure(start, gens, act: Callable, cap=None) -> frozenset:
    """Everything reachable from the points ``start`` under x -> act(x, g).

    Breadth-first over the generators ``gens``.  With act a group product
    and start the identity this is the generated subgroup; with act a vector
    sum mod m it is the span.  Raises ClosureCapError as soon as more than
    ``cap`` points are found (no cap when ``cap`` is None).

    Callers may record the walk from inside ``act``: it runs exactly once
    per (point, generator) pair, the points in the order they are
    discovered (the start points first, in their given order) and, for
    each point, the generators in the order given.
    """
    gens = tuple(gens)
    queue = list(dict.fromkeys(start))
    seen = set(queue)
    for x in queue:  # the queue grows while it is walked
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                if cap is not None and len(seen) > cap:
                    raise ClosureCapError(len(seen), cap)
                queue.append(y)
    return frozenset(seen)


def is_prime(m: int) -> bool:
    """Whether the integer ``m`` is prime, by integer trial division."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return m >= 2


def check_prime(ell: int) -> int:
    """Validate that ``ell`` is a (small) prime and return it."""
    if not isinstance(ell, int) or ell < 2:
        raise ExactMatError(f"not a prime: {ell!r}")
    if ell > 10_000:
        raise ExactMatError(f"prime out of supported range: {ell}")
    if not is_prime(ell):
        raise ExactMatError(f"not a prime: {ell}")
    return ell


def lval(x: Union[int, Fraction], ell: int) -> int:
    """l-adic valuation of a nonzero rational; raises on zero."""
    f = Fraction(x)
    if f == 0:
        raise ExactMatError("valuation of zero is undefined")
    v = 0
    num, den = f.numerator, f.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def _norm_pair(num: int, k: int, ell: int) -> tuple:
    """Normalize ``num / ell**k`` so that k >= 0 is minimal."""
    if num == 0:
        return (0, 0)
    if k < 0:
        num *= ell ** (-k)
        k = 0
    while k > 0 and num % ell == 0:
        num //= ell
        k -= 1
    return (num, k)


def _pair_from_value(value, ell: int) -> tuple:
    if isinstance(value, tuple):
        num, k = value
        try:
            return _norm_pair(operator.index(num), operator.index(k), ell)
        except TypeError:
            raise ExactMatError(f"cannot build an entry from {value!r}") from None
    if isinstance(value, int):
        return (value, 0) if value != 0 else (0, 0)
    if isinstance(value, Fraction):
        den = value.denominator
        k = 0
        while den % ell == 0:
            den //= ell
            k += 1
        if den != 1:
            raise UnrepresentableEntryError(
                f"denominator of {value} is not a power of {ell}"
            )
        return _norm_pair(value.numerator, k, ell)
    raise ExactMatError(f"cannot build an entry from {value!r}")


def _pair_to_fraction(pair: tuple, ell: int) -> Fraction:
    num, k = pair
    return Fraction(num, ell**k)


@dataclass(frozen=True)
class LAdicMatrix:
    """Square matrix over Z[1/l] with l-power denominators only."""

    ell: int
    entries: tuple  # tuple of rows; each row a tuple of (num, exponent) pairs

    def __post_init__(self):
        check_prime(self.ell)
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise DimensionMismatchError("matrix must be square and nonempty")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ell: int) -> "LAdicMatrix":
        """Build from rows of ints, Fractions, or (num, exponent) pairs."""
        ent = tuple(
            tuple(_pair_from_value(v, ell) for v in row) for row in rows
        )
        return LAdicMatrix(ell, ent)

    @staticmethod
    def identity(n: int, ell: int) -> "LAdicMatrix":
        return LAdicMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], ell
        )

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.entries)

    def fraction_rows(self) -> list:
        return [
            [_pair_to_fraction(p, self.ell) for p in row] for row in self.entries
        ]

    def is_integral(self) -> bool:
        """True when every entry lies in Z (no l in any denominator)."""
        return all(k == 0 for row in self.entries for (_, k) in row)

    def transpose(self) -> "LAdicMatrix":
        n = self.n
        return LAdicMatrix(
            self.ell,
            tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)),
        )

    def neg(self) -> "LAdicMatrix":
        return LAdicMatrix(
            self.ell,
            tuple(tuple((-num, k) for (num, k) in row) for row in self.entries),
        )

    def scale(self, factor) -> "LAdicMatrix":
        fn, fk = _pair_from_value(factor, self.ell)
        return LAdicMatrix(
            self.ell,
            tuple(
                tuple(_norm_pair(num * fn, k + fk, self.ell) for (num, k) in row)
                for row in self.entries
            ),
        )

    def is_alternating(self) -> bool:
        return self.transpose() == self.neg()

    # -- scaled-integer view, shared by the fast multiply ------------------

    def scaled_int_rows(self) -> tuple:
        """Return ``(rows, k)`` with integer rows such that self = rows / l^k."""
        kmax = max((k for row in self.entries for (_, k) in row), default=0)
        ell = self.ell
        rows = tuple(
            tuple(num * ell ** (kmax - k) for (num, k) in row)
            for row in self.entries
        )
        return rows, kmax

    def mul(self, other: "LAdicMatrix") -> "LAdicMatrix":
        if not isinstance(other, LAdicMatrix) or other.ell != self.ell:
            raise DimensionMismatchError("operands must share the same prime")
        if other.n != self.n:
            raise DimensionMismatchError("size mismatch")
        a, ka = self.scaled_int_rows()
        b, kb = other.scaled_int_rows()
        n = self.n
        bt = list(zip(*b))
        prod = [
            [sum(x * y for x, y in zip(row, col)) for col in bt] for row in a
        ]
        k = ka + kb
        ell = self.ell
        return LAdicMatrix(
            ell,
            tuple(
                tuple(_norm_pair(v, k, ell) for v in row) for row in prod
            ),
        )

    def apply(self, vector: Sequence) -> list:
        """Multiply a column vector of rationals; returns Fractions."""
        rows = self.fraction_rows()
        vec = [Fraction(v) for v in vector]
        if len(vec) != self.n:
            raise DimensionMismatchError("vector length mismatch")
        return [sum(r * v for r, v in zip(row, vec)) for row in rows]

    def det(self) -> Fraction:
        return _fraction_det(self.fraction_rows())

    def inv(self) -> "LAdicMatrix":
        inv_rows = _fraction_inv(self.fraction_rows())
        try:
            return LAdicMatrix.from_rows(inv_rows, self.ell)
        except UnrepresentableEntryError as exc:
            raise UnrepresentableEntryError(
                f"inverse leaves the coefficient ring Z[1/{self.ell}]: {exc}"
            ) from exc

    def reduce_mod(self, k: int) -> "ModMatrix":
        """Reduce an integral-at-l matrix mod l^k."""
        if k < 1:
            raise ExactMatError("need k >= 1")
        m = self.ell**k
        out = []
        for i, row in enumerate(self.entries):
            new = []
            for j, (num, e) in enumerate(row):
                if e > 0:
                    raise NonIntegralEntryError(
                        f"entry at row {i + 1}, column {j + 1} is "
                        f"{num}/{self.ell}^{e}, not integral at {self.ell}",
                        position=(i, j),
                    )
                new.append(num % m)
            out.append(tuple(new))
        return ModMatrix(self.ell, k, tuple(out))


@dataclass(frozen=True)
class ModMatrix:
    """Square matrix over Z / l^k Z, entries stored as canonical residues."""

    ell: int
    k: int
    entries: tuple

    def __post_init__(self):
        check_prime(self.ell)
        if self.k < 1:
            raise ExactMatError("modulus exponent must be >= 1")
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise DimensionMismatchError("matrix must be square and nonempty")
        m = self.modulus
        if any(not (0 <= v < m) for row in self.entries for v in row):
            raise ExactMatError("entries must be canonical residues")

    @property
    def modulus(self) -> int:
        return self.ell**self.k

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ell: int, k: int = 1) -> "ModMatrix":
        """Reduce integer rows mod l^k; any other entry raises TypeError."""
        m = ell**k
        return ModMatrix(
            ell, k, tuple(tuple(operator.index(v) % m for v in row) for row in rows)
        )

    @staticmethod
    def identity(n: int, ell: int, k: int = 1) -> "ModMatrix":
        return ModMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], ell, k
        )

    def transpose(self) -> "ModMatrix":
        n = self.n
        return ModMatrix(
            self.ell,
            self.k,
            tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)),
        )

    def mul(self, other: "ModMatrix") -> "ModMatrix":
        if (
            not isinstance(other, ModMatrix)
            or other.ell != self.ell
            or other.k != self.k
            or other.n != self.n
        ):
            raise DimensionMismatchError("operands must live in the same ring")
        m = self.modulus
        bt = list(zip(*other.entries))
        return ModMatrix(
            self.ell,
            self.k,
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) % m for col in bt)
                for row in self.entries
            ),
        )

    def scale(self, c: int) -> "ModMatrix":
        m = self.modulus
        c %= m
        return ModMatrix(
            self.ell,
            self.k,
            tuple(tuple((c * v) % m for v in row) for row in self.entries),
        )

    def det(self) -> int:
        return int(_fraction_det(self.entries)) % self.modulus

    def inv(self) -> "ModMatrix":
        """Inverse mod l^k: the rational inverse of the residues, reduced.

        A unit determinant mod l makes every denominator of that inverse a
        unit mod l^k; otherwise the matrix is singular mod l^k.
        """
        d, m = self.det(), self.modulus
        if d % self.ell == 0:
            raise SingularMatrixError(
                f"matrix is singular mod {self.ell}**{self.k}", determinant=d
            )
        return ModMatrix(
            self.ell,
            self.k,
            tuple(
                tuple(v.numerator * pow(v.denominator, -1, m) % m for v in row)
                for row in _fraction_inv(self.entries)
            ),
        )

    def charpoly(self) -> tuple:
        """Characteristic polynomial coefficients, leading first, over F_l.

        Only defined for a prime modulus (k == 1); for composite moduli the
        notion used downstream is the mod-l one, so we refuse rather than
        guess.
        """
        if self.k != 1:
            raise ExactMatError("charpoly requires a prime modulus")
        return charpoly_rows(self.entries, self.ell)


def charpoly_rows(rows: Sequence[Sequence[int]], p: int) -> tuple:
    """char poly of an n x n integer matrix mod prime p, via principal minors.

    Coefficient of x^(n-k) is (-1)^k * (sum of principal k x k minors).
    Returned leading-first, so the tuple starts with 1.
    """
    coeffs = [1]
    for k in range(1, len(rows) + 1):
        total = sum(
            _fraction_det([[rows[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(len(rows)), k)
        )
        coeffs.append((-1) ** k * int(total) % p)
    return tuple(coeffs)


def _fraction_det(rows) -> Fraction:
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv_p = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv_p
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def _fraction_inv(rows) -> list:
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    b = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(
                "matrix is singular", determinant=Fraction(0)
            )
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv_p = 1 / a[col][col]
        a[col] = [v * inv_p for v in a[col]]
        b[col] = [v * inv_p for v in b[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                b[r] = [v - f * w for v, w in zip(b[r], b[col])]
    return b


# -- row reduction over F_l ---------------------------------------------------


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


# -- module-level operation names ------------------------------------------


def det(a):
    return a.det()


def charpoly(a: ModMatrix) -> tuple:
    return a.charpoly()


def reduce_mod(a: LAdicMatrix, k: int) -> ModMatrix:
    return a.reduce_mod(k)


# -- Smith normal form, l-valuations only -----------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Diagonal l-valuations of a nonsingular matrix, with transforms.

    ``left`` and ``right`` are matrices over Q with l-unit determinant such
    that ``left * A * right`` is exactly ``diag(l**v for v in valuations)``.
    Primes other than l are deliberately ignored: the transforms may contain
    denominators prime to l, which are units of the local ring at l.
    """

    ell: int
    valuations: tuple
    left: tuple
    right: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.valuations):
            raise ExactMatError(
                "negative valuation in Smith form; input was not integral at "
                f"{self.ell}"
            )
        if any(
            self.valuations[i] > self.valuations[i + 1]
            for i in range(len(self.valuations) - 1)
        ):
            raise ExactMatError("valuations must be sorted ascending")


def smith_normal_form(a: LAdicMatrix) -> SmithForm:
    """Smith form over the local ring at l (valuation-pivoting elimination)."""
    ell = a.ell
    n = a.n
    work = a.fraction_rows()
    left = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    right = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    vals = []

    def swap_rows(i, j):
        work[i], work[j] = work[j], work[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in work:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    for step in range(n):
        best = None
        for r in range(step, n):
            for c in range(step, n):
                if work[r][c] != 0:
                    v = lval(work[r][c], ell)
                    if best is None or v < best[0]:
                        best = (v, r, c)
        if best is None:
            raise SingularMatrixError(
                "Smith form needs a nonsingular matrix", determinant=Fraction(0)
            )
        v, r, c = best
        if r != step:
            swap_rows(step, r)
        if c != step:
            swap_cols(step, c)
        pivot = work[step][step]
        for r2 in range(step + 1, n):
            if work[r2][step]:
                f = work[r2][step] / pivot
                work[r2] = [x - f * y for x, y in zip(work[r2], work[step])]
                left[r2] = [x - f * y for x, y in zip(left[r2], left[step])]
        for c2 in range(step + 1, n):
            if work[step][c2]:
                f = work[step][c2] / pivot
                for row in work:
                    row[c2] -= f * row[step]
                for row in right:
                    row[c2] -= f * row[step]
        # scale the pivot to an exact power of l (unit scaling only)
        unit = pivot / Fraction(ell) ** v
        work[step] = [x / unit for x in work[step]]
        left[step] = [x / unit for x in left[step]]
        vals.append(v)

    return SmithForm(
        ell,
        tuple(vals),
        tuple(tuple(row) for row in left),
        tuple(tuple(row) for row in right),
    )


# -- text format -------------------------------------------------------------

_ENTRY_RE = re.compile(r"^(-?\d+)(?:/l\^(\d+))?$")


def format_entry(pair: tuple) -> str:
    num, k = pair
    return f"{num}/l^{k}" if k > 0 else str(num)


def format_matrix(mat) -> str:
    """Render either matrix kind in the row ';' / entry ',' text format."""
    if isinstance(mat, LAdicMatrix):
        return ";".join(
            ",".join(format_entry(p) for p in row) for row in mat.entries
        )
    if isinstance(mat, ModMatrix):
        return ";".join(",".join(str(v) for v in row) for row in mat.entries)
    raise ExactMatError(f"cannot format {type(mat).__name__}")


def parse_ladic(text: str, ell: int) -> LAdicMatrix:
    rows = []
    for row_text in text.strip().split(";"):
        row = []
        for ent in row_text.split(","):
            m = _ENTRY_RE.match(ent.strip())
            if not m:
                raise ExactMatError(f"bad matrix entry: {ent.strip()!r}")
            num = int(m.group(1))
            k = int(m.group(2)) if m.group(2) else 0
            row.append((num, k))
        rows.append(row)
    return LAdicMatrix.from_rows(rows, ell)


def parse_mod(text: str, ell: int, k: int = 1) -> ModMatrix:
    lad = parse_ladic(text, ell)
    return lad.reduce_mod(k)
