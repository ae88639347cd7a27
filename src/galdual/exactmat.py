"""Exact linear algebra over F_l and over rationals with l-power denominators.

Everything here is exact: matrices are immutable tuples of Python integers
(arbitrary precision), so there is no overflow and no floating point anywhere.
It holds one routine per kind: ``_int_det`` (Bareiss elimination) for the
determinant of ``LAdicMatrix``, and ``int_adj`` (fraction-free Gauss-Jordan)
for integer rows, which ``LAdicMatrix`` inverts with.  Over F_l it defines
the packed format; the one row reduction on it is groupengine's ``_kernel``.
A Z[1/l] matrix is stored as its integer rows R over one power l^k, and
every product, determinant, inverse and Smith form works on R and k
directly, so no arithmetic runs on fractions.  Each matrix kind has one
encoding.

``LAdicMatrix``
    Entries are rationals whose denominator is a power of a fixed prime l,
    stored as integer rows ``entries`` over ``l**k``, with k >= 0 minimal.
    This is the right coefficient ring for lattice change-of-basis
    matrices of l-power isogenies.

packed 4x4 matrices mod l
    The l-torsion representations.  A 4x4 matrix over F_l is an int whose
    field of w = (l - 1).bit_length() bits at bit (4i + j) * w holds entry
    (i, j), flat position 4i + j.  ``field_width``, ``pack_flat``,
    ``unpack_flat`` and ``position_mask`` define it, ``check_packed``
    refuses any other value, and ``UPPER_LEFT``, ``UPPER_RIGHT``,
    ``LOWER_LEFT`` and ``LOWER_RIGHT`` name its 2x2 blocks.
    ``LAdicMatrix.reduce_mod`` produces it.  At l = 2 it is the 16-bit
    layout of groupengine's GL4(F_2) kernels; at every l the records, the
    image groups, the F_2 forms and every groupengine matrix are in it.

The module also owns the plain-text matrix format used by the command line
tool and by golden files: rows separated by ``;``, entries by ``,``, each
entry either an integer ``n`` or ``n/l^k`` (the letter ``l`` is symbolic, the
actual prime is supplied when parsing), written by ``format_matrix`` and
``format_packed``, and the breadth-first ``closure`` that the group and
lattice modules share.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    """l-adic valuation of a nonzero int or Fraction; raises on anything else."""
    if isinstance(x, int):
        num, den = x, 1
    elif isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        raise ExactMatError(f"valuation needs an int or a Fraction, not {x!r}")
    if num == 0:
        raise ExactMatError("valuation of zero is undefined")
    v = 0
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def _pair_from_value(value, ell: int) -> tuple:
    """``(num, exponent)`` with value = num / ell**exponent; not normalized."""
    if isinstance(value, tuple):
        num, k = value
        try:
            return operator.index(num), operator.index(k)
        except TypeError:
            raise ExactMatError(f"cannot build an entry from {value!r}") from None
    if isinstance(value, int):
        return value, 0
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
        return value.numerator, k
    raise ExactMatError(f"cannot build an entry from {value!r}")


def _lowest_terms(x: int, k: int, ell: int) -> tuple:
    """``x / ell**k`` as ``(numerator, exponent)`` with exponent >= 0 minimal."""
    while k > 0 and x % ell == 0:
        x //= ell
        k -= 1
    return (x, k)


@dataclass(frozen=True)
class LAdicMatrix:
    """Square matrix over Z[1/l]: integer rows ``entries`` over l^k.

    The matrix is entries / l^k.  Construction normalizes: a negative k is
    lifted to 0 by scaling the rows, and the largest power of l dividing
    every entry (up to l^k) is cancelled, so k >= 0 is minimal and ``==``
    is equality of values.
    """

    ell: int
    entries: tuple  # tuple of integer rows
    k: int = 0

    def __post_init__(self):
        ell = check_prime(self.ell)
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise DimensionMismatchError("matrix must be square and nonempty")
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in self.entries)
            k = operator.index(self.k)
        except TypeError:
            raise ExactMatError(
                "LAdicMatrix needs integer entries and an integer exponent"
            ) from None
        if k < 0:
            f = ell**-k
            rows = tuple(tuple(x * f for x in row) for row in rows)
            k = 0
        # g == 0 only for the zero matrix, which comes out with k = 0
        _, lowest = _lowest_terms(math.gcd(*(x for row in rows for x in row)), k, ell)
        if lowest < k:
            f = ell ** (k - lowest)
            rows = tuple(tuple(x // f for x in row) for row in rows)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "k", lowest)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ell: int) -> "LAdicMatrix":
        """Build from rows of ints, Fractions, or (num, exponent) pairs."""
        pairs = [[_pair_from_value(v, ell) for v in row] for row in rows]
        k = max((e for row in pairs for _, e in row), default=0)
        return LAdicMatrix(
            ell, tuple(tuple(x * ell ** (k - e) for x, e in row) for row in pairs), k
        )

    @staticmethod
    def identity(n: int, ell: int) -> "LAdicMatrix":
        return LAdicMatrix(
            ell, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_integral(self) -> bool:
        """True when every entry lies in Z (no l in any denominator)."""
        return self.k == 0

    def transpose(self) -> "LAdicMatrix":
        return LAdicMatrix(self.ell, tuple(zip(*self.entries)), self.k)

    def scale(self, factor) -> "LAdicMatrix":
        fn, fk = _pair_from_value(factor, self.ell)
        return LAdicMatrix(
            self.ell,
            tuple(tuple(x * fn for x in row) for row in self.entries),
            self.k + fk,
        )

    def is_alternating(self) -> bool:
        """Whether the transpose is the negative (so the diagonal is zero)."""
        ent = self.entries
        return all(
            ent[j][i] == -x
            for i, row in enumerate(ent)
            for j, x in enumerate(row[i:], i)
        )

    # -- arithmetic on the integer rows ------------------------------------

    def mul(self, other: "LAdicMatrix") -> "LAdicMatrix":
        if not isinstance(other, LAdicMatrix) or other.ell != self.ell:
            raise DimensionMismatchError("operands must share the same prime")
        if other.n != self.n:
            raise DimensionMismatchError("size mismatch")
        bt = list(zip(*other.entries))
        return LAdicMatrix(
            self.ell,
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                for row in self.entries
            ),
            self.k + other.k,
        )

    def det(self) -> Fraction:
        return Fraction(_int_det(self.entries), self.ell ** (self.k * self.n))

    def inv(self) -> "LAdicMatrix":
        """The inverse l^k adj(R) / det(R) of self = R / l^k.

        Write det(R) = l^v * u with u prime to l: an entry l^k * a / det(R)
        lies in Z[1/l] exactly when u divides a.
        """
        ell, k = self.ell, self.k
        d, adj = int_adj(self.entries)
        v = lval(d, ell)
        u = d // ell**v
        bad = next((a for row in adj for a in row if a % u), None)
        if bad is not None:
            raise UnrepresentableEntryError(
                f"inverse leaves the coefficient ring Z[1/{ell}]: "
                f"denominator of {Fraction(bad * ell**k, d)} is not a "
                f"power of {ell}"
            )
        return LAdicMatrix(
            ell, tuple(tuple(a // u for a in row) for row in adj), v - k
        )

    def reduce_mod(self) -> int:
        """Reduce a 4x4 matrix integral at l mod l, to its packed form."""
        if self.n != 4:
            raise DimensionMismatchError("only 4x4 matrices have a packed form")
        ell, den = self.ell, self.ell**self.k
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if x % den:
                    num, e = _lowest_terms(x, self.k, ell)
                    raise NonIntegralEntryError(
                        f"entry at row {i + 1}, column {j + 1} is "
                        f"{num}/{ell}^{e}, not integral at {ell}",
                        position=(i, j),
                    )
        return pack_flat([x % ell for row in self.entries for x in row], ell)


# -- the packed 4x4 format ------------------------------------------------------


def field_width(ell: int) -> int:
    """Bits per entry of a packed 4x4 matrix mod l, the bits of l - 1."""
    return (ell - 1).bit_length()


def pack_flat(flat: Sequence[int], ell: int) -> int:
    """The 16 residues mod l of a flat 4x4 as one int, entry i in the
    field at bit i * field_width(l)."""
    width = field_width(ell)
    packed = 0
    for v in reversed(flat):
        packed = packed << width | v
    return packed


def unpack_flat(packed: int, ell: int) -> tuple:
    """The flat 4x4 that ``packed`` holds, field by field."""
    width = field_width(ell)
    mask = (1 << width) - 1
    return tuple([packed >> shift & mask for shift in range(0, 16 * width, width)])


@functools.cache
def _residue_test(ell: int) -> tuple:
    """``(even, bias, carry)`` for check_packed at l: the bits of the even
    fields, 2^w - l in each even field and the lowest bit of each odd field."""
    width = field_width(ell)
    ones = sum(1 << 2 * width * k for k in range(8))
    return ones * ((1 << width) - 1), ones * ((1 << width) - ell), ones << width


def check_packed(packed, ell: int) -> int:
    """``packed`` if it is a packed 4x4 matrix mod l, an int of 16 fields that
    each hold a residue; anything else raises ExactMatError naming the value.

    The fields are tested without unpacking: the even fields, and then the
    odd ones shifted onto them, each with the empty field above it as room
    for a carry, are added 2^w - l in every field, so a field carries
    exactly when it holds l or more."""
    width = field_width(ell)
    if isinstance(packed, int) and 0 <= packed < 1 << 16 * width:
        even, bias, carry = _residue_test(ell)
        if not ((packed & even) + bias | (packed >> width & even) + bias) & carry:
            return packed
    raise ExactMatError(f"not a packed 4x4 matrix of residues mod {ell}: {packed!r}")


def position_mask(positions, ell: int) -> int:
    """The bits of a packed 4x4 mod l that hold the given flat positions."""
    width = field_width(ell)
    return sum(((1 << width) - 1) << (width * pos) for pos in positions)


# the 2x2 blocks of a flat 4x4, as flat positions; position_mask gives the
# bits of a block, or of blocks joined with +, at any l
UPPER_LEFT, UPPER_RIGHT = (0, 1, 4, 5), (2, 3, 6, 7)
LOWER_LEFT, LOWER_RIGHT = (8, 9, 12, 13), (10, 11, 14, 15)


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    After step k each remaining entry is a (k+1) x (k+1) minor, so the
    division by the previous pivot is exact.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for col in range(n - 1):
        if a[col][col] == 0:
            piv = next((r for r in range(col + 1, n) if a[r][col]), None)
            if piv is None:
                return 0
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            for j in range(col + 1, n):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def int_adj(rows) -> tuple:
    """``(det, adjugate)`` of a square integer matrix, all in integers.

    Fraction-free Gauss-Jordan on [R | I]: after step k every entry is a
    (k+1) x (k+1) minor of [R | I], so each division by the previous pivot
    is exact, and the right half ends as det(PR) * R^-1 for the row
    permutation P.  Raises SingularMatrixError when det(R) == 0.
    """
    n = len(rows)
    a = [
        list(row) + [1 if i == j else 0 for j in range(n)]
        for i, row in enumerate(rows)
    ]
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular", determinant=Fraction(0))
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        rest = top[col + 1:]
        for r in range(n):
            if r != col:
                row = a[r]
                f = row[col]
                # columns up to col are never read again
                row[col + 1:] = [
                    (p * x - f * y) // prev for x, y in zip(row[col + 1:], rest)
                ]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


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
    """Smith form over the local ring at l (valuation-pivoting elimination).

    Eliminates on the integer rows R of a = R / l^k.  The pivot is the first
    entry of least valuation in row-major order, u * l^v with u prime to l;
    every other entry left to eliminate is then divisible by l^v, so the
    steps row <- u * row - (x // l^v) * pivot_row (and the same on columns)
    stay in the integers while scaling rows and columns only by units.
    """
    ell = a.ell
    n, k = a.n, a.k
    work = [list(row) for row in a.entries]
    left = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    right = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vals = []
    units = []

    for step in range(n):
        best = None  # (valuation, row, column), the first least in row-major order
        for r in range(step, n):
            for c in range(step, n):
                if work[r][c]:
                    v = lval(work[r][c], ell)
                    if best is None or v < best[0]:
                        best = (v, r, c)
            if best is not None and best[0] == 0:
                break  # no integer lies below valuation 0
        if best is None:
            raise SingularMatrixError(
                "Smith form needs a nonsingular matrix", determinant=Fraction(0)
            )
        v, r, c = best
        if r != step:
            work[step], work[r] = work[r], work[step]
            left[step], left[r] = left[r], left[step]
        if c != step:
            for row in itertools.chain(work, right):
                row[step], row[c] = row[c], row[step]
        scale = ell**v
        u = work[step][step] // scale
        top, top_left = work[step], left[step]
        for r2 in range(step + 1, n):
            x = work[r2][step]
            if x:
                f = x // scale
                work[r2] = [u * y - f * z for y, z in zip(work[r2], top)]
                left[r2] = [u * y - f * z for y, z in zip(left[r2], top_left)]
        for c2 in range(step + 1, n):
            x = top[c2]
            if x:
                f = x // scale
                for row in itertools.chain(work, right):
                    row[c2] = u * row[c2] - f * row[step]
        vals.append(v - k)
        units.append(u)

    # left * R * right = diag(u_i * l^v_i); dividing row i of left by u_i
    # and R by l^k leaves diag(l^(v_i - k)) for a itself
    return SmithForm(
        ell,
        tuple(vals),
        tuple(tuple(Fraction(x, u) for x in row) for row, u in zip(left, units)),
        tuple(tuple(Fraction(x) for x in row) for row in right),
    )


# -- text format -------------------------------------------------------------

_ENTRY_RE = re.compile(r"^(-?\d+)(?:/l\^(\d+))?$")


def format_entry(x: int, k: int, ell: int) -> str:
    """The entry x / l^k in lowest terms: ``n`` or ``n/l^e``."""
    num, e = _lowest_terms(x, k, ell)
    return f"{num}/l^{e}" if e > 0 else str(num)


def format_matrix(mat: LAdicMatrix) -> str:
    """Render a Z[1/l] matrix in the row ';' / entry ',' text format."""
    if not isinstance(mat, LAdicMatrix):
        raise ExactMatError(f"cannot format {type(mat).__name__}")
    return ";".join(
        ",".join(format_entry(x, mat.k, mat.ell) for x in row) for row in mat.entries
    )


_PACKED_TEXT = ";".join([",".join(["{}"] * 4)] * 4)


def format_packed(packed: int, ell: int) -> str:
    """Render a packed 4x4 matrix mod l in the same text format, its
    residues as plain integers; what check_packed refuses raises
    ExactMatError."""
    return _PACKED_TEXT.format(*unpack_flat(check_packed(packed, ell), ell))


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
