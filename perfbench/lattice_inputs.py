"""Seeded inputs for the lattice_calculus workload, valid by construction.

Every case is plain integer data; the workload turns it into galdual
objects before timing starts, so galdual never sees the seed.

* The isogeny matrix is U * diag(l^e) * V with U and V unimodular, so its
  inverse has only l-power denominators and its determinant is +-l^sum(e).
* The polarization is the standard pairing of type (l^k_1, ..., l^k_g)
  with its coordinates permuted, so it stays alternating and integral.
* The kernel lives in the permuted first block, which that pairing
  vanishes on exactly, and its entries are already reduced mod l^n, so it
  is isotropic as given.  Each generator has a pivot entry 1 that is also
  its last unit entry, with zeros at the other pivots: the generators are
  independent mod l and the kernel's change of basis has determinant
  exactly l^(-n*r), so its inverse stays in Z[1/l].  When two generators
  share their last unit entry instead, galdual takes its Hermite-form
  route, whose determinant is an l-power too.

Cases are stratified: every (l, dim, n) gets the same number of cases and
the same mix of generator counts, so the work per batch barely depends on
the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ELLS = (2, 3, 5, 7)
DIMS = (2, 4)
EXPONENTS = (1, 2)


@dataclass(frozen=True)
class LatticeCase:
    ell: int
    dim: int
    n: int
    iso_rows: tuple  # integer U * diag(l^e) * V
    iso_exponents: tuple  # the e above; sum(e) = v_l(det)
    pol_rows: tuple  # integer alternating pairing
    pol_exponents: tuple  # k_1 <= ... <= k_g; the type is (l^k_i)
    kernel_gens: tuple  # generators in [0, l^n), isotropic for pol_rows


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _unimodular(rng: random.Random, dim: int):
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


def _kernel_gens(rng, ell, m, dim, block, variant):
    """Independent isotropic generators supported on ``block``.

    variant r in 1..len(block): r generators, each placed at its own pivot.
    variant 0: two generators sharing their last unit entry (needs two
    block coordinates).
    """
    if variant == 0:
        b0, b1 = block
        unit = rng.choice([u for u in range(1, m) if u % ell])
        return tuple(
            tuple(v if i == b1 else (w if i == b0 else 0) for i in range(dim))
            for w, v in ((1, unit), (0, 1))
        )
    pivots = sorted(rng.sample(block, variant))
    gens = []
    for p in pivots:
        vec = [0] * dim
        for i in block:
            if i == p:
                vec[i] = 1
            elif i not in pivots:
                # entries after the pivot are non-units, keeping it the last unit
                vec[i] = rng.randrange(m) if i < p else ell * rng.randrange(m // ell)
        gens.append(tuple(vec))
    return tuple(gens)


def _case(rng: random.Random, ell: int, dim: int, n: int, variant: int) -> LatticeCase:
    g = dim // 2
    m = ell**n

    exps = tuple(rng.randint(0, n) for _ in range(dim))
    diag = [[ell ** exps[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    iso = _matmul(_matmul(_unimodular(rng, dim), diag), _unimodular(rng, dim))

    ks = tuple(sorted(rng.randint(0, n) for _ in range(g)))
    std = [[0] * dim for _ in range(dim)]
    for i, k in enumerate(ks):
        std[i][g + i] = ell**k
        std[g + i][i] = -(ell**k)
    perm = list(range(dim))
    rng.shuffle(perm)
    pol = [[std[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]

    block = sorted(i for i in range(dim) if perm[i] < g)  # where pol vanishes
    gens = _kernel_gens(rng, ell, m, dim, block, variant)

    return LatticeCase(
        ell=ell,
        dim=dim,
        n=n,
        iso_rows=tuple(map(tuple, iso)),
        iso_exponents=exps,
        pol_rows=tuple(map(tuple, pol)),
        pol_exponents=ks,
        kernel_gens=gens,
    )


def generate(seed: int, per_stratum: int) -> list:
    """``per_stratum`` cases for each (l, dim, n); the same seed, the same cases.

    Generator variants cycle within a stratum: one generator and, in
    dimension 4, two generators on their own pivots or sharing one.
    """
    rng = random.Random(seed)
    cases = []
    for ell, dim, n in itertools.product(ELLS, DIMS, EXPONENTS):
        variants = (1,) if dim == 2 else (1, 2, 0)
        for i in range(per_stratum):
            cases.append(_case(rng, ell, dim, n, variants[i % len(variants)]))
    return cases
