"""Checked-in derived constants, recomputed and compared by the test suite.

Every value here was produced by code in this package (enumeration,
closure, or exhaustive search) and frozen so that later runs can detect
drift.  Comments state how each value is derived; the tests recompute
them from scratch.
"""

# Orders of the mod-l image groups, by (l, twist).  Derived by full slab
# enumeration with deduplication for l <= 5; the l = 7 values equal the
# parameter count, which the slab-injectivity tests certify at the
# enumerable primes and, streaming every record, at (7, trivial).
IMAGE_GROUP_ORDERS = {
    (2, "generic"): 32,
    (2, "trivial"): 32,
    (3, "generic"): 972,
    (3, "trivial"): 486,
    (5, "generic"): 50000,
    (5, "trivial"): 12500,
    (7, "generic"): 605052,
    (7, "trivial"): 100842,
}

# Dimension of the space of matrices intertwining the surface image with
# the dual image (generic twist), solved on the canonical generator pairs
# by groupengine.intertwiner_basis.  invertible_line walks every line of
# each space and finds no invertible element at any of these primes.
INTERTWINER_DIMENSIONS = {2: 3, 3: 2, 5: 2, 7: 2}

# Permutation-character data of the l = 3 trivial-twist groups acting on
# the 81 vectors of F_3^4: multiset of fixed-point counts as sorted
# (value, multiplicity) pairs.  Derived by counting fixed vectors of all
# 486 elements; cross-checked against 3^nullity(g - 1).
PERM_CHARACTER_MULTISET_L3_TRIVIAL_SURFACE = ((3, 162), (9, 273), (27, 50), (81, 1))
PERM_CHARACTER_MULTISET_L3_TRIVIAL_DUAL = ((9, 435), (27, 50), (81, 1))

# Multiplicity of the trivial representation in those two permutation
# representations (Burnside average of the character, equal to the orbit
# count computed independently by closing orbits under the generators).
TRIVIAL_MULTIPLICITY_L3_TRIVIAL_SURFACE = 9
TRIVIAL_MULTIPLICITY_L3_TRIVIAL_DUAL = 11

# Dimension of the common eigenvalue-1 eigenspace at the trivial twist,
# any of l in {3, 5, 7}: the surface side fixes exactly the line through
# the first basis vector; the dual side fixes only zero.
FIXED_SPACE_DIM_TRIVIAL_TWIST_SURFACE = 1
FIXED_SPACE_DIM_TRIVIAL_TWIST_DUAL = 0

# Order of GL4(F2), from exhaustive enumeration of invertible packed
# matrices; agrees with the closed form (2^4-1)(2^4-2)(2^4-4)(2^4-8).
GL4_F2_ORDER = 20160

# Order of the full symplectic group Sp4(F2) inside GL4(F2), from an
# exhaustive filter of the 20160 elements against the standard
# alternating form.  (Equals 6!, the classical exceptional isomorphism.)
SP4_F2_ORDER = 720

# The mod-2 pairing stabilizer and its subgroup census, all from exhaustive
# computation: the stabilizer order from filtering GL4(F2) against the
# glued pairing mod 2, its exponent from element orders, the class count
# from the cyclic-extension enumeration, and the census pair from the
# per-class contragredient tests.  The derived series orders and the total
# number of subgroups (the sum of all class sizes) are recorded as extra
# drift detectors.
FORM_STABILIZER_ORDER = 576
FORM_STABILIZER_EXPONENT = 12
FORM_STABILIZER_DERIVED_SERIES = (576, 144, 16, 1)
SUBGROUP_CLASS_COUNT = 128
TOTAL_SUBGROUP_COUNT = 1880
CENSUS_NOT_REP_EQUIVALENT = 78
CENSUS_NOT_SUBGROUP_CONJUGATE = 52
