"""Tests for the form stabilizer and subgroup census: form validation,
orbit uniqueness, group structure, class enumeration, contragredient
classification."""

import hashlib
import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from galdual import constants, formstab, groupengine
from galdual.exactmat import ExactMatError, closure
from galdual.formstab import (
    _group_tables,
    _IDENT,
    AlternatingForm,
    alternating_forms,
    contragredient_census,
    contragredient_subgroup,
    dual_signature,
    duality_signature,
    form_orbit,
    format_census,
    glued_form_stabilizer,
    glued_pairing_mod2,
    principal_pairing_mod2,
    similitude_stabilizer,
    stabilizer_census,
    stabilizer_class_list,
    structure_invariants,
    subgroup_conjugacy_classes,
)
from galdual.groupengine import (
    _f2_small_generating_set,
    f2_inv,
    f2_mul,
    f2_transpose,
    gl4_elements,
    intertwiner_basis,
    invertible_line,
    matrix_subgroups_conjugate,
)
from oracles import (
    ModMatrix,
    _nullspace_mod,
    _rank_mod,
    assert_matches_reference,
    reference_duality_signature,
)


def mod2(rows):
    return ModMatrix.from_rows(rows, 2)


def zero_form():
    return AlternatingForm(0)


def _rank(form):
    return _rank_mod(ModMatrix.from_packed(form.matrix, 2).entries, 4, 2)


def packed_group(*gen_rows):
    gens = [mod2(r).packed() for r in gen_rows]
    return closure([_IDENT], gens, f2_mul, 10000)


def klein_group():
    return packed_group(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
    )


def sym3_group():
    return packed_group(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )


def dihedral8_group():
    return packed_group(
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
    )


def trivial_group():
    return frozenset({_IDENT})


def involution_group():
    # {I, a transvection}: the smallest tables, two positions per row
    return packed_group([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def elementary16_group():
    rows = []
    for i in (0, 1):
        for j in (2, 3):
            m = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
            m[i][j] = 1
            rows.append(m)
    return packed_group(*rows)


# the two smallest groups pin the edges of the table gathers
TABLE_GROUPS = [
    trivial_group,
    involution_group,
    klein_group,
    sym3_group,
    dihedral8_group,
    elementary16_group,
    glued_form_stabilizer,
]


# -- forms -----------------------------------------------------------------------


def test_glued_pairing_golden():
    j = glued_pairing_mod2()
    assert ModMatrix.from_packed(j.matrix, 2).entries == (
        (0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0)
    )
    assert _rank(j) == 2
    assert j.radical_basis() == ((1, 0, 0, 0), (0, 1, 0, 1))


def test_principal_pairing_nondegenerate():
    assert _rank(principal_pairing_mod2()) == 4
    assert _rank(zero_form()) == 0


def test_form_rejects_nonzero_diagonal():
    # a symmetric packed form with one diagonal entry set, at each of the four
    symmetric = mod2([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]).packed()
    for i in range(4):
        with pytest.raises(ValueError, match="diagonal"):
            AlternatingForm(symmetric | 1 << 5 * i)


def test_form_rejects_asymmetric():
    for rows in (
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    ):
        with pytest.raises(ValueError, match="symmetric"):
            AlternatingForm(mod2(rows).packed())


def test_form_rejects_other_modulus():
    # a negative int, a packed matrix mod 3 (too wide at l = 2) and no int
    # at all, here the mod-3 zero matrix as rows: none is a form over F_2
    for bad in (-1, 1 << 16, ModMatrix.from_rows([[0] * 4] * 4, 3)):
        with pytest.raises(ExactMatError, match="residues mod 2"):
            AlternatingForm(bad)


def test_sixty_four_forms_by_rank():
    forms = alternating_forms()
    assert len(forms) == 64
    by_rank = {}
    for f in forms:
        by_rank[_rank(f)] = by_rank.get(_rank(f), 0) + 1
        # the packed radical is the reference nullspace, echelonized alike
        rows = ModMatrix.from_packed(f.matrix, 2).entries
        assert f.radical_basis() == tuple(_nullspace_mod(rows, 4, 2))
        assert len(f.radical_basis()) == 4 - _rank(f)
    assert by_rank == {0: 1, 2: 35, 4: 28}


def test_glued_form_orbit_is_every_degenerate_nonzero_form():
    orbit = form_orbit(glued_pairing_mod2())
    rank2 = {f.matrix for f in alternating_forms() if _rank(f) == 2}
    assert orbit == rank2


def test_nondegenerate_orbit_is_every_rank_four_form():
    orbit = form_orbit(principal_pairing_mod2())
    rank4 = {f.matrix for f in alternating_forms() if _rank(f) == 4}
    assert orbit == rank4


# -- stabilizers -----------------------------------------------------------------


def test_stabilizer_orders():
    assert len(glued_form_stabilizer()) == constants.FORM_STABILIZER_ORDER
    assert len(similitude_stabilizer(principal_pairing_mod2())) == constants.SP4_F2_ORDER
    assert len(similitude_stabilizer(zero_form())) == constants.GL4_F2_ORDER


def test_similitude_stabilizer_matches_the_filter_over_gl4_on_every_form():
    # the filter the column walk replaced, g^T J g = J over all of GL4(F_2),
    # for the 64 forms at once: g^T J g is linear in J, so the image of the
    # form with bits m is the XOR of the images of the unit forms it sums
    units = [1 << (4 * i + k) | 1 << (4 * k + i) for i, k in itertools.combinations(range(4), 2)]
    forms = [0] * 64
    for m in range(1, 64):
        low = m & -m
        forms[m] = forms[m ^ low] ^ units[low.bit_length() - 1]
    assert sorted(forms) == sorted(f.matrix for f in alternating_forms())
    stabilizers = [set() for _ in forms]
    orbits = [set() for _ in forms]
    for g in gl4_elements():
        t = f2_transpose(g)
        unit_images = [f2_mul(f2_mul(t, u), g) for u in units]
        images = [0] * 64
        for m in range(1, 64):
            low = m & -m
            images[m] = images[m ^ low] ^ unit_images[low.bit_length() - 1]
        for m, image in enumerate(images):
            orbits[m].add(image)
            if image == forms[m]:
                stabilizers[m].add(g)
    for form in alternating_forms():
        m = forms.index(form.matrix)
        assert similitude_stabilizer(form) == stabilizers[m]
        assert len(orbits[m]) * len(stabilizers[m]) == constants.GL4_F2_ORDER
    assert {len(found) for found in stabilizers} == {
        constants.GL4_F2_ORDER, constants.FORM_STABILIZER_ORDER, constants.SP4_F2_ORDER
    }


def test_stabilizer_preserves_form_by_matrix_arithmetic():
    """Re-verify membership with plain ModMatrix products."""
    j = ModMatrix.from_packed(glued_pairing_mod2().matrix, 2)
    sample = sorted(glued_form_stabilizer())[::17]
    for g in sample:
        m = ModMatrix.from_packed(g, 2)
        assert m.transpose().mul(j).mul(m) == j


def test_stabilizer_is_a_group():
    stab = glued_form_stabilizer()
    ordered = sorted(stab)
    assert _IDENT in stab
    for i in range(0, len(ordered), 13):
        for k in range(0, len(ordered), 29):
            assert f2_mul(ordered[i], ordered[k]) in stab
        assert f2_inv(ordered[i]) in stab


def test_nonmember_moves_form():
    from galdual.groupengine import f2_transpose, gl4_elements

    j = glued_pairing_mod2().matrix
    stab = glued_form_stabilizer()
    outside = next(g for g in gl4_elements() if g not in stab)
    assert f2_mul(f2_mul(f2_transpose(outside), j), outside) != j


# -- structure invariants -----------------------------------------------------------


def test_structure_of_the_stabilizer():
    si = structure_invariants(glued_form_stabilizer(), form=glued_pairing_mod2())
    assert si.order == constants.FORM_STABILIZER_ORDER
    assert si.exponent == constants.FORM_STABILIZER_EXPONENT
    assert si.solvable is True
    assert si.derived_series == constants.FORM_STABILIZER_DERIVED_SERIES
    se = si.split_extension
    assert len(se.kernel) == 16
    assert len(se.complement) == 36
    assert se.projection_orders == (6, 6)
    assert se.kernel & se.complement == {_IDENT}
    products = {f2_mul(x, y) for x in se.kernel for y in se.complement}
    assert products == glued_form_stabilizer()


def test_split_complement_is_the_block_diagonal_elements():
    # the radical-adapted basis is the radical, then the first standard
    # vectors that complete it; the blocks are read from ModMatrix entries
    form = glued_pairing_mod2()
    basis = [list(v) for v in form.radical_basis()]
    for e in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
        if len(basis) < 4 and _rank_mod(basis + [e], 4, 2) > len(basis):
            basis.append(e)
    p = mod2(basis).transpose()
    p_inv = ModMatrix.from_packed(f2_inv(p.packed()), 2)

    def block_diagonal(g):
        e = p_inv.mul(ModMatrix.from_packed(g, 2)).mul(p).entries
        return not any(e[i][j] for i in (0, 1) for j in (2, 3))

    stab = glued_form_stabilizer()
    complement = structure_invariants(stab, form=form).split_extension.complement
    assert complement == frozenset(filter(block_diagonal, stab))
    assert closure([_IDENT], complement, f2_mul) == complement


def test_structure_of_sym3():
    si = structure_invariants(sym3_group())
    assert si.order == 6
    assert si.exponent == 6
    assert si.solvable is True
    assert si.derived_series == (6, 3, 1)


def test_structure_of_elementary_abelian():
    si = structure_invariants(elementary16_group())
    assert si.order == 16
    assert si.exponent == 2
    assert si.solvable is True
    assert si.derived_series == (16, 1)


def test_structure_of_dihedral():
    si = structure_invariants(dihedral8_group())
    assert (si.order, si.exponent, si.solvable) == (8, 4, True)


def test_structure_rejects_a_singular_element():
    with pytest.raises(ValueError, match="invertible"):
        structure_invariants(frozenset({_IDENT, 0}))


@pytest.mark.parametrize(
    "members", ["", "t", "Itc", "Ic"],
    ids=["empty", "involution-alone", "not-closed", "order-3-without-its-square"],
)
def test_structure_rejects_a_set_that_is_not_a_group(members):
    # t an involution and c of order 3, both in S_3
    t = next(x for x in sym3_group() if x != _IDENT and f2_mul(x, x) == _IDENT)
    c = next(x for x in sym3_group() if f2_mul(x, x) != _IDENT)
    named = {"I": _IDENT, "t": t, "c": c}
    elements = frozenset(named[m] for m in members)
    with pytest.raises(ValueError, match="not a group") as invariants:
        structure_invariants(elements)
    # the subgroup enumeration refuses the same set with the same message
    with pytest.raises(ValueError) as enumeration:
        subgroup_conjugacy_classes(elements)
    assert str(enumeration.value) == str(invariants.value)


def test_structure_invariants_accept_a_set_or_a_list():
    stab = glued_form_stabilizer()
    form = glued_pairing_mod2()
    frozen = structure_invariants(stab, form=form)
    assert structure_invariants(set(stab), form=form) == frozen
    assert structure_invariants(list(stab), form=form) == frozen


def test_structure_budget():
    from galdual.groupengine import gl4_elements

    with pytest.raises(ValueError, match="budget"):
        structure_invariants(frozenset(gl4_elements()))


# -- subgroup classes ---------------------------------------------------------------


def brute_force_subgroups(elements):
    """Closures of every subset of size <= 4 (enough for |G| <= 16)."""
    elems = sorted(elements)
    out = set()
    for r in range(5):
        for combo in itertools.combinations(elems, r):
            out.add(closure([_IDENT], combo, f2_mul, len(elems)))
    return out


def brute_force_class_count(elements, subgroups):
    inv = {g: f2_inv(g) for g in elements}
    seen = set()
    count = 0
    for h in subgroups:
        if h in seen:
            continue
        count += 1
        for g in elements:
            seen.add(frozenset(f2_mul(f2_mul(g, x), inv[g]) for x in h))
    return count


@pytest.mark.parametrize(
    "builder,expected_classes",
    [(klein_group, 5), (sym3_group, 4), (dihedral8_group, 8), (elementary16_group, 67)],
)
def test_small_group_class_counts(builder, expected_classes):
    group = builder()
    records = subgroup_conjugacy_classes(group)
    assert len(records) == expected_classes
    subgroups = brute_force_subgroups(group)
    assert brute_force_class_count(group, subgroups) == expected_classes
    assert sum(r.class_size for r in records) == len(subgroups)


def test_class_representatives_are_subgroups():
    for rec in subgroup_conjugacy_classes(dihedral8_group()):
        h = rec.representative
        assert _IDENT in h
        assert all(f2_mul(x, y) in h for x in h for y in h)
        assert rec.order == len(h)


def test_stabilizer_class_count_and_partition():
    records = stabilizer_class_list()
    assert len(records) == constants.SUBGROUP_CLASS_COUNT
    assert sum(r.class_size for r in records) == constants.TOTAL_SUBGROUP_COUNT
    for rec in records:
        assert constants.FORM_STABILIZER_ORDER % (rec.order * rec.class_size) == 0
        assert constants.FORM_STABILIZER_ORDER % rec.order == 0


def test_stabilizer_class_orders_cover_divisors():
    orders = {r.order for r in stabilizer_class_list()}
    assert 1 in orders and constants.FORM_STABILIZER_ORDER in orders
    assert all(constants.FORM_STABILIZER_ORDER % o == 0 for o in orders)


def test_large_class_representatives_are_subgroups():
    records = [r for r in stabilizer_class_list() if r.order >= 144]
    for rec in records:
        h = sorted(rec.representative)
        assert all(f2_mul(x, y) in rec.representative for x in h[:12] for y in h)


def test_enumeration_budget():
    from galdual.groupengine import gl4_elements

    with pytest.raises(ValueError, match="budget"):
        subgroup_conjugacy_classes(frozenset(gl4_elements()))


def test_enumeration_requires_identity():
    with pytest.raises(ValueError, match="identity"):
        subgroup_conjugacy_classes(frozenset({mod2(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        ).packed()}))


def test_enumeration_rejects_a_set_not_closed_under_products():
    with pytest.raises(ValueError, match="not a group"):
        subgroup_conjugacy_classes(frozenset({_IDENT, 0x8142}))


def test_enumeration_rejects_a_singular_element():
    # {I, 0} is closed under products, but 0 has no inverse
    with pytest.raises(ValueError, match="not a group"):
        subgroup_conjugacy_classes(frozenset({_IDENT, 0}))


@pytest.mark.parametrize("builder", TABLE_GROUPS)
def test_group_tables_match_f2_arithmetic(builder):
    elems = sorted(builder())
    index = {g: i for i, g in enumerate(elems)}
    mul, inv, conj = _group_tables(elems, index)
    # 16-bit rows, not tuples: every product row, conjugation rows for the
    # generators only
    assert all(row.typecode == "H" for row in [*mul, inv, *conj.values()])
    assert len(mul) == len(elems)
    assert [elems[s] for s in conj] == list(_f2_small_generating_set(frozenset(elems)))
    for i, g in enumerate(elems):
        assert [elems[k] for k in mul[i]] == [f2_mul(g, x) for x in elems]
        assert elems[inv[i]] == f2_inv(g)
    for s, row in conj.items():
        g, gi = elems[s], f2_inv(elems[s])
        assert [elems[k] for k in row] == [f2_mul(f2_mul(g, x), gi) for x in elems]
    assert closure([_IDENT], [elems[s] for s in conj], f2_mul, len(elems)) == frozenset(elems)


@pytest.mark.parametrize("builder", TABLE_GROUPS)
def test_class_sizes_are_normalizer_indices(builder):
    # N_G(H) by brute force: every g of G that conjugates each generator of
    # H into H, with products taken by f2_mul, independent of the tables
    group = builder()
    for rec in subgroup_conjugacy_classes(group):
        h = rec.representative
        hgens = _f2_small_generating_set(h)
        normalizer = [
            g for g in group
            if all(f2_mul(f2_mul(g, x), f2_inv(g)) in h for x in hgens)
        ]
        assert rec.class_size * len(normalizer) == len(group)


@pytest.mark.parametrize("builder", TABLE_GROUPS)
def test_chain_generators_generate_each_representative(builder):
    for rec in subgroup_conjugacy_classes(builder()):
        h = rec.representative
        assert set(rec.chain_generators) <= h
        assert closure([_IDENT], rec.chain_generators, f2_mul, len(h)) == h


def test_stabilizer_class_list_is_pinned():
    # sha256 of the (order, class size, sorted representative) triples,
    # recorded before the product table was composed from generator rows
    triples = [
        (r.order, r.class_size, tuple(sorted(r.representative)))
        for r in stabilizer_class_list()
    ]
    assert len(triples) == constants.SUBGROUP_CLASS_COUNT
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == (
        "c847d087715015ea35ac1ac59881d2b7e5d573657767c4d4fe1d1967531e6e60"
    )


# -- the census ---------------------------------------------------------------------


def test_census_counts():
    census = stabilizer_census()
    assert census.not_rep_equivalent == constants.CENSUS_NOT_REP_EQUIVALENT
    assert census.not_subgroup_conjugate == constants.CENSUS_NOT_SUBGROUP_CONJUGATE


def test_census_implication_and_extremes():
    census = stabilizer_census()
    non_self_dual = [r for r in census.records if not r.self_dual_as_rep]
    for rec in census.records:
        if rec.self_dual_as_rep:
            assert rec.image_conjugate_to_dual
    assert min(r.order for r in non_self_dual) == 4
    assert max(r.order for r in non_self_dual) == constants.FORM_STABILIZER_ORDER
    trivial = next(r for r in census.records if r.order == 1)
    assert trivial.self_dual_as_rep and trivial.image_conjugate_to_dual


def test_contragredient_is_involution_on_class_representatives():
    # the dual need not land back inside the stabilizer (the form is
    # degenerate, so inverse-transpose is not an inner twist of G);
    # it is still a subgroup of GL4(F_2) and the map is an involution
    for rec in stabilizer_class_list():
        dual = contragredient_subgroup(rec.representative)
        assert contragredient_subgroup(dual) == rec.representative
        assert _IDENT in dual
        ordered = sorted(dual)
        assert all(f2_mul(x, y) in dual for x in ordered[:6] for y in ordered[:6])


def test_census_of_commuting_involutions_is_self_dual():
    j = glued_pairing_mod2()
    records = subgroup_conjugacy_classes(klein_group())
    result = contragredient_census(records, j)
    assert (result.not_rep_equivalent, result.not_subgroup_conjugate) == (0, 0)


def test_census_verdicts_match_exhaustive_scan():
    # the GL4(F_2) scan the census used to run on every class checks the
    # verdicts it now draws from witnesses and the duality signature
    census = stabilizer_census()
    assert [r.representative for r in census.records] == [
        r.representative for r in stabilizer_class_list()
    ]
    for rec in census.records:
        h = rec.representative
        assert rec.image_conjugate_to_dual == matrix_subgroups_conjugate(
            h, contragredient_subgroup(h), _f2_small_generating_set(h)
        )


def test_census_evidence_tally():
    census = stabilizer_census()
    assert census.evidence_tally == {"witness": 50, "invariant": 52, "scan": 26}
    for rec in census.records:
        if rec.conjugacy_evidence == "witness":
            assert rec.self_dual_as_rep and rec.image_conjugate_to_dual
        elif rec.conjugacy_evidence == "invariant":
            assert not rec.self_dual_as_rep and not rec.image_conjugate_to_dual
        else:
            assert rec.conjugacy_evidence == "scan"
            assert not rec.self_dual_as_rep


def test_packed_intertwiner_matches_the_generic_solver_on_every_class():
    # the census's packed solve against the reference solver of the tests,
    # on the same generator pairs
    for rec in stabilizer_class_list():
        gens = _f2_small_generating_set(rec.representative) or [_IDENT]
        pairs = [(g, f2_transpose(f2_inv(g))) for g in gens]
        basis = intertwiner_basis(2, pairs)
        assert_matches_reference(2, pairs, basis, invertible_line(2, basis))


def test_census_from_chain_generators_matches_the_small_generating_sets():
    # the census reads each class's chain generators; the generating sets
    # _f2_small_generating_set searches must give the same verdicts, the
    # same evidence and the same signatures
    census = stabilizer_census()
    searched = contragredient_census(
        [
            replace(rec, chain_generators=_f2_small_generating_set(rec.representative))
            for rec in stabilizer_class_list()
        ],
        glued_pairing_mod2(),
    )
    verdicts = [
        (r.representative, r.self_dual_as_rep, r.image_conjugate_to_dual, r.conjugacy_evidence)
        for r in census.records
    ]
    assert verdicts == [
        (r.representative, r.self_dual_as_rep, r.image_conjugate_to_dual, r.conjugacy_evidence)
        for r in searched.records
    ]
    for rec in stabilizer_class_list():
        h = rec.representative
        sig = duality_signature(h, h)  # every element tested for invariance
        assert duality_signature(h, rec.chain_generators) == sig
        assert duality_signature(h, _f2_small_generating_set(h)) == sig


def test_census_searches_no_generating_set(monkeypatch):
    # every verdict, the 26 scans included, reads the chain generators
    classes = stabilizer_class_list()
    calls = []

    def counted(elements):
        calls.append(elements)
        return _f2_small_generating_set(elements)

    monkeypatch.setattr(groupengine, "_f2_small_generating_set", counted)
    monkeypatch.setattr(formstab, "_f2_small_generating_set", counted)
    census = contragredient_census(classes, glued_pairing_mod2())
    assert census.evidence_tally["scan"] == 26
    assert calls == []


def test_census_rejects_a_witness_that_does_not_conjugate(monkeypatch):
    # the identity is invertible but maps no transvection group of the
    # Klein group onto its transpose
    monkeypatch.setattr(formstab, "invertible_line", lambda ell, basis: _IDENT)
    records = subgroup_conjugacy_classes(klein_group())
    with pytest.raises(AssertionError, match="does not conjugate"):
        contragredient_census(records, glued_pairing_mod2())


def test_duality_signature_matches_the_per_element_reference():
    # the (ker, im) mask tally against the signature computed element by
    # element, on every class and on its contragredient
    for rec in stabilizer_class_list():
        for h in (rec.representative, contragredient_subgroup(rec.representative)):
            gens = _f2_small_generating_set(h)
            assert duality_signature(h, gens) == reference_duality_signature(h, gens)


def test_census_gives_the_trivial_class_the_identity_as_witness(monkeypatch):
    # {I} has no chain generators: no intertwiner is solved for it
    monkeypatch.setattr(formstab, "intertwiner_basis", None)
    trivial = subgroup_conjugacy_classes(trivial_group())
    result = contragredient_census(trivial, glued_pairing_mod2())
    (rec,) = result.records
    assert rec.self_dual_as_rep and rec.image_conjugate_to_dual
    assert rec.conjugacy_evidence == "witness"


def test_duality_signature_of_the_trivial_group_lists_every_subspace():
    sig = duality_signature(frozenset({_IDENT}), ())
    dims = [d for d, _, _ in sig]
    assert (dims.count(1), dims.count(2), dims.count(3)) == (15, 35, 15)
    assert all(kw == kq == 1 for _, kw, kq in sig)


def test_duality_signature_of_the_dual_is_the_dual_signature():
    # soundness of the invariant: annihilators carry the H-invariant
    # subspaces onto the H*-invariant ones with both kernels swapped
    for rec in stabilizer_class_list():
        h = rec.representative
        dual = contragredient_subgroup(h)
        assert duality_signature(dual, dual) == dual_signature(duality_signature(h, h))


def test_census_listing_is_pinned():
    # sha256 of the full 419-line listing, recorded before the closure and
    # generating-set routines were merged
    text = format_census(stabilizer_census())
    assert len(text.splitlines()) == 419
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "92f75babe3fc9f537fbf7c01e7a7558c02e54aeca84297b61d6a946bd91218f1"
    )


def test_census_report_grammar():
    text = format_census(stabilizer_census())
    assert text == format_census(stabilizer_census())
    head = re.compile(r"^order=\d+ rep_equiv=(true|false) subgrp_conj=(true|false)$")
    gen = re.compile(r"^  gen [01](,[01]){3}(;[01](,[01]){3}){3}$")
    heads = 0
    last_order = 0
    for line in text.strip("\n").split("\n"):
        if line.startswith("  gen "):
            assert gen.match(line), line
        else:
            assert head.match(line), line
            heads += 1
            order = int(line.split()[0].split("=")[1])
            assert order >= last_order
            last_order = order
    assert heads == constants.SUBGROUP_CLASS_COUNT


# -- property battery ----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_property_stabilizer_closed_and_form_preserving(seed):
    import random

    rng = random.Random(seed)
    stab = sorted(glued_form_stabilizer())
    j = ModMatrix.from_packed(glued_pairing_mod2().matrix, 2)
    g, h = rng.choice(stab), rng.choice(stab)
    prod = f2_mul(g, h)
    assert prod in glued_form_stabilizer()
    m = ModMatrix.from_packed(prod, 2)
    assert m.transpose().mul(j).mul(m) == j


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_property_contragredient_involution_elementwise(seed):
    import random

    from galdual.groupengine import f2_transpose, gl4_elements

    rng = random.Random(seed)
    g = rng.choice(gl4_elements())
    assert f2_transpose(f2_inv(f2_transpose(f2_inv(g)))) == g
