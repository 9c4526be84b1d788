"""Relation-span duality certificate on the 18-dimensional pairing space."""

from fractions import Fraction

from trioperad.duality import (
    DEND_GENERATORS,
    DIMENSION,
    TRI_GENERATORS,
    _complement_matches,
    basis_index,
    basis_labels,
    certify_duality,
    dendriform_relation_vectors,
    duality_pairing,
    negative_control_scheme,
    relation_vectors,
    trialgebra_relation_vectors,
)
from trioperad.linear import rank

PINNED_MATRIX_SHA = "6164d69363dd51df244677c7b350ffc4aa09bb6f018422da7260479a486793a8"


def test_dimension_and_index():
    assert DIMENSION == 18
    seen = {
        basis_index(slot, outer, inner)
        for slot in (1, 2)
        for outer in range(3)
        for inner in range(3)
    }
    assert seen == set(range(18))
    assert basis_index(1, 0, 0) == 0
    assert basis_index(2, 2, 2) == 17
    assert len(basis_labels(TRI_GENERATORS)) == 18
    assert len(basis_labels(DEND_GENERATORS)) == 18


def test_relation_vector_counts_and_ranks():
    tri = trialgebra_relation_vectors()
    dend = dendriform_relation_vectors()
    assert len(tri) == 11
    assert len(dend) == 7
    assert rank(tri) == 11
    assert rank(dend) == 7
    assert all(len(v) == 18 for v in tri + dend)


def test_star_expansion_in_dendriform_vectors():
    # relation 1: (x prec y) prec z = x prec (y star z) -- the star side
    # fans out into three slot-2 entries, so 4 nonzero entries in all
    v = dendriform_relation_vectors()[0]
    assert sum(1 for c in v if c) == 4


def test_pairing_of_first_vectors_is_zero():
    tri = trialgebra_relation_vectors()
    dend = dendriform_relation_vectors()
    assert duality_pairing(tri[0], dend[0]) == 0


def test_certificate():
    cert = certify_duality()
    assert cert["passed"]
    assert cert["dimension"] == 18
    assert tuple(cert["pairing_convention"]) == (1, -1)
    assert cert["rank_trialgebra_relations"] == 11
    assert cert["rank_dendriform_relations"] == 7
    assert cert["orthogonal"]
    assert cert["pairing_nondegenerate"]
    assert cert["complement_matches"]
    assert cert["negative_control_breaks"]


def test_pairing_matrix_is_zero_11_by_7():
    cert = certify_duality()
    matrix = cert["pairing_matrix"]
    assert len(matrix) == 11
    assert all(len(row) == 7 for row in matrix)
    assert all(v == 0 for row in matrix for v in row)
    assert cert["pairing_matrix_sha256"] == PINNED_MATRIX_SHA


def test_associative_diagonal():
    cert = certify_duality()
    diag = cert["associative_diagonal"]
    assert diag["passed"]
    assert diag["relations_collapse_to_associativity"]
    assert diag["star_associativity_in_relation_span"]


def test_relation_statements_listed():
    cert = certify_duality()
    assert len(cert["trialgebra_relations"]) == 11
    assert len(cert["dendriform_relations"]) == 7
    assert cert["trialgebra_relations"][0] == "(x left y) left z = x left (y left z)"
    assert cert["dendriform_relations"][0] == "(x prec y) prec z = x prec (y star z)"


# ------------------------------------------------------------ complement


def test_complement_matches_the_two_schemes():
    tri = trialgebra_relation_vectors()
    dend = dendriform_relation_vectors()
    assert _complement_matches(tri, dend, (1, -1))


def test_complement_rejects_a_dropped_dendriform_vector():
    # still orthogonal, but rank 6 falls short of 18 - 11
    tri = trialgebra_relation_vectors()
    dend = dendriform_relation_vectors()[:-1]
    assert rank(dend) == 6
    assert all(duality_pairing(u, v) == 0 for u in tri for v in dend)
    assert not _complement_matches(tri, dend, (1, -1))


def test_complement_rejects_the_negative_control():
    perturbed = relation_vectors(negative_control_scheme())
    assert not _complement_matches(perturbed, dendriform_relation_vectors(), (1, -1))
