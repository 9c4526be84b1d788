"""Relation-span duality certificate on the 18-dimensional pairing space."""

import pytest

from trioperad.dendriform import DENDRIFORM_SCHEME
from trioperad.duality import (
    DIMENSION,
    _associative_diagonal_report,
    _complement_matches,
    basis_index,
    certify_duality,
    duality_pairing,
    negative_control_scheme,
    relation_vectors,
)
from trioperad.linear import rank
from trioperad.trialgebra import TRIALGEBRA_SCHEME

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
    for outer, inner in [(3, 0), (0, -1), (-1, 2), (2, 3)]:
        with pytest.raises(ValueError, match="generator indices"):
            basis_index(1, outer, inner)


@pytest.mark.parametrize(
    "call, why", [(lambda: basis_index(3, 0, 0), "slot must be 1 or 2")], ids=["slot"]
)
def test_guards_refuse_an_index_outside_the_space(call, why):
    with pytest.raises(ValueError, match=why):
        call()


def test_relation_vector_counts_and_ranks():
    tri = relation_vectors(TRIALGEBRA_SCHEME)
    dend = relation_vectors(DENDRIFORM_SCHEME)
    assert len(tri) == 11
    assert len(dend) == 7
    assert rank(tri) == 11
    assert rank(dend) == 7
    assert all(len(v) == 18 for v in tri + dend)


def test_star_expansion_in_dendriform_vectors():
    # relation 1: (x prec y) prec z = x prec (y star z) -- the star side
    # fans out into three slot-2 entries, so 4 nonzero entries in all
    v = relation_vectors(DENDRIFORM_SCHEME)[0]
    assert sum(1 for c in v if c) == 4


def test_pairing_of_first_vectors_is_zero():
    tri = relation_vectors(TRIALGEBRA_SCHEME)
    dend = relation_vectors(DENDRIFORM_SCHEME)
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


def test_collapse_half_holds_for_the_negative_control():
    # the collapse half holds by the vector encoding for every row without
    # the sum symbol; only star associativity in the tree span can fail
    dend = relation_vectors(DENDRIFORM_SCHEME)
    perturbed = relation_vectors(negative_control_scheme())
    report = _associative_diagonal_report(perturbed, dend, rank(dend))
    assert report["relations_collapse_to_associativity"]
    report = _associative_diagonal_report(perturbed, dend[:-1], rank(dend[:-1]))
    assert report["relations_collapse_to_associativity"]
    assert not report["star_associativity_in_relation_span"]


def test_relation_statements_listed():
    cert = certify_duality()
    assert len(cert["trialgebra_relations"]) == 11
    assert len(cert["dendriform_relations"]) == 7
    assert cert["trialgebra_relations"][0] == "(x left y) left z = x left (y left z)"
    assert cert["dendriform_relations"][0] == "(x prec y) prec z = x prec (y star z)"


# ------------------------------------------------------------ complement


def _orthogonal(us, vs):
    return all(duality_pairing(u, v) == 0 for u in us for v in vs)


def test_complement_matches_the_two_schemes():
    tri = relation_vectors(TRIALGEBRA_SCHEME)
    dend = relation_vectors(DENDRIFORM_SCHEME)
    assert _complement_matches(tri, dend, _orthogonal(tri, dend))


def test_complement_rejects_a_dropped_dendriform_vector():
    # still orthogonal, but rank 6 falls short of 18 - 11
    tri = relation_vectors(TRIALGEBRA_SCHEME)
    dend = relation_vectors(DENDRIFORM_SCHEME)[:-1]
    assert rank(dend) == 6
    assert _orthogonal(tri, dend)
    assert not _complement_matches(tri, dend, True)


def test_complement_rejects_the_negative_control():
    perturbed = relation_vectors(negative_control_scheme())
    dend = relation_vectors(DENDRIFORM_SCHEME)
    assert not _complement_matches(perturbed, dend, _orthogonal(perturbed, dend))
