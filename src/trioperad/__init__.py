"""Exact-arithmetic engine for a dual pair of three-product operads.

One side is spanned by the cells of simplices (an associative family with
left, right and middle products), the other by planar trees (a splitting
of one associative product into three parts).  The package certifies the
algebraic axioms of both sides, the orthogonality of their relation
spans, the chain complexes the pairing induces, and the generating series
that count cells, all over the integers; ``Fraction`` enters only at the
API edge, as a rational scalar or a series evaluation point.
"""

from .cells import (
    LEAF,
    CubeCell,
    LeafOrientation,
    PlanarTree,
    SubsetCell,
    compositions,
    decompose,
    enumerate_cube_cells,
    enumerate_planar_trees,
    enumerate_subset_cells,
    graft,
    leaf_orientation,
    parse_cube_cell,
    parse_subset_cell,
    parse_tree,
    remove_leaf,
)
from .complexes import (
    SIMPLEX_FAMILY,
    TREE_FAMILY,
    GradedComplex,
    build_complex,
    expected_betti,
    face_convention_sweep,
    homology_ranks,
    level_dims,
    simplex_convention_sweep,
)
from .dendriform import (
    DENDRIFORM_RELATIONS,
    check_dendriform_relations,
    check_generator_spans,
    mid as dend_mid,
    prec,
    star,
    star_associativity,
    star_power,
    succ,
)
from .duality import certify_duality, duality_pairing
from .linear import LinComb, rank
from .relations import Scheme, check_scheme, relation_statement
from .series import TPoly, TSeries, f_cube, f_delta, f_stasheff, series_identities_report
from .trialgebra import (
    OPERAD_UNIT,
    TRIALGEBRA_RELATIONS,
    boundary,
    check_dg_rules,
    check_operad_axioms,
    check_trialgebra_relations,
    gamma,
    tri_left,
    tri_mid,
    tri_right,
)

__version__ = "0.1.0"

__all__ = [
    "LEAF",
    "CubeCell",
    "DENDRIFORM_RELATIONS",
    "GradedComplex",
    "LeafOrientation",
    "LinComb",
    "OPERAD_UNIT",
    "PlanarTree",
    "SIMPLEX_FAMILY",
    "Scheme",
    "SubsetCell",
    "TPoly",
    "TREE_FAMILY",
    "TRIALGEBRA_RELATIONS",
    "TSeries",
    "boundary",
    "build_complex",
    "certify_duality",
    "check_dendriform_relations",
    "check_dg_rules",
    "check_generator_spans",
    "check_operad_axioms",
    "check_scheme",
    "check_trialgebra_relations",
    "compositions",
    "decompose",
    "dend_mid",
    "duality_pairing",
    "enumerate_cube_cells",
    "enumerate_planar_trees",
    "enumerate_subset_cells",
    "expected_betti",
    "f_cube",
    "f_delta",
    "f_stasheff",
    "face_convention_sweep",
    "gamma",
    "graft",
    "homology_ranks",
    "leaf_orientation",
    "level_dims",
    "parse_cube_cell",
    "parse_subset_cell",
    "parse_tree",
    "prec",
    "rank",
    "relation_statement",
    "remove_leaf",
    "series_identities_report",
    "simplex_convention_sweep",
    "star",
    "star_associativity",
    "star_power",
    "succ",
    "tri_left",
    "tri_mid",
    "tri_right",
]
