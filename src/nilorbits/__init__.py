"""Borel and parabolic conjugation orbits of 2-nilpotent elements in the
symplectic and orthogonal Lie algebras: link-pattern enumeration, orbit
representatives, rank-signature identification, and the symmetric-quiver
summand dictionary, all in exact rational arithmetic."""

from .linalg import (DomainError, GroupKind, Matrix, ORTHOGONAL, SYMPLECTIC,
                     SpaceSpec, borel_subalgebra_dim, form_matrix,
                     group_member, is_two_nilpotent, lie_algebra_dim,
                     lie_member, matrix_from_json, matrix_to_json,
                     orbit_dimension, parabolic_dim, rank)
from .patterns import (Arc, LinkPattern, consumption, count_borel, dotted,
                       enumerate_patterns, glue, is_nilradical, lower_loop,
                       pattern_from_json, pattern_to_json, strip_orientation,
                       undotted, unoriented_loop, upper_loop, validate)
from .correspondence import (MalformedInputError, RankSignature, identify,
                             identify_parabolic, parabolic_representative,
                             pattern_to_matrix, rank_signature, refine,
                             tex_matrix, tex_pattern, tex_table)
from .quiver import (ARSequence, Summand, SymmetricPiece, SymmetricRep,
                     ar_sequences, catalog, dimension_vector, dual,
                     pattern_to_summands, realize_flag, realize_isotropic_flag,
                     symmetric_endo_dim, total_dimension_vector)
from .harness import (SuiteConfig, brute_force_count, exp_nilpotent,
                      random_group_element_pair, run_suite)

__version__ = "0.1.0"

__all__ = [
    # linalg
    "DomainError", "GroupKind", "Matrix", "ORTHOGONAL", "SYMPLECTIC",
    "SpaceSpec", "borel_subalgebra_dim", "form_matrix",
    "group_member", "is_two_nilpotent", "lie_algebra_dim", "lie_member",
    "matrix_from_json", "matrix_to_json", "orbit_dimension", "parabolic_dim",
    "rank",
    # patterns
    "Arc", "LinkPattern", "consumption", "count_borel", "dotted",
    "enumerate_patterns", "glue", "is_nilradical", "lower_loop",
    "pattern_from_json", "pattern_to_json", "strip_orientation", "undotted",
    "unoriented_loop", "upper_loop", "validate",
    # correspondence
    "MalformedInputError", "RankSignature", "identify", "identify_parabolic",
    "parabolic_representative", "pattern_to_matrix", "rank_signature",
    "refine", "tex_matrix", "tex_pattern", "tex_table",
    # quiver
    "ARSequence", "Summand", "SymmetricPiece", "SymmetricRep", "ar_sequences",
    "catalog", "dimension_vector", "dual", "pattern_to_summands",
    "realize_flag", "realize_isotropic_flag", "symmetric_endo_dim",
    "total_dimension_vector",
    # harness
    "SuiteConfig", "brute_force_count", "exp_nilpotent",
    "random_group_element_pair", "run_suite",
]
