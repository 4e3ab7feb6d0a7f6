"""Borel and parabolic conjugation orbits of 2-nilpotent elements in the
symplectic and orthogonal Lie algebras: link-pattern enumeration, orbit
representatives, rank-signature identification, and the symmetric-quiver
summand dictionary, all in exact rational arithmetic."""

from .linalg import (DomainError, GroupKind, Matrix, ORTHOGONAL, SYMPLECTIC,
                     SpaceSpec, borel_subalgebra_dim, centralizer_dim_in,
                     form_matrix, group_member, is_two_nilpotent, jay,
                     lie_algebra_basis, lie_algebra_dim, lie_member,
                     matrix_from_json, matrix_to_json, nullspace,
                     orbit_dimension, parabolic_dim, rank, star)
from .patterns import (Arc, LinkPattern, consumption, count_borel, dotted,
                       enumerate_patterns, glue, is_nilradical, lower_loop,
                       pattern_from_json, pattern_to_json, strip_orientation,
                       undotted, unoriented_loop, upper_loop, validate)
from .correspondence import (MalformedInputError, RankSignature, identify,
                             identify_parabolic, parabolic_representative,
                             pattern_to_matrix, rank_signature, refine,
                             tex_matrix, tex_pattern, tex_table)
from .quiver import (ARSequence, Cminus, Cplus, Dminus, Dplus, M, Mstar,
                     SkipRecord, Summand, SymmetricPiece, SymmetricRep,
                     Zminus, Zplus, ar_sequences, ar_skipped, catalog,
                     coefficient_quiver_dot, dimension_vector, dual,
                     flag_to_representation, pattern_to_summands,
                     realize_flag, realize_isotropic_flag, symmetric_endo_dim,
                     total_dimension_vector)
from .harness import (SuiteConfig, brute_force_count, exp_nilpotent,
                      random_group_element_pair, run_suite)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
