"""Isotypic decomposition of equivariant vector bundles over finite G-sets.

The package computes, for a finite group G with a normal subgroup A:
exact character tables, the G-action on Irr(A) with stabilizers and
obstruction 2-cocycles, rank decompositions of equivariant K-theory at a
point, fiberwise verification of the bundle decomposition over finite
G-sets, and generator-count series for equivariant unitary bordism of
adjacent families of subgroups.
"""

from .cyclotomic import Cyclotomic
from .groups import (FiniteGroup, QuotientGroup, Subgroup,
                     group_from_generators)
from .characters import (CharacterTable, ClassFunction, character_table,
                         inner_product, restrict)
from .repmatrices import (MatrixRep, ObstructionRecord, intertwiner,
                          matrix_irreps, obstruction_cocycle)
from .orbits import (DecompositionReport, IrrOrbitRecord, extension_exists,
                     irr_action, k_decomposition_report, omega_regular_count,
                     orbit_decomposition)
from .bundles import (EquivariantBundle, GSet, fiber_character,
                      induction_piece_character, verify_decomposition)
from .bordism import (PowerSeries, RankProfile, adjacent_family_series,
                      bu_generator_series, d2p_certify, enumerate_arrays,
                      global_generator_series, omega_generator_series,
                      rank_profile)

__all__ = [
    "Cyclotomic",
    "FiniteGroup", "QuotientGroup", "Subgroup", "group_from_generators",
    "CharacterTable", "ClassFunction", "character_table",
    "inner_product", "restrict",
    "MatrixRep", "ObstructionRecord", "intertwiner", "matrix_irreps",
    "obstruction_cocycle",
    "DecompositionReport", "IrrOrbitRecord", "extension_exists", "irr_action",
    "k_decomposition_report", "omega_regular_count", "orbit_decomposition",
    "EquivariantBundle", "GSet", "fiber_character",
    "induction_piece_character", "verify_decomposition",
    "PowerSeries", "RankProfile", "adjacent_family_series",
    "bu_generator_series", "d2p_certify", "enumerate_arrays",
    "global_generator_series", "omega_generator_series", "rank_profile",
]

__version__ = "0.1.0"
