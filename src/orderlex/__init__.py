"""Exact-arithmetic invariants of mapping tori of free-group automorphisms.

The package computes classical and twisted Alexander polynomials of the
mapping torus of a certified free-group automorphism, cross-checks twisted
polynomials against finite-cover classical polynomials, and turns root data
into bi-orderability verdicts.  Everything runs over exact rationals; no
floating point enters any reported value.
"""

from .autos import (
    automorphism,
    figure_eight_monodromy,
    identity_automorphism,
    standard_battery,
)
from .covers import CoverData, build_cover, cover_alexander, verify_shapiro
from .errors import (
    CertificationError,
    ConsistencyError,
    EnumerationLimitError,
    IllDefinedHomomorphismError,
    ManifestError,
    OrderlexError,
    RepresentationError,
    SelectorError,
    SingularMatrixError,
    WordParseError,
)
from .finite import (
    FiniteGroup,
    FiniteRepresentation,
    TorusHomomorphism,
    cover_degree,
    cyclic_group,
    enumerate_homomorphisms,
    homomorphism_classes,
    klein_four_group,
    regular_representation,
    small_groups_catalog,
    symmetric_group,
    trivial_group,
    trivial_representation,
)
from .freegroup import FreeEndomorphism
from .laurent import LaurentPolynomial, format_polynomial
from .linalg import PolynomialMatrix, RationalMatrix, homology_invariant_factors
from .manifest import (
    LoadedManifest,
    ManifestOptions,
    load_manifest,
    loads_manifest,
    select_homomorphism,
    select_representation,
)
from .ordering import (
    Comparison,
    DEFAULT_DEPTH,
    OrderStatus,
    OrderVerdict,
    bi_order_axiom_suite,
    clay_rolfsen_verdict,
    has_positive_real_eigenvalue,
    lemma_comm_suite,
    magnus_compare,
    magnus_expand,
    theorem2_report,
)
from .roots import sturm_positive_root_count
from .torus import (
    AlexanderResult,
    MappingTorus,
    classical_alexander,
    lemma4_check,
    lemma5_check,
    twisted_alexander,
)
from .words import FreeWord, commutator, format_word, parse_word

__version__ = "0.1.0"

__all__ = [
    "AlexanderResult",
    "CertificationError",
    "Comparison",
    "ConsistencyError",
    "CoverData",
    "DEFAULT_DEPTH",
    "EnumerationLimitError",
    "FiniteGroup",
    "FiniteRepresentation",
    "FreeEndomorphism",
    "FreeWord",
    "IllDefinedHomomorphismError",
    "LaurentPolynomial",
    "LoadedManifest",
    "ManifestError",
    "ManifestOptions",
    "MappingTorus",
    "OrderStatus",
    "OrderVerdict",
    "OrderlexError",
    "PolynomialMatrix",
    "RationalMatrix",
    "RepresentationError",
    "SelectorError",
    "SingularMatrixError",
    "TorusHomomorphism",
    "WordParseError",
    "automorphism",
    "bi_order_axiom_suite",
    "build_cover",
    "classical_alexander",
    "clay_rolfsen_verdict",
    "commutator",
    "cover_alexander",
    "cover_degree",
    "cyclic_group",
    "enumerate_homomorphisms",
    "figure_eight_monodromy",
    "format_polynomial",
    "format_word",
    "has_positive_real_eigenvalue",
    "homology_invariant_factors",
    "homomorphism_classes",
    "identity_automorphism",
    "klein_four_group",
    "lemma4_check",
    "lemma5_check",
    "lemma_comm_suite",
    "load_manifest",
    "loads_manifest",
    "magnus_compare",
    "magnus_expand",
    "parse_word",
    "regular_representation",
    "select_homomorphism",
    "select_representation",
    "small_groups_catalog",
    "standard_battery",
    "sturm_positive_root_count",
    "symmetric_group",
    "theorem2_report",
    "trivial_group",
    "trivial_representation",
    "twisted_alexander",
    "verify_shapiro",
]
