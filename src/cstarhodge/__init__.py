"""Hodge theory over finite-dimensional C*-algebras, numerically.

Chain complexes of Hilbert modules with adjointable differentials, their
Laplacians, Green operators and harmonic projections; exactness scans that
certify ellipticity of symbol sequences; and a band-limited de Rham
laboratory on the flat torus with Sobolev-type norms, an embedding
inequality and elliptic regularity.  Everything is verified against
computed residuals, never asserted.
"""

from .algebra import AlgebraSpec, AlgebraElement
from .module import ModuleSpec, ModuleVector, inner_product
from .hom import Morphism, identity_morphism, random_morphism, singular_rank
from .chain import (
    ChainComplex,
    HodgeReport,
    Parametrix,
    free_rank_of_projection,
    random_complex,
    verify_chain_map,
)
from .symbol import (
    EllipticityCertificate,
    SampleSet,
    SymbolSample,
    de_rham_symbol_sample,
    elliptic_scan,
    exactness_check,
    weighted_symbol_laplacian_check,
)
from .torus import (
    FourierMultiplier,
    TorusGeometry,
    TorusSection,
    derivative_bound_constant,
    embedding_check,
    embedding_checks,
    fourier_norm,
    harmonic_rank_report,
    norm_equivalence_constants,
    product_norm,
    random_section,
    regularity_report,
    regularity_reports,
    section_product,
    sobolev_product,
)
from .errors import (
    CStarHodgeError,
    DegreeMismatch,
    EmptySampleSet,
    GeometryMismatch,
    HypothesisViolated,
    IndexOutOfRange,
    NotACocycle,
    ParseError,
    ProjectionLeak,
    SpecMismatch,
    ValidationError,
    ZeroCoefficient,
)
from .util import rng_for

__version__ = "0.1.0"
