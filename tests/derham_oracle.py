"""The assembled de Rham complex of a torus geometry: the oracle for the per-mode path.

All modes are stacked into one module per degree (the form fiber tiled
num_modes times) and the differential is block diagonal, wedging with
2 pi i q in mode q's block.  harmonic_rank_report never builds this; tests
compare its per-mode stacks against it.
"""

import numpy as np

from cstarhodge.chain import ChainComplex
from cstarhodge.hom import Morphism, identity_morphism
from cstarhodge.module import ModuleSpec, ModuleVector
from cstarhodge.symbol import _scalar_mats, de_rham_symbol_coeffs, tiled_module
from cstarhodge.torus import TorusGeometry, TorusSection, _side_by_side


def total_module(geometry: TorusGeometry, degree: int) -> ModuleSpec:
    """All modes stacked: the degree-k module of the assembled complex."""
    return tiled_module(geometry.form_fiber(degree), geometry.num_modes)


def de_rham_differential(geometry: TorusGeometry, degree: int) -> Morphism:
    """Assembled degree-k differential: per mode, wedge with 2 pi i q."""
    n = geometry.dimension
    r = geometry.fiber.rank
    src = total_module(geometry, degree)
    tgt = total_module(geometry, degree + 1)
    m_src = geometry.form_fiber(degree).rank
    m_tgt = geometry.form_fiber(degree + 1).rank
    coeffs = np.zeros((src.rank, tgt.rank), dtype=complex)
    for idx, q in enumerate(geometry.modes):
        coeffs[
            idx * m_src : (idx + 1) * m_src, idx * m_tgt : (idx + 1) * m_tgt
        ] = de_rham_symbol_coeffs(n, degree, q, r)
    d = Morphism(src, tgt, _scalar_mats(coeffs, geometry.algebra.block_sizes))
    # on a projective fiber the symbol maps are followed by the target's projection
    return identity_morphism(tgt) @ d if tgt.projection is not None else d


def de_rham_complex(geometry: TorusGeometry) -> ChainComplex:
    modules = [total_module(geometry, k) for k in range(geometry.dimension + 1)]
    diffs = [de_rham_differential(geometry, k) for k in range(geometry.dimension)]
    return ChainComplex(modules, diffs)


def section_as_total_vector(s: TorusSection) -> ModuleVector:
    """Flatten a section into the assembled module of its degree."""
    return ModuleVector(total_module(s.geometry, s.degree), [_side_by_side(b) for b in s.rows])
