"""Per-block harmonic_basis and kernel_intersection_check against the shadow.

The reference functions below work on dense shadow matrices
(Morphism.embed): they confine the stacked operators to the module through
an orthonormal basis Q of the range of its shadow projection and take one
SVD of the confined stack, cutting at cutoff times its largest singular
value.  The per-block versions must span the same harmonic space and count
the same nullities.
"""

import numpy as np
import pytest

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex, random_complex
from cstarhodge.hom import Morphism, identity_morphism, random_morphism, singular_rank
from cstarhodge.module import ModuleSpec
from cstarhodge.util import rng_for
from test_hom import ORACLE_ALGEBRAS, _projective

CUTOFF = 1e-10


def _frame(cx, i):
    """Orthonormal columns Q spanning module i in vec coordinates."""
    ident = identity_morphism(cx.modules[i]).embed()
    if cx.modules[i].projection is None:
        return np.eye(ident.shape[0], dtype=complex)
    w, v = np.linalg.eigh(ident)
    return v[:, w > 0.5]


def _null_columns(cx, i, mats, cutoff):
    """Orthonormal columns spanning the vectors of module i that every shadow in mats kills."""
    q = _frame(cx, i)
    stack = np.vstack(mats) @ q
    if not stack.any():
        return q
    _, s, vh = np.linalg.svd(stack)
    rank, _ = singular_rank(s, cutoff)
    return q @ vh[rank:].conj().T


def shadow_harmonic_basis(cx, i, cutoff):
    """Columns: an orthonormal basis of Ker L_i inside the module, in vec coordinates."""
    return _null_columns(cx, i, [cx.laplacian(i).embed()], cutoff)


def shadow_intersection_nullity(cx, i, cutoff):
    """dim (Ker D_i cap Ker D_{i-1}* inside the module) from one confined SVD."""
    d_out = cx.differential(i).embed()
    d_in_adj = cx.differential(i - 1).adjoint().embed()
    return _null_columns(cx, i, [d_out, d_in_adj], cutoff).shape[1]


def _projective_complex(alg, rng):
    """G0 -> G1 -> G2 over projective modules: D1 kills the range of D0."""
    mods = [_projective(alg, r, rng) for r in (2, 3, 2)]
    d0 = random_morphism(mods[0], mods[1], rng)
    off_range = identity_morphism(mods[1]) - d0 @ d0.pseudoinverse(CUTOFF)
    d1 = random_morphism(mods[1], mods[2], rng) @ off_range
    return ChainComplex(mods, [d0, d1])


def _complexes(alg, rng):
    out = [random_complex(rng, algebra=alg)[0] for _ in range(3)]
    out.append(_projective_complex(alg, rng))
    # zero differentials: every vector is harmonic, a zero Laplacian included
    free, proj = ModuleSpec(alg, 2), _projective(alg, 2, rng)
    out.append(ChainComplex([free, proj], [Morphism.zero(free, proj)]))
    out.append(ChainComplex([proj, ModuleSpec(alg, 0), free], [
        Morphism.zero(proj, ModuleSpec(alg, 0)), Morphism.zero(ModuleSpec(alg, 0), free),
    ]))
    return out


def _projector(columns, size):
    if columns.shape[1] == 0:
        return np.zeros((size, size), dtype=complex)
    return columns @ columns.conj().T


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_per_block_diagnostics_match_stacked_shadow(blocks):
    alg = AlgebraSpec(blocks)
    rng = rng_for(5, "diagnostics-oracle", len(blocks) * 10 + blocks[0])
    projective_degrees = 0
    for cx in _complexes(alg, rng):
        for i, mod in enumerate(cx.modules):
            projective_degrees += mod.projection is not None
            size = mod.rank * alg.dim
            basis = cx.harmonic_basis(i, CUTOFF)
            oracle = shadow_harmonic_basis(cx, i, CUTOFF)
            assert len(basis) == oracle.shape[1]
            cols = np.array([h.vec() for h in basis], dtype=complex).reshape(len(basis), size).T
            assert np.allclose(cols.conj().T @ cols, np.eye(len(basis)), atol=1e-10)
            assert np.allclose(_projector(cols, size), _projector(oracle, size), atol=1e-10)
            rep = cx.kernel_intersection_check(i, CUTOFF)
            assert rep["intersection_nullity"] == shadow_intersection_nullity(cx, i, CUTOFF)
    assert projective_degrees >= 5


def test_near_identity_projective_module_keeps_its_harmonics():
    # the projection is the identity up to roundoff, so with a zero map every
    # vector of degree 1 is harmonic; the roundoff in 1 - P_b must not set the cut
    alg = AlgebraSpec((1,))
    free, proj = ModuleSpec(alg, 2), _projective(alg, 2, rng_for(5, "diagnostics-near-one", 0))
    assert 0.0 < np.abs(np.eye(2) - proj.projection[0]).max() < 1e-14
    cx = ChainComplex([free, proj], [Morphism.zero(free, proj)])
    rep = cx.kernel_intersection_check(1, CUTOFF)
    assert rep["laplacian_nullity"] == rep["intersection_nullity"] == 2
    assert len(cx.harmonic_basis(1, CUTOFF)) == cx.cohomology_report(1).harmonic_dim == 2
    assert shadow_harmonic_basis(cx, 1, CUTOFF).shape[1] == 2


def test_kernel_cut_is_global_over_blocks():
    # the M2 block of D lies far below cutoff times the largest singular value
    # over all blocks, so there it counts as zero, as in cohomology_report
    alg = AlgebraSpec((1, 2))
    one = ModuleSpec(alg, 1)
    cx = ChainComplex([one, one], [Morphism(one, one, [np.eye(1), 1e-12 * np.eye(2)])])
    for i in range(2):
        rep = cx.kernel_intersection_check(i, CUTOFF)
        assert rep["laplacian_nullity"] == rep["intersection_nullity"] == 4
        assert len(cx.harmonic_basis(i, CUTOFF)) == cx.cohomology_report(i).harmonic_dim == 4
        assert shadow_harmonic_basis(cx, i, CUTOFF).shape[1] == 4
