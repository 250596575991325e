"""Per-block harmonic_basis and kernel_intersection_check against the shadow.

The reference functions below are the earlier implementations of the two
diagnostics, which stack dense shadow matrices (Morphism.embed) and take one
SVD of the stack.  The per-block versions must span the same harmonic space
and count the same nullities.
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


def _membership_rows(cx, i):
    """Rows whose kernel is the projective submodule (None when free)."""
    mod = cx.modules[i]
    if mod.projection is None:
        return None
    ident = identity_morphism(mod).embed()
    return np.eye(ident.shape[0]) - ident


def _stack(cx, i, mats):
    member = _membership_rows(cx, i)
    return np.vstack(mats + ([member] if member is not None else []))


def shadow_harmonic_basis(cx, i, cutoff):
    """Columns: an orthonormal basis of Ker L_i inside the module, in vec coordinates."""
    stack = _stack(cx, i, [cx.laplacian(i).embed()])
    if stack.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if not stack.any():
        return np.eye(stack.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(stack)
    rank, _ = singular_rank(s, cutoff)
    return vh[rank:].conj().T


def shadow_intersection_nullity(cx, i, cutoff):
    """dim (Ker D_i cap Ker D_{i-1}* inside the module) from one stacked SVD."""
    d_out = cx.differential(i).embed()
    d_in_adj = cx.differential(i - 1).adjoint().embed()
    stack = _stack(cx, i, [d_out, d_in_adj])
    if stack.shape[1] == 0:
        return 0
    if not stack.any():
        return cx.modules[i].concrete_dim
    s = np.linalg.svd(stack, compute_uv=False)
    rank, _ = singular_rank(s, cutoff)
    # the membership rows already confine the kernel to the submodule
    return stack.shape[1] - rank


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
