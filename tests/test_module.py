import numpy as np
import pytest

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.errors import SpecMismatch
from cstarhodge.module import ModuleSpec, ModuleVector, act, inner_product
from cstarhodge.util import rng_for


def test_free_module_dims():
    alg = AlgebraSpec((2, 1))
    mod = ModuleSpec(alg, 3)
    assert mod.concrete_dim == 3 * alg.dim


def test_projection_validation():
    alg = AlgebraSpec((2,))
    good = np.diag([1.0, 0.0]).astype(complex)
    mod = ModuleSpec(alg, 1, projection=(good,))
    assert mod.concrete_dim == 2  # trace 1 in a 2x2 block contributes nb * tr

    bad = np.array([[0.5, 0.5], [0.0, 0.5]]).astype(complex)  # not self-adjoint
    with pytest.raises(SpecMismatch):
        ModuleSpec(alg, 1, projection=(bad,))


def test_action_matches_concrete():
    alg = AlgebraSpec((2,))
    mod = ModuleSpec(alg, 2)
    rng = rng_for(1, "module-act", 0)
    for _ in range(20):
        a = alg.random(rng)
        u = mod.random_vector(rng)
        # concrete shadow: block-diagonal left multiplication entrywise
        got = act(a, u)
        for i in range(mod.rank):
            want = a.blocks[0] @ u.blocks[0][i]
            assert np.allclose(got.blocks[0][i], want, atol=1e-13)
        assert np.allclose(got.vec(), np.kron(np.eye(mod.rank), a.embed()) @ u.vec(), atol=1e-12)


def test_inner_product_unit():
    alg = AlgebraSpec((1,))
    mod = ModuleSpec(alg, 1)
    u = mod.vector([alg.unit()])
    g = inner_product(u, u)
    assert abs(g.blocks[0][0, 0] - 1.0) < 1e-15


def test_inner_product_oracle():
    alg = AlgebraSpec((2,))
    mod = ModuleSpec(alg, 2)
    rng = rng_for(1, "module-inner", 0)
    for _ in range(20):
        u, v = mod.random_vector(rng), mod.random_vector(rng)
        want = sum(
            v.blocks[0][i] @ u.blocks[0][i].conj().T for i in range(mod.rank)
        )
        assert np.allclose(inner_product(u, v).blocks[0], want, atol=1e-13)


def test_inner_product_sesquilinearity():
    alg = AlgebraSpec((2, 1))
    mod = ModuleSpec(alg, 3)
    rng = rng_for(1, "module-sesq", 0)
    a = alg.random(rng)
    u, v = mod.random_vector(rng), mod.random_vector(rng)
    lhs = inner_product(act(a, u), v)
    rhs = inner_product(u, v) * a.star()
    assert (lhs - rhs).norm() < 1e-12
    lhs2 = inner_product(u, act(a, v))
    rhs2 = a * inner_product(u, v)
    assert (lhs2 - rhs2).norm() < 1e-12


def test_norm_basis_vector():
    alg = AlgebraSpec((1,))
    mod = ModuleSpec(alg, 2)
    u = mod.vector([alg.unit(), alg.zero()])
    assert abs(u.norm() - 1.0) < 1e-15


def test_norm_equals_trace_pairing_bound():
    # |u|^2 = |(u,u)|_A, and the flattened shadow vector has hermitian length
    # tr((u,u)) with block weights, so norms agree for rank-one positive grams
    alg = AlgebraSpec((2,))
    mod = ModuleSpec(alg, 2)
    rng = rng_for(1, "module-norm", 0)
    for _ in range(10):
        u = mod.random_vector(rng)
        g = inner_product(u, u)
        assert g.is_positive(1e-9)
        assert abs(u.norm() - np.sqrt(g.norm())) < 1e-12


def test_vec_roundtrip():
    alg = AlgebraSpec((2, 1))
    mod = ModuleSpec(alg, 2)
    rng = rng_for(1, "module-vec", 0)
    u = mod.random_vector(rng)
    v = mod.from_vec(u.vec())
    assert (u - v).norm() < 1e-14


def test_projective_membership():
    alg = AlgebraSpec((2,))
    p = np.diag([1.0, 0.0]).astype(complex)
    mod = ModuleSpec(alg, 1, projection=(p,))
    rng = rng_for(1, "module-proj", 0)
    u = mod.random_vector(rng)
    assert mod.contains(u)
    # the projection acts on the right, so the complement column vanishes
    assert np.allclose(u.blocks[0][0][:, 1], 0.0)


def test_wrong_module_arithmetic_rejected():
    alg = AlgebraSpec((2,))
    u = ModuleSpec(alg, 2).zero_vector()
    w = ModuleSpec(alg, 3).zero_vector()
    with pytest.raises(SpecMismatch):
        u + w


def test_projection_shape_checked():
    alg = AlgebraSpec((2, 1))
    p = np.eye(2, dtype=complex)
    # one (rank*nb) x (rank*nb) matrix per block, rank 1 here
    assert ModuleSpec(alg, 1, projection=(p, np.eye(1))).concrete_dim == alg.dim
    for bad in (
        (p,),  # a block missing
        (p, np.eye(1), np.eye(1)),  # a block too many
        (np.eye(4), np.eye(1)),  # rank 2 shape for rank 1
        (p.reshape(1, 1, 2, 2), np.eye(1).reshape(1, 1, 1, 1)),  # entry layout
    ):
        with pytest.raises(SpecMismatch, match="projection"):
            ModuleSpec(alg, 1, projection=bad)
